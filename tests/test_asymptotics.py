"""Limit quantities: input covariance, Gram fourth moments, hyper-parameter
law and coefficient-error expansions."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from firasym import (
    ExperimentConfig,
    FilterSpec,
    KernelSpec,
    NoiseSpec,
    NotPositiveDefiniteError,
    SecondOrderAR,
    asymptotic_report,
    autocovariance,
    build_dataset,
    c_gamma,
    derive_stream,
    eb_cost,
    eb_estimate,
    eta_star,
    generate_input,
    generate_t1,
    kernel_matrix,
    ridge_report,
    second_order_stats,
    sigma_matrix,
    hyper_parameter_law,
    ls_error_covariances,
    regularized_error_moments,
    run_experiment,
)
from firasym import asymptotics
from firasym import estimators as est
from firasym.montecarlo import _SYSTEM_TAG
from oracles import (
    REPORT_FIELDS,
    exact_rank1_contraction,
    exact_sigma,
    exact_sigma_inv,
    exact_v_als_2,
    expansion_terms,
    impulse_response,
    noise_free_dataset,
    series_c_gamma,
    series_sigma,
    unvec,
    vec,
)


def expand_c_gamma(table: np.ndarray) -> np.ndarray:
    """The n^2 x n^2 fourth-moment matrix of a c_gamma lag table, by the
    documented index map: entry (p, q) is table[|col_p - col_q|,
    |row_p - row_q|] under column-major stacking."""
    n = table.shape[0]
    col, row = np.divmod(np.arange(n * n), n)
    return table[np.abs(col[:, None] - col[None, :]), np.abs(row[:, None] - row[None, :])]


def random_theta(rng, n=20, norm=10.0) -> np.ndarray:
    theta = rng.standard_normal(n)
    return theta * (norm / np.linalg.norm(theta))


def to_mp(values) -> np.ndarray:
    """Exact mpmath copy of a float64 or long-double array: a long double
    splits exactly into two float64 parts."""
    flat = []
    for v in np.ravel(values):
        hi = float(v)
        flat.append(mpmath.mpf(hi) + mpmath.mpf(float(v - hi)))
    return np.array(flat, dtype=object).reshape(np.shape(values))


def rel_error(got, ref) -> float:
    """Largest absolute deviation over the largest reference magnitude."""
    err = max(abs(g - r) for g, r in zip(to_mp(got).ravel(), ref.ravel()))
    return float(err / max(abs(r) for r in ref.ravel()))


@functools.cache
def v_als_2_error(n: int, a: float, kurtosis_ratio: float) -> float:
    """Error of the report's v_als_2 against the 60-digit contraction."""
    filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(0.5)), kurtosis_ratio)
    got = ls_error_covariances(second_order_stats(filt, n), 1.0)[1]
    ref = exact_v_als_2(filt, n)
    with mpmath.workdps(60):
        return rel_error(got, ref)


@functools.cache
def v_b3_12_error(n: int, a: float, kurtosis_ratio: float) -> float:
    """Error of the ridge report's v_b3_12 against the exact contraction."""
    theta = random_theta(np.random.default_rng(n), n)
    filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(0.5)), kurtosis_ratio)
    report = ridge_report(theta, filt, NoiseSpec(1.0), 1000)
    ref = exact_rank1_contraction(filt, (n / float(theta @ theta)) * theta)
    with mpmath.workdps(60):
        return rel_error(report.v_b3_12, ref)


class TestSigmaMatrix:
    def test_white_noise_is_scaled_identity(self):
        filt = FilterSpec(SecondOrderAR(a=0.0, c_u=1.5))
        np.testing.assert_allclose(
            sigma_matrix(filt, 6), 1.5**2 * np.eye(6), rtol=0, atol=0
        )

    @pytest.mark.parametrize(
        "a,expected", [(0.05, 1.49), (0.7, 8.34e2), (0.95, 5.51e5)]
    )
    def test_condition_numbers_at_order_20(self, a, expected):
        stats = second_order_stats(FilterSpec(SecondOrderAR(a=a, c_u=1.0)), 20)
        assert stats.cond == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("a", [0.3, 0.7, 0.95])
    def test_closed_form_matches_series(self, a):
        filt = FilterSpec(SecondOrderAR(a=a, c_u=1.1 * math.sqrt(0.9)))
        series = series_sigma(impulse_response(filt, 1e-12), 12)
        np.testing.assert_allclose(sigma_matrix(filt, 12), series, rtol=1e-8)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.7, 0.9, 0.95, 0.99, 0.999, 0.99999])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 20, 40])
    def test_inverse_matches_60_digits(self, n, a):
        # L' D L / c_u^2 from the innovations factor: one builder for every
        # n, whose entries are sums of terms of one sign
        filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(0.5)))
        ref = exact_sigma_inv(filt, n)
        with mpmath.workdps(60):
            assert rel_error(second_order_stats(filt, n).sigma_inv, ref) <= 1e-14

    @pytest.mark.parametrize("a", [0.999, 0.99999, 0.999999])
    def test_near_unit_pole_matches_60_digits(self, a):
        # 1 - a^2 is formed as (1 - a)(1 + a): subtracting the rounded a^2
        # from 1 would lose eps / (1 - a^2) of every R_u(t) and of cond
        n = 8
        filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(0.5)))
        sigma = exact_sigma(filt, n)
        with mpmath.workdps(60):
            eig = mpmath.eigsy(sigma, eigvals_only=True)
            cond = float(max(eig) / min(eig))
        for t in range(n):
            r = float(sigma[0, t])
            assert autocovariance(filt, t) == pytest.approx(r, rel=1e-14), t
        assert second_order_stats(filt, n).cond == pytest.approx(cond, rel=1e-14)

    def test_scale_covariance_of_condition_number(self):
        base = FilterSpec(SecondOrderAR(a=0.6, c_u=1.0))
        scaled = FilterSpec(SecondOrderAR(a=0.6, c_u=3.0))
        np.testing.assert_allclose(
            sigma_matrix(scaled, 10), 9.0 * sigma_matrix(base, 10), rtol=1e-12
        )
        cond = second_order_stats(base, 10).cond
        assert second_order_stats(scaled, 10).cond == pytest.approx(cond, rel=1e-12)


class TestGramFourthMoments:
    def test_white_noise_pattern(self):
        n = 4
        pos = np.arange(n * n)
        col, row = pos // n, pos % n
        k = np.abs(col[:, None] - col[None, :])
        l = np.abs(row[:, None] - row[None, :])
        # all same-lag off-origin entries are 1, the origin carries the
        # kurtosis ratio less one (2 for Gaussian innovations), rest vanish
        for kurtosis in (1.0, 3.0, 5.0):
            filt = FilterSpec(SecondOrderAR(a=0.0, c_u=1.0), kurtosis_ratio=kurtosis)
            mat = expand_c_gamma(c_gamma(filt, n))
            expected = np.where(k == l, np.where(k == 0, kurtosis - 1.0, 1.0), 0.0)
            np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-15)

    def test_exactly_symmetric(self):
        mat = c_gamma(FilterSpec(SecondOrderAR(a=0.4, c_u=1.2)), 5)
        np.testing.assert_array_equal(mat, mat.T)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_closed_form_matches_series(self, a):
        filt = FilterSpec(SecondOrderAR(a=a, c_u=0.8 * math.sqrt(1.3)))
        series = series_c_gamma(impulse_response(filt, 1e-12), 3)
        np.testing.assert_allclose(c_gamma(filt, 3), series, rtol=1e-8)

    @pytest.mark.parametrize("kurtosis_ratio", [1.0, 9.0])
    def test_excess_kurtosis_matches_series(self, kurtosis_ratio):
        filt = FilterSpec(SecondOrderAR(a=0.6, c_u=0.8), kurtosis_ratio=kurtosis_ratio)
        series = series_c_gamma(impulse_response(filt, 1e-12), 4, kurtosis_ratio)
        np.testing.assert_allclose(c_gamma(filt, 4), series, rtol=1e-8)

    def test_non_gaussian_innovations_shift_first_term(self):
        filt3 = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0), kurtosis_ratio=3.0)
        filt5 = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0), kurtosis_ratio=5.0)
        r0 = sigma_matrix(filt3, 1)[0, 0]
        diff = c_gamma(filt5, 2) - c_gamma(filt3, 2)
        assert diff[0, 0] == pytest.approx(2.0 * r0 * r0, rel=1e-12)


class TestGramContraction:
    """The two blocks that contract the fourth-moment matrix, v_als_2 and
    v_b3_12, against its lag table and against 60-digit references."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["f64", "ld"])
    @pytest.mark.parametrize("a", [0.0, 0.3])
    @pytest.mark.parametrize("n", [3, 10, 20])
    def test_matches_dense_product(self, n, a, dtype):
        # v_als_2 = S unvec(C vec S) S at unit noise variance, with C
        # expanded from its lag table and the product taken in ``dtype``
        filt = FilterSpec(SecondOrderAR(a=a, c_u=1.1 * math.sqrt(0.9)))
        stats = second_order_stats(filt, n)
        dense = expand_c_gamma(stats.c_gamma).astype(dtype)
        s_inv = stats.sigma_inv.astype(dtype)
        ref = s_inv @ unvec(dense @ vec(s_inv)) @ s_inv
        got = ls_error_covariances(stats, 1.0)[1]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("a", [0.7, 0.95])
    def test_no_less_accurate_than_dense_product(self, a):
        # v_als_2 against the 60-digit contraction of the exact Sigma^-1 and
        # table, next to the dense product of the float64 ones; at strong
        # poles the float64 table is itself off in its last digits
        n = 10
        filt = FilterSpec(SecondOrderAR(a=a, c_u=1.0))
        stats = second_order_stats(filt, n)
        table, s_inv = stats.c_gamma, stats.sigma_inv
        dense = expand_c_gamma(table)
        ref = exact_v_als_2(filt, n)
        dense_v2 = asymptotics._sym(s_inv @ unvec(dense @ vec(s_inv)) @ s_inv)
        closed_v2 = ls_error_covariances(stats, 1.0)[1]
        with mpmath.workdps(60):
            assert rel_error(closed_v2, ref) <= rel_error(dense_v2, ref)

        # v_b3_12 at P(eta*) = I against the 60-digit contraction of the
        # exact Sigma^-1 and x = Sigma^-1 theta, next to the dense product of
        # the float64 Sigma^-1 in long double
        rng = np.random.default_rng(0)
        for _ in range(4):
            theta = rng.standard_normal(n)
            ref = exact_rank1_contraction(filt, theta)
            lag_sums = asymptotics._v_b3_12(stats, theta, 1.0)
            s_ld = s_inv.astype(np.longdouble)
            x = s_ld @ theta.astype(np.longdouble)
            mid = unvec(dense.astype(np.longdouble) @ vec(np.outer(x, x)))
            dense_r1 = asymptotics._sym((s_ld @ mid @ s_ld).astype(float))
            with mpmath.workdps(60):
                assert rel_error(lag_sums, ref) <= rel_error(dense_r1, ref)

    @pytest.mark.parametrize("kurtosis_ratio", [3.0, 5.0])
    @pytest.mark.parametrize(
        "n,a,bound",
        [
            (20, 0.3, 1e-14),
            (20, 0.7, 1e-13),
            (20, 0.9, 1e-11),
            (20, 0.95, 1e-10),
            (20, 0.99, 1e-8),
            (1, 0.7, 1e-13),
            (1, 0.99, 1e-9),
            (2, 0.7, 1e-13),
            (2, 0.99, 1e-9),
            (3, 0.7, 1e-13),
            (3, 0.99, 1e-9),
        ],
    )
    def test_v_als_2_matches_60_digits(self, n, a, bound, kurtosis_ratio):
        assert v_als_2_error(n, a, kurtosis_ratio) <= bound

    @pytest.mark.parametrize("kurtosis_ratio", [3.0, 5.0])
    @pytest.mark.parametrize(
        "n,a,bound",
        [
            (20, 0.3, 1e-11),
            (20, 0.7, 1e-11),
            (20, 0.9, 1e-11),
            (20, 0.95, 1e-9),
            (20, 0.99, 1e-8),
            (1, 0.7, 1e-11),
            (1, 0.99, 1e-8),
            (2, 0.7, 1e-11),
            (2, 0.99, 1e-8),
            (3, 0.7, 1e-11),
            (3, 0.99, 1e-8),
        ],
    )
    def test_rank1_block_matches_60_digits(self, n, a, bound, kurtosis_ratio):
        assert v_b3_12_error(n, a, kurtosis_ratio) <= bound

    # (v_als_2, v_b3_12) bounds by (n, a), 4 to 30 times the largest error
    # measured for kappa in {3, 5}; the looser bounds of the two tests above
    # are those a factored float64 Sigma^-1 needed
    EXACT_BOUNDS = {
        (20, 0.3): (1e-15, 1e-14),
        (20, 0.7): (1e-15, 1e-14),
        (20, 0.9): (1e-14, 1e-14),
        (20, 0.95): (1e-14, 1e-14),
        (20, 0.99): (1e-12, 1e-14),
        (1, 0.7): (1e-14, 1e-14),
        (1, 0.99): (1e-13, 1e-13),
        (2, 0.7): (1e-14, 1e-14),
        (2, 0.99): (1e-11, 1e-13),
        (3, 0.7): (1e-14, 1e-14),
        (3, 0.99): (1e-11, 1e-13),
    }

    @pytest.mark.parametrize("kurtosis_ratio", [3.0, 5.0])
    @pytest.mark.parametrize("n,a", list(EXACT_BOUNDS))
    def test_blocks_match_60_digits_to_rounding(self, n, a, kurtosis_ratio):
        v_als_2_bound, v_b3_12_bound = self.EXACT_BOUNDS[n, a]
        assert v_als_2_error(n, a, kurtosis_ratio) <= v_als_2_bound
        assert v_b3_12_error(n, a, kurtosis_ratio) <= v_b3_12_bound

    def test_report_memory_stays_below_the_dense_matrix(self):
        # the dense n^2 x n^2 float64 matrix alone is 800 MB at n = 100
        theta = random_theta(np.random.default_rng(4), 100)
        filt = FilterSpec(SecondOrderAR(a=0.7, c_u=1.0))
        tracemalloc.start()
        try:
            ridge_report(theta, filt, NoiseSpec(1.0), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


class TestVecOperator:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 7))
        np.testing.assert_array_equal(unvec(vec(m)), m)

    def test_column_major_order(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])


class TestEtaStar:
    def test_ridge_analytic(self):
        theta = np.array([3.0, -4.0])  # norm^2 = 25
        assert eta_star(KernelSpec.ridge(), theta)[0] == pytest.approx(12.5, rel=1e-15)

    def test_ridge_scaling(self):
        rng = np.random.default_rng(1)
        theta = random_theta(rng, 8)
        base = eta_star(KernelSpec.ridge(), theta)[0]
        assert eta_star(KernelSpec.ridge(), 3.0 * theta)[0] == pytest.approx(
            9.0 * base, rel=1e-12
        )

    def test_first_order_optimality_interior(self):
        theta = np.exp(-0.35 * np.arange(1, 13)) * 5.0
        for spec in (KernelSpec.tc(), KernelSpec.ss()):
            star = eta_star(spec, theta)
            _, grad = eb_cost(star, theta, np.eye(theta.size), 0.0, spec)
            assert np.linalg.norm(grad) <= 1e-6

    def test_tc_matches_grid_oracle(self):
        theta = np.exp(-0.3 * np.arange(1, 11)) * 4.0
        spec = KernelSpec.tc()
        star = eta_star(spec, theta)
        eye = np.eye(theta.size)
        c_grid = np.logspace(-3, 3, 100)
        al_grid = 1.0 / (1.0 + np.exp(-np.linspace(-8, 8, 100)))
        best, arg = np.inf, None
        for c in c_grid:
            for al in al_grid:
                value, _ = eb_cost(np.array([c, al]), theta, eye, 0.0, spec)
                if value < best:
                    best, arg = value, (c, al)
        found, _ = eb_cost(star, theta, eye, 0.0, spec)
        assert found <= best + 1e-9
        # within one grid cell of the discrete optimum
        assert abs(math.log(star[0] / arg[0])) <= math.log(c_grid[1] / c_grid[0]) * 1.5

    def test_floating_point_errors_stay_inside_the_search(self):
        # the SS polish probes decay rates where P vanishes numerically and
        # the cost is NaN; such points fail quietly instead of raising
        theta = 5.0 * np.exp(-0.3 * np.arange(1, 21))
        spec = KernelSpec.ss()
        expected = eta_star(spec, theta)
        with np.errstate(all="raise", under="ignore"):
            np.testing.assert_array_equal(eta_star(spec, theta), expected)


class TestHyperParameterLaw:
    def test_ridge_symbolic_blocks(self):
        rng = np.random.default_rng(2)
        theta = random_theta(rng, 10)
        s = float(theta @ theta)
        n = theta.size
        sigma = sigma_matrix(FilterSpec(SecondOrderAR(a=0.4, c_u=1.0)), n)
        out = hyper_parameter_law(
            KernelSpec.ridge(), theta, np.array([s / n]), np.linalg.inv(sigma), 0.7
        )
        assert out.a_b[0, 0] == pytest.approx(n**3 / s**2, rel=1e-12)
        np.testing.assert_allclose(out.b_b[0], -(n**2 / s**2) * theta, rtol=1e-12)
        expected_v = 4.0 * 0.7 / n**2 * float(theta @ np.linalg.solve(sigma, theta))
        assert out.v_b_h[0, 0] == pytest.approx(expected_v, rel=1e-10)

    @pytest.mark.parametrize(
        "spec,theta_kind",
        [
            (KernelSpec.ridge(), "random"),
            (KernelSpec.tc(), "decay"),
            (KernelSpec.ss(), "decay"),
            (KernelSpec.dc(), "modulated"),
        ],
        ids=lambda v: getattr(v, "family", v),
    )
    def test_curvature_matches_fd_hessian(self, spec, theta_kind):
        rng = np.random.default_rng(3)
        if theta_kind == "random":
            theta = random_theta(rng, 10)
        elif theta_kind == "modulated":
            # imperfect neighbor correlation keeps the correlation
            # coordinate of the optimum strictly inside the box
            k = np.arange(1, 11)
            theta = 5.0 * np.exp(-0.25 * k) * np.cos(0.9 * k + 0.3)
        else:
            theta = 5.0 * np.exp(-0.3 * np.arange(1, 11))
        star = eta_star(spec, theta)
        sigma = sigma_matrix(FilterSpec(SecondOrderAR(a=0.3, c_u=1.0)), theta.size)
        out = hyper_parameter_law(spec, theta, star, np.linalg.inv(sigma), 1.0)
        p = spec.p
        hess = np.empty((p, p))
        steps = [
            1e-4
            * min(max(abs(star[k]), 1e-6), spec.omega[k, 1] - star[k], star[k] - spec.omega[k, 0])
            for k in range(p)
        ]
        for k in range(p):
            for m in range(p):
                ekk, emm = np.zeros(p), np.zeros(p)
                ekk[k], emm[m] = steps[k], steps[m]
                f = lambda e: eb_cost(e, theta, np.eye(theta.size), 0.0, spec)[0]
                hess[k, m] = (
                    f(star + ekk + emm)
                    - f(star + ekk - emm)
                    - f(star - ekk + emm)
                    + f(star - ekk - emm)
                ) / (4.0 * steps[k] * steps[m])
        np.testing.assert_allclose(out.a_b, hess, rtol=1e-5, atol=1e-7 * np.abs(hess).max())

    @pytest.mark.parametrize("spec", [KernelSpec.tc(), KernelSpec.dc()], ids=["tc", "dc"])
    def test_sensitivity_matches_fd_derivative(self, spec):
        # b_b[k] = theta0' d(P^-1)/d(eta_k), by central differences of P^-1 theta0
        k_idx = np.arange(1, 11)
        theta = 5.0 * np.exp(-0.25 * k_idx) * np.cos(0.9 * k_idx + 0.3)
        star = eta_star(spec, theta)
        sigma = sigma_matrix(FilterSpec(SecondOrderAR(a=0.3, c_u=1.0)), theta.size)
        out = hyper_parameter_law(spec, theta, star, np.linalg.inv(sigma), 1.0)
        solve = lambda e: np.linalg.solve(kernel_matrix(spec, e, theta.size)[0], theta)
        lo, hi = spec.omega.T
        for k in range(spec.p):
            step = np.zeros(spec.p)
            step[k] = 1e-5 * min(abs(star[k]), hi[k] - star[k], star[k] - lo[k])
            fd = (solve(star + step) - solve(star - step)) / (2.0 * step[k])
            np.testing.assert_allclose(
                out.b_b[k], fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max()
            )

    def test_law_at_an_all_active_corner_is_null(self):
        # the box lies below the TC optimum (2.7, 0.64) in both coordinates,
        # so eta_star is its upper corner and no coordinate is free
        theta = 5.0 * np.exp(-0.3 * np.arange(1, 11))
        spec = KernelSpec.tc([[1e-3, 0.1], [0.1, 0.5]])
        star = eta_star(spec, theta)
        np.testing.assert_array_equal(star, spec.omega[:, 1])
        out = hyper_parameter_law(spec, theta, star, np.eye(10), 1.0)
        assert np.linalg.eigvalsh(out.a_b)[0] > 0.0
        assert (out.a_inv == 0.0).all() and (out.v_b_h == 0.0).all()

    def test_indefinite_free_block_is_not_positive_definite(self):
        # with alpha fixed the criterion is A / c + n log c + const, whose
        # second derivative n^3 / A^2 (2/1000 - 1/100) at ten times the
        # optimal scale c = A / n is negative; no coordinate is on a face
        theta = 5.0 * np.exp(-0.3 * np.arange(1, 11))
        spec = KernelSpec.tc()
        away = eta_star(spec, theta) * np.array([10.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError, match="free block"):
            hyper_parameter_law(spec, theta, away, np.eye(10), 1.0)

    @pytest.mark.parametrize("family", ["tc", "dc", "ss"])
    def test_one_coefficient_is_refused(self, family):
        # one coefficient cannot identify two or three hyper-parameters; SS
        # once returned a finite v_b_h here, TC and DC a NotPositiveDefiniteError
        filt = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0))
        with pytest.raises(ValueError, match=">= 2 coefficients"):
            asymptotic_report(KernelSpec(family), [2.0], filt, NoiseSpec(1.0), 100)

    def test_one_coefficient_ridge_law_is_computed(self):
        theta = np.array([2.0])
        star = eta_star(KernelSpec.ridge(), theta)
        out = hyper_parameter_law(KernelSpec.ridge(), theta, star, np.eye(1), 1.0)
        assert out.a_b[0, 0] == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert out.v_b_h[0, 0] == pytest.approx(16.0, rel=1e-15)


class TestLsErrorCovariances:
    def test_white_noise_first_order(self):
        stats = second_order_stats(FilterSpec(SecondOrderAR(a=0.0, c_u=1.0)), 6)
        v1, _ = ls_error_covariances(stats, 0.9)
        np.testing.assert_allclose(v1, 0.9 * np.eye(6), rtol=1e-14)

    def test_allocates_no_dense_fourth_moment_object(self):
        # the lag-table contraction peaked at 23 MB here: an n^3 array
        stats = second_order_stats(FilterSpec(SecondOrderAR(a=0.7, c_u=1.0)), 100)
        tracemalloc.start()
        try:
            ls_error_covariances(stats, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_second_order_block_psd(self):
        stats = second_order_stats(FilterSpec(SecondOrderAR(a=0.7, c_u=0.5)), 10)
        _, v2 = ls_error_covariances(stats, 1.0)
        np.testing.assert_allclose(v2, v2.T, rtol=0, atol=1e-12 * np.abs(v2).max())
        assert np.linalg.eigvalsh(v2)[0] >= -1e-10 * np.linalg.norm(v2)


class TestRegularizedErrorMoments:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.theta = random_theta(rng, 12)
        self.noise = NoiseSpec(0.8)
        self.filt = FilterSpec(SecondOrderAR(a=0.5, c_u=0.9))
        self.stats = second_order_stats(self.filt, 12)
        self.spec = KernelSpec.ridge()
        self.star = eta_star(self.spec, self.theta)
        self.t1 = hyper_parameter_law(
            self.spec, self.theta, self.star, self.stats.sigma_inv, self.noise.sigma2
        )
        self.t3 = regularized_error_moments(
            self.theta, self.t1, self.stats, self.noise, 1000
        )

    def test_ridge_mean_term(self):
        n, s = self.theta.size, float(self.theta @ self.theta)
        expected = (
            -(n * self.noise.sigma2 / s)
            / math.sqrt(1000)
            * np.linalg.solve(sigma_matrix(self.filt, 12), self.theta)
        )
        np.testing.assert_allclose(self.t3.e_b_ar, expected, rtol=1e-10)

    def test_ridge_second_order_covariance_block(self):
        n, s = self.theta.size, float(self.theta @ self.theta)
        s_inv = np.linalg.inv(sigma_matrix(self.filt, 12))
        st = s_inv @ self.theta
        sigma2 = self.noise.sigma2
        expected = (2 * n * sigma2**2 / s**2) * np.outer(st, st) - (
            n * sigma2**2 / s
        ) * s_inv @ s_inv
        np.testing.assert_allclose(self.t3.v_b3_2, expected, rtol=1e-10)

    def test_sign_conditions(self):
        for name in ("v_b3_11", "v_b3_12", "v_b3_13", "v_b_ar"):
            mat = getattr(self.t3, name)
            assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * np.linalg.norm(mat), name
        # the rank-1 Gram block at strong poles, for two input kurtoses
        theta = random_theta(np.random.default_rng(8), 20)
        for a, kurtosis_ratio in itertools.product([0.95, 0.99], [3.0, 5.0]):
            filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(0.5)), kurtosis_ratio)
            mat = ridge_report(theta, filt, self.noise, 1000).v_b3_12
            bound = -1e-10 * np.linalg.norm(mat)
            assert np.linalg.eigvalsh(mat)[0] >= bound, (a, kurtosis_ratio)

    def test_joint_covariance_psd_and_schur_structure(self):
        # the three expansion terms share one joint covariance; its diagonal
        # blocks are PSD and the cross block satisfies exactly
        #   v_b3_1 - v_b3_2' v1^-1 v_b3_2 = v_b3_12 + v_b3_13  (>= 0)
        n = self.theta.size
        v1, v2 = ls_error_covariances(self.stats, self.noise.sigma2)
        v_b3_1 = self.t3.v_b3_11 + self.t3.v_b3_12 + self.t3.v_b3_13
        joint = np.zeros((3 * n, 3 * n))
        joint[:n, :n] = v1
        joint[n : 2 * n, n : 2 * n] = v2
        joint[2 * n :, 2 * n :] = v_b3_1
        joint[:n, 2 * n :] = self.t3.v_b3_2
        joint[2 * n :, :n] = self.t3.v_b3_2.T
        assert np.linalg.eigvalsh(joint)[0] >= -1e-10 * np.linalg.norm(joint)
        schur = v_b3_1 - self.t3.v_b3_2.T @ np.linalg.solve(v1, self.t3.v_b3_2)
        np.testing.assert_allclose(
            schur,
            self.t3.v_b3_12 + self.t3.v_b3_13,
            rtol=0,
            atol=1e-10 * np.linalg.norm(v_b3_1),
        )

    def test_cross_block_is_indefinite_for_white_noise_ridge(self):
        # the cross-covariance block is NOT sign definite: for white-noise
        # inputs it equals (2n s2^2/s^2) st st' - (n s2^2/s) Sigma^-2 whose
        # eigenvalue along theta is +n s2^2/s
        theta = self.theta
        n, s = theta.size, float(theta @ theta)
        filt = FilterSpec(SecondOrderAR(a=0.0, c_u=1.0))
        stats = second_order_stats(filt, n)
        t1 = hyper_parameter_law(self.spec, theta, self.star, stats.sigma_inv, 1.0)
        t3 = regularized_error_moments(theta, t1, stats, NoiseSpec(1.0), 1000)
        eigs = np.linalg.eigvalsh(t3.v_b3_2)
        assert eigs[-1] == pytest.approx(n / s, rel=1e-8)
        assert eigs[0] == pytest.approx(-n / s, rel=1e-8)

    def test_order_one_mse_below_order_two(self):
        assert self.t3.amse[0] <= self.t3.amse[1]

    def test_carries_the_ls_error_covariances(self):
        v1, v2 = ls_error_covariances(self.stats, self.noise.sigma2)
        np.testing.assert_array_equal(self.t3.v_als_1, v1)
        np.testing.assert_array_equal(self.t3.v_als_2, v2)
        np.testing.assert_array_equal(self.t3.v_als, v1 + v2 / 1000)

    def test_is_the_generic_report(self):
        report = asymptotic_report(self.spec, self.theta, self.filt, self.noise, 1000)
        assert self.t3.to_json_dict() == report.to_json_dict()

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_record_length_below_one_is_refused(self, n_samples):
        # every report divides by the record length or by its square root
        args = (self.theta, self.filt, self.noise)
        reports = [
            lambda: asymptotic_report(self.spec, *args, n_samples),
            lambda: ridge_report(*args, n_samples),
            lambda: dataclasses.replace(self.t3, n_samples=n_samples),
        ]
        for report in reports:
            with pytest.raises(ValueError, match=f"got {n_samples}"):
                report()

    @pytest.mark.parametrize("a", [0.7, 0.99])
    @pytest.mark.parametrize(
        "spec", [KernelSpec.ridge(), KernelSpec.tc()], ids=["ridge", "tc"]
    )
    def test_replace_is_the_report_at_another_length(self, spec, a):
        filt = FilterSpec(SecondOrderAR(a=a, c_u=0.6))
        noise = NoiseSpec(2.5, fourth_moment=30.0)  # not 3 sigma2^2
        base = asymptotic_report(spec, self.theta, filt, noise, 1000)
        for n_samples in (10, 1000, 100000):
            moved = dataclasses.replace(base, n_samples=n_samples)
            fresh = asymptotic_report(spec, self.theta, filt, noise, n_samples)
            assert moved.to_json_dict() == fresh.to_json_dict()


class TestRidgeEquivalence:
    @pytest.mark.parametrize(
        "a,n",
        [
            pytest.param(0.0, 20, id="0.0"),
            pytest.param(0.5, 20, id="0.5"),
            pytest.param(0.9, 20, id="0.9"),
            # the small-n shapes of Sigma^-1 at a strong pole
            *(pytest.param(0.99, n, id=f"0.99-n{n}") for n in (1, 2, 3, 5)),
        ],
    )
    def test_generic_pipeline_matches_closed_forms(self, a, n):
        rng = np.random.default_rng(5)
        noise = NoiseSpec(1.0)
        filt = FilterSpec(SecondOrderAR(a=a, c_u=0.7))
        for _ in range(3):
            theta = random_theta(rng, n)
            gen = asymptotic_report(KernelSpec.ridge(), theta, filt, noise, 1000)
            closed = ridge_report(theta, filt, noise, 1000)
            for field in REPORT_FIELDS:
                x, y = getattr(gen, field), getattr(closed, field)
                scale = max(np.max(np.abs(y)), 1e-300)
                assert np.max(np.abs(x - y)) <= 1e-10 * scale, field

    @pytest.mark.parametrize("n_samples", [1000, 100000])
    def test_strong_pole_traces_agree(self, n_samples):
        # the a = 0.99 point of `firasym sweep --seed 1`: the rank-1 Gram
        # contraction of v_b3_12 cancels most of its digits there, and the
        # two report paths must still agree on what sweep writes
        theta = generate_t1(20, derive_stream(1, _SYSTEM_TAG, 0)).theta0
        unit = FilterSpec(SecondOrderAR(a=0.99, c_u=1.0))
        peak = np.linalg.eigvalsh(sigma_matrix(unit, 20))[-1]
        filt = FilterSpec(SecondOrderAR(a=0.99, c_u=math.sqrt(1.0 / peak)))
        noise = NoiseSpec(1.0)
        gen = asymptotic_report(KernelSpec.ridge(), theta, filt, noise, n_samples)
        closed = ridge_report(theta, filt, noise, n_samples)
        x, y = gen.to_json_dict(), closed.to_json_dict()
        for key in ("trace_v_als", "trace_v_b_ar"):
            assert x[key] == pytest.approx(y[key], rel=1e-12), key
        assert x["amse"] == pytest.approx(y["amse"], rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.7, 0.99])
    @pytest.mark.parametrize("shared_stats", [False, True])
    def test_many_record_lengths_match_single_reports(self, a, shared_stats):
        # the blocks shared between record lengths must not move a bit
        theta = random_theta(np.random.default_rng(7), 12)
        filt = FilterSpec(SecondOrderAR(a=a, c_u=0.6))
        noise = NoiseSpec(2.5, fourth_moment=30.0)  # not 3 sigma2^2
        stats = second_order_stats(filt, theta.size) if shared_stats else None
        base = ridge_report(theta, filt, noise, 1000, stats)
        for n_samples in [1000, 10, 1000]:
            report = dataclasses.replace(base, n_samples=n_samples)
            assert report.n_samples == n_samples
            single = ridge_report(theta, filt, noise, n_samples)
            assert report.to_json_dict() == single.to_json_dict()

    def test_report_serialization_roundtrip(self):
        theta = random_theta(np.random.default_rng(6), 8)
        report = ridge_report(
            theta, FilterSpec(SecondOrderAR(a=0.3, c_u=1.0)), NoiseSpec(1.0), 500
        )
        doc = report.to_json_dict()
        # the derived record-length terms are written, the bias block is not
        summaries = {"trace_v_b_h", "trace_v_als", "trace_v_b_ar", "e_b_ar_sq_norm"}
        keys = set(REPORT_FIELDS) | {"amse", "n_samples", "cond_sigma"} | summaries
        assert set(doc) == keys and "vartheta_b2" not in doc
        assert doc["n_samples"] == 500
        np.testing.assert_allclose(np.array(doc["v_b_ar"]), report.v_b_ar)
        assert doc["trace_v_b_h"] == pytest.approx(float(np.trace(report.v_b_h)))


class TestExpansionIdentities:
    def run_record(self, seed, spec, a=0.6, noise_free=False):
        n, n_samples = 10, 400
        system = generate_t1(n, derive_stream(seed, 1, 0))
        filt = FilterSpec(SecondOrderAR(a=a, c_u=0.8))
        rng = derive_stream(seed, 2, 0)
        u = generate_input(filt, n, n_samples, rng)
        noise = NoiseSpec(1.0)
        if noise_free:
            data = noise_free_dataset(system, u)
        else:
            data = build_dataset(system, u, noise, rng)
        fit = eb_estimate(data, spec)
        sigma_inv = second_order_stats(filt, n).sigma_inv
        star = eta_star(spec, system.theta0)
        p_inv = hyper_parameter_law(spec, system.theta0, star, sigma_inv, noise.sigma2).p_inv
        terms = expansion_terms(data, fit, spec, sigma_inv, p_inv, noise.sigma2)
        return system, fit, terms

    @pytest.mark.parametrize(
        "spec", [KernelSpec.ridge(), KernelSpec.tc()], ids=lambda s: s.family
    )
    def test_identities_hold(self, spec):
        for seed in range(5):
            system, fit, terms = self.run_record(seed, spec)
            scale = np.linalg.norm(system.theta0) + np.linalg.norm(fit.theta_ls)
            assert terms.residual_ls <= 1e-8 * scale
            assert terms.residual_rls <= 1e-8 * scale

    def test_noise_free_record_has_null_noise_terms(self):
        _, _, terms = self.run_record(11, KernelSpec.ridge(), noise_free=True)
        np.testing.assert_array_equal(terms.theta_als_1, np.zeros(10))
        np.testing.assert_array_equal(terms.theta_als_2, np.zeros(10))

    def test_third_order_term_mean_shrinks_with_record_length(self):
        # the third-order term converges to a zero-mean limit, so its
        # finite-sample mean bias must fall as records lengthen
        n, records = 20, 800
        system = generate_t1(n, derive_stream(31, 1, 0))
        filt = FilterSpec(SecondOrderAR(a=0.05, c_u=1.0))
        spec = KernelSpec.ridge()
        noise = NoiseSpec(1.0)
        sigma_inv = second_order_stats(filt, n).sigma_inv
        star = eta_star(spec, system.theta0)
        p_inv = hyper_parameter_law(spec, system.theta0, star, sigma_inv, 1.0).p_inv
        norms = {}
        for n_samples in (1000, 4000):
            acc = np.zeros(n)
            for r in range(records):
                rng = derive_stream(31, 2, n_samples, r)
                u = generate_input(filt, n, n_samples, rng)
                data = build_dataset(system, u, noise, rng)
                fit = eb_estimate(data, spec)
                acc += expansion_terms(data, fit, spec, sigma_inv, p_inv, 1.0).theta_b3
            norms[n_samples] = np.linalg.norm(acc / records)
        assert norms[4000] <= norms[1000] / 1.3


class TestConditionBounds:
    def test_hyper_parameter_variance_grows_with_conditioning(self):
        # shrink the smallest eigenvalue with fixed eigenvectors: the trace
        # of the limiting hyper-parameter covariance must strictly increase
        rng = np.random.default_rng(9)
        theta = random_theta(rng, 8)
        base = sigma_matrix(FilterSpec(SecondOrderAR(a=0.5, c_u=1.0)), 8)
        values, vectors = np.linalg.eigh(base)
        star = eta_star(KernelSpec.ridge(), theta)
        traces = []
        for shrink in [1.0, 0.5, 0.25, 0.1, 0.04]:
            lam = values.copy()
            lam[0] *= shrink  # eigh sorts ascending; index 0 is the smallest
            sigma = vectors @ np.diag(lam) @ vectors.T
            out = hyper_parameter_law(
                KernelSpec.ridge(), theta, star, np.linalg.inv(sigma), 1.0
            )
            traces.append(float(np.trace(out.v_b_h)))
        assert all(t2 > t1 for t1, t2 in zip(traces, traces[1:]))


class TestFactorOnce:
    """P(eta*) and the free block of a_b are each factored once per report;
    Sigma^-1 has a closed form, so Sigma is never factored."""

    theta = 5.0 * np.exp(-0.3 * np.arange(1, 21))
    filt = FilterSpec(SecondOrderAR(a=0.7, c_u=math.sqrt(0.5)))
    noise = NoiseSpec(1.0)

    def count_inverses(self, monkeypatch, build):
        """Shapes of the matrices that ``build`` factors, in order of size."""
        shapes = []
        original = est._chol_inverse

        def counted(mat):
            shapes.append(mat.shape)
            return original(mat)

        # the law factors P(eta*) itself and the free block through _pd_inverse
        monkeypatch.setattr(asymptotics, "_chol_inverse", counted)
        monkeypatch.setattr(est, "_chol_inverse", counted)
        build()
        return sorted(shapes)

    def test_generic_report_inverts_each_matrix_once(self, monkeypatch):
        shapes = self.count_inverses(
            monkeypatch,
            lambda: asymptotic_report(
                KernelSpec.tc(), self.theta, self.filt, self.noise, 1000
            ),
        )
        assert shapes == [(2, 2), (20, 20)]

    def test_law_evaluates_no_search_cost(self, monkeypatch):
        # value, gradient and a_b come from the one factor of P(eta*)
        spec = KernelSpec.tc()
        star = eta_star(spec, self.theta)
        calls = []
        monkeypatch.setattr(est, "_reduced_cost_grad", lambda *args: calls.append(args))
        s_inv = second_order_stats(self.filt, 20).sigma_inv
        shapes = self.count_inverses(
            monkeypatch, lambda: hyper_parameter_law(spec, self.theta, star, s_inv, 1.0)
        )
        assert shapes == [(2, 2), (20, 20)] and calls == []

    def test_ridge_report_inverts_nothing(self, monkeypatch):
        shapes = self.count_inverses(
            monkeypatch, lambda: ridge_report(self.theta, self.filt, self.noise, 1000)
        )
        assert shapes == []

    def test_rho_face_law_inverts_the_free_block_once(self, monkeypatch):
        # DC puts eta_star on the rho face here, where a_b is indefinite and
        # the criterion falls outward: the law inverts the (c, alpha) block
        spec = KernelSpec.dc()
        reports = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shapes = self.count_inverses(
                monkeypatch,
                lambda: reports.append(
                    asymptotic_report(spec, self.theta, self.filt, self.noise, 1000)
                ),
            )
        assert shapes == [(2, 2), (20, 20)]
        report = reports[0]
        assert report.eta_star[2] == spec.omega[2, 1]
        assert np.linalg.eigvalsh(report.a_b)[0] < 0.0
        assert (report.v_b_h[2] == 0.0).all() and (report.v_b_h[:, 2] == 0.0).all()
        # the free block has condition number 2.5e7, so the reference is
        # taken in 40 digits from the same float64 inputs
        s_inv = second_order_stats(self.filt, 20).sigma_inv
        with mpmath.workdps(40):
            free = (report.a_b[:2, :2], report.b_b[:2], s_inv)
            a_ff, b_f, s_mp = (mpmath.matrix(m.tolist()) for m in free)
            half = a_ff**-1 * b_f
            expected = np.array((4 * half * s_mp * half.T).tolist(), dtype=float)
        expected *= self.noise.sigma2
        np.testing.assert_allclose(report.v_b_h[:2, :2], expected, rtol=1e-13, atol=0.0)


class TestFaceLaw:
    """DC puts eta_star on the decay face of the T1 truth s = 1 at a = 0.7,
    where the criterion falls outward: every fit stays on the face, and the
    free coordinates follow the law of the free block."""

    def test_simulated_variances_match_the_free_block_law(self):
        n, n_samples = 20, 1000
        theta0 = generate_t1(n, derive_stream(0, _SYSTEM_TAG, 1)).theta0
        spec, noise = KernelSpec.dc(), NoiseSpec(1.0)
        config = ExperimentConfig(
            kernel=spec,
            system_type="explicit",
            n=n,
            n_samples=n_samples,
            filters=[(0.7, 0.5)],
            noise=noise,
            records=400,
            systems=1,
            master_seed=0,
            theta0=theta0,
        )
        out = run_experiment(config)
        assert out.failures == [] and all(r.at_boundary for r in out.records)
        filt = FilterSpec(SecondOrderAR(a=0.7, c_u=math.sqrt(0.5)))
        report = asymptotic_report(spec, theta0, filt, noise, n_samples)
        eta = np.array([r.eta_hat for r in out.records])
        scaled = math.sqrt(n_samples) * (eta - report.eta_star)
        variances = scaled.var(axis=0, ddof=1)
        assert variances[1] == 0.0 and report.v_b_h[1, 1] == 0.0
        rng = np.random.default_rng(0)
        draws = rng.integers(0, len(scaled), (200, len(scaled)))
        boot_se = np.array([scaled[d].var(axis=0, ddof=1) for d in draws]).std(
            axis=0, ddof=1
        )
        for k in (0, 2):
            assert abs(variances[k] - report.v_b_h[k, k]) <= 3.0 * boot_se[k], k
