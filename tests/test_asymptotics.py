"""Limit quantities: input covariance, Gram fourth moments, hyper-parameter
law and coefficient-error expansions."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from firasym import (
    FilterSpec,
    ImpulseSequence,
    KernelSpec,
    NoiseSpec,
    SecondOrderAR,
    SingularHessianWarning,
    asymptotic_report,
    build_dataset,
    c_gamma,
    derive_stream,
    eb_estimate,
    eta_star,
    expansion_terms,
    gram_contraction,
    generate_input,
    generate_t1,
    impulse_response,
    kernel_matrix,
    ridge_report,
    second_order_stats,
    sigma_matrix,
    hyper_parameter_law,
    ls_error_covariances,
    regularized_error_moments,
    unvec,
    vec,
)
from firasym import asymptotics
from firasym.asymptotics import prior_fit_cost
from firasym.montecarlo import _SYSTEM_TAG

REPORT_FIELDS = [
    "eta_star",
    "a_b",
    "b_b",
    "v_b_h",
    "v_als_1",
    "v_als_2",
    "c_b",
    "e_b_ar",
    "v_b3_11",
    "v_b3_12",
    "v_b3_13",
    "v_b3_2",
    "v_b_ar",
]


def truncated_filter(a: float, c_u: float, sigma_e2=1.0, kurtosis=3.0) -> FilterSpec:
    """Finite-impulse surrogate of the double-pole filter, tail below 1e-12.

    Routing it through the explicit-sequence paths turns every closed form
    into an independently summed series oracle.
    """
    base = FilterSpec(SecondOrderAR(a=a, c_u=c_u), sigma_e2=sigma_e2)
    h = impulse_response(base, 1e-12)
    return FilterSpec(ImpulseSequence(h=h), sigma_e2=sigma_e2, kurtosis_ratio=kurtosis)


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


class TestSigmaMatrix:
    def test_white_noise_is_scaled_identity(self):
        filt = FilterSpec(SecondOrderAR(a=0.0, c_u=1.5), sigma_e2=0.4)
        np.testing.assert_allclose(
            sigma_matrix(filt, 6), 1.5**2 * 0.4 * np.eye(6), rtol=0, atol=0
        )

    @pytest.mark.parametrize(
        "a,expected", [(0.05, 1.49), (0.7, 8.34e2), (0.95, 5.51e5)]
    )
    def test_condition_numbers_at_order_20(self, a, expected):
        stats = second_order_stats(FilterSpec(SecondOrderAR(a=a, c_u=1.0)), 20)
        assert stats.cond == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("a", [0.3, 0.7, 0.95])
    def test_closed_form_matches_series(self, a):
        closed = sigma_matrix(FilterSpec(SecondOrderAR(a=a, c_u=1.1), sigma_e2=0.9), 12)
        series = sigma_matrix(truncated_filter(a, 1.1, 0.9), 12)
        np.testing.assert_allclose(closed, series, rtol=1e-8)

    def test_scale_covariance_of_condition_number(self):
        base = second_order_stats(FilterSpec(SecondOrderAR(a=0.6, c_u=1.0)), 10)
        scaled = second_order_stats(FilterSpec(SecondOrderAR(a=0.6, c_u=3.0)), 10)
        np.testing.assert_allclose(scaled.sigma, 9.0 * base.sigma, rtol=1e-12)
        assert scaled.cond == pytest.approx(base.cond, rel=1e-12)


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
        closed = c_gamma(FilterSpec(SecondOrderAR(a=a, c_u=0.8), sigma_e2=1.3), 3)
        series = c_gamma(truncated_filter(a, 0.8, 1.3), 3)
        np.testing.assert_allclose(closed, series, rtol=1e-8)

    def test_non_gaussian_innovations_shift_first_term(self):
        filt3 = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0), kurtosis_ratio=3.0)
        filt5 = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0), kurtosis_ratio=5.0)
        r0 = sigma_matrix(filt3, 1)[0, 0]
        diff = c_gamma(filt5, 2) - c_gamma(filt3, 2)
        assert diff[0, 0] == pytest.approx(2.0 * r0 * r0, rel=1e-12)


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


class TestGramContraction:
    """gram_contraction applies the fourth-moment matrix from its lag table."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["f64", "ld"])
    @pytest.mark.parametrize("a", [0.0, 0.3])
    @pytest.mark.parametrize("n", [3, 10, 20])
    def test_matches_dense_product(self, n, a, dtype):
        table = c_gamma(FilterSpec(SecondOrderAR(a=a, c_u=1.1), sigma_e2=0.9), n)
        dense = expand_c_gamma(table).astype(dtype)
        rng = np.random.default_rng(n)
        mat = rng.standard_normal((n, n)).astype(dtype)
        x = rng.standard_normal(n).astype(dtype)
        for arg, stacked in ((mat, vec(mat)), (x, vec(np.outer(x, x)))):
            got = gram_contraction(table, arg)
            ref = unvec(dense @ stacked)
            assert got.dtype == dtype
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("a", [0.7, 0.95])
    def test_no_less_accurate_than_dense_product(self, a):
        # 50-digit evaluations of the same float64 inputs; at strong poles
        # both paths lose digits to cancellation (v_als_2 ~1e-6 at a = 0.95)
        n = 10
        with mpmath.workdps(50):
            stats = second_order_stats(FilterSpec(SecondOrderAR(a=a, c_u=1.0)), n)
            table, s_inv = stats.c_gamma, stats.sigma_inv
            dense = expand_c_gamma(table)
            c_mp, s_mp = to_mp(dense), to_mp(s_inv)

            ref = s_mp @ unvec(c_mp @ vec(s_mp)) @ s_mp
            dense_v2 = asymptotics._sym(s_inv @ unvec(dense @ vec(s_inv)) @ s_inv)
            matrix_free_v2 = ls_error_covariances(stats, 1.0, 1000)[1]
            assert rel_error(matrix_free_v2, ref) <= rel_error(dense_v2, ref)

            # v_b3_12's long-double rank-1 contraction, x = Sigma^-1 theta
            # built inside from the same float64 inputs
            rng = np.random.default_rng(0)
            for _ in range(4):
                theta = rng.standard_normal(n)
                x_mp = s_mp @ to_mp(theta)
                ref = s_mp @ unvec(c_mp @ vec(np.outer(x_mp, x_mp))) @ s_mp
                matrix_free = asymptotics._rank1_gram_contraction(
                    table, s_inv, np.eye(n), theta, 1.0
                )
                s_ld = s_inv.astype(np.longdouble)
                x = s_ld @ theta.astype(np.longdouble)
                mid = unvec(dense.astype(np.longdouble) @ vec(np.outer(x, x)))
                dense_r1 = asymptotics._sym((s_ld @ mid @ s_ld).astype(float))
                assert rel_error(matrix_free, ref) <= rel_error(dense_r1, ref)

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
            _, grad = prior_fit_cost(star, theta, spec)
            assert np.linalg.norm(grad) <= 1e-6

    def test_tc_matches_grid_oracle(self):
        theta = np.exp(-0.3 * np.arange(1, 11)) * 4.0
        spec = KernelSpec.tc()
        star = eta_star(spec, theta)
        c_grid = np.logspace(-3, 3, 100)
        al_grid = 1.0 / (1.0 + np.exp(-np.linspace(-8, 8, 100)))
        best, arg = np.inf, None
        for c in c_grid:
            for al in al_grid:
                value, _ = prior_fit_cost(np.array([c, al]), theta, spec)
                if value < best:
                    best, arg = value, (c, al)
        found, _ = prior_fit_cost(star, theta, spec)
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
            KernelSpec.ridge(), theta, np.array([s / n]), sigma, 0.7
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
        out = hyper_parameter_law(spec, theta, star, sigma, 1.0)
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
                f = lambda e: prior_fit_cost(e, theta, spec)[0]
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
        out = hyper_parameter_law(spec, theta, star, sigma, 1.0)
        solve = lambda e: np.linalg.solve(kernel_matrix(spec, e, theta.size)[0], theta)
        lo, hi = spec.omega.T
        for k in range(spec.p):
            step = np.zeros(spec.p)
            step[k] = 1e-5 * min(abs(star[k]), hi[k] - star[k], star[k] - lo[k])
            fd = (solve(star + step) - solve(star - step)) / (2.0 * step[k])
            np.testing.assert_allclose(
                out.b_b[k], fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max()
            )


class TestLsErrorCovariances:
    def test_white_noise_first_order(self):
        stats = second_order_stats(FilterSpec(SecondOrderAR(a=0.0, c_u=1.0)), 6)
        v1, v2, v_als = ls_error_covariances(stats, 0.9, 1000)
        np.testing.assert_allclose(v1, 0.9 * np.eye(6), rtol=1e-14)
        np.testing.assert_allclose(v_als, v1 + v2 / 1000, rtol=1e-14)

    def test_second_order_block_psd(self):
        stats = second_order_stats(FilterSpec(SecondOrderAR(a=0.7, c_u=0.5)), 10)
        _, v2, _ = ls_error_covariances(stats, 1.0, 1000)
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
            self.spec, self.theta, self.star, self.stats.sigma, self.noise.sigma2
        )
        self.t3 = regularized_error_moments(
            self.theta, self.t1, self.stats, self.noise, 1000
        )

    def test_ridge_mean_term(self):
        n, s = self.theta.size, float(self.theta @ self.theta)
        expected = (
            -(n * self.noise.sigma2 / s)
            / math.sqrt(1000)
            * np.linalg.solve(self.stats.sigma, self.theta)
        )
        np.testing.assert_allclose(self.t3.e_b_ar, expected, rtol=1e-10)

    def test_ridge_second_order_covariance_block(self):
        n, s = self.theta.size, float(self.theta @ self.theta)
        s_inv = np.linalg.inv(self.stats.sigma)
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

    def test_joint_covariance_psd_and_schur_structure(self):
        # the three expansion terms share one joint covariance; its diagonal
        # blocks are PSD and the cross block satisfies exactly
        #   v_b3_1 - v_b3_2' v1^-1 v_b3_2 = v_b3_12 + v_b3_13  (>= 0)
        n = self.theta.size
        v1, v2, _ = ls_error_covariances(self.stats, self.noise.sigma2, 1000)
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
        t1 = hyper_parameter_law(self.spec, theta, self.star, stats.sigma, 1.0)
        t3 = regularized_error_moments(theta, t1, stats, NoiseSpec(1.0), 1000)
        eigs = np.linalg.eigvalsh(t3.v_b3_2)
        assert eigs[-1] == pytest.approx(n / s, rel=1e-8)
        assert eigs[0] == pytest.approx(-n / s, rel=1e-8)

    def test_order_one_mse_below_order_two(self):
        assert self.t3.amse[0] <= self.t3.amse[1]

    def test_carries_the_ls_error_covariances(self):
        v1, v2, _ = ls_error_covariances(self.stats, self.noise.sigma2, 1000)
        np.testing.assert_array_equal(self.t3.v_als_1, v1)
        np.testing.assert_array_equal(self.t3.v_als_2, v2)


class TestRidgeEquivalence:
    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
    def test_generic_pipeline_matches_closed_forms(self, a):
        rng = np.random.default_rng(5)
        noise = NoiseSpec(1.0)
        filt = FilterSpec(SecondOrderAR(a=a, c_u=0.7))
        for _ in range(3):
            theta = random_theta(rng, 20)
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
        lengths = [1000, 10, 1000]
        reports = ridge_report(theta, filt, noise, lengths, stats)
        assert [r.n_samples for r in reports] == lengths
        for report, n_samples in zip(reports, lengths):
            single = ridge_report(theta, filt, noise, n_samples)
            assert report.to_json_dict() == single.to_json_dict()

    def test_report_serialization_roundtrip(self):
        theta = random_theta(np.random.default_rng(6), 8)
        report = ridge_report(
            theta, FilterSpec(SecondOrderAR(a=0.3, c_u=1.0)), NoiseSpec(1.0), 500
        )
        doc = report.to_json_dict()
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
        data = build_dataset(system, u, noise, rng, noise_free=noise_free)
        fit = eb_estimate(data, spec)
        sigma = sigma_matrix(filt, n)
        star = eta_star(spec, system.theta0)
        terms = expansion_terms(data, fit, sigma, star, noise.sigma2)
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
        sigma = sigma_matrix(filt, n)
        star = eta_star(spec, system.theta0)
        norms = {}
        for n_samples in (1000, 4000):
            acc = np.zeros(n)
            for r in range(records):
                rng = derive_stream(31, 2, n_samples, r)
                u = generate_input(filt, n, n_samples, rng)
                data = build_dataset(system, u, noise, rng)
                fit = eb_estimate(data, spec)
                acc += expansion_terms(data, fit, sigma, star, 1.0).theta_b3
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
            out = hyper_parameter_law(KernelSpec.ridge(), theta, star, sigma, 1.0)
            traces.append(float(np.trace(out.v_b_h)))
        assert all(t2 > t1 for t1, t2 in zip(traces, traces[1:]))


class TestFactorOnce:
    """Sigma, P(eta*) and a_b are each inverted once per report."""

    theta = 5.0 * np.exp(-0.3 * np.arange(1, 21))
    filt = FilterSpec(SecondOrderAR(a=0.7, c_u=math.sqrt(0.5)))
    noise = NoiseSpec(1.0)

    def count_inverses(self, monkeypatch, build):
        shapes = []
        original = asymptotics._pd_inverse

        def counted(mat):
            shapes.append(mat.shape)
            return original(mat)

        monkeypatch.setattr(asymptotics, "_pd_inverse", counted)
        build()
        return sorted(shapes)

    def test_generic_report_inverts_each_matrix_once(self, monkeypatch):
        shapes = self.count_inverses(
            monkeypatch,
            lambda: asymptotic_report(
                KernelSpec.tc(), self.theta, self.filt, self.noise, 1000
            ),
        )
        assert shapes == [(2, 2), (20, 20), (20, 20)]

    def test_ridge_report_inverts_sigma_once(self, monkeypatch):
        shapes = self.count_inverses(
            monkeypatch, lambda: ridge_report(self.theta, self.filt, self.noise, 1000)
        )
        assert shapes == [(20, 20)]

    def test_indefinite_curvature_warns_once(self):
        # DC puts eta_star on the rho face here, where a_b is indefinite
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asymptotic_report(KernelSpec.dc(), self.theta, self.filt, self.noise, 1000)
        singular = [w for w in caught if w.category is SingularHessianWarning]
        assert len(singular) == 1
