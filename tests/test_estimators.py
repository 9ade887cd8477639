"""Kernels, estimators, the reduced marginal-likelihood cost, and the search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firasym.estimators as est
from firasym import (
    FilterSpec,
    FirSystem,
    KernelSpec,
    NoiseSpec,
    OutOfBoxError,
    RankDeficientError,
    SecondOrderAR,
    build_dataset,
    derive_stream,
    eb_cost,
    eb_estimate,
    generate_input,
    generate_t1,
    kernel_matrix,
    ls_estimate,
    noise_variance_estimate,
    rls_estimate,
)
from oracles import entrywise_kernel, noise_free_dataset

ALL_SPECS = [KernelSpec.ridge(), KernelSpec.tc(), KernelSpec.ss(), KernelSpec.dc()]


def interior_eta(spec: KernelSpec, rng) -> np.ndarray:
    """Random point well inside the box, drawn in transformed coordinates."""
    lo = est._to_internal(spec, spec.omega[:, 0])
    hi = est._to_internal(spec, spec.omega[:, 1])
    x = lo + (0.25 + 0.5 * rng.random(spec.p)) * (hi - lo)
    return est._from_internal(spec, x)


def make_record(seed=0, n=8, n_samples=200, a=0.4, sigma2=0.5):
    system = generate_t1(n, derive_stream(seed, 1, 0))
    filt = FilterSpec(SecondOrderAR(a=a, c_u=1.0))
    u = generate_input(filt, n, n_samples, derive_stream(seed, 2, 0))
    return build_dataset(system, u, NoiseSpec(sigma2), derive_stream(seed, 2, 1))


def fd_matrix_derivative(fun, eta, k, h):
    ep = eta.copy()
    em = eta.copy()
    ep[k] += h
    em[k] -= h
    return (fun(ep) - fun(em)) / (2.0 * h)


def fd_scalar_gradient(fun, eta, k, h):
    """Fourth-order central difference together with its roundoff floor."""
    values = []
    for step in (h, -h, 2 * h, -2 * h):
        shifted = eta.copy()
        shifted[k] += step
        values.append(fun(shifted))
    fd = (8.0 * (values[0] - values[1]) - (values[2] - values[3])) / (12.0 * h)
    noise = 64.0 * np.finfo(float).eps * max(abs(v) for v in values) / h
    return fd, noise


class TestKernelMatrix:
    def test_ridge_is_scaled_identity(self):
        P, dP, d2P = kernel_matrix(KernelSpec.ridge(), np.array([2.5]), 4)
        np.testing.assert_array_equal(P, 2.5 * np.eye(4))
        np.testing.assert_array_equal(dP[0], np.eye(4))
        np.testing.assert_array_equal(d2P[0, 0], np.zeros((4, 4)))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_stack_and_order_match_single_points(self, spec):
        rng = np.random.default_rng(30)
        etas = np.array([interior_eta(spec, rng) for _ in range(3)])
        for order in (0, 1, 2):
            stacked = kernel_matrix(spec, etas, 5, order)
            assert len(stacked) == order + 1
            for g, eta in enumerate(etas):
                for whole, single in zip(stacked, kernel_matrix(spec, eta, 5)):
                    np.testing.assert_allclose(whole[g], single, rtol=4e-16, atol=0)

    def test_signed_power_matches_direct_power(self):
        idx = np.arange(1, 21, dtype=float)
        expo = np.abs(idx[:, None] - idx[None, :]) - 1.0
        for base in np.linspace(-0.999, 0.999, 37):
            direct = base ** np.maximum(expo, 0.0)
            signed = est._signed_pow(base, *est._power_table(expo))
            np.testing.assert_allclose(signed, direct, rtol=4e-16, atol=0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_power_rows_equal_entrywise_powers(self, spec):
        # same powers and the same operations, so the same bits.  n = 1 is
        # left out: there the entrywise form's 1 x 1 exponent grid takes
        # numpy's exact square for an exponent of 2, which SS stacks reach
        rng = np.random.default_rng(12)
        for n in (2, 3, 5, 20):
            stacks = [interior_eta(spec, rng), spec.omega.T]
            stacks.append(np.array([interior_eta(spec, rng) for _ in range(6)]).reshape(2, 3, -1))
            for etas in stacks:
                got = kernel_matrix(spec, etas, n)
                for whole, ref in zip(got, entrywise_kernel(spec, etas, n)):
                    assert whole.tobytes() == ref.tobytes(), (n, etas.shape)

    def test_index_tables_are_read_only(self):
        for family in ("tc", "ss", "dc"):
            tables = est._kernel_tables(family, 5)
            powers = tables["pow"].values()
            arrays = [v for k, v in tables.items() if k != "pow"] + [a for pw in powers for a in pw]
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0

    def test_cached_tables_repeat_the_first_call(self, monkeypatch):
        # families and sizes interleaved; the second n = 5 pass reads the
        # tables that the first one cached
        monkeypatch.setattr(est, "_TABLE_CACHE", {})
        first = {}
        for n in (5, 6, 5):
            for spec in ALL_SPECS:
                eta = interior_eta(spec, np.random.default_rng(4))
                out = kernel_matrix(spec, eta, n)
                for whole, ref in zip(out, first.setdefault((spec.family, n), out)):
                    assert whole.shape == ref.shape and (whole == ref).all()
        assert sorted(est._TABLE_CACHE) == sorted((s.family, n) for s in ALL_SPECS for n in (5, 6))

    def test_tc_small_example(self):
        P, _, _ = kernel_matrix(KernelSpec.tc(), np.array([1.0, 0.5]), 2)
        np.testing.assert_allclose(P, [[0.5, 0.25], [0.25, 0.25]], rtol=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_derivatives_match_finite_differences(self, spec):
        rng = np.random.default_rng(2)
        n = 6
        for _ in range(5):
            eta = interior_eta(spec, rng)
            P, dP, d2P = kernel_matrix(spec, eta, n)
            scale = np.maximum(np.abs(eta), 1e-3)
            for k in range(spec.p):
                h = 1e-5 * scale[k]
                fd = fd_matrix_derivative(
                    lambda e: kernel_matrix(spec, e, n)[0], eta, k, h
                )
                np.testing.assert_allclose(dP[k], fd, rtol=1e-6, atol=1e-6 * np.abs(P).max())
                for m in range(spec.p):
                    hm = 1e-5 * scale[m]
                    fd2 = fd_matrix_derivative(
                        lambda e: kernel_matrix(spec, e, n)[1][k], eta, m, hm
                    )
                    np.testing.assert_allclose(
                        d2P[k, m], fd2, rtol=1e-5, atol=1e-5 * max(np.abs(dP[k]).max(), 1.0)
                    )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=1000)
    def test_positive_definite_throughout_box(self, spec, n, seed):
        # the central half of the box: SS loses definiteness numerically
        # near its decay-rate faces (underflow near 0, cancellation near 1)
        eta = interior_eta(spec, np.random.default_rng(seed))
        P = kernel_matrix(spec, eta, n, order=0)[0]
        np.testing.assert_allclose(P, P.T, rtol=0, atol=1e-14 * np.abs(P).max())
        assert np.linalg.eigvalsh(P)[0] > 0.0

    def test_out_of_box_rejected(self):
        with pytest.raises(OutOfBoxError):
            kernel_matrix(KernelSpec.ridge(), np.array([1e10]), 3)
        with pytest.raises(OutOfBoxError):
            kernel_matrix(KernelSpec.tc(), np.array([1.0, 1.5]), 3)


class TestLeastSquares:
    def test_noise_free_recovers_truth(self):
        system = generate_t1(6, derive_stream(1, 1, 0))
        u = generate_input(
            FilterSpec(SecondOrderAR(a=0.3, c_u=1.0)), 6, 100, derive_stream(1, 2, 0)
        )
        data = noise_free_dataset(system, u)
        theta = ls_estimate(data)
        np.testing.assert_allclose(theta, system.theta0, rtol=1e-10)

    def test_residual_orthogonality(self):
        data = make_record(seed=2)
        theta = ls_estimate(data)
        lhs = np.linalg.norm(data.phi.T @ (data.y - data.phi @ theta))
        assert lhs <= 1e-8 * np.linalg.norm(data.phi.T @ data.y)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((50, 4)))
        y = rng.standard_normal(50)
        data = make_record(seed=3, n=4, n_samples=50)
        data.phi = q
        data.y = y
        np.testing.assert_allclose(ls_estimate(data), q.T @ y, rtol=1e-12)


class TestNoiseVariance:
    def test_noise_free_is_zero(self):
        system = generate_t1(5, derive_stream(4, 1, 0))
        u = generate_input(
            FilterSpec(SecondOrderAR(a=0.2, c_u=1.0)), 5, 80, derive_stream(4, 2, 0)
        )
        data = noise_free_dataset(system, u)
        assert noise_variance_estimate(data) <= 1e-16

    def test_no_degrees_of_freedom_is_refused(self):
        # N == n: the least-squares fit interpolates and N - n is zero
        system = generate_t1(4, derive_stream(8, 1, 0))
        u = derive_stream(8, 2, 0).standard_normal(2 * 4 - 1)
        data = build_dataset(system, u, NoiseSpec(1.0), derive_stream(8, 2, 1))
        with pytest.raises(RankDeficientError, match=r"N=4, n=4"):
            eb_estimate(data, KernelSpec.tc())

    def test_degrees_of_freedom_denominator(self):
        data = make_record(seed=5, n=20, n_samples=30)
        resid = data.y - data.phi @ ls_estimate(data)
        expected = float(resid @ resid) / 10.0
        assert noise_variance_estimate(data) == pytest.approx(expected, rel=1e-12)

    def test_unbiased_over_records(self):
        sigma2 = 0.8
        values = np.empty(10**4)
        filt = FilterSpec(SecondOrderAR(a=0.3, c_u=1.0))
        system = generate_t1(4, derive_stream(6, 1, 0))
        for i in range(values.size):
            rng = derive_stream(6, 2, i)
            u = generate_input(filt, 4, 40, rng)
            data = build_dataset(system, u, NoiseSpec(sigma2), rng)
            values[i] = noise_variance_estimate(data)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - sigma2) <= 3.0 * se


class TestReducedCost:
    def test_offset_from_full_marginal_likelihood_is_constant(self):
        data = make_record(seed=7, n=5, n_samples=60)
        theta_ls = ls_estimate(data)
        sigma2_hat = noise_variance_estimate(data)
        gram = data.phi.T @ data.phi
        spec = KernelSpec.tc()

        def full_form(eta):
            P = kernel_matrix(spec, eta, 5)[0]
            q = data.phi @ P @ data.phi.T + sigma2_hat * np.eye(data.n_samples)
            sign, logdet = np.linalg.slogdet(q)
            return float(data.y @ np.linalg.solve(q, data.y)) + logdet

        etas = [np.array([0.5, 0.3]), np.array([4.0, 0.8])]
        offsets = [
            full_form(e) - eb_cost(e, theta_ls, gram, sigma2_hat, spec)[0] for e in etas
        ]
        assert offsets[0] == pytest.approx(offsets[1], rel=1e-6)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(8)
        data = make_record(seed=8, n=6, n_samples=120)
        theta_ls = ls_estimate(data)
        sigma2_hat = noise_variance_estimate(data)
        gram = data.phi.T @ data.phi
        fun = lambda e: eb_cost(e, theta_ls, gram, sigma2_hat, spec)[0]
        for _ in range(20):
            eta = interior_eta(spec, rng)
            _, grad = eb_cost(eta, theta_ls, gram, sigma2_hat, spec)
            for k in range(spec.p):
                # step shrinks near box edges where the cost is nearly singular
                h = 1e-3 * min(
                    max(abs(eta[k]), 1e-6),
                    spec.omega[k, 1] - eta[k],
                    eta[k] - spec.omega[k, 0],
                )
                fd, noise = fd_scalar_gradient(fun, eta, k, h)
                assert abs(grad[k] - fd) <= 1e-5 * abs(fd) + noise

    def test_ridge_identity_gram_minimizer(self):
        # with Phi'Phi = g I the optimum is max(||theta_ls||^2/n - s2/g, lo)
        rng = np.random.default_rng(9)
        n, n_samples, g = 4, 64, 64.0
        q, _ = np.linalg.qr(rng.standard_normal((n_samples, n)))
        phi = math.sqrt(g) * q
        theta0 = np.array([1.0, -2.0, 0.5, 1.5])
        y = phi @ theta0 + 0.3 * rng.standard_normal(n_samples)
        system = FirSystem(theta0=theta0)
        data = make_record(seed=9, n=n, n_samples=n_samples)
        data.phi, data.y, data.system = phi, y, system
        theta_ls = ls_estimate(data)
        sigma2_hat = noise_variance_estimate(data)
        spec = KernelSpec.ridge()
        opt = max(float(theta_ls @ theta_ls) / n - sigma2_hat / g, spec.omega[0, 0])
        _, grad = eb_cost(np.array([opt]), theta_ls, phi.T @ phi, sigma2_hat, spec)
        assert abs(grad[0]) <= 1e-8 * max(1.0, abs(opt))


class TestRegularizedEstimate:
    def test_vanishing_regularization_matches_ls(self):
        data = make_record(seed=10)
        theta_ls = ls_estimate(data)
        theta_tr = rls_estimate(data, 1e9 * np.eye(data.order), 1.0)
        assert np.linalg.norm(theta_tr - theta_ls) <= 1e-6 * np.linalg.norm(theta_ls)

    def test_dominant_regularization_shrinks_to_zero(self):
        data = make_record(seed=11, n_samples=1000)
        theta_ls = ls_estimate(data)
        theta_tr = rls_estimate(data, 1e-9 * np.eye(data.order), 1.0)
        assert np.linalg.norm(theta_tr) <= 1e-3 * np.linalg.norm(theta_ls)

    def test_matches_full_size_form(self):
        data = make_record(seed=12, n=5, n_samples=50)
        spec = KernelSpec.tc()
        P = kernel_matrix(spec, np.array([2.0, 0.7]), 5)[0]
        sigma2 = 0.4
        direct = rls_estimate(data, P, sigma2)
        q = data.phi @ P @ data.phi.T + sigma2 * np.eye(50)
        full = P @ data.phi.T @ np.linalg.solve(q, data.y)
        np.testing.assert_allclose(direct, full, rtol=1e-8)


class TestHyperParameterSearch:
    def test_beats_dense_grid(self):
        data = make_record(seed=13, n=6, n_samples=150)
        fit = eb_estimate(data, KernelSpec.ridge())
        theta_ls = ls_estimate(data)
        sigma2_hat = noise_variance_estimate(data)
        gram = data.phi.T @ data.phi
        grid = np.logspace(-9, 9, 50)
        costs = [
            eb_cost(np.array([g]), theta_ls, gram, sigma2_hat, KernelSpec.ridge())[0]
            for g in grid
        ]
        assert fit.cost <= min(costs) + 1e-8

    def test_deterministic(self):
        fit1 = eb_estimate(make_record(seed=14), KernelSpec.tc())
        fit2 = eb_estimate(make_record(seed=14), KernelSpec.tc())
        np.testing.assert_array_equal(fit1.eta_hat, fit2.eta_hat)
        assert fit1.cost == fit2.cost

    def test_no_start_beats_winner(self):
        data = make_record(seed=15, n=6, n_samples=150)
        spec = KernelSpec.tc()
        fit = eb_estimate(data, spec)
        theta_ls = ls_estimate(data)
        sigma2_hat = noise_variance_estimate(data)
        gram = data.phi.T @ data.phi
        lo = est._to_internal(spec, spec.omega[:, 0])
        hi = est._to_internal(spec, spec.omega[:, 1])
        for x0 in est._start_lattice(lo, hi):
            start_cost = eb_cost(
                est._from_internal(spec, x0), theta_ls, gram, sigma2_hat, spec
            )[0]
            assert fit.cost <= start_cost + 1e-9

    def test_winner_invariant_under_start_reordering(self, monkeypatch):
        data = make_record(seed=16, n=6, n_samples=150)
        baseline = eb_estimate(data, KernelSpec.tc())
        original = est._start_lattice
        monkeypatch.setattr(
            est, "_start_lattice", lambda lo, hi: original(lo, hi)[::-1]
        )
        # an empty lattice cache, so the reversed lattice is built and then
        # dropped with the patch
        monkeypatch.setattr(est, "_LATTICE_CACHE", {})
        reordered = eb_estimate(data, KernelSpec.tc())
        assert reordered.cost == pytest.approx(baseline.cost, abs=1e-10)

    def test_mean_estimate_converges_to_limit(self):
        # long records concentrate the estimate around theta0'theta0 / n
        n, n_samples, records = 20, 10**4, 200
        system = generate_t1(n, derive_stream(21, 1, 0))
        star = float(system.theta0 @ system.theta0) / n
        filt = FilterSpec(SecondOrderAR(a=0.05, c_u=1.0))
        values = np.empty(records)
        for i in range(records):
            rng = derive_stream(21, 2, i)
            u = generate_input(filt, n, n_samples, rng)
            data = build_dataset(system, u, NoiseSpec(1.0), rng)
            values[i] = eb_estimate(data, KernelSpec.ridge()).eta_hat[0]
        se = values.std(ddof=1) / math.sqrt(records)
        assert abs(values.mean() - star) <= 3.0 * se
