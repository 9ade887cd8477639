"""Input generation, autocovariances, and dataset assembly."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from firasym import (
    Dataset,
    FilterSpec,
    FirSystem,
    NoiseSpec,
    SecondOrderAR,
    autocovariance,
    build_dataset,
    derive_stream,
    generate_input,
    generate_t1,
    generate_t2,
    lag_matrix,
)
from firasym.signals import _burn_in_length, _random_roots
from oracles import impulse_response, series_autocovariance


def lfilter_input(filt, n, n_samples, rng):
    """generate_input's draw, filtered by scipy.signal.lfilter."""
    a = filt.kind.a
    burn = _burn_in_length(a)
    e = rng.standard_normal(burn + n_samples + n - 1)
    return lfilter([filt.kind.c_u], [1.0, -2.0 * a, a**2], e)[burn:]


def lfilter_t2(n, rng):
    """generate_t2's draw, its impulse response taken by scipy.signal.lfilter."""
    slow = _random_roots(rng, n_pairs=2, n_real=1, lo=0.94, hi=0.96)
    fast = _random_roots(rng, n_pairs=12, n_real=1, lo=0.0, hi=0.9)
    zeros = _random_roots(rng, n_pairs=14, n_real=1, lo=0.0, hi=0.9)
    den = np.real(np.poly(np.concatenate([slow, fast])))
    pulse = np.zeros(n + 1)
    pulse[0] = 1.0
    theta = lfilter(np.real(np.poly(zeros)), den, pulse)[1:]
    return theta * (10.0 / np.linalg.norm(theta))


class TestImpulseResponse:
    def test_degenerate_pole_is_memoryless(self):
        filt = FilterSpec(SecondOrderAR(a=0.0, c_u=2.5))
        np.testing.assert_array_equal(impulse_response(filt, 1e-10), [2.5])

    def test_double_pole_values(self):
        filt = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0))
        h = impulse_response(filt, 1e-10)
        np.testing.assert_allclose(h[:4], [1.0, 1.0, 0.75, 0.5], rtol=0, atol=0)

    def test_tail_bound_respected(self):
        filt = FilterSpec(SecondOrderAR(a=0.9, c_u=1.3))
        tol = 1e-8
        h = impulse_response(filt, tol)
        k = np.arange(len(h), len(h) + 20000)
        tail = np.sum(1.3 * (k + 1) * 0.9**k)
        assert tail <= tol * np.sum(np.abs(h)) * (1 + 1e-12)


class TestAutocovariance:
    def test_white_noise(self):
        filt = FilterSpec(SecondOrderAR(a=0.0, c_u=1.7))
        assert autocovariance(filt, 0) == pytest.approx(1.7**2, rel=1e-15)
        for tau in (1, 2, 5):
            assert autocovariance(filt, tau) == 0.0

    def test_symmetric_in_lag(self):
        filt = FilterSpec(SecondOrderAR(a=0.6, c_u=0.9))
        for tau in range(6):
            assert autocovariance(filt, tau) == autocovariance(filt, -tau)

    def test_lag_zero_half_pole(self):
        filt = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0))
        expected = 2.0 / 0.75**3 - 1.0 / 0.75**2
        assert autocovariance(filt, 0) == pytest.approx(expected, rel=1e-14)
        oracle = series_autocovariance(impulse_response(filt, 1e-15), 0)
        assert autocovariance(filt, 0) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.7, 0.95])
    def test_closed_form_matches_series(self, a):
        filt = FilterSpec(SecondOrderAR(a=a, c_u=1.2 * math.sqrt(0.8)))
        h = impulse_response(filt, 1e-12)
        for tau in range(20):
            oracle = series_autocovariance(h, tau)
            assert autocovariance(filt, tau) == pytest.approx(oracle, rel=1e-8)

    def test_finite_sequence_sum(self):
        # the series oracle behind the closed-form checks, on a hand sum
        h = np.array([2.0, 3.0])
        assert series_autocovariance(h, 0) == 13.0
        assert series_autocovariance(h, 1) == series_autocovariance(h, -1) == 6.0
        assert series_autocovariance(h, 2) == 0.0


class TestGenerateInput:
    def test_deterministic_for_fixed_seed(self):
        filt = FilterSpec(SecondOrderAR(a=0.7, c_u=1.0))
        u1 = generate_input(filt, 5, 200, derive_stream(11, 2, 0))
        u2 = generate_input(filt, 5, 200, derive_stream(11, 2, 0))
        np.testing.assert_array_equal(u1, u2)

    def test_memoryless_filter_scales_innovations(self):
        # a=0 with c_u=3 must equal 3x the unit-c_u draw from the same seed
        base = generate_input(
            FilterSpec(SecondOrderAR(a=0.0, c_u=1.0)), 3, 100, derive_stream(5)
        )
        scaled = generate_input(
            FilterSpec(SecondOrderAR(a=0.0, c_u=3.0)), 3, 100, derive_stream(5)
        )
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-15)

    @pytest.mark.parametrize("a", [0.0, 1e-300, 0.05, 0.3, 0.7, 0.9, 0.95, 0.99, 0.999])
    def test_recursion_is_lfilter_bit_for_bit(self, a):
        # the two-pole recursion makes lfilter's roundings, so no artifact
        # moved when it replaced scipy.signal
        for c_u in (1e-150, 1e-5, 0.707, 1.0, 3.0, 1e100):
            for n, n_samples in ((1, 2), (5, 50), (20, 1000)):
                for seed in range(3):
                    filt = FilterSpec(SecondOrderAR(a=a, c_u=c_u))
                    got = generate_input(filt, n, n_samples, derive_stream(seed, 2))
                    ref = lfilter_input(filt, n, n_samples, derive_stream(seed, 2))
                    assert got.tobytes() == ref.tobytes(), (c_u, n, n_samples, seed)

    def test_sample_variance_matches_theory(self):
        filt = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0))
        u = generate_input(filt, 2, 10**6, derive_stream(123))
        r0 = autocovariance(filt, 0)
        # long-run variance of the sample variance of a Gaussian linear process
        var_of_var = 2.0 * sum(
            autocovariance(filt, t) ** 2 for t in range(-200, 201)
        ) / u.size
        assert abs(u.var() - r0) <= 3.0 * math.sqrt(var_of_var)


class TestBuildDataset:
    def test_lag_structure_small(self):
        u = np.array([10.0, 20.0, 30.0, 40.0])  # t = -1, 0, 1, 2
        phi = lag_matrix(u, 2)
        np.testing.assert_array_equal(
            phi, [[20.0, 10.0], [30.0, 20.0], [40.0, 30.0]]
        )

    def test_lag_structure_general(self):
        rng = derive_stream(4)
        n, n_samples = 7, 40
        u = rng.standard_normal(n_samples + n - 1)
        phi = lag_matrix(u, n)
        for t in range(1, n_samples + 1):
            for i in range(1, n + 1):
                assert phi[t - 1, i - 1] == u[t - i + n - 1]

    def test_zero_truth_output_is_noise(self):
        system = FirSystem(theta0=np.zeros(3))
        u = generate_input(
            FilterSpec(SecondOrderAR(a=0.3, c_u=1.0)), 3, 50, derive_stream(1)
        )
        data = build_dataset(system, u, NoiseSpec(0.5), derive_stream(2))
        v = derive_stream(2).standard_normal(50) * math.sqrt(0.5)
        np.testing.assert_array_equal(data.y, v)

    def test_output_identity_bitwise(self):
        system = generate_t1(8, derive_stream(3, 1, 0))
        u = generate_input(
            FilterSpec(SecondOrderAR(a=0.6, c_u=0.8)), 8, 120, derive_stream(3, 2, 0)
        )
        data = build_dataset(system, u, NoiseSpec(2.0), derive_stream(3, 2, 1))
        v = derive_stream(3, 2, 1).standard_normal(120) * math.sqrt(2.0)
        np.testing.assert_array_equal(data.y, data.phi @ system.theta0 + v)

    def test_deterministic_dataset(self):
        def make() -> Dataset:
            system = generate_t1(4, derive_stream(17, 1, 0))
            u = generate_input(
                FilterSpec(SecondOrderAR(a=0.2, c_u=1.0)), 4, 60, derive_stream(17, 2, 0)
            )
            return build_dataset(system, u, NoiseSpec(1.0), derive_stream(17, 2, 1))

        d1, d2 = make(), make()
        np.testing.assert_array_equal(d1.phi, d2.phi)
        np.testing.assert_array_equal(d1.y, d2.y)


class TestSystemGenerators:
    @pytest.mark.parametrize("gen", [generate_t1, generate_t2])
    def test_norm_is_ten(self, gen):
        for i in range(5):
            system = gen(20, derive_stream(100, 1, i))
            assert abs(np.linalg.norm(system.theta0) - 10.0) <= 1e-12

    @pytest.mark.parametrize("gen", [generate_t1, generate_t2])
    def test_same_seed_same_system(self, gen):
        s1 = gen(20, derive_stream(55, 1, 3))
        s2 = gen(20, derive_stream(55, 1, 3))
        np.testing.assert_array_equal(s1.theta0, s2.theta0)

    def test_t1_draw_contract_and_variance_band(self):
        # the generator consumes (uniform variance, then coefficients) from
        # its stream and rescales to norm 10; the per-draw variances must
        # average to the midpoint 1.75 of the sampling band
        draws = 10**4
        sampled = np.empty(draws)
        for i in range(draws):
            rng = derive_stream(42, 1, i)
            sigma_g2 = rng.uniform(0.5, 3.0)
            theta = rng.standard_normal(20) * math.sqrt(sigma_g2)
            sampled[i] = sigma_g2
            system = generate_t1(20, derive_stream(42, 1, i))
            np.testing.assert_allclose(
                system.theta0, theta * (10.0 / np.linalg.norm(theta)), rtol=1e-12
            )
        se = math.sqrt(2.5**2 / 12.0 / draws)
        assert 0.5 < sampled.mean() < 3.0
        assert abs(sampled.mean() - 1.75) <= 3.0 * se

    @pytest.mark.parametrize("n", [1, 5, 20, 80])
    def test_t2_is_lfilter_bit_for_bit(self, n):
        for seed in range(100):
            got = generate_t2(n, derive_stream(seed, 1, 0)).theta0
            assert got.tobytes() == lfilter_t2(n, derive_stream(seed, 1, 0)).tobytes(), seed

    def test_t2_impulse_response_is_not_flat(self):
        system = generate_t2(20, derive_stream(7, 1, 0))
        assert np.std(system.theta0) > 0.1


class TestValidation:
    def test_unstable_pole_rejected(self):
        with pytest.raises(ValueError):
            SecondOrderAR(a=1.0, c_u=1.0)

    def test_noise_moment_bound(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma2=1.0, fourth_moment=0.5)

    @pytest.mark.parametrize(
        "sigma2, fourth_moment",
        [
            (math.inf, None),
            (math.nan, None),
            (-math.inf, None),
            (1.0, math.nan),
            (1.0, math.inf),
            (math.nan, 3.0),
            # the square or the cube overflows: a ValueError, not float **'s
            # OverflowError
            (1e200, None),
            (1e200, 1e300),
            (1e103, None),
        ],
    )
    def test_non_finite_noise_rejected(self, sigma2, fourth_moment):
        # NaN fails every comparison, so a check written as "refuse when
        # below the bound" lets it through
        with pytest.raises(ValueError):
            NoiseSpec(sigma2=sigma2, fourth_moment=fourth_moment)

    @pytest.mark.parametrize("c_u", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_filter_gain_rejected(self, c_u):
        with pytest.raises(ValueError, match="c_u"):
            SecondOrderAR(a=0.5, c_u=c_u)

    def test_default_fourth_moment_is_gaussian(self):
        assert NoiseSpec(sigma2=2.0).fourth_moment == pytest.approx(12.0)

    def test_kurtosis_ratio_bound(self):
        with pytest.raises(ValueError):
            FilterSpec(SecondOrderAR(a=0.1, c_u=1.0), kurtosis_ratio=0.5)

    @pytest.mark.parametrize("kurtosis_ratio", [math.nan, math.inf])
    def test_non_finite_kurtosis_ratio_rejected(self, kurtosis_ratio):
        # NaN fails every comparison, so a check written as "refuse when
        # below 1" lets it through, and every c_gamma entry is then NaN
        with pytest.raises(ValueError, match="kurtosis_ratio"):
            FilterSpec(SecondOrderAR(a=0.1, c_u=1.0), kurtosis_ratio=kurtosis_ratio)
