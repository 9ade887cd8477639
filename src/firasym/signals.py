"""Filtered white-noise inputs, FIR test systems, and exact autocovariances.

The input process is u(t) = sum_k h(k) e(t-k) with i.i.d. unit-variance
innovations e(t), filtered by the double-pole low-pass filter with impulse
response h(k) = c_u * (k+1) * a^k.  It starts from two samples of its
stationary law and runs by the filter's own two-pole recursion, which makes
the roundings of ``scipy.signal.lfilter`` started from them, bit for bit,
without importing scipy.signal (with the scipy.stats it loads, ~0.7 s and
~25 MB per process).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError

RandomStream = np.random.Generator


def derive_stream(master_seed: int, *key: int) -> RandomStream:
    """Counter-based random stream keyed by (master_seed, *key).

    Distinct keys give statistically independent streams, and the same key
    always reproduces the same stream regardless of process or thread.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class SecondOrderAR:
    """Double-pole filter c_u / (1 - a q^-1)^2 with 0 <= a < 1."""

    a: float
    c_u: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.a < 1.0:
            raise ValueError(f"pole parameter a must be in [0, 1), got {self.a}")
        if self.c_u == 0.0 or not math.isfinite(self.c_u):
            raise ValueError(f"c_u must be finite and nonzero, got {self.c_u}")


@dataclass
class FilterSpec:
    """Input filter driven by unit-variance innovations, with their kurtosis
    ratio.

    An innovation variance other than 1 is the same input as c_u scaled by
    its square root.  kurtosis_ratio is E[e^4] and defaults to 3 (Gaussian).
    It only enters fourth-moment formulas; the sample generator always draws
    Gaussian innovations.
    """

    kind: SecondOrderAR
    kurtosis_ratio: float = 3.0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so only a finite ratio >= 1 passes
        if not 1.0 <= self.kurtosis_ratio < math.inf:
            raise ValueError(
                f"kurtosis_ratio must be finite and >= 1, got {self.kurtosis_ratio}"
            )


@dataclass
class NoiseSpec:
    """Measurement-noise variance and fourth moment (default Gaussian)."""

    sigma2: float
    fourth_moment: float | None = None

    def __post_init__(self) -> None:
        # NaN fails each comparison; x * x overflows to inf where x**2 raises.
        # The third-order report block v_b3_11 scales with sigma2^3
        square = self.sigma2 * self.sigma2
        if not (0.0 < self.sigma2 and square * self.sigma2 < math.inf):
            raise ValueError(
                f"sigma2 must be positive with a finite cube, got {self.sigma2}"
            )
        if self.fourth_moment is None:
            self.fourth_moment = 3.0 * square
        if not square <= self.fourth_moment < math.inf:
            raise ValueError(
                f"fourth_moment must be finite and >= sigma2^2, got {self.fourth_moment}"
            )


@dataclass
class FirSystem:
    """True FIR coefficients g_1 ... g_n."""

    theta0: np.ndarray

    def __post_init__(self) -> None:
        self.theta0 = np.asarray(self.theta0, dtype=float)
        if self.theta0.ndim != 1 or self.theta0.size < 1:
            raise ValueError("theta0 must be a nonempty vector")
        if not np.all(np.isfinite(self.theta0)):
            raise ValueError("theta0 must be finite")

    @property
    def order(self) -> int:
        return self.theta0.size


@dataclass
class Dataset:
    """One identification record: Y = Phi theta0 + V.

    Row t of ``phi`` is [u(t-1), ..., u(t-n)].  The noise V is not kept;
    where it is needed, it is Y - Phi theta0.  ``gram`` and ``theta_ls`` are
    formed on first use and cached, so ``phi`` and ``y`` must not change
    after that.
    """

    phi: np.ndarray
    y: np.ndarray
    system: FirSystem

    @property
    def n_samples(self) -> int:
        return self.phi.shape[0]

    @property
    def order(self) -> int:
        return self.phi.shape[1]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Regression Gram matrix Phi' Phi."""
        return self.phi.T @ self.phi

    @functools.cached_property
    def theta_ls(self) -> np.ndarray:
        """Least-squares coefficients via an orthogonal factorization of Phi."""
        theta, _, rank, _ = np.linalg.lstsq(self.phi, self.y, rcond=None)
        if rank < self.order:
            raise RankDeficientError(
                f"regression matrix is rank deficient (N={self.n_samples},"
                f" n={self.order})"
            )
        return theta


def autocovariance(filt: FilterSpec, tau: int) -> float:
    """Input autocovariance R_u(tau) = sum_k h(k) h(k+|tau|), in closed form."""
    t = abs(int(tau))
    a, c_u = filt.kind.a, filt.kind.c_u
    one = (1.0 - a) * (1.0 + a)
    return c_u**2 * a**t * (2.0 / one**3 + (t - 1.0) / one**2)


def stationary_start(a: float) -> tuple[float, float, float]:
    """(rho, d0, d1) of the input's stationary start (Brockwell and Davis,
    1991): the first sample has variance c_u^2 / d0, and the second is rho
    times the first plus an independent innovation of variance c_u^2 / d1."""
    r = a * a
    one = (1.0 - a) * (1.0 + a)
    return 2.0 * a / (1.0 + r), one**3 / (1.0 + r), one * (1.0 + r)


def generate_input(
    filt: FilterSpec, n: int, n_samples: int, rng: RandomStream
) -> np.ndarray:
    """Draw the input u(t) for t = 1-n, ..., n_samples-1 from as many normals:
    u(1-n) and u(2-n) from the stationary law of ``stationary_start``, then
    u(t) = c_u e(t) + (2a u(t-1) - a^2 u(t-2)), stationary at every pole."""
    if n < 1 or n_samples <= n:
        raise ValueError("need n >= 1 and n_samples > n")
    a = filt.kind.a
    rho, d0, d1 = stationary_start(a)
    x = (filt.kind.c_u * rng.standard_normal(n_samples + n - 1)).tolist()
    prev2 = x[0] / math.sqrt(d0)
    prev = rho * prev2 + x[1] / math.sqrt(d1)
    u = [prev2, prev]
    two_a, a2 = 2.0 * a, a * a
    # lfilter's transposed direct form II makes these roundings: its state
    # is -(a^2 u(t-2)) + 2a u(t-1), and negation and doubling are exact
    for x_t in x[2:]:
        prev2, prev = prev, x_t + (two_a * prev - a2 * prev2)
        u.append(prev)
    return np.array(u)


def lag_matrix(u: np.ndarray, n: int) -> np.ndarray:
    """Regression matrix with row t equal to [u(t-1), ..., u(t-n)].

    ``u`` covers t = 1-n ... N-1, so the result has N = len(u) - n + 1 rows.
    """
    u = np.asarray(u, dtype=float)
    if u.size <= n:
        raise ValueError("input too short for the requested order")
    n_samples = u.size - n + 1
    # column i (1-based) is u(t-i) for t = 1..N, i.e. u[n-i : n-i+N]
    return np.column_stack([u[n - i : n - i + n_samples] for i in range(1, n + 1)])


def build_dataset(
    system: FirSystem,
    u: np.ndarray,
    noise: NoiseSpec,
    rng: RandomStream,
) -> Dataset:
    """Assemble the lagged regression matrix and simulate the output.

    ``u`` must cover t = 1-n ... N-1 (length N + n - 1).  The rank of the
    regression matrix is checked by ``Dataset.theta_ls``, which a fit needs.
    """
    phi = lag_matrix(u, system.order)
    v = rng.standard_normal(phi.shape[0]) * math.sqrt(noise.sigma2)
    return Dataset(phi=phi, y=phi @ system.theta0 + v, system=system)


def generate_t1(n: int, rng: RandomStream) -> FirSystem:
    """Random FIR truth with i.i.d. Gaussian coefficients, norm 10.

    The per-system coefficient variance is itself uniform on [0.5, 3]
    before the final rescaling to ||theta0|| = 10.
    """
    sigma_g2 = rng.uniform(0.5, 3.0)
    theta = rng.standard_normal(n) * math.sqrt(sigma_g2)
    theta *= 10.0 / np.linalg.norm(theta)
    return FirSystem(theta0=theta)


def generate_t2(n: int, rng: RandomStream) -> FirSystem:
    """Random slow-pole system truncated to an order-n FIR truth, norm 10.

    A 30th-order discrete system is drawn with 5 poles of modulus in
    [0.94, 0.96] and the remaining 25 of modulus below 0.9; its impulse
    response at lags 1..n becomes theta0, rescaled to ||theta0|| = 10.
    """
    slow = _random_roots(rng, n_pairs=2, n_real=1, lo=0.94, hi=0.96)
    fast = _random_roots(rng, n_pairs=12, n_real=1, lo=0.0, hi=0.9)
    zeros = _random_roots(rng, n_pairs=14, n_real=1, lo=0.0, hi=0.9)
    den = np.real(np.poly(np.concatenate([slow, fast])))
    num = np.real(np.poly(zeros))
    theta = _impulse_response(num, den, n + 1)[1:]
    nrm = np.linalg.norm(theta)
    if nrm == 0.0:  # cannot happen for stable nontrivial systems
        raise ValueError("degenerate impulse response")
    theta = theta * (10.0 / nrm)
    return FirSystem(theta0=theta)


def _impulse_response(num: np.ndarray, den: np.ndarray, length: int) -> np.ndarray:
    """First ``length`` samples of the impulse response of num(q^-1) /
    den(q^-1), den monic and no shorter than num, in the transposed direct
    form II that ``scipy.signal.lfilter`` runs, rounding for rounding."""
    b = np.zeros(den.size)
    b[: num.size] = num
    z = np.zeros(den.size - 1)
    h = np.empty(length)
    for k in range(length):
        x = 1.0 if k == 0 else 0.0
        h[k] = y = z[0] + b[0] * x
        z[:-1] = z[1:] + x * b[1:-1] - y * den[1:-1]
        z[-1] = x * b[-1] - y * den[-1]
    return h


def _random_roots(
    rng: RandomStream, n_pairs: int, n_real: int, lo: float, hi: float
) -> np.ndarray:
    """Conjugate-paired complex roots plus signed real roots with modulus
    drawn uniformly from [lo, hi]."""
    mod = rng.uniform(lo, hi, size=n_pairs)
    ang = rng.uniform(0.0, math.pi, size=n_pairs)
    cplx = mod * np.exp(1j * ang)
    real = rng.uniform(lo, hi, size=n_real) * rng.choice([-1.0, 1.0], size=n_real)
    return np.concatenate([cplx, np.conj(cplx), real.astype(complex)])
