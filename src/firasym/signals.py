"""Filtered white-noise inputs, FIR test systems, and exact autocovariances.

The input process is u(t) = sum_k h(k) e(t-k) with i.i.d. innovations e(t).
Two filter kinds are supported: a double-pole low-pass filter with impulse
response h(k) = c_u * (k+1) * a^k, and an explicit finite impulse sequence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import RankDeficientError

RandomStream = np.random.Generator

# Startup transients of the recursive filter are run down to this relative
# magnitude before samples are kept.
_BURN_IN_TOL = 1e-12


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
class ImpulseSequence:
    """Explicit finite impulse response h(0), ..., h(K)."""

    h: np.ndarray

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=float)
        if self.h.ndim != 1 or self.h.size == 0:
            raise ValueError("h must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("h must be finite")


@dataclass
class FilterSpec:
    """Input filter together with innovation variance and kurtosis ratio.

    kurtosis_ratio is E[e^4] / sigma_e^4 and defaults to 3 (Gaussian).  It
    only enters fourth-moment formulas; the sample generator always draws
    Gaussian innovations.
    """

    kind: SecondOrderAR | ImpulseSequence
    sigma_e2: float = 1.0
    kurtosis_ratio: float = 3.0

    def __post_init__(self) -> None:
        if self.sigma_e2 <= 0.0:
            raise ValueError("sigma_e2 must be positive")
        if self.kurtosis_ratio < 1.0:
            raise ValueError("kurtosis_ratio must be >= 1")


@dataclass
class NoiseSpec:
    """Measurement-noise variance and fourth moment (default Gaussian)."""

    sigma2: float
    fourth_moment: float | None = None

    def __post_init__(self) -> None:
        # written so that NaN fails each comparison
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.fourth_moment is None:
            self.fourth_moment = 3.0 * self.sigma2**2
        if not self.sigma2**2 <= self.fourth_moment < math.inf:
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

    Row t of ``phi`` is [u(t-1), ..., u(t-n)].  ``v`` is the realized noise
    (kept for expansion-identity checks) or None when unknown.  ``gram`` and
    ``theta_ls`` are formed on first use and cached, so ``phi`` and ``y``
    must not change after that.
    """

    phi: np.ndarray
    y: np.ndarray
    v: np.ndarray | None
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


def impulse_response(filt: FilterSpec, tail_tol: float) -> np.ndarray:
    """Impulse response h(0..K) with discarded tail below tail_tol.

    K is chosen so that sum_{k>K} |h(k)| <= tail_tol * sum_{k<=K} |h(k)|.
    For the double-pole filter the cut-off comes from the geometric tail
    bound; explicit sequences are returned unchanged.
    """
    if tail_tol <= 0.0:
        raise ValueError("tail_tol must be positive")
    kind = filt.kind
    if isinstance(kind, ImpulseSequence):
        return kind.h.copy()
    a, c_u = kind.a, kind.c_u
    # sum_{k>=m} (k+1) a^k = a^m [(m+1)(1-a) + a] / (1-a)^2, exact.
    total = 1.0 / (1.0 - a) ** 2
    cut = 0
    while True:
        m = cut + 1
        tail = a**m * ((m + 1.0) * (1.0 - a) + a) / (1.0 - a) ** 2
        if tail <= tail_tol * (total - tail):
            break
        cut += 1
    k = np.arange(cut + 1)
    return c_u * (k + 1) * a**k


def autocovariance(filt: FilterSpec, tau: int) -> float:
    """Input autocovariance R_u(tau) = sigma_e^2 sum_k h(k) h(k+|tau|).

    Uses the exact closed form for the double-pole filter and the finite
    sum for explicit impulse sequences.
    """
    t = abs(int(tau))
    kind = filt.kind
    if isinstance(kind, SecondOrderAR):
        a, c_u = kind.a, kind.c_u
        one = 1.0 - a * a
        return c_u**2 * filt.sigma_e2 * a**t * (2.0 / one**3 + (t - 1.0) / one**2)
    h = kind.h
    if t >= h.size:
        return 0.0
    return filt.sigma_e2 * float(np.dot(h[: h.size - t], h[t:]))


def _burn_in_length(a: float) -> int:
    if a == 0.0:
        return 1
    return int(math.ceil(math.log(_BURN_IN_TOL) / math.log(a)))


def generate_input(
    filt: FilterSpec, n: int, n_samples: int, rng: RandomStream
) -> np.ndarray:
    """Draw the input u(t) for t = 1-n, ..., n_samples-1.

    The filter is warmed up long enough that the startup transient is below
    numerical noise, so the returned stretch is (numerically) stationary.
    """
    if n < 1 or n_samples <= n:
        raise ValueError("need n >= 1 and n_samples > n")
    length = n_samples + n - 1
    kind = filt.kind
    scale = math.sqrt(filt.sigma_e2)
    if isinstance(kind, SecondOrderAR):
        burn = _burn_in_length(kind.a)
        e = rng.standard_normal(burn + length) * scale
        den = np.array([1.0, -2.0 * kind.a, kind.a**2])
        return lfilter(np.array([kind.c_u]), den, e)[burn:]
    h = kind.h
    e = rng.standard_normal(length + h.size - 1) * scale
    return np.convolve(e, h, mode="valid")


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
    noise_free: bool = False,
) -> Dataset:
    """Assemble the lagged regression matrix and simulate the output.

    ``u`` must cover t = 1-n ... N-1 (length N + n - 1).  The rank of the
    regression matrix is checked by ``Dataset.theta_ls``, which a fit needs.
    """
    phi = lag_matrix(u, system.order)
    n_samples = phi.shape[0]
    if noise_free:
        v = np.zeros(n_samples)
    else:
        v = rng.standard_normal(n_samples) * math.sqrt(noise.sigma2)
    return Dataset(phi=phi, y=phi @ system.theta0 + v, v=v, system=system)


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
    pulse = np.zeros(n + 1)
    pulse[0] = 1.0
    h = lfilter(num, den, pulse)
    theta = h[1 : n + 1]
    nrm = np.linalg.norm(theta)
    if nrm == 0.0:  # cannot happen for stable nontrivial systems
        raise ValueError("degenerate impulse response")
    theta = theta * (10.0 / nrm)
    return FirSystem(theta0=theta)


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
