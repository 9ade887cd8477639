"""Closed-form limit quantities for the regularized FIR estimator.

Everything here is deterministic linear algebra: the stationary input
covariance Sigma, the fourth-moment matrix of the scaled Gram deviation
(kept as its lag table, c_gamma), the limit hyper-parameter eta_star with
its curvature (a_b) and sensitivity (b_b) blocks, the limiting covariance
of the hyper-parameter estimate (v_b_h), the second- and third-order
covariance blocks of the coefficient estimates, and the induced
mean-square-error approximations, derived at any record length N from the
blocks that do not depend on N.  The per-record expansion terms that
check these decompositions on simulated data live with the tests, in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OutOfBoxError, SingularHessianWarning
from .estimators import (
    KernelSpec,
    OptimizerOptions,
    _pd_inverse,
    _reduced_cost_grad,
    _sym,
    kernel_matrix,
    minimize_box,
)
from .signals import FilterSpec, NoiseSpec, autocovariance


@dataclass
class SecondOrderStats:
    """Input covariance Sigma with its inverse and eigenvalues, and the lag
    table of the fourth-moment matrix of the scaled Gram deviation."""

    sigma: np.ndarray
    sigma_inv: np.ndarray
    c_gamma: np.ndarray
    eigenvalues: np.ndarray  # descending
    cond: float


@dataclass
class HyperParameterLaw:
    """Curvature a_b, sensitivity rows b_b, and the limiting covariance
    v_b_h of the scaled hyper-parameter error at eta_star, with the inverses
    of P(eta*) and a_b that the third-order blocks reuse."""

    eta_star: np.ndarray
    a_b: np.ndarray
    b_b: np.ndarray
    v_b_h: np.ndarray
    p_inv: np.ndarray
    a_inv: np.ndarray


@dataclass(frozen=True)
class AsymptoticReport:
    """Every limit quantity for one (kernel, truth, filter, noise) tuple at
    record length ``n_samples``.  The other fields do not depend on N; the
    terms that do (e_b_ar, v_als, v_b_ar and the order-1/2/3 MSE
    approximations amse) are derived from them here alone, so
    ``dataclasses.replace(report, n_samples=M)`` is the report at M."""

    eta_star: np.ndarray
    a_b: np.ndarray
    b_b: np.ndarray
    v_b_h: np.ndarray
    v_als_1: np.ndarray
    v_als_2: np.ndarray
    c_b: np.ndarray
    vartheta_b2: np.ndarray
    v_b3_11: np.ndarray
    v_b3_12: np.ndarray
    v_b3_13: np.ndarray
    v_b3_2: np.ndarray
    n_samples: int
    cond_sigma: float

    def __post_init__(self) -> None:
        # every derived term divides by N or by its square root
        if self.n_samples < 1:
            raise ValueError(f"record length must be >= 1, got {self.n_samples}")

    @cached_property
    def e_b_ar(self) -> np.ndarray:
        return self.vartheta_b2 / math.sqrt(self.n_samples)

    @cached_property
    def v_als(self) -> np.ndarray:
        return self.v_als_1 + self.v_als_2 / self.n_samples

    @cached_property
    def v_b_ar(self) -> np.ndarray:
        v_b3_1 = self.v_b3_11 + self.v_b3_12 + self.v_b3_13
        pair, n_samples = self.v_b3_2 + self.v_b3_2.T, self.n_samples
        return self.v_als + v_b3_1 / n_samples**2 + pair / n_samples

    @cached_property
    def amse(self) -> tuple[float, float, float]:
        n_samples = self.n_samples
        bias_sq = float(self.e_b_ar @ self.e_b_ar)
        return (
            float(np.trace(self.v_als_1)) / n_samples,
            (float(np.trace(self.v_als)) + bias_sq) / n_samples,
            (float(np.trace(self.v_b_ar)) + bias_sq) / n_samples,
        )

    def summary(self) -> dict[str, float]:
        """The scalar summaries of the report, without its matrices."""
        return {
            "trace_v_b_h": float(np.trace(self.v_b_h)),
            "trace_v_als": float(
                np.trace(self.v_als_1) + np.trace(self.v_als_2) / self.n_samples
            ),
            "trace_v_b_ar": float(np.trace(self.v_b_ar)),
            "e_b_ar_sq_norm": float(self.e_b_ar @ self.e_b_ar),
        }

    def to_json_dict(self) -> dict:
        """JSON-ready dictionary; matrices are row-major nested lists."""
        names = [f.name for f in fields(self) if f.name != "vartheta_b2"]
        names += ["e_b_ar", "v_b_ar", "amse"]
        doc = {name: np.asarray(getattr(self, name)).tolist() for name in names}
        doc.update(self.summary())
        return doc


def sigma_matrix(filt: FilterSpec, n: int) -> np.ndarray:
    """Toeplitz input covariance with entries R_u(|i-j|)."""
    r = np.array([autocovariance(filt, t) for t in range(n)])
    idx = np.arange(n)
    return r[np.abs(idx[:, None] - idx[None, :])]


def _f_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Series kernel of the double-pole filter: for integer x >= 0,
    sum_tau R_u(tau) R_u(tau + x) = c_u^4 f(x) / (1-a^2)^6."""
    x = np.asarray(x, dtype=float)
    one = 1.0 - a * a
    t1 = (2.0 * a ** (x + 2) / one) * ((1 - x) * a**4 + (5 - x) * a**2 + 4 + 2 * x)
    t2 = -(a**x) * one**2 * x * (x + 1) * (2 * x + 1) / 6.0
    t3 = a**x * one**2 * x**2 * (x + 1) / 2.0
    t4 = a**x * (x + 1) * ((1 - x) * a**4 + 2 * a**2 + 1 + x)
    return t1 + t2 + t3 + t4


def c_gamma(filt: FilterSpec, n: int) -> np.ndarray:
    """Lag table of the limiting fourth-moment matrix of the scaled Gram
    deviation, C = N E[(Phi'Phi/N - Sigma) kron (Phi'Phi/N - Sigma)].

    C is n^2 x n^2, but under column-major stacking its entry (p, q) is
    table[|col_p - col_q|, |row_p - row_q|], so the n x n table holds all of
    it; :func:`gram_contraction` applies C without forming it.
    """
    excess = filt.kurtosis_ratio - 3.0
    a, c_u = filt.kind.a, filt.kind.c_u
    k = np.arange(n, dtype=float)[:, None]
    l = np.arange(n, dtype=float)[None, :]
    one = 1.0 - a * a
    first = (
        c_u**4
        * excess
        * a ** (k + l)
        / one**6
        * (k * one + 1 + a * a)
        * (l * one + 1 + a * a)
    )
    second = c_u**4 / one**6 * (_f_gamma(a, np.abs(k - l)) + _f_gamma(a, k + l))
    return first + second


# float64 elements per slab of _toeplitz_matvec's products: a few lag-table
# rows at a time keep its temporaries in cache and its memory O(n^2)
_SLAB_ELEMENTS = 2**15


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of float64 a = high + low, exact for |a| < 2**996, each
    part holding at most 26 significant bits, so the product of two parts is
    exact."""
    scaled = a * 134217729.0  # 2**27 + 1
    high = scaled - (scaled - a)
    return high, a - high


def _toeplitz_matvec(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w[k] = toeplitz(table[k]) @ x for every k, as accurate as if summed in
    twice float64 precision, returned in the dtype of x.

    x (float64, or a long double with a 64-bit significand) splits exactly
    into float64 parts x_hi + x_lo.  Every product table * x_hi is formed
    error-free (Dekker, Numer. Math. 18, 1971) and summed over j by
    error-free additions, pairwise; the rounding errors, with the small
    products table * x_lo, are accumulated apart (Ogita, Rump and Oishi's
    Dot2, SIAM J. Sci. Comput. 26(6), 2005).  Table and x are first scaled
    by powers of two, which is exact, so that no split can overflow.
    """
    n = x.size
    t_exp = np.frexp(np.max(np.abs(table)))[1]
    x_exp = np.frexp(np.max(np.abs(x)))[1]
    # ext[:, n - 1 + m] = table[:, |m|] / 2**t_exp, and its windows are
    # win[i, k, r] = ext[k, r + i] = table[k, |r - j|] / 2**t_exp, j = n - 1 - i
    ext = np.ldexp(np.concatenate([table[:, :0:-1], table], axis=1), -t_exp)
    windows = [
        sliding_window_view(part, n, axis=1).transpose(2, 0, 1)
        for part in (ext, *_split(ext))
    ]
    x_rev = np.ldexp(x[::-1], -x_exp)[:, None, None]
    x_hi = x_rev.astype(np.float64)
    x_lo = (x_rev - x_hi).astype(np.float64)
    xh_hi, xh_lo = _split(x_hi)
    total = np.empty(table.shape)
    err = np.empty(table.shape)
    rows = max(1, _SLAB_ELEMENTS // (n * n))
    for start in range(0, n, rows):
        a, a_hi, a_lo = (win[:, start : start + rows] for win in windows)
        s = a * x_hi
        # u = the rounding error of s, exactly, plus a * x_lo
        t = a_hi * xh_hi
        np.subtract(s, t, out=t)
        u = a_lo * xh_hi
        t -= u
        np.multiply(a_hi, xh_lo, out=u)
        t -= u
        np.multiply(a_lo, xh_lo, out=u)
        u -= t
        np.multiply(a, x_lo, out=t)
        u += t
        e = u.sum(axis=0)
        # fold the upper half of s onto the lower half until one term is
        # left, adding each fold's exact rounding error (Knuth's TwoSum) to e
        m = n
        while m > 1:
            keep, h = (m + 1) // 2, m // 2
            low, high = s[:h], s[keep:m]
            new = low + high
            part = new - low
            high -= part
            part -= new
            part += low
            part += high
            e += part.sum(axis=0)
            low[...] = new
            m = keep
        total[start : start + rows] = s[0]
        err[start : start + rows] = e
    return np.ldexp(total.astype(x.dtype) + err.astype(x.dtype), t_exp + x_exp)


def gram_contraction(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """unvec(C vec(X)) for the fourth-moment matrix C whose lag table
    :func:`c_gamma` returns, without forming C.

    C is block-Toeplitz with Toeplitz blocks B[k] = toeplitz(table[k]).  A
    square ``x`` is X itself: Z[k] = B[k] X and Y[:, c] = sum_d Z[|c-d|][:, d],
    O(n^4) flops and O(n^3) memory.  A vector ``x`` stands for X = x x':
    W[k] = B[k] x and Y[r, c] = sum_d W[|c-d|, r] x[d], O(n^3) flops.  The
    square case runs in the dtype of ``x``.

    In the rank-1 case x oscillates (it is Sigma^-1 applied to a vector in
    the report) while the blocks are smooth, so W keeps only a small part of
    the digits of its terms.  W is therefore formed in float64 error-free
    arithmetic, as accurate as twice float64 precision, and returned in the
    dtype of ``x``, in which the final sum over d runs.  In plain long
    double, the closed-form ridge report and the generic one disagree on
    trace(v_b_ar) by up to 4e-10 at a = 0.99, n = 20; with W so formed, by
    about 1e-15.
    """
    n = table.shape[0]
    idx = np.arange(n)
    lag = np.abs(idx[:, None] - idx[None, :])
    if x.ndim == 1:
        w = _toeplitz_matvec(table, x)  # (k, r)
        return (x @ w[lag]).T  # w[lag] is (c, d, r)
    blocks = table.astype(x.dtype)[:, lag]  # (k, r, r')
    z = (blocks.reshape(n * n, n) @ x).reshape(n, n, n)  # (k, r, d)
    return z[lag, :, idx].sum(axis=1).T  # z[lag, :, idx] is (c, d, r)


def second_order_stats(filt: FilterSpec, n: int) -> SecondOrderStats:
    sigma = sigma_matrix(filt, n)
    # eigh, not eigvalsh: their eigenvalues differ in the last bits, which
    # cond_sigma carries into every artifact
    values = np.linalg.eigh(sigma)[0][::-1]  # eigh sorts them ascending
    return SecondOrderStats(
        sigma=sigma,
        sigma_inv=_pd_inverse(sigma),
        c_gamma=c_gamma(filt, n),
        eigenvalues=values,
        cond=float(values[0] / values[-1]),
    )


def eta_star(
    spec: KernelSpec, theta0: np.ndarray, opts: OptimizerOptions | None = None
) -> np.ndarray:
    """Limit of the hyper-parameter estimate: the box minimizer of the
    prior-fit criterion.  The ridge case is solved in closed form."""
    theta0 = np.asarray(theta0, dtype=float)
    if spec.family == "ridge":
        value = float(theta0 @ theta0) / theta0.size
        if not spec.contains(np.array([value])):
            raise OutOfBoxError(
                f"analytic ridge optimum {value} outside box {spec.omega.tolist()}"
            )
        return np.array([value])
    eta, _, _ = minimize_box(theta0, 0.0, spec, opts)
    return eta


def _robust_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    """Cholesky inverse with an eigenvalue-thresholded pseudo-inverse
    fallback (threshold 1e-12 of the largest magnitude eigenvalue)."""
    try:
        return _pd_inverse(mat)
    except np.linalg.LinAlgError:
        warnings.warn(
            f"{what} is not positive definite; using a pseudo-inverse",
            SingularHessianWarning,
        )
        values, vectors = np.linalg.eigh(_sym(mat))
        cut = 1e-12 * float(np.max(np.abs(values))) if mat.size else 0.0
        inv_vals = np.where(np.abs(values) > cut, 1.0 / values, 0.0)
        return _sym((vectors * inv_vals) @ vectors.T)


def hyper_parameter_law(
    spec: KernelSpec,
    theta0: np.ndarray,
    eta_star_value: np.ndarray,
    sigma_inv: np.ndarray,
    sigma2: float,
) -> HyperParameterLaw:
    """Blocks of the limiting law of the scaled hyper-parameter error.

    a_b is the Hessian of the prior-fit criterion at eta_star (the reduced
    cost's analytic Hessian with a zero noise term), b_b stacks the rows
    theta0' d(P^-1)/d(eta_k) = -(dP_k P^-1 theta0)' P^-1, and

        v_b_h = 4 sigma2 a_b^-1 b_b Sigma^-1 b_b' a_b^-1,  Sigma^-1 = sigma_inv.
    """
    theta0 = np.asarray(theta0, dtype=float)
    P, dP = kernel_matrix(spec, eta_star_value, theta0.size, order=1)
    p_inv = _pd_inverse(P)
    a_b = _reduced_cost_grad(eta_star_value, theta0, 0.0, spec, hessian=True)[2]
    b_b = -(dP @ (p_inv @ theta0)) @ p_inv
    a_inv = _robust_inverse(a_b, "curvature matrix")
    half = a_inv @ b_b  # p x n
    v_b_h = 4.0 * sigma2 * half @ sigma_inv @ half.T
    return HyperParameterLaw(
        eta_star=eta_star_value,
        a_b=a_b,
        b_b=b_b,
        v_b_h=_sym(v_b_h),
        p_inv=p_inv,
        a_inv=a_inv,
    )


def _rank1_gram_contraction(
    table: np.ndarray,
    s_inv: np.ndarray,
    p_inv: np.ndarray,
    theta0: np.ndarray,
    scale: float,
) -> np.ndarray:
    """scale * S unvec(C vec(x x')) S with x = S p_inv theta0, S = s_inv.

    The contraction cancels by many orders of magnitude when Sigma is ill
    conditioned, which would amplify ordinary rounding differences between
    algebraically equal formulations far beyond comparison tolerances.  So
    x, the outer products with S and the final sum of
    :func:`gram_contraction` run in long double, and its W in float64
    error-free arithmetic of twice float64 precision.  The rank-1 vector x
    is built inside so callers only contribute uniform (scalar-level)
    rounding, which the quadratic form does not amplify.
    """
    ld = np.longdouble
    s_ld = s_inv.astype(ld)
    x = s_ld @ (p_inv.astype(ld) @ theta0.astype(ld))
    mid = gram_contraction(table, x)
    out = ld(scale) * (s_ld @ mid @ s_ld)
    return _sym(out.astype(float))


def ls_error_covariances(
    stats: SecondOrderStats, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order covariance of the scaled LS error.

    Returns (v1, v2) with v1 = sigma2 Sigma^-1 and
    v2 = sigma2 * unvec[(Sigma^-1 kron Sigma^-1) C vec(Sigma^-1)], with C
    applied from its lag table ``stats.c_gamma``; v_als = v1 + v2 / N.
    """
    s_inv = stats.sigma_inv
    v1 = sigma2 * s_inv
    v2 = sigma2 * s_inv @ gram_contraction(stats.c_gamma, s_inv) @ s_inv
    return v1, _sym(v2)


def regularized_error_moments(
    theta0: np.ndarray,
    law: HyperParameterLaw,
    stats: SecondOrderStats,
    noise: NoiseSpec,
    n_samples: int,
) -> AsymptoticReport:
    """The report at ``law``'s eta_star and record length ``n_samples``: the
    N-independent mean and covariance blocks of the third-order law of the
    scaled regularized-estimate error, next to the hyper-parameter blocks of
    ``law``.  The inverses of P(eta*), a_b and Sigma are read from ``law``
    and ``stats``."""
    theta0 = np.asarray(theta0, dtype=float)
    sigma2 = noise.sigma2
    p_inv, s_inv = law.p_inv, stats.sigma_inv
    c_b = _sym(-2.0 * law.b_b.T @ law.a_inv @ law.b_b + p_inv)
    w = s_inv @ (p_inv @ theta0)
    v1, v2 = ls_error_covariances(stats, sigma2)
    return AsymptoticReport(
        eta_star=law.eta_star,
        a_b=law.a_b,
        b_b=law.b_b,
        v_b_h=law.v_b_h,
        v_als_1=v1,
        v_als_2=v2,
        c_b=c_b,
        vartheta_b2=-sigma2 * w,
        v_b3_11=_sym(sigma2**3 * s_inv @ c_b @ s_inv @ c_b @ s_inv),
        v_b3_12=_rank1_gram_contraction(stats.c_gamma, s_inv, p_inv, theta0, sigma2**2),
        v_b3_13=(noise.fourth_moment - sigma2**2) * np.outer(w, w),
        v_b3_2=_sym(-(sigma2**2) * s_inv @ c_b @ s_inv),
        n_samples=n_samples,
        cond_sigma=stats.cond,
    )


def asymptotic_report(
    spec: KernelSpec,
    theta0: np.ndarray,
    filt: FilterSpec,
    noise: NoiseSpec,
    n_samples: int,
    opts: OptimizerOptions | None = None,
) -> AsymptoticReport:
    """Full report through the generic pipeline (numeric eta_star for
    non-ridge kernels)."""
    theta0 = np.asarray(theta0, dtype=float)
    stats = second_order_stats(filt, theta0.size)
    star = eta_star(spec, theta0, opts)
    law = hyper_parameter_law(spec, theta0, star, stats.sigma_inv, noise.sigma2)
    return regularized_error_moments(theta0, law, stats, noise, n_samples)


def ridge_report(
    theta0: np.ndarray,
    filt: FilterSpec,
    noise: NoiseSpec,
    n_samples: int,
    stats: SecondOrderStats | None = None,
) -> AsymptoticReport:
    """Fully closed-form report for the ridge kernel (no optimizer).

    ``stats`` may carry precomputed input statistics when sweeping many
    truths over the same filter.  The report holds only N-independent
    blocks, so the report at another record length is
    ``dataclasses.replace(report, n_samples=M)``, without recomputing them.
    """
    theta0 = np.asarray(theta0, dtype=float)
    n = theta0.size
    s = float(theta0 @ theta0)
    if s == 0.0:
        raise ValueError("theta0 must be nonzero")
    sigma2 = noise.sigma2
    if stats is None:
        stats = second_order_stats(filt, n)
    s_inv = stats.sigma_inv
    st = s_inv @ theta0
    v1, v2 = ls_error_covariances(stats, sigma2)

    c_b = (n / s) * np.eye(n) - (2.0 * n / s**2) * np.outer(theta0, theta0)

    outer_st = np.outer(st, st)
    s_inv2 = s_inv @ s_inv
    v_b3_11 = (n**2 * sigma2**3 / s**2) * (
        (4.0 / s**2) * float(theta0 @ st) * outer_st
        + s_inv2 @ s_inv
        - (2.0 / s) * (s_inv2 @ np.outer(theta0, st) + np.outer(st, theta0) @ s_inv2)
    )
    v_b3_12 = _rank1_gram_contraction(
        stats.c_gamma, s_inv, (n / s) * np.eye(n), theta0, sigma2**2
    )
    v_b3_13 = (n**2 * (noise.fourth_moment - sigma2**2) / s**2) * outer_st
    v_b3_2 = (2.0 * n * sigma2**2 / s**2) * outer_st - (n * sigma2**2 / s) * s_inv2
    return AsymptoticReport(
        eta_star=np.array([s / n]),
        a_b=np.array([[n**3 / s**2]]),
        b_b=-(n**2 / s**2) * theta0[None, :],
        v_b_h=np.array([[4.0 * sigma2 / n**2 * float(theta0 @ st)]]),
        v_als_1=v1,
        v_als_2=v2,
        c_b=_sym(c_b),
        vartheta_b2=-(n * sigma2 / s) * st,
        v_b3_11=_sym(v_b3_11),
        v_b3_12=v_b3_12,
        v_b3_13=_sym(v_b3_13),
        v_b3_2=_sym(v_b3_2),
        n_samples=n_samples,
        cond_sigma=stats.cond,
    )
