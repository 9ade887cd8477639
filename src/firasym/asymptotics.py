"""Closed-form limit quantities for the regularized FIR estimator.

Everything here is deterministic linear algebra: the stationary input
covariance Sigma, the fourth-moment matrix of the scaled Gram deviation
(kept as its lag table, c_gamma), the limit hyper-parameter eta_star with
its curvature (a_b) and sensitivity (b_b) blocks, the limiting covariance
of the hyper-parameter estimate (v_b_h), the second- and third-order
covariance blocks of the coefficient estimates, and the induced
mean-square-error approximations.
Matching per-record expansion terms are provided so the algebraic
decompositions can be checked on simulated data.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import toeplitz

from .errors import OutOfBoxError, SingularHessianWarning
from .estimators import (
    EbFit,
    KernelSpec,
    OptimizerOptions,
    _pd_inverse,
    _reduced_cost_grad,
    _sym,
    kernel_matrix,
    minimize_box,
)
from .signals import (
    Dataset,
    FilterSpec,
    NoiseSpec,
    SecondOrderAR,
    autocovariance,
)


def vec(mat: np.ndarray) -> np.ndarray:
    """Stack columns of a square matrix into a vector."""
    return mat.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    n = int(round(math.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError("length is not a perfect square")
    return v.reshape((n, n), order="F")


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
    v_b_h of the scaled hyper-parameter error, with the inverses of P(eta*)
    and a_b that the third-order blocks reuse."""

    a_b: np.ndarray
    b_b: np.ndarray
    v_b_h: np.ndarray
    p_inv: np.ndarray
    a_inv: np.ndarray


@dataclass
class RegularizedErrorMoments:
    """Third-order mean and covariance blocks of the scaled coefficient
    error, the first- and second-order LS-error covariances they build on,
    and the mean-square-error approximations of orders 1..3."""

    v_als_1: np.ndarray
    v_als_2: np.ndarray
    c_b: np.ndarray
    e_b_ar: np.ndarray
    v_b3_11: np.ndarray
    v_b3_12: np.ndarray
    v_b3_13: np.ndarray
    v_b3_2: np.ndarray
    v_b_ar: np.ndarray
    amse: tuple[float, float, float]


@dataclass
class AsymptoticReport:
    """Every limit quantity for one (kernel, truth, filter, noise, N) tuple."""

    eta_star: np.ndarray
    a_b: np.ndarray
    b_b: np.ndarray
    v_b_h: np.ndarray
    v_als_1: np.ndarray
    v_als_2: np.ndarray
    c_b: np.ndarray
    e_b_ar: np.ndarray
    v_b3_11: np.ndarray
    v_b3_12: np.ndarray
    v_b3_13: np.ndarray
    v_b3_2: np.ndarray
    v_b_ar: np.ndarray
    amse: tuple[float, float, float]
    n_samples: int
    cond_sigma: float

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
        doc = {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}
        doc.update(self.summary())
        return doc


@dataclass
class ExpansionTerms:
    """Per-record expansion terms of the scaled estimation errors.

    The members satisfy, up to rounding,

        sqrt(N) (theta_ls - theta0) = t1 + t2 / sqrt(N)
        sqrt(N) (theta_tr - theta0) = t1 + (t2 + bias) / sqrt(N) + t3 / N

    with t1 = theta_als_1, t2 = theta_als_2, bias = vartheta_b2 and
    t3 = theta_b3; the residual norms of both identities are reported.
    """

    theta_als_1: np.ndarray
    theta_als_2: np.ndarray
    vartheta_b2: np.ndarray
    theta_b3: np.ndarray
    residual_ls: float
    residual_rls: float


def sigma_matrix(filt: FilterSpec, n: int) -> np.ndarray:
    """Toeplitz input covariance with entries R_u(|i-j|)."""
    return toeplitz(np.array([autocovariance(filt, t) for t in range(n)]))


def _f_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Series kernel of the double-pole filter: for integer x >= 0,
    sum_tau R_u(tau) R_u(tau + x) = c_u^4 sigma_e^4 f(x) / (1-a^2)^6."""
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
    kind = filt.kind
    if isinstance(kind, SecondOrderAR):
        a, c_u = kind.a, kind.c_u
        se2 = filt.sigma_e2
        k = np.arange(n, dtype=float)[:, None]
        l = np.arange(n, dtype=float)[None, :]
        one = 1.0 - a * a
        first = (
            c_u**4
            * excess
            * se2**2
            * a ** (k + l)
            / one**6
            * (k * one + 1 + a * a)
            * (l * one + 1 + a * a)
        )
        second = (
            c_u**4 * se2**2 / one**6 * (_f_gamma(a, np.abs(k - l)) + _f_gamma(a, k + l))
        )
        return first + second
    # explicit impulse response: every lag series has finite support
    support = kind.h.size  # R_u vanishes for |tau| >= support
    r_len = support + 2 * n
    r = np.array([autocovariance(filt, t) for t in range(r_len)])

    def lag_sum(x: int) -> float:
        total = 0.0
        for tau in range(-(support - 1), support):
            other = abs(tau + x)
            if other < support:
                total += r[abs(tau)] * r[other]
        return total

    sums = np.array([lag_sum(x) for x in range(2 * n - 1)])
    ki = np.arange(n)[:, None]
    li = np.arange(n)[None, :]
    return excess * r[ki] * r[li] + sums[np.abs(ki - li)] + sums[ki + li]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = high + low, exact, each part holding at most half
    the significand bits of a's dtype, so the product of two parts is exact."""
    bits = np.finfo(a.dtype).nmant + 1
    scaled = a * a.dtype.type(2 ** ((bits + 1) // 2) + 1)
    high = scaled - (scaled - a)
    return high, a - high


def _toeplitz_matvec(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w[k] = toeplitz(table[k]) @ x for every k, as accurate as if summed in
    twice the precision of x: Ogita, Rump and Oishi's Dot2, with error-free
    products and sums whose rounding errors are accumulated apart."""
    n = x.size
    # ext[:, n - 1 + m] = table[:, |m|], so column j of every block is a slice
    ext = np.concatenate([table[:, :0:-1], table], axis=1).astype(x.dtype)
    ext_hi, ext_lo = _split(ext)
    x_hi, x_lo = _split(x)
    total = np.zeros(table.shape, dtype=x.dtype)
    err = np.zeros_like(total)
    for j in range(n):
        cols = slice(n - 1 - j, 2 * n - 1 - j)
        a, a_hi, a_lo = ext[:, cols], ext_hi[:, cols], ext_lo[:, cols]
        prod = a * x[j]
        err += a_lo * x_lo[j] - (
            ((prod - a_hi * x_hi[j]) - a_lo * x_hi[j]) - a_hi * x_lo[j]
        )
        new = total + prod
        part = new - total
        err += (total - (new - part)) + (prod - part)
        total = new
    return total + err


def gram_contraction(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """unvec(C vec(X)) for the fourth-moment matrix C whose lag table
    :func:`c_gamma` returns, without forming C.

    C is block-Toeplitz with Toeplitz blocks B[k] = toeplitz(table[k]).  A
    square ``x`` is X itself: Z[k] = B[k] X and Y[:, c] = sum_d Z[|c-d|][:, d],
    O(n^4) flops and O(n^3) memory.  A vector ``x`` stands for X = x x':
    W[k] = B[k] x and Y[r, c] = sum_d W[|c-d|, r] x[d], O(n^3) flops.  The
    arithmetic runs in the dtype of ``x``.

    In the rank-1 case x oscillates (it is Sigma^-1 applied to a vector in
    the report) while the blocks are smooth, so W keeps only a small part of
    the digits of its terms; W is therefore summed with compensation.  In
    plain long double, the closed-form ridge report and the generic one
    disagree on trace(v_b_ar) by up to 4e-10 at a = 0.99, n = 20;
    compensated, by about 1e-15.
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


def prior_fit_cost(
    eta: np.ndarray, theta0: np.ndarray, spec: KernelSpec
) -> tuple[float, np.ndarray]:
    """Limit criterion theta0' P^-1 theta0 + logdet P and its gradient: the
    reduced cost with a zero noise term."""
    return _reduced_cost_grad(np.asarray(eta, float), theta0, 0.0, spec)


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
    n = theta0.size
    eta, _, _ = minimize_box(theta0, np.zeros((n, n)), spec, opts)
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
    sigma: np.ndarray,
    sigma2: float,
) -> HyperParameterLaw:
    """Blocks of the limiting law of the scaled hyper-parameter error.

    a_b is the Hessian of the prior-fit criterion at eta_star (the reduced
    cost's analytic Hessian with a zero noise term), b_b stacks the rows
    theta0' d(P^-1)/d(eta_k) = -(dP_k P^-1 theta0)' P^-1, and

        v_b_h = 4 sigma2 a_b^-1 b_b Sigma^-1 b_b' a_b^-1.
    """
    theta0 = np.asarray(theta0, dtype=float)
    P, dP = kernel_matrix(spec, eta_star_value, theta0.size, order=1)
    p_inv = _pd_inverse(P)
    a_b = _reduced_cost_grad(eta_star_value, theta0, 0.0, spec, hessian=True)[2]
    b_b = -(dP @ (p_inv @ theta0)) @ p_inv
    a_inv = _robust_inverse(a_b, "curvature matrix")
    half = a_inv @ b_b  # p x n
    v_b_h = 4.0 * sigma2 * half @ np.linalg.solve(sigma, half.T)
    return HyperParameterLaw(
        a_b=a_b, b_b=b_b, v_b_h=_sym(v_b_h), p_inv=p_inv, a_inv=a_inv
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
    algebraically equal formulations far beyond comparison tolerances.  It
    is therefore evaluated in extended precision; the rank-1 vector x is
    built inside so callers only contribute uniform (scalar-level)
    rounding, which the quadratic form does not amplify.
    """
    ld = np.longdouble
    s_ld = s_inv.astype(ld)
    x = s_ld @ (p_inv.astype(ld) @ theta0.astype(ld))
    mid = gram_contraction(table, x)
    out = ld(scale) * (s_ld @ mid @ s_ld)
    return _sym(out.astype(float))


def ls_error_covariances(
    stats: SecondOrderStats, sigma2: float, n_samples: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First- and second-order covariance of the scaled LS error.

    Returns (v1, v2, v1 + v2 / N) with v1 = sigma2 Sigma^-1 and
    v2 = sigma2 * unvec[(Sigma^-1 kron Sigma^-1) C vec(Sigma^-1)], with C
    applied from its lag table ``stats.c_gamma``.
    """
    s_inv = stats.sigma_inv
    v1 = sigma2 * s_inv
    v2 = sigma2 * s_inv @ gram_contraction(stats.c_gamma, s_inv) @ s_inv
    v2 = _sym(v2)
    return v1, v2, v1 + v2 / n_samples


def regularized_error_moments(
    theta0: np.ndarray,
    law: HyperParameterLaw,
    stats: SecondOrderStats,
    noise: NoiseSpec,
    n_samples: int,
) -> RegularizedErrorMoments:
    """Mean and covariance blocks of the third-order law of the scaled
    regularized-estimate error, plus the order-1/2/3 MSE approximations.
    The inverses of P(eta*), a_b and Sigma are read from ``law`` and
    ``stats``."""
    theta0 = np.asarray(theta0, dtype=float)
    sigma2 = noise.sigma2
    p_inv, s_inv = law.p_inv, stats.sigma_inv
    c_b = _sym(-2.0 * law.b_b.T @ law.a_inv @ law.b_b + p_inv)

    w = s_inv @ (p_inv @ theta0)
    vartheta_b2 = -sigma2 * w
    e_b_ar = vartheta_b2 / math.sqrt(n_samples)

    v_b3_11 = _sym(sigma2**3 * s_inv @ c_b @ s_inv @ c_b @ s_inv)
    v_b3_12 = _rank1_gram_contraction(stats.c_gamma, s_inv, p_inv, theta0, sigma2**2)
    v_b3_13 = (noise.fourth_moment - sigma2**2) * np.outer(w, w)
    v_b3_2 = _sym(-(sigma2**2) * s_inv @ c_b @ s_inv)

    v1, v2, v_als = ls_error_covariances(stats, sigma2, n_samples)
    v_b3_1 = v_b3_11 + v_b3_12 + v_b3_13
    v_b_ar = v_als + v_b3_1 / n_samples**2 + (v_b3_2 + v_b3_2.T) / n_samples

    bias_sq = float(e_b_ar @ e_b_ar)
    amse = (
        float(np.trace(v1)) / n_samples,
        (float(np.trace(v_als)) + bias_sq) / n_samples,
        (float(np.trace(v_b_ar)) + bias_sq) / n_samples,
    )
    return RegularizedErrorMoments(
        v_als_1=v1,
        v_als_2=v2,
        c_b=c_b,
        e_b_ar=e_b_ar,
        v_b3_11=v_b3_11,
        v_b3_12=v_b3_12,
        v_b3_13=v_b3_13,
        v_b3_2=v_b3_2,
        v_b_ar=v_b_ar,
        amse=amse,
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
    t1 = hyper_parameter_law(spec, theta0, star, stats.sigma, noise.sigma2)
    t3 = regularized_error_moments(theta0, t1, stats, noise, n_samples)
    return AsymptoticReport(
        eta_star=star,
        a_b=t1.a_b,
        b_b=t1.b_b,
        v_b_h=t1.v_b_h,
        **vars(t3),
        n_samples=n_samples,
        cond_sigma=stats.cond,
    )


def ridge_report(
    theta0: np.ndarray,
    filt: FilterSpec,
    noise: NoiseSpec,
    n_samples: int | Sequence[int],
    stats: SecondOrderStats | None = None,
) -> AsymptoticReport | list[AsymptoticReport]:
    """Fully closed-form report for the ridge kernel (no optimizer).

    Requires a double-pole (or white-noise) input filter so that Sigma and
    the Gram fourth moments are available in closed form.  ``stats`` may
    carry precomputed input statistics when sweeping many truths over the
    same filter.  ``n_samples`` is one record length, which gives one
    report, or a sequence of them, which gives a list of reports in the
    same order; the blocks that do not depend on N (among them the
    long-double contraction of ``v_b3_12``) are then computed once and
    shared by every report.
    """
    if not isinstance(filt.kind, SecondOrderAR):
        raise ValueError("closed-form report needs a SecondOrderAR filter")
    single = np.ndim(n_samples) == 0
    lengths = [n_samples] if single else list(n_samples)
    if not lengths:
        raise ValueError("n_samples is an empty sequence")
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

    star = np.array([s / n])
    a_b = np.array([[n**3 / s**2]])
    b_b = -(n**2 / s**2) * theta0[None, :]
    v_b_h = np.array([[4.0 * sigma2 / n**2 * float(theta0 @ st)]])

    v1, v2, _ = ls_error_covariances(stats, sigma2, lengths[0])

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

    v_b3_1 = v_b3_11 + v_b3_12 + v_b3_13
    v_b3_2_pair = v_b3_2 + v_b3_2.T
    shared = dict(
        eta_star=star,
        a_b=a_b,
        b_b=b_b,
        v_b_h=v_b_h,
        v_als_1=v1,
        v_als_2=v2,
        c_b=_sym(c_b),
        v_b3_11=_sym(v_b3_11),
        v_b3_12=v_b3_12,
        v_b3_13=_sym(v_b3_13),
        v_b3_2=_sym(v_b3_2),
        cond_sigma=stats.cond,
    )

    reports = []
    for length in lengths:
        e_b_ar = -(n * sigma2 / s) / math.sqrt(length) * st
        v_als = v1 + v2 / length
        v_b_ar = v_als + v_b3_1 / length**2 + v_b3_2_pair / length
        bias_sq = float(e_b_ar @ e_b_ar)
        amse = (
            float(np.trace(v1)) / length,
            (float(np.trace(v_als)) + bias_sq) / length,
            (float(np.trace(v_b_ar)) + bias_sq) / length,
        )
        reports.append(
            AsymptoticReport(
                **shared, e_b_ar=e_b_ar, v_b_ar=v_b_ar, amse=amse, n_samples=length
            )
        )
    return reports[0] if single else reports


def expansion_terms(
    data: Dataset,
    fit: EbFit,
    sigma: np.ndarray,
    eta_star_value: np.ndarray,
    sigma2: float,
) -> ExpansionTerms:
    """Record-level expansion terms of the scaled estimation errors.

    The two decompositions documented on :class:`ExpansionTerms` hold as
    algebraic identities; their floating-point residuals are returned so
    callers can assert them against a tolerance.
    """
    if data.v is None:
        raise ValueError("dataset must retain the noise realization")
    n = data.order
    n_samples = data.n_samples
    theta0 = data.system.theta0
    root_n = math.sqrt(n_samples)
    g_inv = _pd_inverse(data.gram)
    s_inv = _pd_inverse(sigma)
    p_star_inv = _pd_inverse(kernel_matrix(fit.kernel, eta_star_value, n, order=0)[0])

    scaled_cross = root_n * (data.phi.T @ data.v) / n_samples
    theta_als_1 = s_inv @ scaled_cross
    theta_als_2 = root_n * (n_samples * g_inv - s_inv) @ scaled_cross
    limit_shrink = sigma2 * s_inv @ (p_star_inv @ theta0)
    vartheta_b2 = -limit_shrink

    p_hat = kernel_matrix(fit.kernel, fit.eta_hat, n, order=0)[0]
    s_hat = p_hat + fit.sigma2_hat * g_inv
    theta_b3 = -root_n * (
        fit.sigma2_hat * n_samples * g_inv @ np.linalg.solve(s_hat, fit.theta_ls)
        - limit_shrink
    )

    lhs_ls = root_n * (fit.theta_ls - theta0)
    rhs_ls = theta_als_1 + theta_als_2 / root_n
    lhs_rls = root_n * (fit.theta_tr - theta0)
    rhs_rls = (
        theta_als_1 + (theta_als_2 + vartheta_b2) / root_n + theta_b3 / n_samples
    )
    return ExpansionTerms(
        theta_als_1=theta_als_1,
        theta_als_2=theta_als_2,
        vartheta_b2=vartheta_b2,
        theta_b3=theta_b3,
        residual_ls=float(np.linalg.norm(lhs_ls - rhs_ls)),
        residual_rls=float(np.linalg.norm(lhs_rls - rhs_rls)),
    )
