"""Closed-form limit quantities for the regularized FIR estimator.

Everything here is deterministic linear algebra: the stationary input
covariance Sigma, the fourth-moment matrix of the scaled Gram deviation
(c_gamma), the limit hyper-parameter eta_star with its curvature (a_b) and
sensitivity (b_b) blocks, the limiting covariance of the hyper-parameter
estimate (v_b_h), the second- and third-order covariance blocks of the
coefficient estimates, and the induced mean-square-error approximations.
Matching per-record expansion terms are provided so the algebraic
decompositions can be checked on simulated data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .errors import (
    DegenerateBoundWarning,
    OutOfBoxError,
    SingularHessianWarning,
)
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
    """Input covariance Sigma with its eigensystem and the fourth-moment
    matrix of the scaled Gram deviation."""

    sigma: np.ndarray
    c_gamma: np.ndarray
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]
    cond: float


@dataclass
class HyperParameterLaw:
    """Curvature a_b, sensitivity rows b_b, and the limiting covariance
    v_b_h of the scaled hyper-parameter error."""

    a_b: np.ndarray
    b_b: np.ndarray
    v_b_h: np.ndarray
    a_b_singular: bool


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

    def to_json_dict(self) -> dict:
        """JSON-ready dictionary; matrices are row-major nested lists."""
        return {
            "eta_star": self.eta_star.tolist(),
            "a_b": self.a_b.tolist(),
            "b_b": self.b_b.tolist(),
            "v_b_h": self.v_b_h.tolist(),
            "v_als_1": self.v_als_1.tolist(),
            "v_als_2": self.v_als_2.tolist(),
            "c_b": self.c_b.tolist(),
            "e_b_ar": self.e_b_ar.tolist(),
            "v_b3_11": self.v_b3_11.tolist(),
            "v_b3_12": self.v_b3_12.tolist(),
            "v_b3_13": self.v_b3_13.tolist(),
            "v_b3_2": self.v_b3_2.tolist(),
            "v_b_ar": self.v_b_ar.tolist(),
            "amse": list(self.amse),
            "n_samples": self.n_samples,
            "cond_sigma": self.cond_sigma,
            "trace_v_b_h": float(np.trace(self.v_b_h)),
            "trace_v_als": float(
                np.trace(self.v_als_1) + np.trace(self.v_als_2) / self.n_samples
            ),
            "trace_v_b_ar": float(np.trace(self.v_b_ar)),
            "e_b_ar_sq_norm": float(self.e_b_ar @ self.e_b_ar),
        }


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


def _c_gamma_table(filt: FilterSpec, n: int) -> np.ndarray:
    """Gram-deviation fourth moments indexed by the two lags (k, l)."""
    excess = filt.kurtosis_ratio - 3.0
    kind = filt.kind
    if isinstance(kind, SecondOrderAR):
        a, c_u = kind.a, kind.c_u
        se2 = filt.sigma_e2
        if a == 0.0:
            table = np.zeros((n, n))
            diag = np.arange(n)
            table[diag, diag] = c_u**4 * se2**2
            table[0, 0] = c_u**4 * (filt.kurtosis_ratio - 1.0) * se2**2
            return table
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


def c_gamma(filt: FilterSpec, n: int) -> np.ndarray:
    """Limiting fourth-moment matrix of the scaled Gram deviation,
    N E[(Phi'Phi/N - Sigma) kron (Phi'Phi/N - Sigma)], of shape n^2 x n^2.

    Under column-major stacking, entry (i, j) depends only on the column
    lag k and the row lag l of the two flattened positions.
    """
    table = _c_gamma_table(filt, n)
    pos = np.arange(n * n)
    col = pos // n
    row = pos % n
    k_idx = np.abs(col[:, None] - col[None, :])
    l_idx = np.abs(row[:, None] - row[None, :])
    return table[k_idx, l_idx]


def second_order_stats(filt: FilterSpec, n: int) -> SecondOrderStats:
    sigma = sigma_matrix(filt, n)
    values, vectors = np.linalg.eigh(sigma)
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    return SecondOrderStats(
        sigma=sigma,
        c_gamma=c_gamma(filt, n),
        eigenvalues=values,
        eigenvectors=vectors,
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


def _robust_inverse(mat: np.ndarray, what: str) -> tuple[np.ndarray, bool]:
    """Cholesky inverse with an eigenvalue-thresholded pseudo-inverse
    fallback (threshold 1e-12 of the largest magnitude eigenvalue)."""
    try:
        return _pd_inverse(mat), False
    except np.linalg.LinAlgError:
        warnings.warn(
            f"{what} is not positive definite; using a pseudo-inverse",
            SingularHessianWarning,
        )
        values, vectors = np.linalg.eigh(_sym(mat))
        cut = 1e-12 * float(np.max(np.abs(values))) if mat.size else 0.0
        inv_vals = np.where(np.abs(values) > cut, 1.0 / values, 0.0)
        return _sym((vectors * inv_vals) @ vectors.T), True


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
    a_inv, singular = _robust_inverse(a_b, "curvature matrix")
    half = a_inv @ b_b  # p x n
    v_b_h = 4.0 * sigma2 * half @ np.linalg.solve(sigma, half.T)
    return HyperParameterLaw(
        a_b=a_b, b_b=b_b, v_b_h=_sym(v_b_h), a_b_singular=singular
    )


def _rank1_gram_contraction(
    c_gamma_mat: np.ndarray,
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
    m = np.outer(x, x).reshape(-1, order="F")
    mid = (c_gamma_mat.astype(ld) @ m).reshape((theta0.size, theta0.size), order="F")
    out = ld(scale) * (s_ld @ mid @ s_ld)
    return _sym(out.astype(float))


def ls_error_covariances(
    sigma: np.ndarray,
    c_gamma_mat: np.ndarray,
    sigma2: float,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First- and second-order covariance of the scaled LS error.

    Returns (v1, v2, v1 + v2 / N) with v1 = sigma2 Sigma^-1 and
    v2 = sigma2 * unvec[(Sigma^-1 kron Sigma^-1) c_gamma vec(Sigma^-1)].
    """
    s_inv = _pd_inverse(sigma)
    v1 = sigma2 * s_inv
    v2 = sigma2 * s_inv @ unvec(c_gamma_mat @ vec(s_inv)) @ s_inv
    v2 = _sym(v2)
    return v1, v2, v1 + v2 / n_samples


def regularized_error_moments(
    spec: KernelSpec,
    theta0: np.ndarray,
    eta_star_value: np.ndarray,
    a_b: np.ndarray,
    b_b: np.ndarray,
    sigma: np.ndarray,
    c_gamma_mat: np.ndarray,
    noise: NoiseSpec,
    n_samples: int,
) -> RegularizedErrorMoments:
    """Mean and covariance blocks of the third-order law of the scaled
    regularized-estimate error, plus the order-1/2/3 MSE approximations."""
    theta0 = np.asarray(theta0, dtype=float)
    n = theta0.size
    sigma2 = noise.sigma2
    P = kernel_matrix(spec, eta_star_value, n)[0]
    p_inv = _pd_inverse(P)
    s_inv = _pd_inverse(sigma)
    a_inv, _ = _robust_inverse(a_b, "curvature matrix")
    c_b = _sym(-2.0 * b_b.T @ a_inv @ b_b + p_inv)

    w = s_inv @ (p_inv @ theta0)
    vartheta_b2 = -sigma2 * w
    e_b_ar = vartheta_b2 / math.sqrt(n_samples)

    v_b3_11 = _sym(sigma2**3 * s_inv @ c_b @ s_inv @ c_b @ s_inv)
    v_b3_12 = _rank1_gram_contraction(c_gamma_mat, s_inv, p_inv, theta0, sigma2**2)
    v_b3_13 = (noise.fourth_moment - sigma2**2) * np.outer(w, w)
    v_b3_2 = _sym(-(sigma2**2) * s_inv @ c_b @ s_inv)

    v1, v2, v_als = ls_error_covariances(sigma, c_gamma_mat, sigma2, n_samples)
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
    t3 = regularized_error_moments(
        spec, theta0, star, t1.a_b, t1.b_b, stats.sigma, stats.c_gamma, noise, n_samples
    )
    return AsymptoticReport(
        eta_star=star,
        a_b=t1.a_b,
        b_b=t1.b_b,
        v_b_h=t1.v_b_h,
        v_als_1=t3.v_als_1,
        v_als_2=t3.v_als_2,
        c_b=t3.c_b,
        e_b_ar=t3.e_b_ar,
        v_b3_11=t3.v_b3_11,
        v_b3_12=t3.v_b3_12,
        v_b3_13=t3.v_b3_13,
        v_b3_2=t3.v_b3_2,
        v_b_ar=t3.v_b_ar,
        amse=t3.amse,
        n_samples=n_samples,
        cond_sigma=stats.cond,
    )


def ridge_report(
    theta0: np.ndarray,
    filt: FilterSpec,
    noise: NoiseSpec,
    n_samples: int,
    stats: SecondOrderStats | None = None,
) -> AsymptoticReport:
    """Fully closed-form report for the ridge kernel (no optimizer).

    Requires a double-pole (or white-noise) input filter so that Sigma and
    the Gram fourth moments are available in closed form.  ``stats`` may
    carry precomputed input statistics when sweeping many truths over the
    same filter.
    """
    if not isinstance(filt.kind, SecondOrderAR):
        raise ValueError("closed-form report needs a SecondOrderAR filter")
    theta0 = np.asarray(theta0, dtype=float)
    n = theta0.size
    s = float(theta0 @ theta0)
    if s == 0.0:
        raise ValueError("theta0 must be nonzero")
    sigma2 = noise.sigma2
    if stats is None:
        stats = second_order_stats(filt, n)
    s_inv = _pd_inverse(stats.sigma)
    st = s_inv @ theta0

    star = np.array([s / n])
    a_b = np.array([[n**3 / s**2]])
    b_b = -(n**2 / s**2) * theta0[None, :]
    v_b_h = np.array([[4.0 * sigma2 / n**2 * float(theta0 @ st)]])

    v1, v2, v_als = ls_error_covariances(stats.sigma, stats.c_gamma, sigma2, n_samples)

    c_b = (n / s) * np.eye(n) - (2.0 * n / s**2) * np.outer(theta0, theta0)
    e_b_ar = -(n * sigma2 / s) / math.sqrt(n_samples) * st

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
    v_b_ar = v_als + v_b3_1 / n_samples**2 + (v_b3_2 + v_b3_2.T) / n_samples
    bias_sq = float(e_b_ar @ e_b_ar)
    amse = (
        float(np.trace(v1)) / n_samples,
        (float(np.trace(v_als)) + bias_sq) / n_samples,
        (float(np.trace(v_b_ar)) + bias_sq) / n_samples,
    )
    return AsymptoticReport(
        eta_star=star,
        a_b=a_b,
        b_b=b_b,
        v_b_h=v_b_h,
        v_als_1=v1,
        v_als_2=v2,
        c_b=_sym(c_b),
        e_b_ar=e_b_ar,
        v_b3_11=_sym(v_b3_11),
        v_b3_12=v_b3_12,
        v_b3_13=_sym(v_b3_13),
        v_b3_2=_sym(v_b3_2),
        v_b_ar=v_b_ar,
        amse=amse,
        n_samples=n_samples,
        cond_sigma=stats.cond,
    )


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
    gram = data.phi.T @ data.phi
    g_inv = _pd_inverse(gram)
    s_inv = _pd_inverse(sigma)
    p_star_inv = _pd_inverse(kernel_matrix(fit.kernel, eta_star_value, n)[0])

    scaled_cross = root_n * (data.phi.T @ data.v) / n_samples
    theta_als_1 = s_inv @ scaled_cross
    theta_als_2 = root_n * (n_samples * g_inv - s_inv) @ scaled_cross
    limit_shrink = sigma2 * s_inv @ (p_star_inv @ theta0)
    vartheta_b2 = -limit_shrink

    p_hat = kernel_matrix(fit.kernel, fit.eta_hat, n)[0]
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


def condition_bounds(
    a_mat: np.ndarray, b_mat: np.ndarray, k: int
) -> tuple[float, float, float]:
    """Bracket for Tr(A' B^-k A) driven by the conditioning of B.

    Returns (lower, upper, trace) with

        lower = (u' A A' u) * cond(B)^k / lambda_max(B)^k
        upper = Tr(A A')    * cond(B)^k / lambda_max(B)^k

    where u is the eigenvector of the smallest eigenvalue of B.  When
    u' A = 0 the lower bound is vacuous and reported as 0 with a warning.
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    b_mat = np.asarray(b_mat, dtype=float)
    values, vectors = np.linalg.eigh(_sym(b_mat))
    lam_min = float(values[0])
    lam_max = float(values[-1])
    if lam_min <= 0.0:
        raise np.linalg.LinAlgError("B must be positive definite")
    u = vectors[:, 0]
    ratio = (lam_max / lam_min) ** k / lam_max**k
    b_l = float((u @ a_mat) @ (a_mat.T @ u))
    b_u = float(np.sum(a_mat * a_mat))
    scale = np.sqrt(b_u) * np.linalg.norm(u)
    if math.sqrt(max(b_l, 0.0)) <= 1e-14 * max(scale, 1.0):
        warnings.warn(
            "smallest-eigenvalue direction is orthogonal to A; lower bound is 0",
            DegenerateBoundWarning,
        )
        b_l = 0.0
    b_pow = np.linalg.matrix_power(np.linalg.inv(b_mat), k)
    trace = float(np.trace(a_mat.T @ b_pow @ a_mat))
    return b_l * ratio, b_u * ratio, trace
