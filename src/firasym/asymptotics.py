"""Closed-form limit quantities for the regularized FIR estimator.

Everything here is deterministic linear algebra on numpy alone; only the
search behind a non-ridge eta_star loads scipy.  It covers the stationary
input covariance Sigma with its inverse L' D L / c_u^2 (no factorization),
the lag table c_gamma of the fourth-moment matrix C of the scaled Gram
deviation, the limit hyper-parameter eta_star with its curvature (a_b)
and sensitivity (b_b) blocks, the limiting covariance of the
hyper-parameter estimate (v_b_h), the second- and third-order covariance
blocks of the coefficient estimates, and the induced mean-square-error
approximations, derived at any record length N from the blocks that do
not depend on N.  The blocks that contract C, v_als_2 and v_b3_12, are
summed over the lags of the AR(2) input instead.  The per-record expansion
terms that check these decompositions on simulated data live with the
tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import NonFiniteError, NotPositiveDefiniteError, OutOfBoxError
from .estimators import (
    KernelSpec,
    OptimizerOptions,
    _chol_inverse,
    _cost_derivatives,
    _eye,
    _face_side,
    _pd_inverse,
    _sym,
    _to_internal,
    kernel_matrix,
    minimize_box,
)
from .signals import FilterSpec, NoiseSpec, autocovariance


@dataclass
class SecondOrderStats:
    """What the report reads of the input of filter ``filt``: the inverse
    of its covariance Sigma (L' D L / c_u^2, the input's innovations
    factor) and the condition number of Sigma, and the lag table of the
    fourth-moment matrix of the scaled Gram deviation."""

    filt: FilterSpec
    sigma_inv: np.ndarray
    c_gamma: np.ndarray
    cond: float


@dataclass
class HyperParameterLaw:
    """Curvature a_b, sensitivity rows b_b, and the limiting covariance
    v_b_h of the scaled hyper-parameter error at eta_star, with the inverses
    that the third-order blocks reuse: p_inv of P(eta*), and a_inv of a_b on
    its free coordinates, zero-padded (see :func:`hyper_parameter_law`)."""

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

    def blocks(self) -> dict:
        """Every reported block and scalar summary, by its artifact name."""
        names = [f.name for f in fields(self) if f.name != "vartheta_b2"]
        names += ["e_b_ar", "v_b_ar", "amse"]
        return {name: getattr(self, name) for name in names} | self.summary()

    def to_json_dict(self) -> dict:
        """JSON-ready dictionary; matrices are row-major nested lists."""
        return {name: np.asarray(v).tolist() for name, v in self.blocks().items()}


def sigma_matrix(filt: FilterSpec, n: int) -> np.ndarray:
    """Toeplitz input covariance with entries R_u(|i-j|)."""
    r = np.array([autocovariance(filt, t) for t in range(n)])
    idx = np.arange(n)
    return r[np.abs(idx[:, None] - idx[None, :])]


def _f_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Series kernel of the double-pole filter: for integer x >= 0,
    sum_tau R_u(tau) R_u(tau + x) = c_u^4 f(x) / (1-a^2)^6."""
    x = np.asarray(x, dtype=float)
    one = (1.0 - a) * (1.0 + a)
    t1 = (2.0 * a ** (x + 2) / one) * ((1 - x) * a**4 + (5 - x) * a**2 + 4 + 2 * x)
    t2 = -(a**x) * one**2 * x * (x + 1) * (2 * x + 1) / 6.0
    t3 = a**x * one**2 * x**2 * (x + 1) / 2.0
    t4 = a**x * (x + 1) * ((1 - x) * a**4 + 2 * a**2 + 1 + x)
    return t1 + t2 + t3 + t4


def c_gamma(filt: FilterSpec, n: int) -> np.ndarray:
    """Lag table of the limiting fourth-moment matrix of the scaled Gram
    deviation, C = N E[(Phi'Phi/N - Sigma) kron (Phi'Phi/N - Sigma)].

    C is n^2 x n^2, but under column-major stacking its entry (p, q) is
    table[|col_p - col_q|, |row_p - row_q|]: the n x n table holds all of it.
    """
    excess = filt.kurtosis_ratio - 3.0
    a, c_u = filt.kind.a, filt.kind.c_u
    # an entry depends on k + l and |k - l| alone, so the powers and the
    # series kernel are evaluated once per lag and gathered
    lags = np.arange(2 * n - 1, dtype=float)
    k = np.arange(n)
    total = k[:, None] + k[None, :]
    one = (1.0 - a) * (1.0 + a)
    ends = lags[:n] * one + 1 + a * a
    first = (
        c_u**4
        * excess
        * (a**lags)[total]
        / one**6
        * ends[:, None]
        * ends[None, :]
    )
    f = _f_gamma(a, lags)
    second = c_u**4 / one**6 * (f[np.abs(k[:, None] - k[None, :])] + f[total])
    return first + second


def _sigma_inv(filt: FilterSpec, n: int) -> np.ndarray:
    """Sigma^-1 = L' D L / c_u^2 from the innovations form of the input's
    likelihood (Brockwell and Davis, 1991), with no factorization.

    The input is AR(2), psi(q^-1) u = c_u e with psi = (1, -2a, a^2), so row
    k >= 2 of the unit lower-triangular L applies (a^2, -2a, 1) to
    (u_(k-2), u_(k-1), u_k) and has innovation variance c_u^2.  Rows 0 and 1
    predict from the stationary start: row 1 is (-2a / (1 + a^2), 1), and
    D = diag((1 - a^2)^3 / (1 + a^2), (1 - a^2)(1 + a^2), 1, 1, ...).  So
    W = D^(1/2) L whitens the input, and n = 1 and 2 are the leading block.
    The terms of each entry of L' D L share one sign, so no entry cancels.
    """
    a = filt.kind.a
    r = a * a
    one = (1.0 - a) * (1.0 + a)
    d = np.ones(n)
    d[:2] = (one**3 / (1.0 + r), one * (1.0 + r))[:n]
    low = np.eye(n) - 2.0 * a * np.eye(n, k=-1) + r * np.eye(n, k=-2)
    low[1:2, 0] = -2.0 * a / (1.0 + r)
    # numpy division, so that an underflowed c_u^2 gives inf, not an exception
    return (low.T * d) @ low / np.float64(filt.kind.c_u) ** 2


def second_order_stats(filt: FilterSpec, n: int) -> SecondOrderStats:
    """Sigma^-1 from the innovations factor, and cond(Sigma) as
    lambda_max(Sigma) lambda_max(Sigma^-1): each largest eigenvalue has a
    small relative error, where the smallest eigenvalue of Sigma itself
    carries an error of about eps cond(Sigma) and turns negative near a = 1."""
    sigma_inv = _sigma_inv(filt, n)
    lam_max = np.linalg.eigvalsh(sigma_matrix(filt, n))[-1]
    return SecondOrderStats(
        filt=filt,
        sigma_inv=sigma_inv,
        c_gamma=c_gamma(filt, n),
        cond=float(lam_max * np.linalg.eigvalsh(sigma_inv)[-1]),
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


def hyper_parameter_law(
    spec: KernelSpec,
    theta0: np.ndarray,
    eta_star_value: np.ndarray,
    sigma_inv: np.ndarray,
    sigma2: float,
) -> HyperParameterLaw:
    """Blocks of the limiting law of the scaled hyper-parameter error.

    a_b is the Hessian of the prior-fit criterion theta0' P^-1 theta0 +
    logdet P at eta_star, b_b stacks the rows theta0' d(P^-1)/d(eta_k) =
    -(dP_k P^-1 theta0)' P^-1, and

        v_b_h = 4 sigma2 a_inv b_b Sigma^-1 b_b' a_inv,  Sigma^-1 = sigma_inv.

    P(eta*) is factored once, by numpy (:func:`estimators._chol_inverse`),
    and the criterion's value, gradient and a_b come from that factor, so
    the law loads no scipy module.  A coordinate is active when it lies on
    a face by the search's boundary test and the criterion falls outward by
    a gradient above 1e-6 (1 + |value|): the estimate stays there (Shapiro,
    1989), so a_inv is a_b^-1 on the free coordinates, zero-padded, and
    NotPositiveDefiniteError if that fails.  One coefficient cannot
    identify a TC, DC or SS kernel's hyper-parameters: ValueError.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if spec.family != "ridge" and theta0.size < 2:
        raise ValueError(f"the {spec.family} kernel's law needs >= 2 coefficients")
    P, dP, d2P = kernel_matrix(spec, eta_star_value, theta0.size)
    u, logdet = _chol_inverse(P)
    p_inv = u @ u.T
    z = p_inv @ theta0
    value = float(theta0 @ z) + logdet
    grad, a_b = _cost_derivatives(z, p_inv, dP, d2P)
    b_b = -(dP @ z) @ p_inv
    side = _face_side(
        _to_internal(spec, eta_star_value), *_to_internal(spec, spec.omega.T)
    )
    active = side * grad < -1e-6 * (1.0 + abs(value))
    free = np.ix_(~active, ~active)
    a_inv = np.zeros_like(a_b)
    try:
        if not active.all():
            a_inv[free] = _pd_inverse(a_b[free])
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("curvature a_b not PD on its free block") from None
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


def _v_b3_12(stats: SecondOrderStats, shrink: np.ndarray, sigma2: float) -> np.ndarray:
    """v_b3_12 = sigma2^2 S unvec(C vec(x x')) S with S = Sigma^-1, x = S shrink
    and shrink = P(eta*)^-1 theta0, from the lag sums of the AR(2) input:
    O(n^2) flops and one n x n product.  Bartlett's formula (see
    :func:`ls_error_covariances`) at X = x x' gives v_b3_12 / sigma2^2 =

        Y + Y' - x x' + Z + Z' - c_0 S + (kappa - 3) x x',
        Y = sum_tau S A^tau Sigma x x' A^tau,   Z = S sum_tau c_tau A^tau,
        c_tau = x' A^tau Sigma x,   Sigma x = shrink.

    A Sigma is Toeplitz, so S A Sigma = J A' J for the reversal J, and
    Y = J sum_tau (A'^tau J x)(A'^tau x)' needs no S.  A'^tau z is z moved
    up by tau places plus rho_tau e_0 + sig_tau e_1, where y = h * z for
    the impulse response h(k) = (k+1) a^k, rho_tau = y_tau - z_tau and
    sig_tau = -a^2 y_(tau-1).  So each lag sum is a few convolutions of
    length-n sequences.  At tau = n + m, rho, sig and c are a^m (p + q m),
    and their sums of products over m >= 0 have closed forms.
    """
    s_inv = stats.sigma_inv
    n = shrink.size
    x = s_inv @ shrink
    if n == 1:
        return sigma2**2 * s_inv**2 * stats.c_gamma * (x[0] * x[0])
    a, kappa = stats.filt.kind.a, stats.filt.kurtosis_ratio
    k = np.arange(n)
    h = (k + 1.0) * a**k
    r = a * a
    one = (1.0 - a) * (1.0 + a)
    geo = (1.0 / one, r / one**2, r * (1.0 + r) / one**3)  # sum_m m^j r^m

    def tail_sum(p, q, p2, q2):
        """sum over m >= 0 of a^m (p + q m) a^m (p2 + q2 m)."""
        return p * p2 * geo[0] + (p * q2 + q * p2) * geo[1] + q * q2 * geo[2]

    def lag_sum(u, w):
        """sum over tau >= 0 of u_tau w_tau for (head over tau < n, p, q)."""
        return u[0] @ w[0] + tail_sum(*u[1:], *w[1:])

    def corr(u, w):
        """sum_j u[j + t] w[j] for t = 0 ... n - 1."""
        return np.convolve(u, w[::-1])[n - 1 :]

    def rho_sig(z):
        """rho and sig of A'^tau z; y at tau = n - 1 + m is
        a^m (y_(n-1) + m beta) with beta = sum_i a^(n-1-i) z_i."""
        y = np.convolve(h, z)[:n]
        beta, last = float(a ** k[::-1] @ z), y[-1]
        rho = (y - z, a * (last + beta), a * beta)
        sig = (np.concatenate(([0.0], -r * y[:-1])), -r * last, -r * beta)
        return rho, sig

    rho, sig = rho_sig(x)
    rho_rev, sig_rev = rho_sig(x[::-1])
    # Y = J sum_tau (A'^tau J x)(A'^tau x)': the shifted parts give
    # sum_(q <= i) x_q x_(i+j-q), the e_0, e_1 terms of A'^tau x columns 0
    # and 1, and those of A'^tau J x, flipped by J, the last two rows
    hankel = k[:, None] + k[None, :]
    skew = np.zeros((n, 2 * n - 1))
    skew[k[:, None], hankel] = np.outer(x, x)
    y = np.cumsum(skew, axis=0)[k[:, None], hankel]
    y[:, 0] += np.convolve(rho[0], x)[:n]
    y[:, 1] += np.convolve(sig[0], x)[:n]
    for row, u in ((-1, rho_rev), (-2, sig_rev)):
        y[row] += corr(x, u[0])
        y[row, 0] += lag_sum(u, rho)
        y[row, 1] += lag_sum(u, sig)
    # T = sum_tau c_tau A^tau with c_tau = shrink' A'^tau x: c[i - j] below
    # the diagonal, but column 0 is hc_i = sum_k c_(i+k) h_k and column 1
    # adds -a^2 hc_(i+1); h at tau = n + m, lag i, is a^(n-i) a^m (n-i+1+m)
    c = corr(x, shrink) + shrink[0] * rho[0] + shrink[1] * sig[0]
    c_tail = (shrink[0] * rho[i] + shrink[1] * sig[i] for i in (1, 2))
    rest = np.arange(n, -1, -1)
    hc = np.append(corr(c, h), 0.0) + a**rest * tail_sum(*c_tail, rest + 1.0, 1.0)
    t = np.tril(c[np.abs(k[:, None] - k[None, :])])
    t[:, 0] = hc[:n]
    t[:, 1] -= r * hc[1:]
    q = y + s_inv @ t
    return sigma2**2 * (q + q.T + (kappa - 4.0) * np.outer(x, x) - c[0] * s_inv)


def ls_error_covariances(
    stats: SecondOrderStats, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order covariance of the scaled LS error: v1 =
    sigma2 S and v2 = sigma2 S unvec(C vec S) S, S = Sigma^-1, so that
    v_als = v1 + v2 / N.

    For n >= 2 the regressor is the state of the companion matrix A (first
    row (2a, -a^2, 0, ...), ones below the diagonal), so Gamma(tau) = A^tau
    Sigma for tau >= 0, Gamma(-tau) = Gamma(tau)' and tr A^tau = 2 a^tau for
    tau >= 1.  Bartlett's formula (Brockwell and Davis, 1991, sec. 7.2)
    gives N E[D X D], D = Phi'Phi/N - Sigma, for a symmetric X as

        sum_tau [Gamma(tau) X Gamma(tau) + <Gamma(tau), X> Gamma(tau)]
            + (kappa - 3) Sigma X Sigma,

    so v2 / sigma2 = S R + (S R)' + (n + kappa - 4) S with two resolvents,
    R = (I - A^2)^-1 + 2a A (I - aA)^-1: O(n^3) flops and O(n^2) memory.
    n = 1 has no companion form; there the one table entry is the whole sum.
    """
    s_inv = stats.sigma_inv
    n = s_inv.shape[0]
    v1 = sigma2 * s_inv
    if n == 1:
        return v1, sigma2 * s_inv**3 * stats.c_gamma
    a, kappa = stats.filt.kind.a, stats.filt.kurtosis_ratio
    comp = np.eye(n, k=-1)
    comp[0, :2] = 2.0 * a, -a * a
    eye = _eye(n)
    # 2a A (I - aA)^-1 = 2 (I - aA)^-1 - 2I, so q = S (R + 2I)
    q = s_inv @ (np.linalg.inv(eye - comp @ comp) + 2.0 * np.linalg.inv(eye - a * comp))
    return v1, sigma2 * (q + q.T + (n + kappa - 8.0) * s_inv)


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
    and ``stats``.  A block that holds NaN or infinity raises NonFiniteError."""
    theta0 = np.asarray(theta0, dtype=float)
    sigma2 = noise.sigma2
    p_inv, s_inv = law.p_inv, stats.sigma_inv
    c_b = _sym(-2.0 * law.b_b.T @ law.a_inv @ law.b_b + p_inv)
    shrink = p_inv @ theta0
    w = s_inv @ shrink
    v1, v2 = ls_error_covariances(stats, sigma2)
    report = AsymptoticReport(
        eta_star=law.eta_star,
        a_b=law.a_b,
        b_b=law.b_b,
        v_b_h=law.v_b_h,
        v_als_1=v1,
        v_als_2=v2,
        c_b=c_b,
        vartheta_b2=-sigma2 * w,
        v_b3_11=_sym(sigma2**3 * s_inv @ c_b @ s_inv @ c_b @ s_inv),
        v_b3_12=_v_b3_12(stats, shrink, sigma2),
        v_b3_13=(noise.fourth_moment - sigma2**2) * np.outer(w, w),
        v_b3_2=_sym(-(sigma2**2) * s_inv @ c_b @ s_inv),
        n_samples=n_samples,
        cond_sigma=stats.cond,
    )
    bad = [k for k, v in report.blocks().items() if not np.isfinite(v).all()]
    if bad:
        raise NonFiniteError(f"non-finite {', '.join(bad)} in the limit report")
    return report


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
        v_b3_12=_v_b3_12(stats, (n / s) * theta0, sigma2),
        v_b3_13=_sym(v_b3_13),
        v_b3_2=_sym(v_b3_2),
        n_samples=n_samples,
        cond_sigma=stats.cond,
    )
