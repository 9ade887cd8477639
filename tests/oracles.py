"""Reference code that only the tests read: the column-stacking operator,
a 60-digit Sigma^-1 and Gram contraction, the kernel matrices by entrywise
powers, a truncated impulse response with the finite series that check the
double-pole closed forms against it, noise-free records, and the
per-record expansion of the scaled estimation errors, whose two
decompositions hold as algebraic identities on simulated data."""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import toeplitz

from firasym import (
    Dataset,
    EbFit,
    FilterSpec,
    FirSystem,
    KernelSpec,
    kernel_matrix,
    lag_matrix,
)
from firasym.estimators import _pd_inverse, _power_table, _signed_pow

# the matrix and vector blocks that two report paths must agree on
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


def vec(mat: np.ndarray) -> np.ndarray:
    """Stack columns of a square matrix into a vector."""
    return mat.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    n = int(round(math.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError("length is not a perfect square")
    return v.reshape((n, n), order="F")


def exact_sigma(filt: FilterSpec, n: int, dps: int = 60) -> mpmath.matrix:
    """Sigma at ``dps`` digits, of the float64 a and c_u taken exactly, from
    the closed-form autocovariance, as an mpmath matrix."""
    with mpmath.workdps(dps):
        a, c_u = mpmath.mpf(filt.kind.a), mpmath.mpf(filt.kind.c_u)
        one = 1 - a * a
        r = [c_u**2 * a**t * (2 / one**3 + (t - 1) / one**2) for t in range(n)]
        return mpmath.matrix([[r[abs(i - j)] for j in range(n)] for i in range(n)])


def exact_sigma_inv(filt: FilterSpec, n: int, dps: int = 60) -> np.ndarray:
    """Sigma^-1 at ``dps`` digits, :func:`exact_sigma` inverted by mpmath.
    Entries are mpmath numbers."""
    with mpmath.workdps(dps):
        return np.array((exact_sigma(filt, n, dps) ** -1).tolist(), dtype=object)


def exact_gram_contraction(filt: FilterSpec, n: int, middle, dps: int = 60) -> np.ndarray:
    """S unvec(C vec(X)) S at ``dps`` digits, with X = middle(S) symmetric,
    where Sigma, S = Sigma^-1 and the c_gamma table of C are evaluated at that
    precision from their closed forms.  ``middle`` maps the mpmath object
    array S to X and runs at that precision too; entries are mpmath
    numbers."""
    with mpmath.workdps(dps):
        a, c_u = mpmath.mpf(filt.kind.a), mpmath.mpf(filt.kind.c_u)
        one = 1 - a * a
        s = exact_sigma_inv(filt, n, dps)

        def f(x):
            # the series kernel of the double-pole filter (c_gamma's _f_gamma)
            t1 = 2 * a ** (x + 2) / one * ((1 - x) * a**4 + (5 - x) * a**2 + 4 + 2 * x)
            t2 = -(a**x) * one**2 * x * (x + 1) * (2 * x + 1) / 6
            t3 = a**x * one**2 * x**2 * (x + 1) / 2
            t4 = a**x * (x + 1) * ((1 - x) * a**4 + 2 * a**2 + 1 + x)
            return t1 + t2 + t3 + t4

        excess = mpmath.mpf(filt.kurtosis_ratio) - 3
        ends = [k * one + 1 + a * a for k in range(n)]
        series = [f(lag) for lag in range(2 * n - 1)]

        def entry(k, l):
            first = excess * a ** (k + l) * ends[k] * ends[l]
            return c_u**4 / one**6 * (first + series[abs(k - l)] + series[k + l])

        table = np.array([[entry(k, l) for l in range(n)] for k in range(n)], dtype=object)
        flat = middle(s).T.ravel()  # X[r', d] at position d n + r'
        lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        # unvec(C vec(X))[r, c] = sum_(d, r') table[|c - d|, |r - r'|] X[r', d]
        mid = np.empty((n, n), dtype=object)
        for r in range(n):
            for c in range(n):
                mid[r, c] = mpmath.fdot(table[lag[c][:, None], lag[r]].ravel(), flat)
        return s.dot(mid).dot(s)


def exact_rank1_contraction(filt: FilterSpec, shrink: np.ndarray) -> np.ndarray:
    """The 60-digit :func:`exact_gram_contraction` of x x', x = S shrink, with
    the float64 ``shrink`` taken exactly: the reference for the report's
    v_b3_12 at unit noise variance."""
    exact = np.array([mpmath.mpf(float(v)) for v in shrink], dtype=object)

    def middle(s):
        x = s.dot(exact)
        return np.outer(x, x)

    return exact_gram_contraction(filt, shrink.size, middle)


def exact_v_als_2(filt: FilterSpec, n: int) -> np.ndarray:
    """The 60-digit :func:`exact_gram_contraction` of S itself: the reference
    for the report's v_als_2 at unit noise variance."""
    return exact_gram_contraction(filt, n, lambda s: s)


def impulse_response(filt: FilterSpec, tail_tol: float) -> np.ndarray:
    """Impulse response h(0..K) of the double-pole filter, h(k) = c_u (k+1) a^k.

    K is the first cut-off whose exact geometric tail bound gives
    sum_{k>K} |h(k)| <= tail_tol * sum_{k<=K} |h(k)|.
    """
    if tail_tol <= 0.0:
        raise ValueError("tail_tol must be positive")
    a, c_u = filt.kind.a, filt.kind.c_u
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


def series_autocovariance(h: np.ndarray, tau: int) -> float:
    """R_u(tau) = sum_k h(k) h(k+|tau|) of the input driven through the
    finite impulse response ``h`` by unit-variance innovations."""
    t = abs(tau)
    if t >= h.size:
        return 0.0
    return float(np.dot(h[: h.size - t], h[t:]))


def series_sigma(h: np.ndarray, n: int) -> np.ndarray:
    """Toeplitz input covariance Sigma of order n, summed from ``h``."""
    return toeplitz([series_autocovariance(h, t) for t in range(n)])


def series_c_gamma(h: np.ndarray, n: int, kurtosis_ratio: float = 3.0) -> np.ndarray:
    """Lag table of the Gram fourth-moment matrix, summed from ``h``.

    Bartlett's formula gives table[k, l] = (kurtosis_ratio - 3) r_k r_l
    + S(|k-l|) + S(k+l), where S(x) = sum_tau r_tau r_{tau+x} and r is the
    autocovariance, which vanishes beyond the support of ``h``.
    """
    # r is zero past the support of h, so the padding adds only zero products
    r = np.array([series_autocovariance(h, t) for t in range(h.size + n)])
    two_sided = np.concatenate([r[:0:-1], r])
    sums = np.array(
        [np.dot(two_sided[: two_sided.size - x], two_sided[x:]) for x in range(2 * n - 1)]
    )
    k = np.arange(n)[:, None]
    l = np.arange(n)[None, :]
    excess = kurtosis_ratio - 3.0
    return excess * np.outer(r[:n], r[:n]) + sums[np.abs(k - l)] + sums[k + l]


def entrywise_kernel(spec: KernelSpec, eta: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """(P, dP, d2P) of ``kernel_matrix`` with each entry's power raised
    directly over the n x n exponent grid, as it was before the powers came
    from O(n) rows.  The operations and their order are the same, so the two
    agree bit for bit wherever numpy raises both powers alike."""
    eta = np.asarray(eta, dtype=float)
    par = [eta[..., k, None, None] for k in range(spec.p)]
    idx = np.arange(1, n + 1, dtype=float)
    i, j = idx[:, None], idx[None, :]
    m = np.maximum(i, j)
    if spec.family == "ridge":
        P, d1, d2 = par[0] * np.eye(n), [np.eye(n)], {}
    elif spec.family == "tc":
        c, al = par
        base, dal = al**m, m * al ** (m - 1)
        P, d1 = c * base, [base, c * dal]
        d2 = {(0, 1): dal, (1, 1): c * m * (m - 1) * al ** np.maximum(m - 2, 0)}
    elif spec.family == "ss":
        c, al = par
        e1, e2 = i + j + m, 3.0 * m
        base = al**e1 / 2.0 - al**e2 / 6.0
        dal = e1 * al ** (e1 - 1) / 2.0 - e2 * al ** (e2 - 1) / 6.0
        P, d1 = c * base, [base, c * dal]
        d2 = {
            (0, 1): dal,
            (1, 1): c * (
                e1 * (e1 - 1) * al ** (e1 - 2) / 2.0 - e2 * (e2 - 1) * al ** (e2 - 2) / 6.0
            ),
        }
    else:
        c, al, rho = par
        s, d = (i + j) / 2.0, np.abs(i - j)

        def rho_pow(expo):
            return _signed_pow(rho, *_power_table(expo))

        rd, rd1, als, als1 = rho_pow(d), d * rho_pow(d - 1), al**s, s * al ** (s - 1)
        P, d1 = c * als * rd, [als * rd, c * als1 * rd, c * als * rd1]
        d2 = {
            (0, 1): als1 * rd,
            (0, 2): als * rd1,
            (1, 1): c * s * (s - 1) * al ** (s - 2) * rd,
            (1, 2): c * als1 * rd1,
            (2, 2): c * als * d * (d - 1) * rho_pow(d - 2),
        }
    lead = eta.shape[:-1] + (spec.p,)
    dP = np.zeros(lead + (n, n))
    d2P = np.zeros(lead + (spec.p, n, n))
    for k, term in enumerate(d1):
        dP[..., k, :, :] = term
    for (k, l), term in d2.items():
        d2P[..., k, l, :, :] = d2P[..., l, k, :, :] = term
    return P, dP, d2P


def noise_free_dataset(system: FirSystem, u: np.ndarray) -> Dataset:
    """The record Y = Phi theta0 of input ``u`` (t = 1-n ... N-1)."""
    phi = lag_matrix(u, system.order)
    return Dataset(phi=phi, y=phi @ system.theta0, system=system)


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


def expansion_terms(
    data: Dataset,
    fit: EbFit,
    spec: KernelSpec,
    sigma_inv: np.ndarray,
    p_star_inv: np.ndarray,
    sigma2: float,
) -> ExpansionTerms:
    """Record-level expansion terms of the scaled estimation errors.

    ``fit`` is ``spec``'s fit of ``data``.  ``sigma_inv`` and ``p_star_inv``
    are Sigma^-1 and P(eta*)^-1, which every record of a collection shares
    (``second_order_stats(...).sigma_inv`` and ``hyper_parameter_law(...)
    .p_inv``).  The noise realization is read off the record as
    V = Y - Phi theta0.  The two decompositions documented on
    :class:`ExpansionTerms` hold as algebraic identities; their
    floating-point residuals are returned so callers can assert them
    against a tolerance.
    """
    n = data.order
    n_samples = data.n_samples
    theta0 = data.system.theta0
    root_n = math.sqrt(n_samples)
    g_inv = _pd_inverse(data.gram)
    v = data.y - data.phi @ theta0

    scaled_cross = root_n * (data.phi.T @ v) / n_samples
    theta_als_1 = sigma_inv @ scaled_cross
    theta_als_2 = root_n * (n_samples * g_inv - sigma_inv) @ scaled_cross
    limit_shrink = sigma2 * sigma_inv @ (p_star_inv @ theta0)
    vartheta_b2 = -limit_shrink

    p_hat = kernel_matrix(spec, fit.eta_hat, n, order=0)[0]
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
