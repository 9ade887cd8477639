"""Kernel matrices, least-squares and regularized estimators, and the
marginal-likelihood hyper-parameter search.

The hyper-parameter cost is evaluated in its reduced n x n form

    cost(eta) = theta_ls' S(eta)^-1 theta_ls + logdet S(eta),
    S(eta)    = P(eta) + sigma2_hat * (Phi' Phi)^-1,

which differs from the full N x N marginal-likelihood objective only by an
eta-independent constant, so both have the same minimizer.  The search runs
in transformed coordinates (log for positive parameters, logit for decay
rates, atanh for correlations): the cost is evaluated on a fixed lattice in
one batched factorization, and the best lattice points are polished with
analytic-gradient L-BFGS-B and analytic-Hessian Newton steps.  While
every polished start has ended first-order optimal, a later best point is
skipped when a lattice neighbour outranks it, or when the cost never rises
above its own along the straight segment to a polished point: either way it
descends into a valley already polished.  The lattice's kernel matrices do
not depend on the record, so they are built once per kernel box and order.

No scipy module is imported with this module.  scipy.optimize and
scipy.special are imported at the first search: together they take ~0.3 s
to import, and the closed-form limit theory (`sweep`, a ridge `asym`)
searches nothing.  The search's cost evaluations also factor through
scipy.linalg's LAPACK Cholesky (~0.13 s more to import, but ~14 us less
per evaluation at n = 20 than numpy).  Every one-off factorization, such
as the noise term, the RLS solve and the limit law's P(eta*), goes
through numpy, so `sweep`, `table1` and a ridge `asym` load no scipy
module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteError,
    NotPositiveDefiniteError,
    OutOfBoxError,
    RankDeficientError,
)
from .signals import Dataset

_FAMILIES = ("ridge", "tc", "dc", "ss")


def _logit(v):
    from scipy.special import logit

    return logit(v)


def _expit(x):
    from scipy.special import expit

    return expit(x)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported at the first call.  ``minimize_box``
    looks this name up as a module global, so it is the seam that
    perfbench's tracer and ``TestConverged`` patch; it goes when the
    projected-Newton search on the ROADMAP deletes the L-BFGS-B stage."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


# Per-coordinate transforms used by the optimizer: kind -> (to internal,
# from internal, eta -> first and second derivative of eta with respect to
# its internal coordinate).
_TRANSFORMS = {
    "log": (np.log, np.exp, lambda v: (v, v)),
    "logit": (_logit, _expit, lambda v: (v * (1.0 - v), v * (1.0 - v) * (1.0 - 2.0 * v))),
    "atanh": (np.arctanh, np.tanh, lambda v: (1.0 - v**2, -2.0 * v * (1.0 - v**2))),
}
# Open domain of each coordinate kind; box rows must lie strictly inside it.
_DOMAINS = {"log": (0.0, math.inf), "logit": (0.0, 1.0), "atanh": (-1.0, 1.0)}
_COORD_KINDS = {
    "ridge": ("log",),
    "tc": ("log", "logit"),
    "ss": ("log", "logit"),
    "dc": ("log", "logit", "atanh"),
}

# Default search boxes, strictly interior to the parameter ranges.  P(eta)
# is positive definite throughout the ridge, TC and DC boxes.  The SS kernel
# is not near the faces of its box (a Cholesky of P fails at 412 of 3,000
# box points with n <= 30); the scan scores such points _COST_ON_FAILURE.
_DEFAULT_BOXES = {
    "ridge": ((1e-9, 1e9),),
    "tc": ((1e-9, 1e9), (1e-6, 1.0 - 1e-6)),
    "ss": ((1e-9, 1e9), (1e-6, 1.0 - 1e-6)),
    "dc": ((1e-9, 1e9), (1e-6, 1.0 - 1e-6), (-1.0 + 1e-6, 1.0 - 1e-6)),
}

# Scan lattice points per transformed axis, by the number of hyper-parameters.
_SCAN_POINTS = {1: 32, 2: 16, 3: 8}

_COST_ON_FAILURE = 1e100

_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(n: int) -> np.ndarray:
    """Shared read-only identity; the hot cost path asks for it constantly."""
    mat = _EYE_CACHE.get(n)
    if mat is None:
        mat = np.eye(n)
        mat.setflags(write=False)
        _EYE_CACHE[n] = mat
    return mat


@dataclass
class KernelSpec:
    """Kernel family plus the closed hyper-parameter box Omega.

    Coordinates are (scale,), (scale, decay) or (scale, decay, correlation)
    depending on the family; ``omega`` is a (p, 2) array of [lo, hi] bounds.
    """

    family: str
    omega: np.ndarray = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.omega is None:
            self.omega = np.array(_DEFAULT_BOXES[self.family], dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        expected = len(_COORD_KINDS[self.family])
        if self.omega.shape != (expected, 2):
            raise ValueError(
                f"omega must have shape ({expected}, 2) for family {self.family!r}"
            )
        for k, kind in enumerate(_COORD_KINDS[self.family]):
            lo, hi = self.omega[k]
            dom_lo, dom_hi = _DOMAINS[kind]
            if not dom_lo < lo < hi < dom_hi:  # also rejects NaN and inf
                raise ValueError(
                    f"omega row {k} must satisfy {dom_lo} < lo < hi < {dom_hi}"
                    f" ({kind} coordinate), got [{lo}, {hi}]"
                )

    @property
    def p(self) -> int:
        return self.omega.shape[0]

    @property
    def coord_kinds(self) -> tuple[str, ...]:
        return _COORD_KINDS[self.family]

    def contains(self, eta: np.ndarray) -> bool:
        """Whether eta, one point (p,) or a stack (..., p), lies in the box."""
        eta = np.asarray(eta, dtype=float)
        if eta.ndim == 0 or eta.shape[-1] != self.p:
            return False
        return bool(((self.omega[:, 0] <= eta) & (eta <= self.omega[:, 1])).all())

    @classmethod
    def ridge(cls, omega=None) -> "KernelSpec":
        return cls("ridge", omega)

    @classmethod
    def tc(cls, omega=None) -> "KernelSpec":
        return cls("tc", omega)

    @classmethod
    def dc(cls, omega=None) -> "KernelSpec":
        return cls("dc", omega)

    @classmethod
    def ss(cls, omega=None) -> "KernelSpec":
        return cls("ss", omega)


@dataclass
class OptimizerOptions:
    """The box-constrained search's one setting: ``starts`` is the number of
    best lattice points considered.  The gradient stages polish each of
    them, except those that ``minimize_box`` finds would descend into a
    valley already polished to first-order optimality."""

    starts: int = 3

    def __post_init__(self) -> None:
        if isinstance(self.starts, bool) or not isinstance(self.starts, (int, np.integer)):
            raise ValueError(f"optimizer.starts: expected an integer, got {self.starts!r}")
        self.starts = int(self.starts)
        if self.starts < 1:
            raise ValueError("optimizer.starts: expected >= 1")


@dataclass
class OptimizerStats:
    converged: bool
    at_boundary: bool


@dataclass
class EbFit:
    """Result of one marginal-likelihood fit on a single record."""

    eta_hat: np.ndarray
    sigma2_hat: float
    theta_ls: np.ndarray
    theta_tr: np.ndarray
    cost: float
    stats: OptimizerStats


def _power_table(expo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The clamped exponent and odd-power mask that _signed_pow takes."""
    expo = np.maximum(expo, 0.0)
    return expo, expo % 2.0 == 1.0


def _signed_pow(base: np.ndarray, expo: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """base**expo for integer-valued exponents, given as their _power_table:
    negative exponents clamped to zero, and the odd-power mask.

    Callers multiply by a polynomial coefficient that vanishes exactly where
    the exponent was clamped, so the clamp never changes a value.  A
    negative base is raised as |base| with the sign of odd powers restored,
    which agrees with the much slower direct power to rounding.
    """
    neg = base < 0.0
    power = np.abs(base) ** expo
    if neg.any():
        np.negative(power, out=power, where=neg & odd)
    return power


_TABLE_CACHE: dict[tuple[str, int], dict] = {}


def _kernel_tables(family: str, n: int) -> dict:
    """Read-only exponent, index and coefficient tables of a family's kernel
    at order n.

    The kernel takes only O(n) distinct powers of each hyper-parameter, so
    each power is raised once per point over an exponent row of shape
    (1, K) and gathered into the n x n matrix by an integer index grid:
    "al^m" indexes the row "al" at exponent m, "rho^d" the signed row
    ``pow["rho"]`` (its _power_table) at exponent d.  An index grid clamps
    an exponent to zero only where its polynomial coefficient vanishes, as
    _signed_pow does.  The float grids ("m", "s-1", ...) are those
    coefficients.  Nothing depends on eta, so the tables are built on first
    use and shared by every later call.
    """
    tables = _TABLE_CACHE.get((family, n))
    if tables is not None:
        return tables
    idx = np.arange(1, n + 1)
    i = idx[:, None]
    j = idx[None, :]
    m = np.maximum(i, j)
    d = np.abs(i - j)
    if family == "tc":
        coef = {"m": m, "m-1": m - 1}
        rows, signed = {"al": np.arange(n + 1)}, {}
        index = {"al^m": m, "al^m-1": m - 1, "al^m-2": np.maximum(m - 2, 0)}
    elif family == "ss":
        e1, e2 = i + j + m, 3 * m
        coef = {"e1": e1, "e1-1": e1 - 1, "e2": e2, "e2-1": e2 - 1}
        rows, signed = {"al": np.arange(3 * n + 1)}, {}
        index = {
            "al^e1": e1, "al^e1-1": e1 - 1, "al^e1-2": e1 - 2,
            "al^e2": e2, "al^e2-1": e2 - 1, "al^e2-2": e2 - 2,
        }
    elif family == "dc":
        # the alpha row holds the half-integer exponents -1, -1/2, ..., n of
        # s = (i + j)/2, so exponent s sits at index i + j + 2
        coef = {"s": (i + j) / 2.0, "s-1": (i + j) / 2.0 - 1, "d": d, "d-1": d - 1}
        rows = {"al": np.arange(-2, 2 * n + 1) / 2.0}
        signed = {"rho": np.arange(n)}
        index = {
            "al^s": i + j + 2, "al^s-1": i + j, "al^s-2": i + j - 2,
            "rho^d": d, "rho^d-1": np.maximum(d - 1, 0), "rho^d-2": np.maximum(d - 2, 0),
        }
    else:
        coef, rows, signed, index = {}, {}, {}, {}
    tables = {name: grid.astype(float) for name, grid in coef.items()}
    tables.update((name, row[None, :].astype(float)) for name, row in rows.items())
    tables.update((name, grid.astype(np.intp)) for name, grid in index.items())
    pow_ = {name: _power_table(row[None, :].astype(float)) for name, row in signed.items()}
    for arr in list(tables.values()) + [a for pair in pow_.values() for a in pair]:
        arr.setflags(write=False)
    tables["pow"] = pow_
    _TABLE_CACHE[family, n] = tables
    return tables


def _gather(row: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Entries of the power rows (..., 1, K) at an index grid (n, n)."""
    return row[..., 0, grid]


def kernel_matrix(
    spec: KernelSpec, eta: np.ndarray, n: int, order: int = 2
) -> tuple[np.ndarray, ...]:
    """Kernel matrix P(eta) with its analytic derivatives up to ``order``.

    Returns the first ``order + 1`` of (P, dP, d2P).  For one point eta of
    shape (p,) their shapes are (n, n), (p, n, n) and (p, p, n, n), with d2P
    symmetric in its first two axes; a stack of points (..., p) adds the
    same leading axes to each.  Raises OutOfBoxError when eta is outside the
    configured box.
    """
    eta = np.asarray(eta, dtype=float)
    if not spec.contains(eta):
        raise OutOfBoxError(f"eta {eta} outside box {spec.omega.tolist()}")
    # hyper-parameters as (..., 1, 1) arrays, broadcast over the index grid
    par = [eta[..., k, None, None] for k in range(spec.p)]
    t = _kernel_tables(spec.family, n)

    # d1 holds dP[k]; d2() gives d2P[k, l] for k <= l, absent entries are
    # zero (deferred: the gradient path has no use for it).  Every decay
    # rate alpha lies in (0, 1), so its powers are taken directly
    if spec.family == "ridge":
        P = par[0] * _eye(n)
        if order == 0:
            return (P,)
        d1, d2 = (_eye(n),), dict
    elif spec.family == "tc":
        c, al = par
        m = t["m"]
        pa = al ** t["al"]
        base = _gather(pa, t["al^m"])
        P = c * base
        if order == 0:
            return (P,)
        dal = m * _gather(pa, t["al^m-1"])
        d1 = (base, c * dal)
        d2 = lambda: {(0, 1): dal, (1, 1): c * m * t["m-1"] * _gather(pa, t["al^m-2"])}
    elif spec.family == "ss":
        c, al = par
        e1, e2 = t["e1"], t["e2"]
        pa = al ** t["al"]
        at = lambda name: _gather(pa, t["al^" + name])
        base = at("e1") / 2.0 - at("e2") / 6.0
        P = c * base
        if order == 0:
            return (P,)
        dal = e1 * at("e1-1") / 2.0 - e2 * at("e2-1") / 6.0
        d1 = (base, c * dal)
        d2 = lambda: {
            (0, 1): dal,
            (1, 1): c * (
                e1 * t["e1-1"] * at("e1-2") / 2.0 - e2 * t["e2-1"] * at("e2-2") / 6.0
            ),
        }
    else:
        # dc; the correlation rho may be negative, so its integer powers
        # come from the signed row
        c, al, rho = par
        s, d = t["s"], t["d"]
        pa = al ** t["al"]
        pr = _signed_pow(rho, *t["pow"]["rho"])
        rd = _gather(pr, t["rho^d"])
        als = _gather(pa, t["al^s"])
        P = c * als * rd
        if order == 0:
            return (P,)
        rd1 = d * _gather(pr, t["rho^d-1"])
        als1 = s * _gather(pa, t["al^s-1"])
        d1 = (als * rd, c * als1 * rd, c * als * rd1)
        d2 = lambda: {
            (0, 1): als1 * rd,
            (0, 2): als * rd1,
            (1, 1): c * s * t["s-1"] * _gather(pa, t["al^s-2"]) * rd,
            (1, 2): c * als1 * rd1,
            (2, 2): c * als * d * t["d-1"] * _gather(pr, t["rho^d-2"]),
        }

    lead = eta.shape[:-1] + (spec.p,)
    dP = np.zeros(lead + (n, n))
    for k, term in enumerate(d1):
        dP[..., k, :, :] = term
    if order == 1:
        return P, dP
    d2P = np.zeros(lead + (spec.p, n, n))
    for (k, l), term in d2().items():
        d2P[..., k, l, :, :] = d2P[..., l, k, :, :] = term
    return P, dP, d2P


def ls_estimate(data: Dataset) -> np.ndarray:
    """Least-squares coefficients, solved once per record (``data.theta_ls``)."""
    return data.theta_ls


def noise_variance_estimate(data: Dataset) -> float:
    """Unbiased residual-based noise variance ||Y - Phi theta_ls||^2 / (N - n)."""
    dof = data.n_samples - data.order
    if dof < 1:
        raise RankDeficientError(
            f"no residual degrees of freedom (N={data.n_samples}, n={data.order})"
        )
    resid = data.y - data.phi @ data.theta_ls
    return float(resid @ resid) / dof


def rls_estimate(data: Dataset, p_mat: np.ndarray, sigma2: float) -> np.ndarray:
    """Regularized least squares (Phi'Phi + sigma2 * P^-1)^-1 Phi'Y.

    Solved through the Cholesky factor L of P as L (L'GL + sigma2 I)^-1 L'b,
    which keeps the system positive definite without forming P^-1.
    """
    try:
        chol_p = np.linalg.cholesky(p_mat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("kernel matrix is not positive definite") from None
    b = data.phi.T @ data.y
    inner = chol_p.T @ data.gram @ chol_p + sigma2 * np.eye(data.order)
    try:
        w = _pd_solve(inner, chol_p.T @ b)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("regularized normal equations not PD") from None
    return chol_p @ w


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


@functools.cache
def _lapack() -> tuple:
    """scipy's LAPACK Cholesky factor and solve (dpotrf, dpotrs), imported at
    the first call and then cached: the search calls this thousands of
    times per fit, and a function-level import would run the import
    machinery's lookups on every call."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    return dpotrf, dpotrs


def _chol_inverse(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """(U, logdet mat) for a PD ``mat``, with mat^-1 = U U' and U upper
    triangular: the inverse of L' for the Cholesky factor L of ``mat``.
    LU with partial pivoting swaps no row of an upper-triangular matrix, so
    ``inv`` runs plain back substitution, which keeps graded matrices
    accurate; inverting L itself would pivot.  A matrix that is not PD
    raises LinAlgError, and a non-finite one NonFiniteError."""
    if not np.isfinite(mat).all():
        raise NonFiniteError("Cholesky factorization of an array with infs or NaNs")
    chol = np.linalg.cholesky(mat)
    return np.linalg.inv(chol.T), 2.0 * float(np.log(chol.diagonal()).sum())


def _pd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """mat^-1 rhs = U (U' rhs) for a PD ``mat``, from :func:`_chol_inverse`,
    whose errors it raises; a non-finite ``rhs`` raises NonFiniteError."""
    if not np.isfinite(rhs).all():
        raise NonFiniteError("Cholesky solve of an array with infs or NaNs")
    u = _chol_inverse(mat)[0]
    return u @ (u.T @ rhs)


def _pd_inverse(mat: np.ndarray) -> np.ndarray:
    """mat^-1 = U U' for a PD ``mat``, from :func:`_chol_inverse`, whose
    errors it raises; the product is exactly symmetric."""
    u = _chol_inverse(mat)[0]
    return u @ u.T


def _noise_term(gram: np.ndarray, sigma2_hat: float) -> np.ndarray:
    """sigma2_hat * (Phi' Phi)^-1, the noise part of S(eta)."""
    try:
        return sigma2_hat * _pd_inverse(gram)
    except np.linalg.LinAlgError:
        raise RankDeficientError("gram matrix is not positive definite") from None


def _cost_derivatives(
    z: np.ndarray, s_inv: np.ndarray, dP: np.ndarray, d2P: np.ndarray | None = None
) -> tuple:
    """Gradient of theta' S^-1 theta + logdet S, and its Hessian when
    ``d2P`` is given, from z = S^-1 theta, S^-1 and the derivatives of S
    (those of P(eta)): (grad,) or (grad, hess)."""
    grad = np.array([-z @ dP[k] @ z + (s_inv * dP[k]).sum() for k in range(len(dP))])
    if d2P is None:
        return (grad,)
    # d2 cost / dk dl = 2 z'P_k S^-1 P_l z - z'P_kl z
    #                   - Tr(S^-1 P_k S^-1 P_l) + Tr(S^-1 P_kl)
    pz = dP @ z
    sp = s_inv @ dP
    hess = (
        2.0 * pz @ s_inv @ pz.T
        - np.einsum("i,klij,j->kl", z, d2P, z)
        - np.einsum("kij,lji->kl", sp, sp)
        + np.einsum("ij,klji->kl", s_inv, d2P)
    )
    return grad, _sym(hess)


def _reduced_cost_grad(
    eta: np.ndarray,
    theta: np.ndarray,
    ridge_term: np.ndarray | float,
    spec: KernelSpec,
    hessian: bool = False,
) -> tuple:
    """Value and gradient of theta' S^-1 theta + logdet S, S = P(eta) + ridge_term,
    followed by the Hessian when ``hessian`` is set.  A zero ridge term gives
    the prior-fit criterion theta' P^-1 theta + logdet P.  The search's
    per-evaluation path, so it factors S with scipy's LAPACK (:func:`_lapack`)."""
    n = theta.size
    P, dP, *d2P = kernel_matrix(spec, eta, n, order=2 if hessian else 1)
    # the LAPACK calls behind scipy's cho_factor / cho_solve, without their
    # wrappers and checks
    dpotrf, dpotrs = _lapack()
    chol, info = dpotrf(P + ridge_term, lower=True, clean=False)
    if info > 0:
        raise NotPositiveDefiniteError(
            "S(eta) factorization failed; check the hyper-parameter box"
        )
    z = dpotrs(chol, theta, lower=True)[0]
    logdet = 2.0 * float(np.log(chol.diagonal()).sum())
    s_inv = dpotrs(chol, _eye(n), lower=True)[0]
    return (float(theta @ z) + logdet, *_cost_derivatives(z, s_inv, dP, *d2P))


def _reduced_cost_batch(
    kernels: np.ndarray, theta: np.ndarray, ridge_term: np.ndarray | float
) -> np.ndarray:
    """theta' S^-1 theta + logdet S, S = P + ridge_term, for a stack of kernel
    matrices P (G, n, n), from one batched Cholesky factorization.  Points
    where S is not numerically PD or the value is not finite cost
    _COST_ON_FAILURE; box corners overflow harmlessly, so floating-point
    warnings are muted here."""
    n = theta.size
    with np.errstate(all="ignore"):
        S = kernels + ridge_term
        ok = np.ones(S.shape[0], dtype=bool)
        try:
            chol = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            # one failure fails the whole stack, so factor point by point
            chol = np.empty_like(S)
            for g, mat in enumerate(S):
                try:
                    chol[g] = np.linalg.cholesky(mat)
                except np.linalg.LinAlgError:
                    chol[g], ok[g] = _eye(n), False
        # w = L^-1 theta by forward substitution, all points at once
        w = np.empty(S.shape[:-1])
        for r in range(n):
            w[:, r] = (theta[r] - (chol[:, r, :r] * w[:, :r]).sum(axis=-1)) / chol[:, r, r]
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        values = np.sum(w**2, axis=-1) + logdet
    return np.where(ok & np.isfinite(values), values, _COST_ON_FAILURE)


def eb_cost(
    eta: np.ndarray,
    theta_ls: np.ndarray,
    gram: np.ndarray,
    sigma2_hat: float,
    spec: KernelSpec,
) -> tuple[float, np.ndarray]:
    """Reduced marginal-likelihood cost and its analytic gradient."""
    return _reduced_cost_grad(
        np.asarray(eta, float), theta_ls, _noise_term(gram, sigma2_hat), spec
    )


def _to_internal(spec: KernelSpec, eta: np.ndarray) -> np.ndarray:
    """Transformed coordinates of eta, one point (p,) or a stack (..., p)."""
    eta = np.asarray(eta, dtype=float)
    return np.stack(
        [_TRANSFORMS[kind][0](eta[..., k]) for k, kind in enumerate(spec.coord_kinds)],
        axis=-1,
    )


def _from_internal(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    """Inverse of _to_internal, clipped so the round trip never leaves the box."""
    x = np.asarray(x, dtype=float)
    eta = np.empty(x.shape)
    for k, kind in enumerate(spec.coord_kinds):
        eta[..., k] = _TRANSFORMS[kind][1](x[..., k])
    return eta.clip(spec.omega[:, 0], spec.omega[:, 1], out=eta)


def _chain_factors(spec: KernelSpec, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of each eta coordinate with respect to
    its transformed coordinate."""
    d1 = np.empty(spec.p)
    d2 = np.empty(spec.p)
    for k, kind in enumerate(spec.coord_kinds):
        d1[k], d2[k] = _TRANSFORMS[kind][2](eta[k])
    return d1, d2


def _start_lattice(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Fixed scan lattice in transformed coordinates: _SCAN_POINTS[p] points
    per axis over the central 80 % of each side of the box."""
    p = lo.size
    margin = 0.1 * (hi - lo)
    axes = [
        np.linspace(lo[k] + margin[k], hi[k] - margin[k], _SCAN_POINTS[p])
        for k in range(p)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _kernels_at(spec: KernelSpec, x: np.ndarray, n: int) -> np.ndarray:
    """P at a stack of transformed points x (G, p); box corners overflow
    harmlessly, so floating-point warnings are muted here."""
    with np.errstate(all="ignore"):
        return kernel_matrix(spec, _from_internal(spec, x), n, order=0)[0]


_LATTICE_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _scan_lattice(spec: KernelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only scan lattice (G, p) of the kernel box and its kernel stack
    (G, n, n) at order n.  Neither depends on the record, so each (family,
    box, n) is built on first use and shared by later searches.  At most
    eight are kept, each one stack (1.6 MB for DC at n = 20); a ninth
    empties the cache."""
    key = (spec.family, spec.omega.tobytes(), n)
    cached = _LATTICE_CACHE.get(key)
    if cached is not None:
        return cached
    lattice = _start_lattice(*_to_internal(spec, spec.omega.T))
    kernels = _kernels_at(spec, lattice, n)
    for arr in (lattice, kernels):
        arr.setflags(write=False)
    if len(_LATTICE_CACHE) >= 8:
        _LATTICE_CACHE.clear()
    _LATTICE_CACHE[key] = lattice, kernels
    return lattice, kernels


# Interior points t = k/9 at which a segment from a start to a polished point
# is checked, as fractions of the way.
_SEGMENT_T = np.arange(1, 9)[:, None] / 9.0


def _downhill_to(x: np.ndarray, level: float, ends: list, costs_at) -> bool:
    """Whether the cost stays at or below ``level`` along the straight
    segment from x to one of the points ``ends``, judged at its interior
    points _SEGMENT_T; ``costs_at`` scores every point of every segment in
    one batch.  A failed point costs _COST_ON_FAILURE, so it blocks."""
    ends = np.asarray(ends)
    points = x + _SEGMENT_T * (ends[:, None, :] - x)
    costs = costs_at(points.reshape(-1, x.size)).reshape(len(ends), -1)
    return bool((costs <= level).all(axis=1).any())


def _free(x: np.ndarray, grad: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Coordinates not held at a bound by a gradient pointing out of the box."""
    return ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))


def _face_side(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """-1 for each transformed coordinate on its lower face, +1 on its upper
    face and 0 inside the box; a face holds x within 1e-6 (hi - lo) of it."""
    tol = 1e-6 * (hi - lo)
    return np.where(x - lo <= tol, -1, np.where(hi - x <= tol, 1, 0))


def _newton_polish(eval_internal, x, lo, hi):
    """Projected Newton steps with the analytic Hessian, inside the box.

    Coordinates held at a bound stay fixed; the others take a Newton step,
    or a gradient step where that is not a descent direction, damped until
    it helps.  The quasi-Newton stage stops once cost changes fall below
    its relative floor, which can leave a gradient around 1e-6 (more along
    a long curved valley); this drives the projected gradient further down
    so returned minima satisfy tight first-order optimality.  Returns
    (x, cost at x, projected-gradient norm at x); the norm is inf when
    every evaluation failed.
    """
    value, grad, hess = eval_internal(x, True)
    ref = value
    for _ in range(30):
        free = _free(x, grad, lo, hi)
        gnorm = np.linalg.norm(grad[free])
        if gnorm <= 1e-9 or value >= _COST_ON_FAILURE:
            break
        step = np.zeros_like(x)
        try:
            step[free] = np.linalg.solve(hess[np.ix_(free, free)], -grad[free])
        except np.linalg.LinAlgError:
            pass
        if not np.all(np.isfinite(step)) or step @ grad >= 0.0:
            step = np.where(free, -grad, 0.0)
        # near the optimum the cost sits at its floating-point floor, so
        # progress is judged by the gradient norm, with the value pinned
        value_cap = ref + 64.0 * np.finfo(float).eps * (1.0 + abs(ref))
        for damp in (1.0, 0.5, 0.25, 0.1, 0.01):
            cand = np.clip(x + damp * step, lo, hi)
            cand_value, cand_grad, cand_hess = eval_internal(cand, True)
            if cand_value < ref or (
                cand_value <= value_cap
                and np.linalg.norm(cand_grad[_free(cand, cand_grad, lo, hi)]) < gnorm
            ):
                x, value, grad, hess = cand, cand_value, cand_grad, cand_hess
                ref = min(ref, value)
                break
        else:
            break
    if value >= _COST_ON_FAILURE:
        return x, value, math.inf
    return x, value, float(np.linalg.norm(grad[_free(x, grad, lo, hi)]))


def _box_minimum(a: np.ndarray) -> np.ndarray:
    """Minimum over each point's 3^p box with edges replicated, as
    scipy.ndimage.minimum_filter(a, size=3, mode="nearest"): per axis, each
    entry takes the minimum with its predecessor, then with its successor
    (numpy reads overlapping input and output views as if copied first)."""
    out = a.copy()
    for axis in range(a.ndim):
        view = np.moveaxis(out, axis, 0)
        np.minimum(view[1:], view[:-1], out=view[1:])
        np.minimum(view[:-1], view[1:], out=view[:-1])
    return out


def minimize_box(
    theta: np.ndarray,
    ridge_term: np.ndarray | float,
    spec: KernelSpec,
    opts: OptimizerOptions | None = None,
):
    """Minimize theta' S^-1 theta + logdet S, S = P(eta) + ridge_term, over
    the kernel box.

    The search runs in transformed coordinates.  It evaluates the cost on a
    fixed lattice in one batched call and walks the ``opts.starts`` best
    lattice points in rank order.  Each is polished with analytic-gradient
    L-BFGS-B (at most 400 iterations) and then Newton steps.  While every
    start polished so far ended first-order optimal (projected gradient at
    most 1e-6 (1 + |cost|)), two kinds of point are skipped, since either
    would descend into a valley already polished:

    - a point that a lattice neighbour (diagonals included) outranks, i.e.
      whose rank is above the minimum rank over its 3^p box: following
      better-ranked neighbours leads to a valley bottom among the best
      points, which was polished;
    - a valley bottom from which the cost never rises above its own lattice
      cost along the straight segment to a polished point, checked at the
      segment's interior points t = k/9.

    The best lattice point is always polished.  The best polished point
    wins; minima whose costs agree to 1e-12 relative count as equal and are
    broken towards the lexicographically smallest transformed point, so
    results are reproducible across platforms and lattice orderings.
    Returns (eta, value, OptimizerStats); ``converged`` reports whether eta
    is first-order optimal by the bound above.
    """
    opts = opts or OptimizerOptions()
    lo, hi = _to_internal(spec, spec.omega.T)
    p = spec.p

    def eval_internal(x: np.ndarray, hessian: bool = False) -> tuple:
        # probes near the box faces can make P vanish numerically: a
        # non-finite value or derivative fails the point like a non-PD S,
        # with the floating-point warnings muted as in the scan
        eta = _from_internal(spec, x)
        with np.errstate(all="ignore"):
            try:
                out = _reduced_cost_grad(eta, theta, ridge_term, spec, hessian)
            except NotPositiveDefiniteError:
                out = (math.inf,)
        if not (
            math.isfinite(out[0])
            and np.isfinite(out[1]).all()
            and (not hessian or np.isfinite(out[2]).all())
        ):
            return (_COST_ON_FAILURE, np.zeros(p), np.zeros((p, p)))[: 2 + hessian]
        d1, d2 = _chain_factors(spec, eta)
        if not hessian:
            return out[0], out[1] * d1
        return out[0], out[1] * d1, out[2] * np.outer(d1, d1) + np.diag(out[1] * d2)

    n = theta.size
    lattice, kernels = _scan_lattice(spec, n)
    costs = _reduced_cost_batch(kernels, theta, ridge_term)
    # cheapest first, ties towards the lexicographically smallest point
    ranked = np.lexsort(tuple(lattice.T[::-1]) + (costs,))
    # valley bottoms: no lattice neighbour ranks ahead of the point
    rank = np.empty(ranked.size, dtype=int)
    rank[ranked] = np.arange(ranked.size)
    rank = rank.reshape((_SCAN_POINTS[p],) * p)
    bottom = (rank == _box_minimum(rank)).ravel()

    def costs_at(x: np.ndarray) -> np.ndarray:
        return _reduced_cost_batch(_kernels_at(spec, x, n), theta, ridge_term)

    # (cost, transformed point, first-order optimal) per polished start
    candidates: list[tuple[float, tuple[float, ...], bool]] = []
    for i in ranked[: opts.starts]:
        if candidates and all(c[2] for c in candidates):
            # the valley-bottom test first: it costs nothing
            ends = [c[1] for c in candidates]
            if not bottom[i] or _downhill_to(lattice[i], costs[i], ends, costs_at):
                continue
        res = minimize(
            eval_internal,
            lattice[i],
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": 400, "ftol": 1e-14, "gtol": 1e-10},
        )
        x_pol, value_pol, gnorm = _newton_polish(
            eval_internal, np.clip(res.x, lo, hi), lo, hi
        )
        candidates.append(
            (value_pol, tuple(x_pol), gnorm <= 1e-6 * (1.0 + abs(value_pol)))
        )

    best_value = min(c[0] for c in candidates)
    slack = 1e-12 * (1.0 + abs(best_value))
    value, best_x, optimal = min(
        (c for c in candidates if c[0] <= best_value + slack), key=lambda c: c[1]
    )
    x_arr = np.array(best_x)
    stats = OptimizerStats(
        converged=optimal, at_boundary=bool(_face_side(x_arr, lo, hi).any())
    )
    return _from_internal(spec, x_arr), float(value), stats


def eb_estimate(
    data: Dataset, spec: KernelSpec, opts: OptimizerOptions | None = None
) -> EbFit:
    """Fit the hyper-parameters by marginal likelihood and return the
    regularized estimate computed at the winner."""
    theta_ls = ls_estimate(data)
    sigma2_hat = noise_variance_estimate(data)
    noise = _noise_term(data.gram, sigma2_hat)
    eta_hat, value, stats = minimize_box(theta_ls, noise, spec, opts)
    p_mat = kernel_matrix(spec, eta_hat, data.order, order=0)[0]
    theta_tr = rls_estimate(data, p_mat, sigma2_hat)
    return EbFit(
        eta_hat=eta_hat,
        sigma2_hat=sigma2_hat,
        theta_ls=theta_ls,
        theta_tr=theta_tr,
        cost=value,
        stats=stats,
    )
