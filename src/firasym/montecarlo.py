"""Seeded Monte-Carlo harness for the regularized FIR estimator.

Each record draws a fresh input and noise realization from a counter-based
random stream keyed by (master seed, system, collection, record), fits the
hyper-parameters, and scores the regularized estimate.  Aggregation uses
compensated summation over records sorted by key, so results are identical
for any thread count and completion order.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .asymptotics import (
    eta_star,
    second_order_stats,
    hyper_parameter_law,
    regularized_error_moments,
)
from .errors import DegenerateTruthError, FirasymError
from .estimators import KernelSpec, OptimizerOptions, eb_estimate
from .signals import (
    FilterSpec,
    FirSystem,
    NoiseSpec,
    SecondOrderAR,
    build_dataset,
    derive_stream,
    generate_input,
    generate_t1,
    generate_t2,
    lag_matrix,
)

# Sub-stream tags so systems, records and standalone tables never collide.
_SYSTEM_TAG = 1
_RECORD_TAG = 2
_TABLE_TAG = 3


@dataclass
class ExperimentConfig:
    """One experiment: kernel x systems x (a, cu2) collections x records."""

    kernel: KernelSpec
    system_type: str  # "T1", "T2" or "explicit"
    n: int
    n_samples: int
    filters: list[tuple[float, float]]  # (a, cu2) pairs
    noise: NoiseSpec
    records: int
    systems: int
    master_seed: int
    theta0: np.ndarray | None = None
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)

    def __post_init__(self) -> None:
        # every run rule; each message starts with the rule's config path
        if self.system_type not in ("T1", "T2", "explicit"):
            raise ValueError("system.type: expected T1, T2 or explicit")
        if self.n < 2:  # the fit score fit_g needs two coefficients
            raise ValueError("n: expected >= 2")
        for path, count in {"records": self.records, "system.count": self.systems}.items():
            if count < 1:
                raise ValueError(f"{path}: expected >= 1")
        if self.n_samples <= self.n:
            raise ValueError(f"N: expected > n ({self.n})")
        if self.system_type == "explicit":
            self.theta0 = np.asarray(self.theta0, dtype=float)
            if self.theta0.shape != (self.n,) or not np.isfinite(self.theta0).all():
                raise ValueError("system.theta0: expected n finite coefficients")
            # fit_g divides by this spread; a zero truth has no eta_star either
            if np.linalg.norm(self.theta0 - self.theta0.mean()) == 0.0:
                raise ValueError("system.theta0: expected a non-constant vector")
        noise = self.noise  # records draw Gaussian noise, so the theory must too
        if not math.isclose(noise.fourth_moment, 3.0 * noise.sigma2**2, rel_tol=1e-12):
            raise ValueError("noise.fourth_moment: expected 3 * sigma2^2 (Gaussian)")
        if not self.filters:
            raise ValueError("filters: expected at least one (a, cu2) pair")
        self.filters = [(float(a), float(cu2)) for a, cu2 in self.filters]
        for i, (a, cu2) in enumerate(self.filters):
            if not 0.0 <= a < 1.0 or not 0.0 < cu2 < math.inf:
                raise ValueError(
                    f"filters[{i}]: invalid filter point (a={a}, cu2={cu2})"
                )
            if (a, cu2) in self.filters[:i]:
                raise ValueError(
                    f"filters[{i}]: duplicate of filters[{self.filters.index((a, cu2))}]"
                )


@dataclass
class RecordResult:
    """One fitted record.  Its fields, in order, are the columns of
    records.csv, with eta_hat spread over eta_hat_1..p."""

    record_id: int
    system_id: int
    a: float
    cu2: float
    eta_hat: tuple[float, ...]
    sigma2_hat: float
    mse_g: float
    fit_g: float
    cond_phitphi: float
    cost: float
    converged: bool
    at_boundary: bool


@dataclass
class CollectionTheory:
    """Limit quantities for one (system, collection) pair."""

    eta_star: np.ndarray
    amse: tuple[float, float, float]


@dataclass
class AggregateMetrics:
    """Per-collection summary, averaged over the systems with surviving
    records; ``records_per_system`` is the fewest surviving records of any
    of them.  A collection without surviving records keeps its entry, with
    zero counts and None statistics."""

    a: float
    cu2: float
    systems: int
    records_per_system: int
    eta_mean: list[float] | None
    eta_variance: list[float] | None
    eta_bias_sq: float | None
    smse_g: float | None
    amse_1: float | None
    amse_2: float | None
    amse_3: float | None
    num_sys_1: int
    num_sys_2: int
    num_sys_3: int
    mean_fit_g: float | None
    mean_cond_phitphi: float | None
    excluded: int


@dataclass
class ExperimentOutcome:
    records: list[RecordResult]
    aggregates: list[AggregateMetrics]
    failures: list[str]
    theory: dict[tuple[int, int], CollectionTheory]


def fit_g(theta_hat: np.ndarray, theta0: np.ndarray) -> float:
    """Normalized fit score 100 (1 - ||theta_hat - theta0|| / ||theta0 - mean||)."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    centered = theta0 - theta0.mean()
    denom = float(np.linalg.norm(centered))
    if denom == 0.0:
        raise DegenerateTruthError("theta0 is constant; fit score undefined")
    return 100.0 * (1.0 - float(np.linalg.norm(theta_hat - theta0)) / denom)


def compare_amse(
    smse: float, amse: tuple[float, float, float]
) -> tuple[bool, bool, bool]:
    """Strict-inequality accuracy flags of the order-2/3 approximations.

    Flag 1: order 2 beats order 1; flag 2: order 3 beats order 1;
    flag 3: order 3 beats order 2.
    """
    d1, d2, d3 = (abs(x - smse) for x in amse)
    return d2 < d1, d3 < d1, d3 < d2


def make_system(config: ExperimentConfig, system_id: int) -> FirSystem:
    """System for a given id, reproducible from the master seed."""
    if config.system_type == "explicit":
        return FirSystem(theta0=config.theta0.copy())
    rng = derive_stream(config.master_seed, _SYSTEM_TAG, system_id)
    if config.system_type == "T1":
        return generate_t1(config.n, rng)
    return generate_t2(config.n, rng)


def _filter_spec(a: float, cu2: float) -> FilterSpec:
    return FilterSpec(kind=SecondOrderAR(a=a, c_u=math.sqrt(cu2)))


def experiment_theory(
    config: ExperimentConfig,
) -> dict[tuple[int, int], CollectionTheory]:
    """Limit quantities for every (system, collection) pair of the run."""
    theory: dict[tuple[int, int], CollectionTheory] = {}
    systems = [make_system(config, s) for s in range(config.systems)]
    # the limit hyper-parameter depends only on the truth and the kernel
    stars = [
        eta_star(config.kernel, system.theta0, config.optimizer) for system in systems
    ]
    for coll_id, (a, cu2) in enumerate(config.filters):
        stats = second_order_stats(_filter_spec(a, cu2), config.n)
        for sys_id, system in enumerate(systems):
            law = hyper_parameter_law(
                config.kernel,
                system.theta0,
                stars[sys_id],
                stats.sigma_inv,
                config.noise.sigma2,
            )
            report = regularized_error_moments(
                system.theta0, law, stats, config.noise, config.n_samples
            )
            theory[sys_id, coll_id] = CollectionTheory(report.eta_star, report.amse)
    return theory


_WORKER_CTX: tuple[ExperimentConfig, list[FirSystem]] | None = None


def _init_worker(config: ExperimentConfig, errstate: dict | None = None) -> None:
    """Per-process context; ``errstate`` carries the parent's numpy
    floating-point error handling into pool workers."""
    global _WORKER_CTX
    if errstate is not None:
        np.seterr(**errstate)
    _WORKER_CTX = (config, [make_system(config, s) for s in range(config.systems)])


def _run_task(task: tuple[int, int, int]):
    """One record; returns a RecordResult or an error string."""
    sys_id, coll_id, rec_id = task
    config, systems = _WORKER_CTX
    a, cu2 = config.filters[coll_id]
    rng = derive_stream(config.master_seed, _RECORD_TAG, sys_id, coll_id, rec_id)
    try:
        system = systems[sys_id]
        filt = _filter_spec(a, cu2)
        u = generate_input(filt, config.n, config.n_samples, rng)
        data = build_dataset(system, u, config.noise, rng)
        fit = eb_estimate(data, config.kernel, config.optimizer)
        gram_eigs = np.linalg.eigvalsh(data.gram)
        err = fit.theta_tr - system.theta0
        return RecordResult(
            record_id=rec_id,
            system_id=sys_id,
            a=a,
            cu2=cu2,
            eta_hat=tuple(float(x) for x in fit.eta_hat),
            sigma2_hat=fit.sigma2_hat,
            mse_g=float(err @ err),
            fit_g=fit_g(fit.theta_tr, system.theta0),
            cond_phitphi=float(gram_eigs[-1] / gram_eigs[0]),
            cost=fit.cost,
            converged=fit.stats.converged,
            at_boundary=fit.stats.at_boundary,
        )
    except (FirasymError, np.linalg.LinAlgError) as exc:
        return f"system={sys_id} collection={coll_id} record={rec_id}: {exc}"


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentOutcome:
    """Run every (system, collection, record) cell and aggregate.

    ``threads`` only sets the process-pool width; outputs are identical for
    any value.  Failed records are excluded from aggregates and reported in
    ``failures``.
    """
    tasks = [
        (s, c, r)
        for s in range(config.systems)
        for c in range(len(config.filters))
        for r in range(config.records)
    ]
    if threads > 1:
        chunk = max(1, len(tasks) // (8 * threads))
        with ProcessPoolExecutor(
            max_workers=threads,
            initializer=_init_worker,
            initargs=(config, np.geterr()),
        ) as pool:
            raw = list(pool.map(_run_task, tasks, chunksize=chunk))
    else:
        _init_worker(config)
        raw = [_run_task(t) for t in tasks]
    records = [r for r in raw if isinstance(r, RecordResult)]
    failures = sorted(r for r in raw if isinstance(r, str))
    excluded = [0] * len(config.filters)
    for (_, coll_id, _), result in zip(tasks, raw):
        excluded[coll_id] += isinstance(result, str)
    records.sort(key=lambda r: (r.system_id, r.a, r.cu2, r.record_id))
    theory = experiment_theory(config)
    aggregates = aggregate_records(config, records, theory, excluded)
    return ExperimentOutcome(
        records=records, aggregates=aggregates, failures=failures, theory=theory
    )


def aggregate_records(
    config: ExperimentConfig,
    records: list[RecordResult],
    theory: dict[tuple[int, int], CollectionTheory],
    excluded: list[int],
) -> list[AggregateMetrics]:
    """Collection-level summaries from per-record results; ``excluded``
    holds the failed-record count of each collection.

    Sums are compensated and records are grouped by sorted keys, so the
    outcome does not depend on the incoming order.
    """
    coll_of = {(a, cu2): i for i, (a, cu2) in enumerate(config.filters)}
    p = config.kernel.p
    groups: dict[tuple[int, int], list[RecordResult]] = {}
    for rec in records:
        groups.setdefault((rec.system_id, coll_of[(rec.a, rec.cu2)]), []).append(rec)

    out = []
    for coll_id, (a, cu2) in enumerate(config.filters):
        per_system = []
        for sys_id in range(config.systems):
            recs = sorted(
                groups.get((sys_id, coll_id), []), key=lambda r: r.record_id
            )
            if not recs:
                continue
            count = len(recs)
            eta_cols = [[r.eta_hat[k] for r in recs] for k in range(p)]
            eta_mean = [math.fsum(col) / count for col in eta_cols]
            eta_var = [
                math.fsum((x - m) ** 2 for x in col) / max(count - 1, 1)
                for col, m in zip(eta_cols, eta_mean)
            ]
            th = theory[sys_id, coll_id]
            bias_sq = math.fsum(
                (m - s) ** 2 for m, s in zip(eta_mean, th.eta_star)
            )
            smse = math.fsum(r.mse_g for r in recs) / count
            flags = compare_amse(smse, th.amse)
            per_system.append(
                {
                    "count": count,
                    "eta_mean": eta_mean,
                    "eta_var": eta_var,
                    "bias_sq": bias_sq,
                    "smse": smse,
                    "amse": th.amse,
                    "flags": flags,
                    "fit": math.fsum(r.fit_g for r in recs) / count,
                    "cond": math.fsum(r.cond_phitphi for r in recs) / count,
                }
            )
        m = len(per_system)

        def avg(key, idx=None):
            values = [s[key] if idx is None else s[key][idx] for s in per_system]
            return math.fsum(values) / m if m else None

        out.append(
            AggregateMetrics(
                a=a,
                cu2=cu2,
                systems=m,
                records_per_system=min((s["count"] for s in per_system), default=0),
                eta_mean=[avg("eta_mean", k) for k in range(p)] if m else None,
                eta_variance=[avg("eta_var", k) for k in range(p)] if m else None,
                eta_bias_sq=avg("bias_sq"),
                smse_g=avg("smse"),
                amse_1=avg("amse", 0),
                amse_2=avg("amse", 1),
                amse_3=avg("amse", 2),
                num_sys_1=sum(s["flags"][0] for s in per_system),
                num_sys_2=sum(s["flags"][1] for s in per_system),
                num_sys_3=sum(s["flags"][2] for s in per_system),
                mean_fit_g=avg("fit"),
                mean_cond_phitphi=avg("cond"),
                excluded=excluded[coll_id],
            )
        )
    return out


def table1(
    a_values: list[float],
    n: int,
    n_samples: int,
    records: int,
    seed: int,
) -> list[dict]:
    """Exact cond(Sigma) next to the simulated average cond(Phi'Phi)."""
    rows = []
    for a_idx, a in enumerate(a_values):
        filt = FilterSpec(kind=SecondOrderAR(a=a, c_u=1.0))
        conds = []
        for rec in range(records):
            rng = derive_stream(seed, _TABLE_TAG, a_idx, rec)
            u = generate_input(filt, n, n_samples, rng)
            phi = lag_matrix(u, n)
            eigs = np.linalg.eigvalsh(phi.T @ phi)
            conds.append(float(eigs[-1] / eigs[0]))
        rows.append(
            {
                "a": a,
                "cond_sigma": second_order_stats(filt, n).cond,
                "mean_cond_phitphi": math.fsum(conds) / records,
            }
        )
    return rows


# ---------------------------------------------------------------- persistence

# records.csv cells are read back by the annotation of their RecordResult field
_PARSE = {"int": int, "float": float, "bool": lambda text: bool(int(text))}


def write_header(handle, header: dict) -> None:
    """The ``# key=value`` lines that open a CSV artifact."""
    for key, value in header.items():
        handle.write(f"# {key}={value}\n")


def csv_columns(p: int) -> list[str]:
    columns = []
    for f in fields(RecordResult):
        if f.name == "eta_hat":
            columns += [f"eta_hat_{k + 1}" for k in range(p)]
        else:
            columns.append(f.name)
    return columns


def write_records_csv(
    path, records: list[RecordResult], p: int, header: dict
) -> None:
    """Persist per-record results; floats keep full round-trip precision
    (``repr``) and flags are written as 0/1."""
    with open(path, "w", newline="") as handle:
        write_header(handle, header)
        writer = csv.writer(handle)
        writer.writerow(csv_columns(p))
        names = [f.name for f in fields(RecordResult)]
        for r in records:
            row = []
            for name in names:
                value = getattr(r, name)
                if name == "eta_hat":
                    row += map(repr, value)
                else:
                    row.append(int(value) if isinstance(value, bool) else repr(value))
            writer.writerow(row)


def read_records_csv(path) -> list[RecordResult]:
    """Inverse of :func:`write_records_csv` (header comments are skipped)."""
    with open(path, newline="") as handle:
        rows = [line for line in handle if not line.startswith("#")]
    reader = csv.reader(rows)
    columns = next(reader)
    p = sum(1 for c in columns if c.startswith("eta_hat_"))
    records = []
    for row in reader:
        cells = dict(zip(columns, row))
        values = {
            f.name: _PARSE[f.type](cells[f.name])
            for f in fields(RecordResult)
            if f.name != "eta_hat"
        }
        eta_hat = tuple(float(cells[f"eta_hat_{k + 1}"]) for k in range(p))
        records.append(RecordResult(eta_hat=eta_hat, **values))
    return records


def aggregates_json_dict(outcome: ExperimentOutcome) -> dict:
    """JSON-ready aggregate summary mirroring AggregateMetrics fields."""
    return {
        "excluded_records": len(outcome.failures),
        "failures": outcome.failures,
        "collections": [vars(agg).copy() for agg in outcome.aggregates],
    }
