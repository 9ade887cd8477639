"""Correctness checks on a workload's artifacts, run outside the timed region.

Each check returns a list of failure messages; an empty list means the
outputs are correct.  Oracles come from firasym's public functions.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

import numpy as np

# Every matrix of a limit report, as compared by acceptance criterion 3.
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
REL_TOL = 1e-10  # criterion 3's tolerance
TOL_COST = 1e-12  # OptimizerOptions.tol_cost default
GRID_POINTS = {1: 40, 2: 15, 3: 8}  # coarse grid points per axis, by dimension
OWN_FITS = 2  # records per family fitted by the benchmark itself
SWEEP_ROWS = 4  # sampled sweep.csv rows compared with the generic report
CLI_SYSTEM_TAG = 1  # the CLI draws the sweep's truth from stream (seed, 1, 0)
OWN_FIT_TAG = 102  # benchmark-owned stream tag for its own records


def rel_err(x, y) -> float:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(np.max(np.abs(x - y)) / max(float(np.max(np.abs(y))), 1e-300))


def identical_repeats(hashes: list[list[str]]) -> list[str]:
    if any(h != hashes[0] for h in hashes[1:]):
        return ["artifacts differ between repeats of one seed"]
    if "missing" in hashes[0]:
        return ["an artifact is missing"]
    return []


# ------------------------------------------------------------------ mc_fit


def check_records_roundtrip(path: str) -> list[str]:
    """records.csv -> read_records_csv -> write_records_csv gives the same bytes."""
    from firasym.montecarlo import read_records_csv, write_records_csv

    with open(path) as handle:
        original = handle.read()
    header = {}
    for line in original.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            header[key] = value
    records = read_records_csv(path)
    columns = next(csv.reader(l for l in original.splitlines() if not l.startswith("#")))
    p = sum(c.startswith("eta_hat_") for c in columns)
    copy = path + ".roundtrip"
    write_records_csv(copy, records, p, header)
    with open(copy) as handle:
        again = handle.read()
    os.remove(copy)
    if again != original:
        return [f"{path} does not round-trip through read_records_csv"]
    return []


def _to_eta(x: np.ndarray, kinds) -> np.ndarray:
    out = np.empty(len(kinds))
    for k, kind in enumerate(kinds):
        if kind == "log":
            out[k] = math.exp(x[k])
        elif kind == "logit":
            out[k] = 1.0 / (1.0 + math.exp(-x[k]))
        else:
            out[k] = math.tanh(x[k])
    return out


def _to_internal(eta: np.ndarray, kinds) -> np.ndarray:
    out = np.empty(len(kinds))
    for k, kind in enumerate(kinds):
        v = eta[k]
        if kind == "log":
            out[k] = math.log(v)
        elif kind == "logit":
            out[k] = math.log(v / (1.0 - v))
        else:
            out[k] = math.atanh(v)
    return out


def coarse_grid(spec) -> list[np.ndarray]:
    """Cell centres of a fixed grid over the box, in transformed coordinates."""
    kinds = spec.coord_kinds
    lo = _to_internal(spec.omega[:, 0], kinds)
    hi = _to_internal(spec.omega[:, 1], kinds)
    m = GRID_POINTS[spec.p]
    axes = [lo[k] + (np.arange(m) + 0.5) * (hi[k] - lo[k]) / m for k in range(spec.p)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=-1)
    return [_to_eta(x, kinds) for x in points]


def check_fit(data, fit, spec) -> list[str]:
    """fit.cost equals eb_cost at eta_hat, and no grid point beats it."""
    from firasym import NotPositiveDefiniteError, eb_cost

    gram = data.phi.T @ data.phi
    cost = eb_cost(fit.eta_hat, fit.theta_ls, gram, fit.sigma2_hat, spec)[0]
    problems = []
    if abs(cost - fit.cost) > REL_TOL * abs(cost):
        problems.append(f"{spec.family}: fit.cost {fit.cost!r} != eb_cost {cost!r}")
    slack = TOL_COST * (1.0 + abs(fit.cost))
    for eta in coarse_grid(spec):
        try:
            value = eb_cost(eta, fit.theta_ls, gram, fit.sigma2_hat, spec)[0]
        except NotPositiveDefiniteError:
            continue
        if value < fit.cost - slack:
            problems.append(
                f"{spec.family}: grid point {eta.tolist()} costs {value!r} < {fit.cost!r}"
            )
            break
    return problems


def check_own_fits(seed: int, families, smoke: bool) -> list[str]:
    """Fit a few records built with the public signals functions."""
    from firasym import (
        FilterSpec,
        KernelSpec,
        NoiseSpec,
        SecondOrderAR,
        build_dataset,
        derive_stream,
        eb_estimate,
        generate_input,
        generate_t1,
    )
    from plans import README_FILTERS

    n, n_samples = (5, 100) if smoke else (20, 1000)
    noise = NoiseSpec(1.0)
    problems = []
    for fam_idx, family in enumerate(families):
        spec = KernelSpec(family)
        for r in range(OWN_FITS):
            a, cu2 = README_FILTERS[r % len(README_FILTERS)]
            filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(cu2)))
            system = generate_t1(n, derive_stream(seed, OWN_FIT_TAG, 0, r))
            rng = derive_stream(seed, OWN_FIT_TAG, 1, fam_idx, r)
            u = generate_input(filt, n, n_samples, rng)
            data = build_dataset(system, u, noise, rng)
            problems += check_fit(data, eb_estimate(data, spec), spec)
    return problems


def check_mc(calls: list[dict], hashes, seed: int, smoke: bool) -> list[str]:
    problems = identical_repeats(hashes)
    for call in calls:
        csv_path = os.path.join(call["out"], "records.csv")
        agg_path = os.path.join(call["out"], "aggregates.json")
        if not (os.path.exists(csv_path) and os.path.exists(agg_path)):
            problems.append(f"{call['case']}: mc artifacts missing")
            continue
        problems += check_records_roundtrip(csv_path)
    problems += check_own_fits(seed, [c["case"] for c in calls], smoke)
    return problems


# -------------------------------------------------------------- asym_order


def _load(call: dict) -> tuple[dict, dict]:
    config_path = call["argv"][call["argv"].index("--config") + 1]
    with open(config_path) as handle:
        cfg = json.load(handle)
    with open(os.path.join(call["out"], "asym_report.json")) as handle:
        report = json.load(handle)["report"]
    return cfg, report


def _inputs(cfg: dict):
    from firasym import FilterSpec, NoiseSpec, SecondOrderAR

    filt = FilterSpec(SecondOrderAR(a=cfg["filter"]["a"], c_u=math.sqrt(cfg["filter"]["cu2"])))
    return np.array(cfg["theta0"]), filt, NoiseSpec(cfg["noise"]["sigma2"]), cfg["N"]


def check_ridge_report(cfg: dict, report: dict) -> list[str]:
    """Every report matrix matches the closed-form ridge_report."""
    from firasym import ridge_report

    theta0, filt, noise, n_samples = _inputs(cfg)
    closed = ridge_report(theta0, filt, noise, n_samples)
    problems = []
    for name in REPORT_FIELDS:
        err = rel_err(report[name], getattr(closed, name))
        if not err <= REL_TOL:
            problems.append(f"ridge n={theta0.size}: {name} rel err {err:.3g}")
    err = rel_err(report["amse"], closed.amse)
    if not err <= REL_TOL:
        problems.append(f"ridge n={theta0.size}: amse rel err {err:.3g}")
    return problems


def check_tc_first_order(cfg: dict, report: dict) -> list[str]:
    """eta_star satisfies the prior-fit first-order conditions in the box.

    The prior-fit criterion theta0' P^-1 theta0 + logdet P is the reduced
    cost with a zero noise term, so the public eb_cost gives its gradient.
    """
    from firasym import KernelSpec, eb_cost

    theta0 = np.array(cfg["theta0"])
    spec = KernelSpec(cfg["kernel"]["family"])
    eta = np.array(report["eta_star"])
    value, grad = eb_cost(eta, theta0, np.eye(theta0.size), 0.0, spec)
    kinds = spec.coord_kinds
    chain = np.array(
        [eta[k] if kind == "log" else eta[k] * (1 - eta[k]) if kind == "logit"
         else 1 - eta[k] ** 2 for k, kind in enumerate(kinds)]
    )
    g = grad * chain  # gradient in transformed coordinates
    x = _to_internal(eta, kinds)
    lo = _to_internal(spec.omega[:, 0], kinds)
    hi = _to_internal(spec.omega[:, 1], kinds)
    tol = 1e-6 * (1.0 + abs(value))
    problems = []
    for k in range(spec.p):
        near_lo = x[k] - lo[k] <= 1e-6 * (hi[k] - lo[k])
        near_hi = hi[k] - x[k] <= 1e-6 * (hi[k] - lo[k])
        ok = (g[k] >= -tol) if near_lo else (g[k] <= tol) if near_hi else abs(g[k]) <= tol
        if not ok:
            problems.append(f"tc eta_star {eta.tolist()}: gradient {g.tolist()} not stationary")
            break
    return problems


def check_asym(calls: list[dict], hashes) -> list[str]:
    problems = identical_repeats(hashes)
    for call in calls:
        try:
            cfg, report = _load(call)
        except OSError:
            problems.append(f"{call['case']}: asym_report.json missing")
            continue
        if cfg["kernel"]["family"] == "ridge":
            problems += check_ridge_report(cfg, report)
        else:
            problems += check_tc_first_order(cfg, report)
    return problems


# -------------------------------------------------------------- sweep_grid


def check_sweep(calls: list[dict], hashes, seed: int) -> list[str]:
    """Sampled sweep.csv rows match the generic asymptotic_report."""
    from firasym import (
        FilterSpec,
        KernelSpec,
        NoiseSpec,
        SecondOrderAR,
        asymptotic_report,
        derive_stream,
        generate_t1,
    )

    problems = identical_repeats(hashes)
    call = calls[0]
    path = os.path.join(call["out"], "sweep.csv")
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError:
        return problems + ["sweep.csv missing"]
    rows = list(csv.DictReader(io.StringIO(
        "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    )))
    if len(rows) != call["items"]:
        problems.append(f"sweep.csv has {len(rows)} rows, expected {call['items']}")
    theta0 = generate_t1(call["info"]["n"], derive_stream(seed, CLI_SYSTEM_TAG, 0)).theta0
    noise = NoiseSpec(1.0)
    for row in random.Random(seed).sample(rows, min(SWEEP_ROWS, len(rows))):
        filt = FilterSpec(SecondOrderAR(a=float(row["a"]), c_u=math.sqrt(float(row["cu2"]))))
        doc = asymptotic_report(
            KernelSpec.ridge(), theta0, filt, noise, int(row["n_samples"])
        ).to_json_dict()
        for col in ("cond_sigma", "e_b_ar_sq_norm", "trace_v_als", "trace_v_b_ar"):
            err = rel_err(float(row[col]), doc[col])
            if not err <= REL_TOL:
                problems.append(f"sweep a={row['a']} N={row['n_samples']}: {col} rel err {err:.3g}")
    return problems


def check_workload(workload: str, result: dict, seed: int, smoke: bool) -> list[str]:
    """All checks of one workload; returns the problems found."""
    calls, hashes = result["calls"], result["hashes"]
    if workload == "mc_fit":
        return check_mc(calls, hashes, seed, smoke)
    if workload == "asym_order":
        return check_asym(calls, hashes)
    return check_sweep(calls, hashes, seed)
