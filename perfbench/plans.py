"""Workload definitions: the firasym CLI calls that make up one pass.

A pass is a fixed list of calls into ``firasym.cli.main``.  Every input of a
pass (configs, truths, CLI seeds) is derived from the workload seed, so the
same seed gives the same pass and byte-identical artifacts.  Each workload
repeats its pass; the repeats are the timing samples.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

WORKLOADS = ("mc_fit", "asym_order", "sweep_grid")

# The README's three data collections: cond(Sigma) spans about 1.5 to 5.5e5.
README_FILTERS = [[0.05, 0.02], [0.7, 0.1], [0.95, 0.5]]

# mc_fit: records per collection, sized so that each kernel family takes
# about the same wall time per pass at the seed (one BLAS thread):
# ~70 ms per ridge record, ~280 ms per tc record and ~800 ms per dc record,
# plus the numeric eta_star of tc/dc in experiment_theory.
MC_RECORDS = {"ridge": 16, "tc": 4, "dc": 1}

# asym_order: (case, kernel family, FIR order, reports per pass).  Report
# counts give each case a comparable share of the pass: ridge reports take
# ~20 / 150 / 1600 ms at n = 20 / 40 / 80, and the tc report ~300 ms.
ASYM_CASES = [
    ("n20", "ridge", 20, 64),
    ("n40", "ridge", 40, 8),
    ("n80", "ridge", 80, 1),
    ("tc_n20", "tc", 20, 4),
]

# Tiny sizes for the benchmark's own smoke test; same cases, same code paths.
SMOKE_MC_RECORDS = {"ridge": 1, "tc": 1, "dc": 1}
SMOKE_ASYM_CASES = [
    ("n20", "ridge", 5, 2),
    ("n40", "ridge", 6, 1),
    ("n80", "ridge", 8, 1),
    ("tc_n20", "tc", 5, 1),
]
SMOKE_SWEEP_ARGS = ["--grid-points", "4"]

# Benchmark-owned stream tag for the asym truths; the program's own tags
# (1 to 3) are never reused here.
ASYM_TRUTH_TAG = 101


@dataclass
class Call:
    """One ``firasym`` CLI invocation of a pass."""

    case: str
    argv: list[str]
    items: int  # records, reports or grid points the call produces
    out: str
    info: dict = field(default_factory=dict)

    def artifacts(self) -> list[str]:
        command = self.argv[0]
        names = {
            "mc": ["records.csv", "aggregates.json"],
            "asym": ["asym_report.json"],
            "sweep": ["sweep.csv"],
        }[command]
        return [os.path.join(self.out, name) for name in names]


def import_firasym(root: str):
    """Import firasym from the checkout's ``src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "firasym", "__init__.py")):
        raise SystemExit(f"firasym sources not found under {src}")
    sys.path.insert(0, src)
    import firasym

    here = os.path.realpath(os.path.dirname(firasym.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported firasym from {here}, not from {src}")
    return firasym


def write_json(path: str, payload: dict) -> str:
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
    return path


def build_plan(workload: str, seed: int, out: str, smoke: bool = False) -> list[Call]:
    """Write the pass's config files under ``out`` and return its calls."""
    os.makedirs(out, exist_ok=True)
    if workload == "mc_fit":
        return _mc_plan(seed, out, SMOKE_MC_RECORDS if smoke else MC_RECORDS)
    if workload == "asym_order":
        return _asym_plan(seed, out, SMOKE_ASYM_CASES if smoke else ASYM_CASES)
    if workload == "sweep_grid":
        return _sweep_plan(seed, out, SMOKE_SWEEP_ARGS if smoke else [])
    raise ValueError(f"unknown workload {workload!r}")


def _mc_plan(seed: int, out: str, records: dict) -> list[Call]:
    calls = []
    for family, per_collection in records.items():
        cfg = {
            "kernel": {"family": family},
            "system": {"type": "T1", "count": 1},
            "n": 20,
            "N": 1000,
            "filters": README_FILTERS,
            "noise": {"sigma2": 1.0},
            "records": per_collection,
        }
        call_out = os.path.join(out, f"mc_{family}")
        os.makedirs(call_out, exist_ok=True)
        path = write_json(os.path.join(out, f"mc_{family}.json"), cfg)
        argv = ["mc", "--config", path, "--seed", str(seed), "--out", call_out]
        argv += ["--threads", "1"]
        items = per_collection * len(README_FILTERS)
        calls.append(Call(family, argv, items, call_out, {"family": family}))
    return calls


def _asym_plan(seed: int, out: str, cases: list) -> list[Call]:
    from firasym import derive_stream, generate_t1

    calls = []
    for case_idx, (case, family, n, reps) in enumerate(cases):
        for rep in range(reps):
            theta0 = generate_t1(n, derive_stream(seed, ASYM_TRUTH_TAG, case_idx, rep))
            cfg = {
                "kernel": {"family": family},
                "theta0": theta0.theta0.tolist(),
                "filter": {"a": 0.7, "cu2": 0.5},
                "noise": {"sigma2": 1.0},
                "N": 1000,
            }
            call_out = os.path.join(out, f"asym_{case}_{rep}")
            os.makedirs(call_out, exist_ok=True)
            path = write_json(os.path.join(out, f"asym_{case}_{rep}.json"), cfg)
            argv = ["asym", "--config", path, "--out", call_out]
            calls.append(Call(case, argv, 1, call_out, {"family": family, "n": n}))
    return calls


def _sweep_plan(seed: int, out: str, extra: list[str]) -> list[Call]:
    from firasym.cli import build_parser

    call_out = os.path.join(out, "sweep")
    os.makedirs(call_out, exist_ok=True)
    argv = ["sweep", "--seed", str(seed), "--out", call_out] + extra
    args = build_parser().parse_args(argv)
    items = args.grid_points * len(args.N)
    info = {"n": args.n, "poles": args.grid_points, "N": list(args.N)}
    return [Call("sweep", argv, items, call_out, info)]
