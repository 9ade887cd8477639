"""firasym benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc_fit|asym_order|sweep_grid \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each run is a closed loop with one caller in one process: a fresh worker
process repeats the workload's pass (a fixed list of ``firasym.cli.main``
calls made from the seed) for about T seconds.  BLAS is pinned to one
thread.  Afterwards the artifacts are checked against firasym's public
oracles.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics of
a separate traced run for ``--trace 1``.  The full record (environment,
per-case timings, spans) goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child

sys.path.insert(0, HERE)

import plans  # noqa: E402

SETUP_PROBES = 3
WORKER_TIMEOUT = 150.0  # seconds; a run must end within 180 s


def run_worker(args, out: str, probe: bool = False) -> tuple[float, str]:
    """Run worker.py in a fresh process; returns (wall seconds, stdout)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
        "--out", out, "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if probe:
        cmd.append("--probe")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT, cwd=ROOT
    )
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return wall, proc.stdout


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def declared(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def summarize(values: list[float]) -> dict:
    """Median with its sample count, plus the highest percentile that still
    has at least ten samples above it, when there are enough samples."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "count": len(ordered)}
    if len(ordered) >= 11:
        k = len(ordered) - 10  # samples at or below the percentile
        out[f"p{math.floor(100 * k / len(ordered))}"] = ordered[k - 1]
    return out


def case_timings(result: dict) -> dict:
    """Untraced per-case figures (median, count, percentile) for the record."""
    calls = result["calls"]
    per_case: dict[str, list[float]] = {}
    for p in result["passes"]:
        for call, seconds in zip(calls, p["times"]):
            per_case.setdefault(call["case"], []).append(seconds)
    out = {}
    for case, times in per_case.items():
        call = next(c for c in calls if c["case"] == case)
        if call["argv"][0] == "mc":
            out[f"records_per_s.{case}"] = summarize([call["items"] / t for t in times])
        elif call["argv"][0] == "asym":
            out[f"asym_ms.{case}"] = summarize([1e3 * t for t in times])
        else:
            out["sweep_points_per_s"] = summarize([call["items"] / t for t in times])
    return out


def tally(calls: list[dict], runs: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted items, failed items, problems) over the given passes.

    A call whose exit code its artifacts do not explain (``failed`` is None)
    fails as a whole and is a problem."""
    attempted = failed = 0
    problems = []
    for p in runs:
        for call, rc, lost in zip(calls, p["codes"], p["failed"]):
            attempted += call["items"]
            if lost is None:
                failed += call["items"]
                problems.append(f"{call['case']}: exit code {rc}")
            else:
                failed += lost
    return attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src", "firasym", "__init__.py")
    if not os.path.isfile(src):
        print(f"error: {src} not found; run from a firasym checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(OUT, tag)
    record_path = os.path.join(OUT, f"{tag}.json")
    # nothing of an earlier run may stand in for this run's output
    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(record_path):
        os.remove(record_path)
    os.makedirs(out)

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(run_worker(args, os.path.join(out, "probe"), probe=True)[0])
    _, stdout = run_worker(args, out)
    result = json.loads(stdout.strip().splitlines()[-1])

    plans.import_firasym(ROOT)
    import checks

    problems = checks.check_workload(args.workload, result, args.seed, args.smoke)
    runs = result["traced"] if args.trace else result["passes"]
    attempted, failed, call_problems = tally(result["calls"], runs)
    problems += call_problems

    if args.trace:
        walls = [p["wall"] for p in result["traced"]]
        plain = [p["wall"] for p in result["passes"]]
        overhead = statistics.median(walls) - statistics.median(plain)
        metrics = dict(result["layers"])
        metrics["trace.overhead_ms"] = 1e3 * overhead
        metrics["failed_frac"] = failed / attempted
        units = {m["name"]: m["unit"] for m in declared("per_layer")}
    else:
        metrics = {
            "pass_s": statistics.median([p["wall"] for p in result["passes"]]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        units = {m["name"]: m["unit"] for m in declared("end_to_end")}

    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "environment": environment(args),
        "result": line,
        "problems": problems,
        "cases": case_timings(result),
        "setup_samples_s": setup,
        "worker": result,
    }
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    for problem in problems:
        print(f"check failed: {problem}")
    for name, stats in record["cases"].items():
        print(f"{name}: " + ", ".join(f"{k}={v:.6g}" for k, v in stats.items()))
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
