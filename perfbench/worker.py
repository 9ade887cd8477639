"""Child process of the benchmark: runs one workload's passes and reports.

Run by ``run.py`` in a fresh process per run, so that the peak resident set
size belongs to this workload alone.

    python3 perfbench/worker.py --root . --workload W --seed S --out DIR \
        [--seconds T] [--trace 0|1] [--smoke] [--probe]

``--probe`` imports firasym, makes one small untimed warm-up call and exits:
``run.py`` times whole probe processes to measure set-up.  Otherwise the
worker repeats the workload's pass for about ``--seconds`` seconds and prints
one JSON line with the per-call timings, artifact hashes and peak RSS; with
``--trace 1`` it alternates untraced and traced passes and adds the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plans  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

MIN_PASSES = 2


def warm_up(workload: str, out: str) -> None:
    """One small call down the workload's command path, outside any timing."""
    from firasym.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        if workload == "mc_fit":
            cfg = {
                "kernel": {"family": "ridge"},
                "system": {"type": "T1", "count": 1},
                "n": 5,
                "N": 50,
                "filters": [[0.5, 1.0]],
                "noise": {"sigma2": 1.0},
                "records": 1,
            }
            path = plans.write_json(os.path.join(out, "warm_mc.json"), cfg)
            main(["mc", "--config", path, "--out", out, "--seed", "0"])
        elif workload == "asym_order":
            cfg = {
                "kernel": {"family": "ridge"},
                "theta0": [2.0, -1.0, 0.5, 1.5],
                "filter": {"a": 0.7, "cu2": 0.5},
                "noise": {"sigma2": 1.0},
                "N": 1000,
            }
            path = plans.write_json(os.path.join(out, "warm_asym.json"), cfg)
            main(["asym", "--config", path, "--out", out])
        else:
            main(["sweep", "--grid-points", "2", "--n", "4", "--N", "100", "--out", out])


def run_call(call: plans.Call, tracer: Tracer | None = None) -> tuple[float, int]:
    """Run one CLI call; returns (seconds, exit code).

    The call's artifacts are deleted first: a call that aborts writes none,
    and the checks must not read those of an earlier call instead."""
    from firasym.cli import main

    for path in call.artifacts():
        if os.path.exists(path):
            os.remove(path)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            rc = main(call.argv)
        else:
            attrs = {"case": call.case, "items": call.items, **call.info}
            rc = tracer.call("cli.main", main, call.argv, attrs=attrs)
    return time.perf_counter() - t0, rc


def peak_alloc_mb(calls) -> dict:
    """tracemalloc peak of the first call of each case, in its own untraced
    run: tracemalloc slows small allocations, so it stays out of the spans."""
    peaks = {}
    tracemalloc.start()
    try:
        for call in calls:
            if call.case not in peaks:
                tracemalloc.reset_peak()
                run_call(call)
                peaks[call.case] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return peaks


def failed_items(call: plans.Call, rc: int) -> int | None:
    """Items of a call that failed, or None when its exit code is not
    explained by its own artifacts.

    ``mc`` exits with EXIT_NUMERICAL both when it excluded records (and wrote
    them down in aggregates.json) and when the whole call raised (and wrote
    nothing); only the first is a partial success."""
    from firasym.cli import EXIT_NUMERICAL

    if rc == 0:
        return 0
    if rc == EXIT_NUMERICAL and call.argv[0] == "mc":
        try:
            with open(os.path.join(call.out, "aggregates.json")) as handle:
                excluded = json.load(handle)["excluded_records"]
        except (OSError, ValueError, KeyError):
            return None
        if 0 < excluded <= call.items:
            return excluded
    return None


def run_pass(calls, tracer=None) -> dict:
    t0 = time.perf_counter()
    times, codes, failed = [], [], []
    for call in calls:
        seconds, rc = run_call(call, tracer)
        times.append(seconds)
        codes.append(rc)
        failed.append(failed_items(call, rc))
    return {
        "wall": time.perf_counter() - t0, "times": times, "codes": codes, "failed": failed
    }


def artifact_hashes(calls) -> list[str]:
    digests = []
    for call in calls:
        for path in call.artifacts():
            try:
                with open(path, "rb") as handle:
                    digests.append(hashlib.sha256(handle.read()).hexdigest())
            except OSError:
                digests.append("missing")
    return digests


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    plans.import_firasym(args.root)
    warm_up(args.workload, args.out)
    if args.probe:
        return 0

    calls = plans.build_plan(args.workload, args.seed, args.out, args.smoke)
    tracer = None
    if args.trace:
        from firasym import asymptotics, cli, estimators, montecarlo

        tracer = Tracer(
            {
                "cli": cli,
                "montecarlo": montecarlo,
                "estimators": estimators,
                "asymptotics": asymptotics,
            }
        )
    passes, traced, hashes = [], [], []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(calls))
        hashes.append(artifact_hashes(calls))
        if tracer is not None:
            with tracer:
                traced.append(run_pass(calls, tracer))
            hashes.append(artifact_hashes(calls))
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / len(passes)
        if len(passes) >= (1 if args.trace else MIN_PASSES) and (
            elapsed + 0.5 * per_round >= args.seconds
        ):
            break

    result = {
        "calls": [
            {"case": c.case, "items": c.items, "argv": c.argv, "out": c.out, "info": c.info}
            for c in calls
        ],
        "passes": passes,
        "hashes": hashes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        spans_path = os.path.join(args.out, "spans.json")
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)
        result["traced"] = traced
        result["spans"] = spans_path
        peaks = peak_alloc_mb(calls) if args.workload == "asym_order" else {}
        result["layers"] = layer_metrics(args.workload, tracer.spans, peaks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
