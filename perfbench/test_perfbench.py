"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import functools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import plans  # noqa: E402

plans.import_firasym(ROOT)

import checks  # noqa: E402
from run import tally  # noqa: E402
from tracing import ASYM_SELF_STAGES, SpanIndex, TraceError, Tracer, layer_metrics  # noqa: E402
from worker import artifact_hashes, failed_items, run_pass  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNTS = ("nm_evals", "lbfgsb_evals", "grad_evals", "sigma_matrix_calls",
          "second_order_stats_calls")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)


def bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


def record(workload: str, trace: int, seed: int = 3) -> dict:
    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_end_to_end_metrics_are_declared(workload):
    line = result_line(bench(workload, 0))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0
    assert set(record(workload, 0)["environment"]) >= {
        "nproc", "python", "numpy", "scipy", "blas", "blas_threads", "commit", "seed"
    }


def check_nesting(idx: SpanIndex) -> None:
    """Each span lies inside its parent, siblings do not overlap, and no
    self time is negative: a lost, overlapping or unparented span fails."""
    for span in idx.spans:
        assert span["t0"] <= span["t1"], span
        assert idx.self_ns(span) >= 0, span
        kids = sorted(idx.children[span["id"]], key=lambda s: s["t0"])
        for kid in kids:
            assert span["t0"] <= kid["t0"] and kid["t1"] <= span["t1"], (span, kid)
        for left, right in zip(kids, kids[1:]):
            assert left["t1"] <= right["t0"], (left, right)


def layer_ms_per_call(workload: str, case: str, m: dict, call: dict) -> float:
    """One call's time rebuilt from the reported per-layer metrics: the
    named layers' time plus cli.self_ms.  Per-record metrics count once per
    record, and every record has one EB search."""
    if workload == "mc_fit":
        g = lambda key: m[f"{key}.{case}"]["value"]
        per_record = sum(g(k) for k in (
            "signals.input_ms", "estimators.ls_ms", "estimators.rls_ms",
            "estimators.search.nm_ms", "estimators.search.lbfgsb_ms",
            "estimators.search.polish_ms"))
        return (g("cli.self_ms") + g("montecarlo.theory_ms") + g("montecarlo.aggregate_ms")
                + call["items"] * per_record)
    if workload == "asym_order":
        g = lambda key: m[f"{key}.{case}"]["value"]
        total = g("cli.self_ms") + g("asymptotics.c_gamma_ms") + sum(
            g(f"asymptotics.{stage}_ms") for stage in ASYM_SELF_STAGES)
        if case == "tc_n20":
            total += sum(g(f"estimators.search.{k}_ms") for k in ("nm", "lbfgsb", "polish"))
        return total
    g = lambda key: m[key]["value"]
    return g("cli.self_ms") + call["items"] * sum(g(f"asymptotics.{k}_ms") for k in (
        "ridge_report", "second_order_stats", "c_gamma"))


@functools.lru_cache(maxsize=None)
def traced_runs(workload: str) -> tuple[dict, dict, dict]:
    """(result line, record with its spans, result line of a second run)."""
    first = result_line(bench(workload, 1))
    rec = record(workload, 1)
    with open(rec["worker"]["spans"]) as handle:
        rec["spans"] = json.load(handle)
    second = result_line(bench(workload, 1))
    return first, rec, second


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_traced_run(workload):
    first, rec, second = traced_runs(workload)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert set(first["metrics"]) == set(declared)
    assert all(NAME.match(name) for name in first["metrics"])
    assert first["correct"] and second["correct"]
    # call counts repeat exactly across runs of one seed
    for name, metric in first["metrics"].items():
        if set(name.split(".")) & set(COUNTS):
            assert metric["value"] == second["metrics"][name]["value"], name

    worker = rec["worker"]
    metrics = rec["result"]["metrics"]
    idx = SpanIndex(rec["spans"])
    check_nesting(idx)
    overhead_ms = abs(metrics["trace.overhead_ms"]["value"])
    for case in dict.fromkeys(c["case"] for c in worker["calls"]):
        call = next(c for c in worker["calls"] if c["case"] == case)
        untraced_ms = 1e3 * statistics.median(
            t for p in worker["passes"] for c, t in zip(worker["calls"], p["times"])
            if c["case"] == case)
        traced = [idx.duration(s) * 1e-6 for s in idx.spans
                  if s["parent"] is None and s["attrs"]["case"] == case]
        traced_ms = statistics.median(traced)
        rebuilt_ms = layer_ms_per_call(workload, case, metrics, call)
        # the named layers neither count time twice nor miss much of a call
        assert 0.85 * statistics.mean(traced) <= rebuilt_ms <= statistics.mean(traced), case
        # the traced call costs what the untraced one does, up to the
        # reported overhead and call-to-call timing noise
        slack = overhead_ms + 0.25 * untraced_ms + 5.0
        assert abs(traced_ms - untraced_ms) <= slack, (case, traced_ms, untraced_ms)


def test_layer_metrics_cover_the_declared_names():
    """Each declared per-layer metric is computed by one workload; the result
    line reports it as 0 only on the workloads it does not apply to."""
    computed = set()
    for workload in plans.WORKLOADS:
        layers = traced_runs(workload)[1]["worker"]["layers"]
        assert not computed & set(layers)
        computed |= set(layers)
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert computed | {"trace.overhead_ms", "failed_frac"} == declared


def test_trace_refuses_missing_names():
    from firasym import asymptotics, cli, estimators, montecarlo

    renamed = dict(vars(estimators))
    renamed["search_box"] = renamed.pop("minimize_box")
    modules = {"cli": cli, "montecarlo": montecarlo, "asymptotics": asymptotics,
               "estimators": types.SimpleNamespace(**renamed)}
    with pytest.raises(TraceError):
        Tracer(modules)

    spans = copy.deepcopy(traced_runs("sweep_grid")[1]["spans"])
    layer_metrics("sweep_grid", spans, {})
    for span in spans:
        if span["name"] == "asymptotics.c_gamma":
            span["name"] = "asymptotics.c_gamma_matrix_free"
    with pytest.raises(TraceError):
        layer_metrics("sweep_grid", spans, {})


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_wrong_output_fails_the_checks(workload, tmp_path):
    calls = plans.build_plan(workload, 5, str(tmp_path), smoke=True)
    p = run_pass(calls)
    assert p["codes"] == [0] * len(calls)
    result = {"calls": calls_json(calls), "hashes": [artifact_hashes(calls)] * 2}
    assert checks.check_workload(workload, result, 5, smoke=True) == []

    if workload == "mc_fit":
        path = os.path.join(calls[0].out, "records.csv")
        text = open(path).read().splitlines()
        text[-1] = text[-1][:-3] + "2,0"  # converged=2 does not round-trip
        open(path, "w").write("\n".join(text) + "\n")
    elif workload == "asym_order":
        path = os.path.join(calls[0].out, "asym_report.json")
        doc = json.load(open(path))
        doc["report"]["v_b3_12"][0][0] *= 1.0 + 1e-8
        json.dump(doc, open(path, "w"))
    else:
        path = os.path.join(calls[0].out, "sweep.csv")
        lines = open(path).read().splitlines()
        for k, line in enumerate(lines):
            if not line.startswith(("#", "n_samples")):
                head, last = line.rsplit(",", 1)
                lines[k] = f"{head},{float(last) * (1.0 + 1e-6)!r}"
        open(path, "w").write("\n".join(lines) + "\n")
    assert checks.check_workload(workload, result, 5, smoke=True)


def calls_json(calls) -> list[dict]:
    return [{"case": c.case, "items": c.items, "argv": c.argv, "out": c.out, "info": c.info}
            for c in calls]


def test_aborted_mc_call_fails(tmp_path):
    """mc exits 3 both when it excluded records and when the whole call
    raised; in the second case it writes nothing, and the artifacts of an
    earlier pass must not pass for this one's."""
    calls = plans.build_plan("mc_fit", 5, str(tmp_path), smoke=True)
    assert run_pass(calls)["failed"] == [0] * len(calls)
    ridge = calls[0]
    config = ridge.argv[ridge.argv.index("--config") + 1]
    with open(config) as handle:
        cfg = json.load(handle)
    # closed-form ridge eta_star = |theta0|^2 / n = 1e10 lies outside the box,
    # so experiment_theory raises OutOfBoxError
    cfg["system"] = {"type": "explicit", "theta0": [1e5] * cfg["n"], "count": 1}
    plans.write_json(config, cfg)
    aborted = run_pass(calls)
    assert aborted["codes"][0] == 3 and aborted["failed"][0] is None
    result = {"calls": calls_json(calls), "hashes": [artifact_hashes(calls)] * 2}
    assert "ridge: mc artifacts missing" in checks.check_workload("mc_fit", result, 5, True)
    attempted, failed, problems = tally(result["calls"], [aborted])
    assert failed == ridge.items and problems == ["ridge: exit code 3"]


def test_excluded_records_are_partial_failures(tmp_path):
    call = plans.Call("ridge", ["mc"], 3, str(tmp_path))
    agg = tmp_path / "aggregates.json"
    assert failed_items(call, 0) == 0
    assert failed_items(call, 3) is None  # no aggregates.json written
    agg.write_text(json.dumps({"excluded_records": 0}))
    assert failed_items(call, 3) is None
    agg.write_text(json.dumps({"excluded_records": 2}))
    assert failed_items(call, 3) == 2
    assert failed_items(call, 2) is None


def test_wrong_fit_fails_the_checks():
    from firasym import (FilterSpec, KernelSpec, NoiseSpec, SecondOrderAR, build_dataset,
                         derive_stream, eb_cost, eb_estimate, generate_input, generate_t1)

    rng = derive_stream(7, 0)
    system = generate_t1(5, rng)
    data = build_dataset(system, generate_input(FilterSpec(SecondOrderAR(0.5)), 5, 200, rng),
                         NoiseSpec(1.0), rng)
    spec = KernelSpec.tc()
    fit = eb_estimate(data, spec)
    assert checks.check_fit(data, fit, spec) == []
    fit.cost *= 1.0 + 1e-8  # cost no longer equals eb_cost at eta_hat
    assert checks.check_fit(data, fit, spec)
    fit.eta_hat = np.array([1e6, 0.01])  # a consistent but poor point
    fit.cost = eb_cost(fit.eta_hat, fit.theta_ls, data.phi.T @ data.phi, fit.sigma2_hat, spec)[0]
    assert checks.check_fit(data, fit, spec)
    assert checks.identical_repeats([["a"], ["b"]])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep_grid", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
