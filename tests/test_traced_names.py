"""The benchmark tracer in perfbench/tracing.py wraps module globals of
firasym by name.  A refactor that drops or renames one of them makes every
traced benchmark run stop with TraceError; this catches it in the unit run.
The tracing module is only read, never modified."""

import json
import math
import runpy
from pathlib import Path

import numpy as np

from firasym import (
    ExperimentConfig,
    FilterSpec,
    KernelSpec,
    NoiseSpec,
    SecondOrderAR,
    asymptotics,
    cli,
    derive_stream,
    estimators,
    generate_t1,
    montecarlo,
)
from test_search import BANK_SEED, FAMILIES, bank_records

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {
    "cli": cli,
    "montecarlo": montecarlo,
    "estimators": estimators,
    "asymptotics": asymptotics,
}


def test_every_traced_name_resolves():
    tracing = runpy.run_path(str(TRACING))
    names = tracing["SPANS"] + tracing["HOT"]
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in names
        if not hasattr(MODULES[module], attr)
    ]
    assert missing == []
    tracing["Tracer"](MODULES)  # refuses to start on a missing name


def test_every_search_makes_a_traced_lbfgsb_call(monkeypatch):
    # the benchmark's search metrics raise TraceError for a fit whose local
    # search made no L-BFGS-B call through the estimators.minimize global
    methods = []
    original = estimators.minimize

    def record(*args, **kwargs):
        methods.append(kwargs.get("method"))
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "minimize", record)
    records = bank_records()
    searches = [
        lambda data=data, family=family: estimators.eb_estimate(data, KernelSpec(family))
        for family in FAMILIES
        for data in records
    ]
    theta0 = generate_t1(20, derive_stream(BANK_SEED, 1, 0)).theta0
    searches.append(lambda: asymptotics.eta_star(KernelSpec.tc(), theta0))
    for search in searches:
        methods.clear()
        search()
        assert "L-BFGS-B" in methods


def test_each_report_reaches_c_gamma_once(monkeypatch):
    theta = 5.0 * np.exp(-0.3 * np.arange(1, 9))
    filt = FilterSpec(SecondOrderAR(a=0.5, c_u=1.0))
    noise = NoiseSpec(1.0)
    config = ExperimentConfig(
        kernel=KernelSpec.ridge(),
        system_type="T1",
        n=8,
        n_samples=100,
        filters=[(0.5, 1.0)],
        noise=noise,
        records=1,
        systems=1,
        master_seed=0,
    )
    runs = {
        "asymptotic_report": lambda: asymptotics.asymptotic_report(
            KernelSpec.ridge(), theta, filt, noise, 1000
        ),
        "ridge_report": lambda: asymptotics.ridge_report(theta, filt, noise, 1000),
        "experiment_theory": lambda: montecarlo.experiment_theory(config),
    }
    # the benchmark's asymptotics.c_gamma spans exist only for calls
    # through this module global
    calls = []
    original = asymptotics.c_gamma

    def counted(filt, n):
        calls.append(n)
        return original(filt, n)

    monkeypatch.setattr(asymptotics, "c_gamma", counted)
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls == [8], name


def test_sweep_spans_feed_the_layer_metrics(tmp_path):
    # the benchmark reads per-pole call counts from these spans; a call that
    # bypasses a traced module global drops its span and raises TraceError
    tracing = runpy.run_path(str(TRACING))
    tracer = tracing["Tracer"](MODULES)
    argv = ["sweep", "--grid-points", "3", "--n", "6", "--N", "100", "200"]
    attrs = {"case": "sweep", "items": 6, "poles": 3}
    argv += ["--out", str(tmp_path)]
    with tracer:
        rc = tracer.call("cli.main", cli.main, argv, attrs=attrs)
    assert rc == 0
    metrics = tracing["layer_metrics"]("sweep_grid", tracer.spans, {})
    assert metrics["asymptotics.second_order_stats_calls"] == 1.0
    assert metrics["asymptotics.sigma_matrix_calls"] == 2.0


def test_mc_spans_feed_the_layer_metrics(tmp_path):
    # the benchmark reads the search's L-BFGS-B results and each fit's
    # converged and at_boundary flags from these spans
    tracing = runpy.run_path(str(TRACING))
    tracer = tracing["Tracer"](MODULES)
    with tracer:
        for family in ("ridge", "tc", "dc"):
            cfg = {
                "kernel": {"family": family},
                "system": {"type": "T1", "count": 1},
                "n": 4,
                "N": 60,
                "filters": [[0.5, 1.0]],
                "noise": {"sigma2": 1.0},
                "records": 1,
            }
            path = tmp_path / f"{family}.json"
            path.write_text(json.dumps(cfg))
            argv = ["mc", "--config", str(path), "--out", str(tmp_path / family)]
            attrs = {"case": family, "items": 1}
            assert tracer.call("cli.main", cli.main, argv, attrs=attrs) == 0
    metrics = tracing["layer_metrics"]("mc_fit", tracer.spans, {})
    declared = json.loads((TRACING.parents[1] / "BENCHMARK.json").read_text())
    families = (".ridge", ".tc", ".dc")
    assert set(metrics) == {
        m["name"] for m in declared["per_layer"] if m["name"].endswith(families)
    }
    assert all(math.isfinite(value) for value in metrics.values())
