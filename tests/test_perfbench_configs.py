"""The benchmark in perfbench/ drives firasym through ``cli.main`` with configs
of its own.  Its tests run outside the unit suite, so a stricter config reader
could break the benchmark without a unit failure; this runs every call that
the benchmark builds, at smoke size, and its warm-up calls.  The perfbench
files are only read, never modified."""

from pathlib import Path

import pytest

from firasym import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``plans`` and ``worker`` modules, imported as the worker
    imports them: from the perfbench directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import plans
    import worker

    return plans, worker


@pytest.mark.parametrize("workload", ["mc_fit", "asym_order", "sweep_grid"])
def test_smoke_plan_runs(tmp_path, perfbench, workload):
    plans, _ = perfbench
    assert workload in plans.WORKLOADS
    calls = plans.build_plan(workload, 11, str(tmp_path), smoke=True)
    assert calls
    for call in calls:
        assert cli.main(call.argv) == 0, call.argv


@pytest.mark.parametrize("workload", ["mc_fit", "asym_order"])
def test_warm_up_config_runs(tmp_path, monkeypatch, perfbench, workload):
    # warm_up ignores the exit code of its call, so it is caught here
    _, worker = perfbench
    cli_main = cli.main
    codes = []

    def recorded(argv):
        codes.append(cli_main(argv))
        return codes[-1]

    monkeypatch.setattr(cli, "main", recorded)
    worker.warm_up(workload, str(tmp_path))
    assert codes == [0]
