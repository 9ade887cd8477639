"""The benchmark in perfbench/ drives firasym through ``cli.main`` with configs
of its own.  Its tests run outside the unit suite, so a stricter config reader
could break the benchmark without a unit failure; this runs every call that
the benchmark builds, at smoke size, and its warm-up calls, and then the
benchmark's own correctness checks on the artifacts, which read firasym's
report API.  The perfbench files are only read, never modified."""

from pathlib import Path

import pytest

from firasym import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``plans``, ``worker`` and ``checks`` modules, imported as
    the worker imports them: from the perfbench directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import plans
    import worker

    return plans, worker, checks


@pytest.mark.parametrize("workload", ["mc_fit", "asym_order", "sweep_grid"])
def test_smoke_plan_runs(tmp_path, perfbench, workload):
    plans, worker, checks = perfbench
    assert workload in plans.WORKLOADS
    calls = plans.build_plan(workload, 11, str(tmp_path), smoke=True)
    assert calls
    for call in calls:
        assert cli.main(call.argv) == 0, call.argv
    # the result as the worker reports it, with two passes of equal artifacts
    hashes = worker.artifact_hashes(calls)
    result = {
        "calls": [
            {"case": c.case, "items": c.items, "argv": c.argv, "out": c.out, "info": c.info}
            for c in calls
        ],
        "hashes": [hashes, hashes],
    }
    assert checks.check_workload(workload, result, 11, True) == []


@pytest.mark.parametrize("workload", ["mc_fit", "asym_order"])
def test_warm_up_config_runs(tmp_path, monkeypatch, perfbench, workload):
    # warm_up ignores the exit code of its call, so it is caught here
    _, worker, _ = perfbench
    cli_main = cli.main
    codes = []

    def recorded(argv):
        codes.append(cli_main(argv))
        return codes[-1]

    monkeypatch.setattr(cli, "main", recorded)
    worker.warm_up(workload, str(tmp_path))
    assert codes == [0]
