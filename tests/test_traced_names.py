"""The benchmark tracer in perfbench/tracing.py wraps module globals of
firasym by name.  A refactor that drops or renames one of them makes every
traced benchmark run stop with TraceError; this catches it in the unit run.
The tracing module is only read, never modified."""

import runpy
from pathlib import Path

from firasym import asymptotics, cli, estimators, montecarlo

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
