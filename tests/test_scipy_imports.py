"""No firasym module reaches the scipy subpackages that only an input
filter once needed: scipy.signal, and the scipy.stats, scipy.interpolate
and scipy.ndimage that importing it loads.  Each costs start-up time and
memory in every process that loads it.  The scan reads the syntax tree,
so it also covers function-level imports on paths that the fresh-process
tests of test_cli.py never run; a docstring or comment does not count."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "firasym"
FORBIDDEN = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.ndimage")


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name or Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def forbidden_uses(source: str) -> list[str]:
    """Every module path in ``source`` that names a FORBIDDEN module: by an
    import at any level, an attribute chain (scipy loads subpackages on
    attribute access) or a string handed to importlib."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            found.append(dotted(node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append(node.value)
    return sorted(
        {
            path
            for path in found
            if path and any(path == m or path.startswith(m + ".") for m in FORBIDDEN)
        }
    )


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.signal",
        "import scipy.stats as st",
        "from scipy.signal import lfilter",
        "from scipy import ndimage",
        "def f():\n    from scipy.interpolate import interp1d\n    return interp1d",
        "import scipy\nscipy.signal.lfilter",
        "import importlib\nimportlib.import_module('scipy.stats')",
    ],
)
def test_scan_catches_each_form(source):
    assert forbidden_uses(source) != []


def test_scan_passes_other_scipy_and_prose():
    source = (
        '"""Filtered as scipy.signal.lfilter would."""\n'
        "from scipy.linalg.lapack import dpotrf\n"
        "def f():\n"
        "    from scipy.optimize import minimize  # not scipy.signal\n"
        "    return minimize\n"
    )
    assert forbidden_uses(source) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_the_input_only_subpackages(path):
    assert forbidden_uses(path.read_text()) == []
