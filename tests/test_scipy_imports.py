"""No firasym module reaches the scipy subpackages that only an input
filter once needed: scipy.signal, and the scipy.stats, scipy.interpolate
and scipy.ndimage that importing it loads.  Each costs start-up time and
memory in every process that loads it.  The scan reads the syntax tree,
so it also covers function-level imports on paths that the fresh-process
tests of test_cli.py never run; a docstring or comment does not count.

No firasym module imports any part of scipy when it is itself imported:
scipy is imported inside the functions that call it, so that `sweep`,
`table1` and a ridge `asym` start on numpy alone.  Those functions serve
the hyper-parameter search alone."""

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


def module_level_scipy_imports(source: str) -> list[str]:
    """Every scipy module that ``source`` imports while it is itself being
    imported: import statements outside function bodies, including those
    in class bodies and in module-level ``if`` or ``try`` blocks."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        pending += ast.iter_child_nodes(node)
    return sorted({m for m in found if m == "scipy" or m.startswith("scipy.")})


@pytest.mark.parametrize(
    "source",
    [
        "import scipy",
        "from scipy.linalg.lapack import dpotrf",
        "try:\n    import scipy.linalg as sl\nexcept ImportError:\n    sl = None",
        "class C:\n    from scipy import optimize",
    ],
)
def test_module_level_scan_catches_each_form(source):
    assert module_level_scipy_imports(source) != []


def test_module_level_scan_passes_function_level_imports():
    source = (
        "import numpy as np\n"
        "def f():\n"
        "    from scipy.linalg.lapack import dpotrf\n"
        "    return dpotrf\n"
        "class C:\n"
        "    def g(self):\n"
        "        import scipy.optimize\n"
    )
    assert module_level_scipy_imports(source) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    assert module_level_scipy_imports(path.read_text()) == []


# The functions that may import scipy: the search's optimizer, its logit
# transform, and the LAPACK Cholesky of its per-evaluation cost.
SCIPY_FUNCTIONS = {
    ("estimators.py", "_lapack"),
    ("estimators.py", "minimize"),
    ("estimators.py", "_logit"),
    ("estimators.py", "_expit"),
}


def scipy_importers(source: str) -> list[str | None]:
    """The name of the innermost function around each scipy import in
    ``source``, None for one outside every function."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found.extend(function for m in names if m == "scipy" or m.startswith("scipy."))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_importer_scan_names_each_function():
    source = (
        "import scipy\n"
        "def f():\n"
        "    def g():\n"
        "        from scipy.optimize import minimize\n"
        "    import numpy\n"
        "    import scipy.linalg as sl\n"
    )
    assert scipy_importers(source) == [None, "g", "f"]


def test_only_the_search_functions_import_scipy():
    found = {
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        for function in scipy_importers(path.read_text())
    }
    assert found <= SCIPY_FUNCTIONS
