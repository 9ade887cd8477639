"""The package exports only what the program itself uses: every name that
``firasym/__init__.py`` imports is referenced by another firasym module or
by the benchmark's scripts.  Reference code that only the tests read lives
in tests/oracles.py instead.  A reference is a name, an attribute or an
import in the syntax tree; a docstring or comment does not count, and
neither does a name inside a parameter, return or variable annotation,
which a type checker reads but the program does not.

Every exception type in ``firasym/errors.py`` is raised or caught by the
program, so removing the path that raised one cannot leave the type behind."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "firasym"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def annotation_nodes(tree: ast.AST) -> set[int]:
    """The ids of every node inside a parameter, return or variable annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def referenced_names(path: Path) -> set[str]:
    names = set()
    tree = ast.parse(path.read_text())
    skip = annotation_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_every_export_is_used_by_the_program():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(referenced_names(path) for path in users))
    assert sorted(exported_names() - used) == []


def exception_names(node: ast.AST | None) -> set[str]:
    """The names that a ``raise`` or ``except`` clause refers to."""
    if isinstance(node, ast.Call):
        return exception_names(node.func)
    if isinstance(node, ast.Tuple):
        return set().union(*map(exception_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def test_every_error_type_is_raised_or_caught():
    defined = {
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                used |= exception_names(node.exc)
            elif isinstance(node, ast.ExceptHandler):
                used |= exception_names(node.type)
    assert sorted(defined - used) == []
