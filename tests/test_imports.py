"""Every imported name is used, every private helper is referenced, and no check is an assert.

The package and its tests carry no dead imports, and no module-level private
function or constant of the package outlives its last use. No package module
has an assert statement, which python -O removes: a check raises instead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "genset").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads; __all__ entries count as reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(
                const.value for const in ast.walk(node.value)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
            )
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_checker_flags_dead_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from math import comb as choose, factorial\n"
        "from .errors import GensetError\n"
        "__all__ = ['GensetError']\n"
        "print(os.sep, factorial(3))\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 3: choose"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """Module-level private functions and constants: single-underscore names."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def references(source: str) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_checker_flags_unreferenced_privates_only():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "__version__ = '0'\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _dead():\n"
        "    _local = 3\n"
        "def public():\n"
        "    return _helper()\n"
    )
    defined = private_definitions(source)
    assert defined == ["_USED", "_UNUSED", "_helper", "_dead"]
    assert [name for name in defined if name not in references(source)] == ["_UNUSED", "_dead"]


def test_every_private_definition_is_referenced():
    refs = set().union(*(references(path.read_text()) for path in SOURCES))
    unreferenced = [
        f"{path.name}: {name}"
        for path in PACKAGE
        for name in private_definitions(path.read_text())
        if name not in refs
    ]
    assert unreferenced == []


def assert_lines(source: str) -> list[int]:
    """The line of every assert statement in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_checker_flags_assert_statements_only():
    source = (
        "def f(x):\n"
        "    assert x, 'gone under -O'\n"
        "    if not x:\n"
        "        raise AssertionError('kept under -O')\n"
        "    return [y for y in x if (lambda: 0)() or y]\n"
        "assert f\n"
    )
    assert assert_lines(source) == [2, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_has_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []
