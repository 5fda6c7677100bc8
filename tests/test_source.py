"""Checks on the package's source: it runs the same under `python -O`, only
`numeric` imports numpy, and every module is listed once in the package
docstring and once in the README's layout table.

Optimisation changes a module only through what it strips or exposes: assert
statements, the name `__debug__` and the interpreter flags in `sys.flags`.
Source without any of them behaves the same with asserts stripped, so the
suite need not run twice.  numpy serves `numeric`'s batches of certificates;
every other module, and so every CLI command, runs without it.
"""

import ast
import pathlib
import re

import pytest

_REPO = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((_REPO / "src" / "arithmat").glob("*.py"))


def _optimization_dependent(tree: ast.AST):
    """(line, what) for each construct whose meaning depends on -O."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__"
        elif isinstance(node, ast.Attribute) and node.attr == "flags" and (
            isinstance(node.value, ast.Name) and node.value.id == "sys"
        ):
            yield node.lineno, "sys.flags"
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name == "flags" for alias in node.names):
                yield node.lineno, "from sys import flags"


def test_sources_are_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_does_not_depend_on_optimization(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_optimization_dependent(tree)) == []


@pytest.mark.parametrize(
    "snippet",
    ["assert x", "if __debug__:\n    pass", "import sys\nsys.flags.optimize", "from sys import flags"],
)
def test_each_construct_is_found(snippet):
    assert list(_optimization_dependent(ast.parse(snippet)))


def _imports_numpy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            return True
    return False


def test_only_numeric_imports_numpy():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert [name for name, tree in trees.items() if _imports_numpy(tree)] == ["numeric.py"]


@pytest.mark.parametrize("snippet", ["import numpy as np", "import numpy.linalg", "from numpy import roots"])
def test_each_numpy_import_is_found(snippet):
    assert _imports_numpy(ast.parse(snippet))


_MODULES = sorted(p.stem for p in SOURCES if p.stem != "__init__")


def test_package_docstring_lists_each_module_once():
    doc = ast.get_docstring(ast.parse((_REPO / "src" / "arithmat" / "__init__.py").read_text()))
    listed = re.findall(r"^    (\w+) ", doc, flags=re.MULTILINE)
    assert sorted(listed) == _MODULES


def test_readme_layout_has_one_row_per_module():
    readme = (_REPO / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `arithmat\.(\w+)`", readme, flags=re.MULTILINE)
    assert sorted(rows) == _MODULES
