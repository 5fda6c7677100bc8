"""The package's source runs the same under `python -O`.

Optimisation changes a module only through what it strips or exposes: assert
statements, the name `__debug__` and the interpreter flags in `sys.flags`.
Source without any of them behaves the same with asserts stripped, so the
suite need not run twice.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "arithmat").glob("*.py"))


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
