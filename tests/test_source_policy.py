"""Source rules for the package that no behavioural test would notice.

- No `assert` statements: `python -O` strips them, so a check written as an
  assert silently stops checking.  Failed checks raise instead.
- No `isinstance` tests against `FloatKernel` or `ExactKernel`: the kernels
  own the exact-versus-float decision through their scalar protocol (`zero`,
  `one`, `is_zero`, `negligible`, `inv`, `div`, `coerce`, `exact`).
- No `tuple(<generator expression>)`: a generator has no length hint, so
  CPython 3.11 allocates the tuple at 10 slots and shrinks it by realloc.  On
  free the tuple joins the free list of its final size, which then grows every
  pass (up to 2,000 tuples per size) and shows as peak memory once the exact
  arithmetic stops triggering full collections.  `tuple([...])` allocates at
  the final size.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "twocubes").glob("*.py"))
KERNEL_CLASSES = {"FloatKernel", "ExactKernel"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_kernel_type_tests(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and _names(node) & KERNEL_CLASSES
    ]
    assert not lines, f"{path.name}: isinstance on a kernel class at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_tuple_of_generator(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]
    assert not lines, f"{path.name}: tuple(<generator>) at lines {lines}"
