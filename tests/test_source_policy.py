"""Source rules for the package that no behavioural test would notice.

- No `assert` statements: `python -O` strips them, so a check written as an
  assert silently stops checking.  Failed checks raise instead.
- No `isinstance` tests against `FloatKernel` or `ExactKernel`: the kernels
  own the exact-versus-float decision through their scalar protocol (`zero`,
  `one`, `is_zero`, `inv`, `div`, `coerce`, `exact`).
- No conditional expression that reads `.exact` picks a scale
  (`None if kernel.exact else max(...)`): the float kernel's `is_zero` takes
  the terms a value is built from and its degree, and measures the scale
  itself, so no caller keeps its own scale rule.
- No `tuple(<generator expression>)`: a generator has no length hint, so
  CPython 3.11 allocates the tuple at 10 slots and shrinks it by realloc.  On
  free the tuple joins the free list of its final size, which then grows every
  pass (up to 2,000 tuples per size) and shows as peak memory once the exact
  arithmetic stops triggering full collections.  `tuple([...])` allocates at
  the final size.
- No float literal below 1e-3 in magnitude except as the whole value of a
  module-level `NAME = ...` assignment: each tolerance is one decision with
  one name, so retuning a threshold edits one place.  Thresholds shared by
  several modules live in `forms.py` (`FLOAT_TOL`, `NEGLIGIBLE_REL`,
  `UNDERFLOW_FLOOR`); the others are named at the top of their module.
- No `math.sqrt(sum(...))`: squaring a coefficient above ~1e154 overflows
  and one below ~1e-162 underflows, so a 2-norm of such values is inf or 0.
  `forms.norm2` takes the 2-norm with `math.hypot`, which scales first.
- `math.hypot` is called only inside `forms.norm2`: every float 2-norm goes
  through that one function, so no module keeps its own norm.
- Every exact scalar class (the classes of `exact.py` with an `is_zero`
  method and `ecurve.RationalFunction`) defines `__bool__`: `bool(v)` is
  the one exact zero test, and an object without `__bool__` is always
  true, so a zero scalar would read as nonzero.
- Only `forms.lift` and `forms.scalar_json` test `isinstance(..., float)` or
  `isinstance(..., complex)`: `lift` is the one place a call's kernel is
  chosen from its inputs, and every later decision asks that kernel, so no
  module keeps its own exact-versus-float rule.
- `families.py` imports neither `random` nor `FLOAT_TOL`: every identity
  group is a list of exact identities, so no group may return to sampling
  float parameter points.
- Every module-level UPPER_CASE name bound to a number is read by package
  code outside its own definition: a threshold whose gate was deleted must
  go with it, not linger as a tunable that tunes nothing.
- Only `exact.py` and `ecurve.py` name `cyclotomic_layout` or a `layout_*`
  function of `exact`, and only `exact.py` calls `object.__setattr__` (to
  fill `CycNum`'s slots): layouts stay inside `exact` and the form chord,
  so every other product of forms takes `exact.sparse_product`, and a
  `BinaryForm` carries nothing but its fields.
- One exact long division and one Horner loop: `_long_division` and
  `_polyval` are gone, `ParamPoly.__truediv__`, `forms.form_divexact` and
  `forms.form_gcd` call `exact.long_division`, and `ParamPoly.evaluate` and
  `roots._polished_center` call `exact.horner`.  Only `exact.reciprocal`
  divides `Fraction(1)` by a value, so the package keeps one scalar inverse
  rule.
"""
import ast
import importlib
import re
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
def test_no_scale_picked_by_the_exact_flag(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.IfExp)
        and "exact" in _names(node.test)
        and any(isinstance(side, ast.Constant) and side.value is None for side in (node.body, node.orelse))
    ]
    assert not lines, f"{path.name}: a scale picked by the exact flag at lines {lines}; pass terms to is_zero"


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_small_float_literals_are_named(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and all(isinstance(t, ast.Name) for t in node.targets)
        and isinstance(node.value, ast.Constant)
    }
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0 < abs(node.value) < 1e-3
        and id(node) not in named
    ]
    assert not lines, f"{path.name}: unnamed small float literals at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_sqrt_of_sum(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sqrt"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "math"
        and any(
            isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "sum"
            for arg in node.args
        )
    ]
    assert not lines, f"{path.name}: math.sqrt(sum(...)) at lines {lines}; use forms.norm2"


def _hypot_calls(node) -> set:
    """Lines of the math.hypot calls under node."""
    return {
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "hypot"
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "math"
    }


def test_only_norm2_calls_hypot():
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = _hypot_calls(tree)
        if path.name == "forms.py":
            norm2 = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "norm2"]
            assert norm2 and _hypot_calls(norm2[0]), "forms.norm2 must exist and call math.hypot"
            lines -= _hypot_calls(norm2[0])
        if lines:
            found[path.name] = sorted(lines)
    assert not found, f"math.hypot outside forms.norm2: {found}"


def _defined_names(cls: ast.ClassDef) -> set:
    names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    for n in cls.body:
        if isinstance(n, ast.Assign):
            names |= {t.id for t in n.targets if isinstance(t, ast.Name)}
    return names


def test_exact_scalars_define_bool():
    classes = {
        (path.name, node.name): node
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
    }
    scalars = [key for key, node in classes.items()
               if key[0] == "exact.py" and "is_zero" in _defined_names(node)]
    scalars += [("ecurve.py", "RationalFunction")]
    assert len(scalars) >= 3 and all(key in classes for key in scalars)
    missing = [f"{f}:{c}" for f, c in scalars if "__bool__" not in _defined_names(classes[(f, c)])]
    assert not missing, f"exact scalar classes without __bool__: {missing}"


def _float_type_tests(node) -> set:
    """Lines of the isinstance calls under node that name float or complex."""
    return {
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "isinstance"
        and _names(n) & {"float", "complex"}
    }


def test_only_lift_and_scalar_json_test_for_float_types():
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = _float_type_tests(tree)
        if path.name == "forms.py":
            helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
            allowed = [_float_type_tests(helpers[name]) if name in helpers else set()
                       for name in ("lift", "scalar_json")]
            assert allowed[0], "forms.lift must exist and test for float and complex inputs"
            lines -= allowed[0] | allowed[1]
        if lines:
            found[path.name] = sorted(lines)
    assert not found, f"isinstance(..., float or complex) outside forms.lift and forms.scalar_json: {found}"


def test_identity_suite_draws_no_samples():
    path = next(p for p in SOURCES if p.name == "families.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
    banned = imported & {"random", "FLOAT_TOL"}
    assert not banned, f"families.py imports {sorted(banned)}"


def test_numeric_constants_are_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    # a bare name or an attribute (forms.FLOAT_TOL) loaded anywhere in the package
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    constants = []
    for path, tree in trees.items():
        module = importlib.import_module("twocubes" if path.stem == "__init__" else f"twocubes.{path.stem}")
        for node in tree.body:
            for target in node.targets if isinstance(node, ast.Assign) else []:
                if not (isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)):
                    continue
                value = getattr(module, target.id)
                if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
                    constants.append(f"{path.stem}.{target.id}")
    assert len(constants) >= 20
    unread = [name for name in constants if name.split(".")[1] not in read]
    assert not unread, f"numeric constants no package code reads: {unread}"


def test_layouts_stay_in_exact_and_the_form_chord():
    exact_tree = ast.parse(next(p for p in SOURCES if p.name == "exact.py").read_text())
    layout_names = {node.name for node in exact_tree.body if isinstance(node, ast.FunctionDef)
                    and (node.name == "cyclotomic_layout" or node.name.startswith("layout_"))}
    assert {"cyclotomic_layout", "layout_product", "layout_divexact"} <= layout_names
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        bad = []
        if path.name not in ("exact.py", "ecurve.py"):
            bad += sorted((_names(tree) | imported) & layout_names)
        if path.name != "exact.py":
            bad += [f"object.__setattr__ at line {node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"]
        if bad:
            found[path.name] = bad
    assert not found, f"layout names or object.__setattr__ outside exact and the form chord: {found}"


def _functions(tree) -> dict:
    """Every function of a module by its qualified name (Class.method)."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found |= {f"{node.name}.{n.name}": n for n in node.body if isinstance(n, ast.FunctionDef)}
    return found


def _divides_fraction_one(node) -> set:
    """Lines of the divisions under node whose left operand is Fraction(1)."""
    return {
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
        and isinstance(n.left, ast.Call) and isinstance(n.left.func, ast.Name)
        and n.left.func.id == "Fraction" and [ast.unparse(a) for a in n.left.args] == ["1"]
    }


def test_one_long_division_and_one_horner_loop():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    gone = {"_long_division", "_polyval"}
    stale = {name: sorted((_names(tree) | set(_functions(tree))) & gone) for name, tree in trees.items()}
    assert not any(stale.values()), f"a second division or Horner loop: {stale}"
    callers = {
        ("exact.py", "ParamPoly.__truediv__"): "long_division",
        ("forms.py", "form_divexact"): "long_division",
        ("forms.py", "form_gcd"): "long_division",
        ("exact.py", "ParamPoly.evaluate"): "horner",
        ("forms.py", "BinaryForm.evaluate"): "horner",
        ("roots.py", "_polished_center"): "horner",
    }
    missing = [f"{module}:{function} does not call {loop}" for (module, function), loop in callers.items()
               if loop not in _names(_functions(trees[module])[function])]
    assert not missing, missing
    rule = {("exact.py", line) for line in _divides_fraction_one(_functions(trees["exact.py"])["reciprocal"])}
    inverses = {(name, line) for name, tree in trees.items() for line in _divides_fraction_one(tree)}
    assert rule and inverses == rule, f"Fraction(1) / v outside exact.reciprocal: {sorted(inverses - rule)}"
