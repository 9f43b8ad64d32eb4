"""The benchmark's tracer wraps package functions by name (`SPANNED` and
`COUNTED` in perfbench/tracer.py).  A rename or deletion of one of them
fails here, not in a traced benchmark run."""
import importlib.util
from pathlib import Path

import pytest

import twocubes
from twocubes import decomp, ecurve, forms

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    tracer = _tracer()
    return [
        pytest.param(name, owner, attr, id=f"{owner.__name__}.{attr}")
        for name, owner, attr in tracer.SPANNED + tracer.COUNTED
    ]


def test_the_tracer_tables_are_found():
    tracer = _tracer()
    assert tracer.SPANNED and tracer.COUNTED


@pytest.mark.parametrize("name, owner, attr", _hooks())
def test_every_traced_attribute_exists(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is missing"


def test_package_names_read_what_the_tracer_installs():
    # the package resolves its names on first use and caches none, so a
    # package name reads the wrapper while the tracer is installed and the
    # original once it is uninstalled
    original = decomp.rep_count
    tracer = _tracer().Tracer(seed=1)
    tracer.install()
    try:
        assert decomp.rep_count is not original
        assert twocubes.rep_count is decomp.rep_count
    finally:
        tracer.uninstall()
    assert twocubes.rep_count is original


def test_both_division_rows_time_one_function():
    # the tracer's two `forms.form_divexact` rows span the same division
    assert ecurve._divide_forms is forms.form_divexact
