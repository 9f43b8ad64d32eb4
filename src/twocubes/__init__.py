"""Decide, count and construct representations of binary sextics as sums of
two cubes of quadratic forms, classify the equal-sum families that result,
and exactly verify the identity catalogue that drives the whole theory.

`import twocubes` loads no submodule: each public name, and each submodule
named as an attribute, imports its module on first use (PEP 562), so a
program loads only the modules it touches.
"""

import importlib

# each public name and the module that defines it, in `__all__` order
_MODULE_OF = {
    name: module
    for module, names in (
        ("exact", ("CycNum", "ParamPoly", "Rational")),
        ("forms", ("BinaryForm", "LinearChange", "FloatKernel", "form_compose", "EXACT", "FLOAT")),
        ("decomp", ("rep_count", "report_to_json")),
        ("classify", ("type_detect", "canonicalize_type", "tame_complete", "wild_family")),
        ("families", ("verify_identity_suite",)),
        ("ecurve", ("EBParams", "RationalFunction", "eb_forward", "eb_inverse", "curve_add", "curve_third_rep")),
    )
    for name in names
}
_SUBMODULES = ("exact", "forms", "roots", "decomp", "classify", "families", "ecurve")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # A public name is not cached here, so it always reads what its module
    # holds now, a binding replaced there included.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
