"""Command-line interface with stable JSON output.

Commands: decompose, census, verify, family, type-detect, eb, curve-add.
Scalar literals are exact rationals ("3/2", "-4", "0.25" -- parsed exactly)
or complex pairs "re,im"; a command switches to the exact kernel when every
input is exact.  Exit codes: 0 success, 1 usage error, 2 computation
failure, 3 verification suite failure.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from fractions import Fraction

from .classify import type_detect
from .decomp import rep_count, report_to_json
from .ecurve import EBParams, curve_add, curve_third_rep, eb_forward, eb_inverse
from .families import (
    f_forms,
    hirschhorn_family,
    hirschhorn_quadruple,
    narayanan_quadruple,
    ramanujan_quadruple,
    sextic_a,
    sextic_b,
    verify_identity_suite,
    vieta_quartics,
    young_family,
    young_quadruple,
)
from .forms import FLOAT_TOL, BinaryForm, scalar_json


class UsageError(ValueError):
    """Bad command-line input, as opposed to a failed computation."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let "-3/2" and "-1,0.5" pass as positional scalar literals.
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# --------------------------------------------------------------------------
# literals and serialization
# --------------------------------------------------------------------------

def parse_scalar(text: str):
    token = text.strip()
    if "," in token:
        parts = token.split(",")
        if len(parts) != 2:
            raise UsageError(f"complex literal needs exactly one comma: {text!r}")
        try:
            value = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise UsageError(f"cannot parse complex pair {text!r}")
        if not cmath.isfinite(value):
            raise UsageError(f"complex pair must be finite: {text!r}")
        return value
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise UsageError(
            f"cannot parse scalar {text!r}: use an exact rational like 3/2 or a pair re,im"
        )


def parse_scalars(texts) -> list:
    return [parse_scalar(t) for t in texts]


def build_form(degree: int, values) -> BinaryForm:
    if all(isinstance(v, Fraction) for v in values):
        return BinaryForm.exact(degree, values)
    return BinaryForm.floating(degree, [complex(v) for v in values])


def _emit(ns, payload, text_lines) -> None:
    if ns.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    else:
        for line in text_lines():
            print(line)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_decompose(ns) -> int:
    coeffs = parse_scalars(ns.coeffs)
    sextic = build_form(6, coeffs)
    report = rep_count(sextic.to_float())
    payload = report_to_json(report)

    def text():
        yield f"N = {payload['N']}"
        for k, rep in enumerate(payload["representations"], 1):
            yield f"representation {k}: f1 = {rep['f1']}  f2 = {rep['f2']}  residual = {rep['residual']:.3e}"
        yield f"root multiplicities: {payload['multiplicities']}"

    _emit(ns, payload, text)
    return 0


GRID_MAX_POINTS = 100_000  # the most points one --grid may ask for
_CENSUS_GENERIC = {"A": 2, "B": 3}
_CENSUS_BUILDERS = {"A": sextic_a, "B": sextic_b}


def _census_cell(args) -> int:
    family, t = args
    return rep_count(_CENSUS_BUILDERS[family](t).to_float()).N


def cmd_census(ns) -> int:
    family = ns.family.upper()
    if ns.jobs is not None and ns.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if family not in _CENSUS_BUILDERS:
        raise UsageError("family must be A or B")
    t_values = parse_scalars(ns.values)
    if ns.grid:
        parts = ns.grid.split(":")
        if len(parts) != 3:
            raise UsageError("grid must be start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError("grid must be start:stop:count with numeric bounds")
        if count < 2:
            raise UsageError("grid needs at least two points")
        if count > GRID_MAX_POINTS:
            raise UsageError(f"grid may have at most {GRID_MAX_POINTS} points")
        step = (stop - start) / (count - 1)
        if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
            raise UsageError("grid bounds and step must be finite")
        t_values.extend(complex(start + k * step, 0.0) for k in range(count))
    if not t_values:
        raise UsageError("census needs parameter values or --grid")

    work = [(family, t) for t in t_values]
    workers = min(ns.jobs or 1, len(work))
    if workers > 1:
        import multiprocessing  # only a parallel census pays for this import
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            counts = pool.map(_census_cell, work)
    else:
        counts = [_census_cell(w) for w in work]

    generic = _CENSUS_GENERIC[family]
    cells = [
        {"t": scalar_json(t), "N": n, "exceptional": n != generic}
        for t, n in zip(t_values, counts)
    ]
    payload = {"family": family, "generic": generic, "cells": cells}

    def text():
        yield f"family {family} (generic N = {generic})"
        for cell in cells:
            star = "  *" if cell["exceptional"] else ""
            yield f"t = {cell['t']}: N = {cell['N']}{star}"

    _emit(ns, payload, text)
    return 0


def cmd_verify(ns) -> int:
    ids = None
    if ns.ids:
        ids = {token.strip() for token in ns.ids.split(",") if token.strip()}
    entries = verify_identity_suite(ids)
    if not entries:
        raise UsageError("no identity groups match the requested ids")

    def text():
        for e in entries:
            yield f"{e['id']} {'PASS' if e['pass'] else 'FAIL'} {e['method']:<7} {e['anchor']}"

    _emit(ns, entries, text)
    return 0 if all(e["pass"] for e in entries) else 3


# Each family's members at a parameter and without one; None where the family
# has no such form, so a missing or an unread --lambda is a usage error.
_FAMILIES = {
    "F": (f_forms, None),
    "N": (narayanan_quadruple, None),
    "R": (None, ramanujan_quadruple),
    "YOUNG": (young_family, young_quadruple),
    "HIRSCHHORN": (hirschhorn_family, hirschhorn_quadruple),
    "VIETA": (None, vieta_quartics),
}


def cmd_family(ns) -> int:
    fid = ns.family.upper()
    lam = parse_scalar(ns.lam) if ns.lam is not None else None
    if fid not in _FAMILIES:
        raise UsageError(f"family must be one of {', '.join(_FAMILIES)}")
    at_parameter, fixed = _FAMILIES[fid]
    if lam is None and fixed is None:
        raise UsageError(f"family {fid} needs --lambda")
    if lam is not None and at_parameter is None:
        raise UsageError(f"family {fid} takes no --lambda")
    members = fixed() if lam is None else at_parameter(lam)
    payload = {
        "family": fid,
        "parameter": scalar_json(lam) if lam is not None else None,
        "degree": members[0].degree,
        "members": [[scalar_json(c) for c in f.coeffs] for f in members],
    }

    def text():
        yield f"family {fid}" + (f" at parameter {payload['parameter']}" if lam is not None else "")
        for k, coeffs in enumerate(payload["members"], 1):
            yield f"member {k}: {coeffs}"

    _emit(ns, payload, text)
    return 0


def cmd_type_detect(ns) -> int:
    coeffs = parse_scalars(ns.coeffs)
    if not all(isinstance(v, Fraction) for v in coeffs):
        coeffs = [complex(v) for v in coeffs]
    forms = [build_form(2, coeffs[3 * k : 3 * k + 3]) for k in range(4)]
    tag = type_detect(*forms)
    payload = {
        "T": scalar_json(tag.T),
        "split": tag.split,
        "omega_left": tag.omega_left,
        "omega_right": tag.omega_right,
        "arrangement": tag.describe(),
    }

    def text():
        yield f"T = {payload['T']}"
        yield f"arrangement: {payload['arrangement']}"

    _emit(ns, payload, text)
    return 0


def cmd_eb(ns) -> int:
    values = parse_scalars(ns.values)
    if ns.mode == "forward":
        if len(values) != 3:
            raise UsageError("eb forward needs a b mu")
        quad = eb_forward(EBParams(*values))
        payload = {
            "f1": scalar_json(quad.f1),
            "f2": scalar_json(quad.f2),
            "f3": scalar_json(quad.f3),
            "f4": scalar_json(quad.f4),
            "p": scalar_json(quad.p),
            "degenerate": quad.degenerate,
        }
    elif ns.mode == "inverse":
        if len(values) != 4:
            raise UsageError("eb inverse needs f1 f2 f3 f4")
        params = eb_inverse(*values)
        payload = {
            "a": scalar_json(params.a),
            "b": scalar_json(params.b),
            "mu": scalar_json(params.mu),
        }
    else:
        if len(values) != 3:
            raise UsageError("eb third needs a b mu")
        h1, h2 = curve_third_rep(EBParams(*values))
        payload = {"h1": scalar_json(h1), "h2": scalar_json(h2)}

    def text():
        for key in sorted(payload):
            yield f"{key} = {payload[key]}"

    _emit(ns, payload, text)
    return 0


def cmd_curve_add(ns) -> int:
    values = parse_scalars(ns.values)
    x1, y1, x2, y2, a = values
    tol = FLOAT_TOL if ns.tol is None else ns.tol
    if not 0.0 <= tol < math.inf:
        raise UsageError("--tol must be finite and >= 0")
    x3, y3 = curve_add((x1, y1), (x2, y2), a, tol=tol)
    payload = {"x3": scalar_json(x3), "y3": scalar_json(y3)}

    def text():
        yield f"x3 = {payload['x3']}"
        yield f"y3 = {payload['y3']}"

    _emit(ns, payload, text)
    return 0


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="twocubes",
        description="Decide, count, construct and classify representations of "
        "binary sextics as sums of two cubes of quadratic forms.",
    )
    parser.add_argument("--tol", type=float, default=None,
                        help=f"floating on-curve tolerance of curve-add (default {FLOAT_TOL:g})")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--jobs", type=int, default=None, help="parallel workers for census sweeps (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="count two-cube representations of a sextic")
    p.add_argument("coeffs", nargs=7, help="seven coefficients, x^6 term first")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("census", help="representation counts over a parameter family")
    p.add_argument("family", help="A (even palindromic) or B (midcube)")
    p.add_argument("values", nargs="*", help="parameter values")
    p.add_argument("--grid", help="real grid start:stop:count")
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--ids", help="comma-separated subset of entry ids")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("family", help="emit the members of a named family")
    p.add_argument("family", help="F, N, R, YOUNG, HIRSCHHORN or VIETA")
    p.add_argument("--lambda", dest="lam", default=None, help="family parameter")
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("type-detect", help="detect the linear relation of an equal sum")
    p.add_argument("coeffs", nargs=12, help="four quadratics, three coefficients each")
    p.set_defaults(handler=cmd_type_detect)

    p = sub.add_parser("eb", help="cube-sum curve parameterization")
    p.add_argument("mode", choices=("forward", "inverse", "third"))
    p.add_argument("values", nargs="*", help="scalars for the chosen mode")
    p.set_defaults(handler=cmd_eb)

    p = sub.add_parser("curve-add", help="chord addition on X^3 + Y^3 = A")
    p.add_argument("values", nargs=5, metavar="V", help="X1 Y1 X2 Y2 A")
    p.set_defaults(handler=cmd_curve_add)

    return parser


# Each global option and the one command that reads it: any other command
# would ignore the option, so it rejects it instead.
_OPTION_COMMANDS = {"tol": "curve-add", "jobs": "census"}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        for option, command in _OPTION_COMMANDS.items():
            if getattr(ns, option) is not None and ns.command != command:
                raise UsageError(f"--{option} applies only to {command}")
        return ns.handler(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and signal failure
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
