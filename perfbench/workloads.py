"""The four workloads: seeded inputs, the call each operation times, and the
reference each answer is checked against.

An operation is one `Op`: `call()` runs the package on a prepared input and
returns its answer, and `check(answer)` compares that answer with a
reference the package did not compute.  Inputs are generated from the seed
alone, a pass at a time, outside every timed call.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import random
from fractions import Fraction
from typing import Callable

# Calls go through module attributes, so that the tracer's wrappers see them.
from twocubes import classify, decomp, ecurve, families
from twocubes.decomp import Representation
from twocubes.ecurve import EBParams
from twocubes.families import f_forms, hirschhorn_family, p1_sextic, young_family
from twocubes.forms import BinaryForm

import checks

WORKLOADS = ("census", "census-gl2", "identities", "chord")


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str
    key: str                          # printable fingerprint of the input
    call: Callable[[], object]        # the timed call into the package
    check: Callable[[object], bool]   # True when the answer agrees with the reference
    spoil: Callable[[object], object]  # a deliberately wrong copy of a real answer


# Wall seconds one pass takes, with its share of the calibration kernel and
# of the cold starts, at the seed commit on a 2-vCPU Xeon container of a
# shared host.  They turn --seconds into a number of passes.
PASS_S = {"census": 1.25, "census-gl2": 3.2, "identities": 1.2, "chord": 3.1}


@dataclasses.dataclass
class Workload:
    """One pass holds every kind of input in its share of the mix, and a run
    measures whole passes of that mix.  Each pass draws fresh inputs from the
    seeded generator, so a longer run samples more inputs instead of
    repeating the same ones."""

    name: str
    ops: list                                # the current pass
    make: Callable[[random.Random], list]    # draws the inputs of one pass
    rng: random.Random
    pass_s: float

    def draw(self) -> list:
        ops = self.make(self.rng)
        self.rng.shuffle(ops)
        return ops

    def passes(self, count: int):
        for i in range(count):
            if i:
                self.ops = self.draw()
            yield self.ops

    def passes_for(self, seconds: float) -> int:
        """The number of passes that lasts about `seconds` at the speed of
        PASS_S.  It depends on `seconds` alone, not on how fast this run
        goes, so a seed always gives the same inputs and the same answers."""
        return max(1, round(seconds / self.pass_s))


def build(name: str, seed: int) -> Workload:
    makers = {"census": _census_ops, "census-gl2": _gl2_ops, "identities": _identity_ops,
              "chord": _chord_ops}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = Workload(name, [], makers[name], random.Random(f"{name}:{seed}"), PASS_S[name])
    workload.ops = workload.draw()
    return workload


# -- census sextics: N is known without running the package -------------------

SQRT2 = math.sqrt(2.0)
# The golden exceptional points of the two census families, with their N.
A_GOLDEN = ((3, 0), (-1, 1), (0, 4), (15, 4), (-5, 6))
B_GOLDEN = ((0, 4), (2, 0), (-2, 0), (5j * SQRT2, 6), (-5j * SQRT2, 6))
A_GENERIC_N, B_GENERIC_N = 2, 3
EXCLUSION = 0.3  # generic parameters keep this distance from exceptional ones


def _family_a(t):
    return [1, 0, t, 0, t, 0, 1]


def _family_b(t):
    return [1, 0, 0, t, 0, 0, 1]


def _generic_rational(rng, avoid) -> Fraction:
    while True:
        t = Fraction(rng.randint(-72, 72), rng.randint(1, 9))
        if min(abs(complex(t) - a) for a in avoid) > EXCLUSION:
            return t


def _gauss(rng) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def reference_sextics(rng, count: int) -> list:
    """(label, coefficients, reference) for `count` sextics: the ten golden
    points, then family A and B at generic rational t (N = 2, 3), sums of two
    random cubes (N >= 1) and random complex sextics (N = 0) in equal shares."""
    out = [(f"A({t})", _family_a(complex(t)), ("eq", n)) for t, n in A_GOLDEN]
    out += [(f"B({t})", _family_b(complex(t)), ("eq", n)) for t, n in B_GOLDEN]
    a_avoid = [complex(t) for t, _ in A_GOLDEN]
    b_avoid = [complex(t) for t, _ in B_GOLDEN]
    for i in range(count - len(out)):
        kind = i % 4
        if kind == 0:
            t = _generic_rational(rng, a_avoid)
            out.append((f"A({t})", _family_a(complex(t)), ("eq", A_GENERIC_N)))
        elif kind == 1:
            t = _generic_rational(rng, b_avoid)
            out.append((f"B({t})", _family_b(complex(t)), ("eq", B_GENERIC_N)))
        elif kind == 2:
            f1 = [_gauss(rng) for _ in range(3)]
            f2 = [_gauss(rng) for _ in range(3)]
            coeffs = [u + v for u, v in zip(checks.cube(f1), checks.cube(f2))]
            out.append(("sum", coeffs, ("ge", 1)))
        else:
            out.append(("random", [_gauss(rng) for _ in range(7)], ("eq", 0)))
    return out


_BOGUS_REP = Representation(
    BinaryForm.floating(2, [1, 0, 0]), BinaryForm.floating(2, [1, 0, 0]), 1.0
)


def _spoil_report(report):
    return dataclasses.replace(report, N=report.N + 1, reps=report.reps + (_BOGUS_REP,))


def _census_op(label, coeffs, reference) -> Op:
    form = BinaryForm.floating(6, coeffs)
    return Op(
        "decide",
        f"{label}:{[complex(c) for c in coeffs]!r}",
        lambda: decomp.rep_count(form),
        lambda report: checks.census_answer_ok(report, coeffs, reference),
        _spoil_report,
    )


CENSUS_SEXTICS = 480  # one census pass, about 0.8 s


def _census_ops(rng):
    return [_census_op(*item) for item in reference_sextics(rng, CENSUS_SEXTICS)]


# -- census-gl2: the same sextics under seeded real changes of variables -----

MAX_LOG10 = 3.0  # condition numbers up to 10^3, singular values in [10^-3, 10^3]


def _stratified(rng, count):
    """`count` points of [0, 1), one in each of `count` equal strata, in
    random order (a Latin-hypercube draw: uniform, with less spread)."""
    strata = list(range(count))
    rng.shuffle(strata)
    return [(k + rng.random()) / count for k in strata]


def real_changes(rng, count) -> list:
    """(label, (a, b, c, d)) changes x -> a x + b y, y -> c x + d y.

    Each is R(u) diag(s1, s2) R(v) with rotations R at uniform angles, the
    condition number s1/s2 log-uniform in [1, 10^3] and the diagonal scale
    s2 log-uniform over the range that keeps s1 and s2 in [10^-3, 10^3]."""
    out = []
    for u, w in zip(_stratified(rng, count), _stratified(rng, count)):
        log_k = MAX_LOG10 * u
        log_s2 = -MAX_LOG10 + (2.0 * MAX_LOG10 - log_k) * w
        s2 = 10.0 ** log_s2
        s1 = s2 * 10.0 ** log_k
        t1, t2 = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
        c1, n1, c2, n2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
        # R(t1) @ diag(s1, s2) @ R(t2)
        m = (
            s1 * c1 * c2 - s2 * n1 * n2, -s1 * c1 * n2 - s2 * n1 * c2,
            s1 * n1 * c2 + s2 * c1 * n2, -s1 * n1 * n2 + s2 * c1 * c2,
        )
        out.append((f"cond={10.0 ** log_k:.6g},scale={s2:.6g}", m))
    return out


GL2_SEXTICS = 240  # one census-gl2 pass, about 2.5 s


def _gl2_ops(rng):
    sextics = reference_sextics(rng, GL2_SEXTICS)
    # each kind of sextic gets its own stratified draw of changes
    groups = {}
    for item in sextics:
        groups.setdefault(item[0].split("(")[0], []).append(item)
    ops = []
    for items in groups.values():
        for (label, coeffs, reference), (change, m) in zip(items, real_changes(rng, len(items))):
            moved = checks.compose(coeffs, m)
            ops.append(_census_op(f"{label}@{change}", moved, reference))
    return ops


# -- identities: one operation per identity group --------------------------

GROUPS = tuple(f"{k:02d}" for k in range(1, 22))


def _identity_op(gid) -> Op:
    def check(entries):
        return len(entries) == 1 and entries[0]["id"] == gid and entries[0]["pass"] is True

    return Op(
        f"group_{gid}",
        gid,
        lambda: families.verify_identity_suite([gid]),
        check,
        lambda entries: [dict(entries[0], **{"pass": False})],
    )


def _identity_ops(rng):
    return [_identity_op(gid) for gid in GROUPS]


# -- chord: curve group law, curve map, form chords and type detection -------

TAXICAB = Fraction(1729)
TAXICAB_POINTS = ((1, 12), (12, 1), (9, 10), (10, 9))
CHAIN_STEPS = 48  # S <- swap(S + P) for this many steps: heights reach ~2,600 digits
# Inputs per pass: 96 chain steps (two chains), 96 curve-map round trips, 64
# type detections, 64 form chords.  These shares, fastest kind to slowest
# (30% eb, 30% chain, 20% type, 20% form chord), put p50 inside the chain
# step latencies and p90 inside the form chords, away from the steps in
# the latency distribution between kinds.
CHAINS, EB_INPUTS, TYPE_INPUTS, FORM_CHORDS = 2, 96, 64, 64


def _small_fraction(rng) -> Fraction:
    """A nonzero fraction with numerator and denominator below 10."""
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if v:
            return v


@functools.lru_cache(maxsize=None)
def _chain(start, base):
    """The CHAIN_STEPS (point, reference third point) pairs of one chain,
    computed once per run: they depend on the start and base alone."""
    point, base = tuple(map(Fraction, start)), tuple(map(Fraction, base))
    out = []
    for _ in range(CHAIN_STEPS):
        want = checks.third_intersection(point, base, TAXICAB)
        out.append((point, want))
        point = (want[1], want[0])
    return out


def _chain_ops(start, base):
    base_point = tuple(map(Fraction, base))
    ops = []
    for step, (point, want) in enumerate(_chain(start, base)):

        def check(got, want=want):
            x, y = (Fraction(v) for v in got)
            return checks.on_cubic(x, y, TAXICAB) and (x, y) == want

        ops.append(Op(
            "curve_add",
            f"step {step} from {start} by {base}",
            lambda point=point: ecurve.curve_add(point, base_point, TAXICAB),
            check,
            lambda got: (got[0] + 1, got[1]),
        ))
    return ops


def _eb_op(params) -> Op:
    a, b, mu = params

    def call():
        ebp = EBParams(a, b, mu)
        quad = ecurve.eb_forward(ebp)
        inv = ecurve.eb_inverse(quad.f1, quad.f2, quad.f3, quad.f4)
        return quad, inv, ecurve.curve_third_rep(ebp)

    def spoil(answer):
        quad, inv, third = answer
        return quad, EBParams(inv.a + 1, inv.b, inv.mu), third

    return Op("eb", f"a={a} b={b} mu={mu}", call,
              lambda answer: checks.eb_answer_ok(params, answer), spoil)


@functools.lru_cache(maxsize=None)
def _lambda_forms(lam):
    """f_forms(lam) and p1_sextic(lam), built once per run for each lam."""
    return f_forms(lam), p1_sextic(lam)


def _form_chord_op(lam) -> Op:
    (f1, f2, f3, f4, f5, f6), total = _lambda_forms(lam)

    def check(got):
        return checks.forms_equal(got[0], f5) and checks.forms_equal(got[1], f6)

    return Op("form_chord", f"lambda={lam}",
              lambda: ecurve.curve_add((f1, f2), (f3, f4), total), check,
              lambda got: (got[1], got[0]))


def _type_op(family, n) -> Op:
    forms = family(n)
    return Op(
        "type_detect", f"{family.__name__}({n})",
        lambda: classify.type_detect(*forms),
        lambda tag: checks.type_relation_holds(forms, tag, classify._SPLITS),
        lambda tag: dataclasses.replace(tag, T=tag.T + 1),
    )


def _chord_ops(rng):
    pairs = [
        (s, p) for s in TAXICAB_POINTS for p in TAXICAB_POINTS
        if s != p and checks.third_intersection(
            tuple(map(Fraction, s)), tuple(map(Fraction, p)), TAXICAB) is not None
    ]
    ops = []
    for start, base in rng.sample(pairs, CHAINS):
        ops += _chain_ops(start, base)
    for _ in range(EB_INPUTS):
        ops.append(_eb_op(tuple(_small_fraction(rng) for _ in range(3))))
    for k in range(TYPE_INPUTS):
        n = _small_fraction(rng)
        while abs(n) == 1:
            n = _small_fraction(rng)
        ops.append(_type_op(young_family if k % 2 == 0 else hirschhorn_family, n))
    for _ in range(FORM_CHORDS):
        lam = _small_fraction(rng)
        while abs(lam) == 1:
            lam = _small_fraction(rng)
        ops.append(_form_chord_op(lam))
    return ops
