"""Cube-sum curve parameterization and chord addition."""
import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as reference
from twocubes import ecurve, forms
from twocubes.ecurve import (
    EBParams,
    RationalFunction,
    curve_add,
    curve_third_rep,
    eb_forward,
    eb_inverse,
)
from twocubes.exact import CycNum, IMAG, OMEGA, SQRT3, SQRTM3, ParamPoly, layout_product, layout_sum
from twocubes.families import f_forms, p1_sextic
from twocubes.forms import BinaryForm, ExactKernel, form_divexact, form_gcd

from family_helpers import q1_sextic
from typing_rule import off_rule

Q = Fraction


# ---------------------------------------------------------------- forward

def test_forward_integer_instance():
    quad = eb_forward(EBParams(Q(-3, 2), Q(1, 2), Q(1)))
    assert (quad.f1, quad.f2, quad.f3, quad.f4) == (10, -1, -9, 12)
    assert quad.p == 10 ** 3 + (-1) ** 3
    assert not quad.degenerate


def test_forward_second_instance_and_scale_sign():
    quad = eb_forward(EBParams(Q(10, 19), Q(7, 19), Q(361, 42)))
    assert (quad.f1, quad.f2, quad.f3, quad.f4) == (12, 1, 10, 9)
    negated = eb_forward(EBParams(Q(10, 19), Q(7, 19), Q(-361, 42)))
    assert (negated.f1, negated.f2, negated.f3, negated.f4) == (-12, -1, -10, -9)


def test_forward_degenerate_when_b_vanishes():
    # a complex b makes the degeneracy test FLOAT.is_zero
    for a, b, mu in ((Q(2), Q(0), Q(1)), (2, 0j, 1)):
        quad = eb_forward(EBParams(a, b, mu))
        assert quad.degenerate
        assert quad.p == 0
        assert quad.f2 == -quad.f1


@pytest.mark.parametrize("mu", [1e-6, 1e-5, 2, 1e3])
def test_forward_complex_degenerate_flag_is_scale_free(mu):
    # p = f1^3 + f2^3 is about |f1|^3 at every scale, so it is never zero;
    # with b = 0 it is zero at every scale
    assert eb_forward(EBParams(0.25 + 0.5j, -0.75j, mu)).degenerate is False
    assert eb_forward(EBParams(0.25 + 0.5j, 0j, mu)).degenerate is True


def test_forward_complex_parameters():
    quad = eb_forward(EBParams(0.25 + 0.5j, -0.75j, 2.0))
    left = quad.f1 ** 3 + quad.f2 ** 3
    right = quad.f3 ** 3 + quad.f4 ** 3
    assert abs(left - right) <= 1e-9 * max(abs(left), 1.0)
    assert not quad.degenerate


_W = OMEGA.to_complex()


@pytest.mark.parametrize("call, mixed, floated", [
    (eb_forward, (EBParams(OMEGA, 0.5 + 0j, 1),), (EBParams(_W, 0.5 + 0j, 1),)),
    (curve_third_rep, (EBParams(OMEGA, 0.5 + 0j, 1),), (EBParams(_W, 0.5 + 0j, 1),)),
    (eb_inverse, (OMEGA, 1 + 0j, 10, 9), (_W, 1 + 0j, 10, 9)),
    (curve_add, ((OMEGA, 12), (9 + 0j, 10 + 0j), 1729 + 0j), ((_W, 12), (9 + 0j, 10 + 0j), 1729 + 0j)),
], ids=["eb_forward", "curve_third_rep", "eb_inverse", "curve_add"])
def test_a_cyclotomic_input_among_complex_ones_lifts_to_its_complex_value(call, mixed, floated):
    assert call(*mixed) == call(*floated)


# ---------------------------------------------------------------- inverse

def test_inverse_integer_instance():
    params = eb_inverse(10, -1, -9, 12)
    assert (params.a, params.b, params.mu) == (Q(-3, 2), Q(1, 2), 1)


def test_inverse_second_instance():
    params = eb_inverse(12, 1, 10, 9)
    assert (params.a, params.b, params.mu) == (Q(10, 19), Q(7, 19), Q(361, 42))


def test_inverse_rejects_shared_cubes():
    for quadruple in ((1, 2, 1, 2), (1 + 0j, 2 + 0j, 1 + 0j, 2 + 0j)):
        with pytest.raises(ValueError, match="honest"):
            eb_inverse(*quadruple)


def test_inverse_rejects_vanishing_denominator():
    f1 = SQRTM3 - CycNum.one()
    f2 = SQRTM3 + CycNum.one()
    quadruple = (f1, f2, CycNum.one(), CycNum.from_rational(2))
    for values in (quadruple, [v.to_complex() for v in quadruple]):
        with pytest.raises(ValueError, match="denominator"):
            eb_inverse(*values)


def test_inverse_roundtrip_exact_random():
    rng = random.Random(20240814)
    for _ in range(200):
        a = Q(rng.randint(-30, 30), rng.randint(1, 12))
        b = Q(rng.randint(1, 30), rng.randint(1, 12)) * rng.choice((1, -1))
        mu = Q(rng.randint(1, 20), rng.randint(1, 12)) * rng.choice((1, -1))
        quad = eb_forward(EBParams(a, b, mu))
        recovered = eb_inverse(quad.f1, quad.f2, quad.f3, quad.f4)
        assert (recovered.a, recovered.b, recovered.mu) == (a, b, mu)
        again = eb_forward(recovered)
        assert {again.f1 ** 3, again.f2 ** 3} == {quad.f1 ** 3, quad.f2 ** 3}
        assert {again.f3 ** 3, again.f4 ** 3} == {quad.f3 ** 3, quad.f4 ** 3}


def test_inverse_roundtrip_cyclotomic_random():
    # parameters in Q(zeta24): eb_inverse runs the scalar formulas on CycNum values
    rng = random.Random(20261018)
    units = (CycNum.one(), OMEGA, IMAG, SQRT3, SQRTM3, CycNum.zeta())

    def draw():
        return sum((u * Q(rng.randint(-6, 6), rng.randint(1, 5)) for u in rng.sample(units, 2)), CycNum.zero())

    done = 0
    while done < 40:
        a, b, mu = draw(), draw(), draw()
        if b.is_zero() or mu.is_zero():
            continue
        quad = eb_forward(EBParams(a, b, mu))
        recovered = eb_inverse(quad.f1, quad.f2, quad.f3, quad.f4)
        assert (recovered.a, recovered.b, recovered.mu) == (a, b, mu)
        assert all(isinstance(v, CycNum) for v in (recovered.a, recovered.b, recovered.mu))
        done += 1


def test_inverse_roundtrip_complex():
    rng = random.Random(5)
    for _ in range(10):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.2, 2), rng.uniform(-2, 2))
        mu = complex(rng.uniform(0.2, 2), rng.uniform(-2, 2))
        quad = eb_forward(EBParams(a, b, mu))
        rec = eb_inverse(quad.f1, quad.f2, quad.f3, quad.f4)
        scale = max(abs(a), abs(b), abs(mu), 1.0)
        assert abs(rec.a - a) <= 1e-9 * scale
        assert abs(rec.b - b) <= 1e-9 * scale
        assert abs(rec.mu - mu) <= 1e-9 * scale


@pytest.mark.parametrize("lam", [Q(5, 7), Q(2), Q(-3, 4), Q(7, 2)], ids=str)
def test_inverse_form_quadruple_display(lam):
    f1, f2, f3, f4, f5, f6 = f_forms(lam)
    params = eb_inverse(f6, -f4, f3, -f5)
    xy = BinaryForm.exact(2, [0, Q(1), 0])
    sum_sq = BinaryForm.exact(2, [Q(1), 0, Q(1)])
    diff_sq = BinaryForm.exact(2, [Q(1), 0, Q(-1)])
    # a = -(x^2 + y^2) / (2 lam xy)
    assert (params.a * xy.scale(2 * lam) + sum_sq).is_zero()
    # b = -i (x^2 - y^2) / (2 sqrt(3) lam xy)
    assert (params.b * xy.scale(2 * lam) * SQRT3 + diff_sq.scale(IMAG)).is_zero()
    # mu = lam^4 xy, the cleared common denominator to the fourth power
    assert (params.mu - xy.scale(lam ** 4)).is_zero()
    quad = eb_forward(params)
    for got, want in zip((quad.f1, quad.f2, quad.f3, quad.f4), (f6, -f4, f3, -f5)):
        assert (got - RationalFunction(want)).is_zero()


def test_inverse_rejects_mixed_input():
    xy = BinaryForm.exact(2, [0, Q(1), 0])
    with pytest.raises(TypeError):
        eb_inverse(xy, Q(1), Q(2), Q(3))


def test_inverse_rejects_float_forms():
    # forms are lifted to RationalFunction values, whose arithmetic is exact only
    quadruple = [BinaryForm.floating(2, [1.0, 0.5 * k, -1.0]) for k in range(4)]
    with pytest.raises(TypeError, match="exact forms"):
        eb_inverse(*quadruple)


# ---------------------------------------------------------------- third representation

def test_third_representation_integer_instance():
    h1, h2 = curve_third_rep(EBParams(Q(-3, 2), Q(1, 2), Q(1)))
    assert (h1, h2) == (-8, 6)
    assert h1 ** 3 - h2 ** 3 == 10 ** 3 - 12 ** 3 == -728


def test_third_representation_degenerate_b():
    h1, h2 = curve_third_rep(EBParams(Q(3), Q(0), Q(2)))
    quad = eb_forward(EBParams(Q(3), Q(0), Q(2)))
    assert h1 ** 3 - h2 ** 3 == quad.f1 ** 3 - quad.f4 ** 3


def test_third_representation_random_exact():
    rng = random.Random(11)
    for _ in range(25):
        a = Q(rng.randint(-9, 9), rng.randint(1, 5))
        b = Q(rng.randint(1, 9), rng.randint(1, 5))
        mu = Q(rng.randint(1, 9), rng.randint(1, 5))
        h1, h2 = curve_third_rep(EBParams(a, b, mu))
        quad = eb_forward(EBParams(a, b, mu))
        assert h1 ** 3 - h2 ** 3 == quad.f1 ** 3 - quad.f4 ** 3
        assert h1 ** 3 - h2 ** 3 == -(quad.f2 ** 3) + quad.f3 ** 3


# ---------------------------------------------------------------- identity checks
# The identities are checked with a raise, not an assert, so python -O keeps them.

def test_forward_identity_check_raises_when_the_zero_test_fails(monkeypatch):
    # the identity is the first zero test the exact kernel is asked
    monkeypatch.setattr(ExactKernel, "is_zero", lambda self, value, terms=(), degree=1: False)
    with pytest.raises(ArithmeticError, match="equal-sum identity"):
        eb_forward(EBParams(Q(-3, 2), Q(1, 2), Q(1)))


def test_forward_complex_identity_check_raises_beyond_tolerance(monkeypatch):
    # FLOAT.is_zero reads the tolerance at call time
    monkeypatch.setattr(forms, "FLOAT_TOL", -1.0)
    with pytest.raises(ArithmeticError, match="equal-sum identity"):
        eb_forward(EBParams(0.3 + 0.1j, 0.7 - 0.2j, 1.1 + 0j))


def test_third_representation_check_raises_on_a_wrong_quadruple(monkeypatch):
    # the check runs on the curve map's own numerators, so a wrong f1 there fails it
    curve_map = ecurve.curve_map
    monkeypatch.setattr(ecurve, "curve_map", lambda *args: (0, *curve_map(*args)[1:]))
    with pytest.raises(ArithmeticError, match="third-representation identity"):
        curve_third_rep(EBParams(Q(-3, 2), Q(1, 2), Q(1)))


def test_chord_identity_check_raises_when_the_zero_test_fails(monkeypatch):
    # the cross-multiplied check x3.num^3 y3.den^3 + y3.num^3 x3.den^3 = a x3.den^3 y3.den^3
    # sees a chord point doubled, so its residual is 7a x3.den^3 y3.den^3, not zero
    f1, f2, f3, f4, _, _ = f_forms(Q(2))
    reduced = ecurve._reduced
    monkeypatch.setattr(ecurve, "_reduced", lambda num, den, inverse: reduced(layout_sum(num, num), den, inverse))
    with pytest.raises(ArithmeticError, match="chord identity"):
        curve_add((f1, f2), (f3, f4), p1_sextic(Q(2)))


def test_chord_identity_check_raises_on_terms_of_different_degrees(monkeypatch):
    # a chord point of the wrong degree fails the identity; forms of
    # different degrees are never added, so no degree-mismatch ValueError
    f1, f2, f3, f4, _, _ = f_forms(Q(2))
    reduced = ecurve._reduced
    monkeypatch.setattr(ecurve, "_reduced", lambda num, den, inverse: reduced(layout_product(num, num), den, inverse))
    with pytest.raises(ArithmeticError, match="chord identity"):
        curve_add((f1, f2), (f3, f4), p1_sextic(Q(2)))


# ---------------------------------------------------------------- curve map against the Fraction reference
# The curve map clears its denominators once and divides only its outputs;
# `fraction_reference` keeps the map as it ran on Fractions, reduced at each
# step.  Rational and complex results must match it in type and repr (so
# complex ones bit for bit, signed zeros included), cyclotomic ones in value
# and type, and failures in exception type and message.

def _assert_same(got, want):
    assert type(got) is type(want)
    if dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            _assert_same(getattr(got, field.name), getattr(want, field.name))
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, RationalFunction):
        assert got.equals(want)
    else:
        assert repr(got) == repr(want)


def _agrees(call, reference_call, *args):
    """call(*args) matches reference_call(*args), failures included; the
    reference's value, or None when it raised."""
    try:
        want = reference_call(*args)
    except (ArithmeticError, ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as got:
            call(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return None
    _assert_same(call(*args), want)
    return want


def _agrees_on_the_curve_map(params):
    """Forward, third representation and the inverse of the forward
    quadruple, in turn and in one order and another; the forward quadruple."""
    quad = _agrees(eb_forward, reference.eb_forward, params)
    _agrees(curve_third_rep, reference.curve_third_rep, params)
    if quad is not None:
        _agrees(eb_inverse, reference.eb_inverse, quad.f1, quad.f2, quad.f3, quad.f4)
        _agrees(eb_inverse, reference.eb_inverse, quad.f3, quad.f1, quad.f4, quad.f2)
    return quad


_RATIONAL = st.builds(Q, st.integers(-40, 40), st.integers(1, 30))


@st.composite
def _rational_params(draw):
    """(a, b, mu) with b = 0 and a = 3b or -3b among them, mu of either sign."""
    a, b, mu = draw(_RATIONAL), draw(_RATIONAL), draw(_RATIONAL)
    shape = draw(st.sampled_from(("free", "b = 0", "a = 3b", "a = -3b")))
    if shape == "b = 0":
        b = Q(0)
    elif shape != "free":
        a = 3 * b if shape == "a = 3b" else -3 * b
    return EBParams(a, b, mu)


@settings(max_examples=150, deadline=None)
@given(_rational_params())
def test_curve_map_matches_the_fraction_reference(params):
    _agrees_on_the_curve_map(params)
    # int parameters are lifted to Fractions
    if all(v.denominator == 1 for v in (params.a, params.b, params.mu)):
        _agrees_on_the_curve_map(EBParams(*[int(v) for v in (params.a, params.b, params.mu)]))


@st.composite
def _rational_quadruples(draw):
    """Four rationals, among them each of eb_inverse's two refusals: two
    pairs that share their cubes, and f1 = f2 = 0, whose parameter
    denominator vanishes."""
    f1, f2, f3, f4 = (draw(_RATIONAL) for _ in range(4))
    shape = draw(st.sampled_from(("free", "shared cubes", "zero denominator")))
    if shape == "shared cubes":
        f3, f4 = f1, f2
    elif shape == "zero denominator":
        f1 = f2 = Q(0)
    return f1, f2, f3, f4


@settings(max_examples=150, deadline=None)
@given(_rational_quadruples())
def test_eb_inverse_matches_the_fraction_reference_on_rational_quadruples(quadruple):
    _agrees(eb_inverse, reference.eb_inverse, *quadruple)


@pytest.mark.parametrize("quadruple, message", [
    ((Q(1, 2), Q(3), Q(1, 2), Q(3)), "quadruple is not honest: both pairs share their cubes"),
    ((Q(0), Q(0), Q(5, 3), Q(-1)), "parameter denominator g1^2 + 3*g2^2 vanishes"),
], ids=["shared cubes", "zero denominator"])
def test_eb_inverse_refusals_match_the_fraction_reference(quadruple, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        reference.eb_inverse(*quadruple)
    assert _agrees(eb_inverse, reference.eb_inverse, *quadruple) is None


_COMPLEX = st.complex_numbers(max_magnitude=1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(_COMPLEX, _COMPLEX, _COMPLEX, st.lists(_COMPLEX, min_size=4, max_size=4))
def test_complex_curve_map_is_bit_identical_to_the_fraction_reference(a, b, mu, quadruple):
    _agrees_on_the_curve_map(EBParams(a, b, mu))
    _agrees(eb_inverse, reference.eb_inverse, *quadruple)


def test_complex_curve_map_keeps_the_signs_of_zero_parts():
    # parts from {-0, 0, 1, -1}: here a product by 1, or a quotient by
    # 1 + 0j, flips the sign of a zero part of some result (about one draw
    # in 60 each), where skipping it keeps the reference's bits
    rng = random.Random(29)
    values = [complex(re_part, im_part) for re_part in (-0.0, 0.0, 1.0, -1.0) for im_part in (-0.0, 0.0, 1.0, -1.0)]
    for _ in range(3000):
        _agrees_on_the_curve_map(EBParams(*rng.choices(values, k=3)))
        _agrees(eb_inverse, reference.eb_inverse, *rng.choices(values, k=4))


_UNITS = (CycNum.one(), OMEGA, IMAG, SQRT3, SQRTM3, CycNum.zeta())


@st.composite
def _cyclotomic(draw):
    units = draw(st.lists(st.sampled_from(_UNITS), min_size=1, max_size=2, unique=True))
    return sum((u * draw(_RATIONAL) for u in units), CycNum.zero())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_cyclotomic(), _RATIONAL), min_size=3, max_size=3))
def test_cyclotomic_curve_map_matches_the_fraction_reference(values):
    # Fractions mixed with CycNums included: those take the path over 1
    _agrees_on_the_curve_map(EBParams(*values))


@pytest.mark.parametrize("lam", [Q(5, 7), Q(-3, 4)], ids=str)
def test_form_curve_map_matches_the_fraction_reference(lam):
    f1, f2, f3, f4, f5, f6 = f_forms(lam)
    params = _agrees(eb_inverse, reference.eb_inverse, f6, -f4, f3, -f5)
    _agrees(eb_forward, reference.eb_forward, params)
    # a form parameter with rational ones
    _agrees_on_the_curve_map(EBParams(Q(1, 3), lam, f1))


# ---------------------------------------------------------------- chord addition

def test_chord_rational_instance():
    x3, y3 = curve_add((Q(1), Q(12)), (Q(9), Q(10)), Q(1729))
    assert (x3, y3) == (Q(-37, 3), Q(46, 3))
    assert x3 ** 3 + y3 ** 3 == 1729


def test_chord_is_symmetric():
    left = curve_add((Q(1), Q(12)), (Q(9), Q(10)), Q(1729))
    right = curve_add((Q(9), Q(10)), (Q(1), Q(12)), Q(1729))
    assert left == right


def test_chord_rejects_degenerate_pairs():
    for lift in (Q, complex):
        with pytest.raises(ValueError, match="chord"):
            curve_add((lift(1), lift(0)), (lift(1), lift(0)), lift(1))
        # the swapped point is the group inverse; the chord through P and -P
        # has no third affine intersection
        with pytest.raises(ValueError, match="chord"):
            curve_add((lift(1), lift(2)), (lift(2), lift(1)), lift(9))


def test_chord_rejects_off_curve_points():
    with pytest.raises(ValueError, match="curve"):
        curve_add((Q(1), Q(1)), (Q(9), Q(10)), Q(1729))


@pytest.mark.parametrize("s", [1.0, 1e-5], ids=["unit", "1e-5"])
def test_complex_chord_on_curve_test_is_scale_free(s):
    # (9, 11) is off X^3 + Y^3 = 1729 at every scale; (9, 10) is on it
    a = 1729 * s ** 3 + 0j
    with pytest.raises(ValueError, match="not on the curve"):
        curve_add((s + 0j, 12 * s + 0j), (9 * s + 0j, 11 * s + 0j), a)
    x3, y3 = curve_add((s + 0j, 12 * s + 0j), (9 * s + 0j, 10 * s + 0j), a)
    assert abs(x3 / s + 37 / 3) < 1e-9 and abs(y3 / s - 46 / 3) < 1e-9


def _outcome(call):
    try:
        got = call()
    except ValueError as exc:
        return str(exc)
    return getattr(got, "degenerate", "ok")


def test_complex_zero_tests_do_not_change_under_scaling():
    # eb_forward's flag under mu -> 10^e mu, and whether curve_add and
    # eb_inverse raise under x -> 10^e x (A -> 10^(3e) A), for e = -6..6
    rng = random.Random(2023)

    def gauss():
        return complex(rng.gauss(0, 1), rng.gauss(0, 1))

    forward = [(gauss(), gauss(), gauss()) for _ in range(8)] + [(gauss(), 0j, gauss()) for _ in range(3)]
    chords = []
    for _ in range(8):
        x1, y1, x2 = gauss(), gauss(), gauss()
        a = x1 ** 3 + y1 ** 3
        p1, p2 = (x1, y1), (x2, (a - x2 ** 3) ** (1 / 3))
        chords += [(p1, p2, a), (p1, (p2[0], p2[1] * (1 + 1e-6)), a), (p1, p1, a), (p1, p1[::-1], a)]
    quads = []
    for a, b, mu in forward[:6]:
        quad = eb_forward(EBParams(a, b, mu))
        f1, f2 = quad.f1, quad.f2
        quads += [(f1, f2, quad.f3, quad.f4), (f1, f2, f1, f2)]
        # g1^2 + 3 g2^2 = 0 for g1 = (f1 + f2)/2 = i sqrt3 (f2 - f1)/2
        quads.append((f1, -f1 * (1 + 1j * 3 ** 0.5) / (1 - 1j * 3 ** 0.5), quad.f3, quad.f4))

    def outcomes(s):
        return ([_outcome(lambda: eb_forward(EBParams(a, b, s * mu))) for a, b, mu in forward]
                + [_outcome(lambda: curve_add((s * p1[0], s * p1[1]), (s * p2[0], s * p2[1]), s ** 3 * a))
                   for p1, p2, a in chords]
                + [_outcome(lambda: eb_inverse(*[s * f for f in quad])) for quad in quads])

    unit = outcomes(1.0)
    assert {True, False, "ok", "point is not on the curve",
            "chord degenerates (coincident or opposite points)",
            "quadruple is not honest: both pairs share their cubes",
            "parameter denominator g1^2 + 3*g2^2 vanishes"} <= set(unit)
    for e in range(-6, 7):
        assert outcomes(10.0 ** e) == unit, e


def test_chord_complex_points():
    a = 2.0 + 1.0j
    p1 = (1.0 + 0j, (a - 1) ** (1 / 3.0))
    p2 = (2.0 + 0j, (a - 8) ** (1 / 3.0))
    x3, y3 = curve_add(p1, p2, a)
    assert abs(x3 ** 3 + y3 ** 3 - a) <= 1e-9 * max(abs(a), 1.0)


@pytest.mark.parametrize("x", [100 + 0j, 100 + 30j])
def test_chord_complex_points_near_the_asymptote(x):
    # x^3 + y^3 cancels to |a| << |x|^3, so the rounding of y^3 is measured
    # against the cubes, not against their sum
    a = 2.0 + 1.0j
    p1, p2 = (x, (a - x ** 3) ** (1 / 3)), (2 * x, (a - 8 * x ** 3) ** (1 / 3))
    x3, y3 = curve_add(p1, p2, a)
    assert abs(x3 ** 3 + y3 ** 3 - a) <= 1e-9 * max(abs(x3) ** 3, abs(y3) ** 3)


def test_complex_chord_on_curve_test_follows_FLOAT_TOL(monkeypatch):
    # FLOAT.is_zero reads the tolerance at call time: x1 = 1 + 1e-9 misses
    # x^3 + y^3 = 1729 by ~2e-12 relative, inside FLOAT_TOL and outside 1e-13
    point1, point2, a = (1.000000001 + 0j, 12 + 0j), (9 + 0j, 10 + 0j), 1729 + 0j
    x3, _ = curve_add(point1, point2, a)
    assert abs(x3 + 37 / 3) < 1e-6
    monkeypatch.setattr(forms, "FLOAT_TOL", 1e-13)
    with pytest.raises(ValueError, match="not on the curve"):
        curve_add(point1, point2, a)


def test_chord_on_family_forms_cancels_denominators():
    rng = random.Random(7)
    seen = 0
    while seen < 20:
        lam = Q(rng.randint(-9, 9), rng.randint(1, 9))
        if lam == 0 or abs(lam) == 1:
            continue
        seen += 1
        f1, f2, f3, f4, f5, f6 = f_forms(lam)
        x3, y3 = curve_add((f1, f2), (f3, f4), p1_sextic(lam))
        assert isinstance(x3, BinaryForm) and isinstance(y3, BinaryForm)
        assert (x3 - f5).is_zero()
        assert (y3 - f6).is_zero()


def test_family_chord_inverts_its_shared_denominator_lead_once(monkeypatch):
    # both numerators of the chord are divided by one den layout, whose lead
    # is inverted once, by `exact.layout_lead_inverse`
    inverse, calls = CycNum.inverse, []
    monkeypatch.setattr(CycNum, "inverse", lambda self: calls.append(self) or inverse(self))
    f1, f2, f3, f4, f5, f6 = f_forms(Q(5, 3))
    x3, y3 = curve_add((f1, f2), (f3, f4), p1_sextic(Q(5, 3)))
    assert (x3 - f5).is_zero() and (y3 - f6).is_zero()
    assert len(calls) == 1


def test_chord_form_result_reduces_through_rational_functions():
    x_sq = BinaryForm.exact(2, [CycNum.one(), 0, 0])
    y_sq = BinaryForm.exact(2, [0, 0, CycNum.one()])
    twisted = x_sq.scale(OMEGA)
    x3, y3 = curve_add((x_sq, y_sq), (twisted, y_sq), q1_sextic())
    assert (x3 - x_sq.scale(OMEGA ** 2)).is_zero()
    assert (y3 - y_sq).is_zero()


# The exact-scalar chord as it was computed before projective coordinates:
# field arithmetic with every intermediate value reduced.  The oracle tests
# below require curve_add to agree with it, value, type and exception alike.

def _reference_chord(point1, point2, a):
    x1, y1, x2, y2, a = [Q(v) if isinstance(v, int) else v for v in (*point1, *point2, a)]
    for x, y in ((x1, y1), (x2, y2)):
        if x ** 3 + y ** 3 - a:
            raise ValueError("point is not on the curve")
    den = (x1 * x1 * x2 + y1 * y1 * y2) - (x1 * x2 * x2 + y1 * y2 * y2)
    if not den:
        raise ValueError("chord degenerates (coincident or opposite points)")
    num_x = a * (x1 - x2) + y1 * y2 * (x2 * y1 - x1 * y2)
    num_y = a * (y1 - y2) + x1 * x2 * (x1 * y2 - x2 * y1)
    inv = den.inverse() if isinstance(den, CycNum) else 1 / den
    x3, y3 = num_x * inv, num_y * inv
    if x3 ** 3 + y3 ** 3 - a:
        raise ValueError("point is not on the curve")
    return x3, y3


def _typed(point):
    return [(type(v), v) for v in point]


TAXICAB_POINTS = ((1, 12), (12, 1), (9, 10), (10, 9))
CHAIN_PAIRS = [
    (s, p) for s in TAXICAB_POINTS for p in TAXICAB_POINTS
    if s != p and s != (p[1], p[0])  # the chord through P and -P is degenerate
]


@pytest.mark.parametrize("start, base", CHAIN_PAIRS, ids=str)
def test_chord_chain_matches_the_reference_formula(start, base):
    # the chains S <- swap(S + P) of the benchmark's chord workload
    point, base = tuple(map(Q, start)), tuple(map(Q, base))
    for _ in range(48):
        got = curve_add(point, base, Q(1729))
        assert _typed(got) == _typed(_reference_chord(point, base, Q(1729)))
        point = (got[1], got[0])
    assert len(str(point[0].numerator)) > 2000


def test_chord_matches_the_reference_on_mixed_exact_scalars():
    s = CycNum.one() + CycNum.zeta()  # (s x, s y) lies on X^3 + Y^3 = s^3 A
    cases = [
        ((1, Q(12)), (OMEGA * 9, Q(10)), 1729),
        ((Q(1), 12), (CycNum.from_rational(9), 10), CycNum.from_rational(1729)),
        ((OMEGA, OMEGA * 12), (Q(9), Q(10)), Q(1729)),
        ((s, s * 12), (s * 9, s * 10), s ** 3 * 1729),
        ((Q(1, 2), Q(6)), (Q(9, 2), CycNum.from_rational(5)), Q(1729, 8)),
    ]
    for point1, point2, a in cases:
        assert _typed(curve_add(point1, point2, a)) == _typed(_reference_chord(point1, point2, a))


def test_chord_with_a_rational_right_side_and_unequal_denominators():
    point1, point2, a = (Q(1, 2), Q(6)), (Q(9, 2), Q(5)), Q(1729, 8)
    got = curve_add(point1, point2, a)
    assert got == (Q(-37, 6), Q(23, 3))
    assert got == _reference_chord(point1, point2, a)


@pytest.mark.parametrize("point1, point2, a", [
    ((Q(1), Q(0)), (Q(1), Q(0)), Q(1)),                 # coincident
    ((Q(1), Q(2)), (Q(2), Q(1)), Q(9)),                 # opposite
    ((Q(1, 2), Q(6)), (Q(6), Q(1, 2)), Q(1729, 8)),     # opposite, rational A
    ((OMEGA, Q(2)), (Q(2), OMEGA), Q(9)),               # opposite, cyclotomic
    ((Q(1), Q(1)), (Q(9), Q(10)), Q(1729)),             # first point off the curve
    ((Q(1, 2), Q(6)), (Q(9), Q(5)), Q(1729, 8)),        # second point off the curve
    ((Q(1), Q(12)), (Q(9), Q(10)), Q(1729, 8)),         # both off a rational A
])
def test_chord_failures_match_the_reference(point1, point2, a):
    with pytest.raises(ValueError) as want:
        _reference_chord(point1, point2, a)
    with pytest.raises(ValueError) as got:
        curve_add(point1, point2, a)
    assert str(got.value) == str(want.value)


def test_chord_checks_its_reduced_output(monkeypatch):
    # a wrong final division leaves the output off the curve
    monkeypatch.setattr(ExactKernel, "inv", lambda self, v: Q(2) / v)
    with pytest.raises(ValueError, match="not on the curve"):
        curve_add((Q(1), Q(12)), (Q(9), Q(10)), Q(1729))


@pytest.mark.parametrize("point1, a", [
    ((complex("nan"), 0j), 9 + 0j),
    ((1 + 0j, 1 + 0j), complex("nan")),
], ids=["nan-point", "nan-A"])
def test_floating_chord_rejects_a_nan_as_off_the_curve(point1, a):
    # every comparison with a NaN is false, so FLOAT.is_zero never passes it
    with pytest.raises(ValueError, match="not on the curve"):
        curve_add(point1, (1 + 0j, 2 + 0j), a)


def test_projective_point_uses_the_lcm_of_the_denominators():
    assert forms.projective(Q(-37, 6), Q(23, 4)) == (-74, 69, 12)
    assert forms.projective(Q(3), Q(5, 7)) == (21, 5, 7)
    assert forms.projective(OMEGA, Q(1, 2)) == (OMEGA, Q(1, 2), 1)
    # any number of values, ints among them; the numerators are ints
    got = forms.projective(Q(1, 4), -3, Q(5, 6), Q(1, 2))
    assert got == (3, -36, 10, 6, 12) and all(type(v) is int for v in got)
    assert forms.projective(1.5, Q(1, 2)) == (1.5, Q(1, 2), 1)


# The form chord as it was computed before the shared products: eighteen
# form products, and each ratio reduced by its gcd, then made monic.  The
# oracle test below requires curve_add to agree with it, value, coefficient
# type and exception alike.

def _gcd_reduced(num, den):
    """(num, den) divided by their gcd, den divided by its lead."""
    if num.is_zero():
        return BinaryForm.zero(0), BinaryForm.exact(0, [Q(1)])
    if num.degree and den.degree:
        g = form_gcd(num, den)
        if g.degree > 0:
            num, den = form_divexact(num, g), form_divexact(den, g)
    lead = next(c for c in den.coeffs if c)
    if lead != 1:
        inv = lead.inverse() if isinstance(lead, CycNum) else 1 / Q(lead)
        num, den = num.scale(inv), den.scale(inv)
    return num, den


def _reference_form_chord(point1, point2, a):
    (x1, y1), (x2, y2) = point1, point2
    for x, y in (point1, point2):
        if not (x ** 3 + y ** 3 - a).is_zero():
            raise ValueError("point is not on the curve")
    den = (x1 * x1 * x2 + y1 * y1 * y2) - (x1 * x2 * x2 + y1 * y2 * y2)
    if den.is_zero():
        raise ValueError("chord degenerates (coincident or opposite points)")
    num_x = a * (x1 - x2) + y1 * y2 * (x2 * y1 - x1 * y2)
    num_y = a * (y1 - y2) + x1 * x2 * (x1 * y2 - x2 * y1)
    (nx, dx), (ny, dy) = _gcd_reduced(num_x, den), _gcd_reduced(num_y, den)
    if not (nx ** 3 * dy ** 3 + ny ** 3 * dx ** 3 - a * dx ** 3 * dy ** 3).is_zero():
        raise ArithmeticError("chord identity failed")
    return [nx if dx.degree == 0 else (nx, dx), ny if dy.degree == 0 else (ny, dy)]


def _form_values(point, value=lambda c: c):
    """Each coordinate as degrees and the value() of each coefficient: a
    form, or the numerator and denominator of a RationalFunction or a
    (num, den) pair."""
    def values(v):
        if isinstance(v, BinaryForm):
            return v.degree, [value(c) for c in v.coeffs]
        if isinstance(v, RationalFunction):
            v = (v.num, v.den)
        return [values(f) for f in v]
    return [values(v) for v in point]


def _form_chord_cases():
    rng = random.Random(31)
    lams = []
    while len(lams) < 6:
        lam = Q(rng.randint(-9, 9), rng.randint(1, 9))
        if lam and abs(lam) != 1:
            lams.append(lam)
    for lam in lams:
        f1, f2, f3, f4, f5, f6 = f_forms(lam)
        p1, p2, p3, a = (f1, f2), (f3, f4), (f5, f6), p1_sextic(lam)
        pairs = {"P1+P2": (p1, p2), "P2+P1": (p2, p1), "P1+P3": (p1, p3), "P2+P3": (p2, p3)}
        for name, pair in pairs.items():
            yield f"lambda={lam} {name}", (*pair, a)
    f1, f2, f3, f4, _, _ = f_forms(Q(2))
    a = p1_sextic(Q(2))
    yield "coincident", ((f1, f2), (f1, f2), a)
    yield "opposite", ((f1, f2), (f2, f1), a)
    yield "first off the curve", ((f1, f3), (f3, f4), a)
    yield "second off the curve", ((f1, f2), (f3, f1), a)
    # x = x(x^3 + 2y^3) / (w(x^3 - y^3)): the denominator does not divide
    x, y = BinaryForm.exact(1, [Q(1), 0]), BinaryForm.exact(1, [0, Q(1)])
    yield "rational result", ((x, y), (x.scale(OMEGA), y.scale(OMEGA ** 2)), x ** 3 + y ** 3)


@pytest.mark.parametrize("point1, point2, a", [case for _, case in _form_chord_cases()],
                         ids=[key for key, _ in _form_chord_cases()])
def test_form_chord_matches_the_gcd_reduced_reference(point1, point2, a):
    try:
        want = _form_values(_reference_form_chord(point1, point2, a))
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            curve_add(point1, point2, a)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = curve_add(point1, point2, a)
    assert _form_values(got) == want
    # a coordinate that is a form comes from the layouts, typed by value
    for f in got:
        if isinstance(f, BinaryForm):
            assert off_rule(f.coeffs) == []


def _count_chord_products(monkeypatch):
    """The layout products of the form chord, counted as they are formed,
    and the count at which each coordinate is reduced."""
    product, reduced, calls, built = ecurve.layout_product, ecurve._reduced, [], []
    monkeypatch.setattr(ecurve, "layout_product", lambda a, b: calls.append(1) or product(a, b))
    monkeypatch.setattr(ecurve, "_reduced",
                        lambda num, den, inverse: built.append(len(calls)) or reduced(num, den, inverse))
    return calls, built


def test_family_form_chord_takes_ten_products_and_no_gcd(monkeypatch):
    f1, f2, f3, f4, _, _ = f_forms(Q(5, 3))
    a = p1_sextic(Q(5, 3))
    gcds = []
    # both ratios are reduced once every product of the chord is formed
    calls, products = _count_chord_products(monkeypatch)
    monkeypatch.setattr(ecurve, "form_gcd", lambda f, g: gcds.append(f) or form_gcd(f, g))
    x3, y3 = curve_add((f1, f2), (f3, f4), a)
    assert gcds == []
    assert len(products) == 2 and products[-1] <= 10
    assert isinstance(x3, BinaryForm) and isinstance(y3, BinaryForm)


def test_family_form_chord_check_multiplies_by_no_unit_denominator(monkeypatch):
    # both coordinates reduce to forms, over the denominator 1, so the
    # identity check cubes the two quadratics and forms no product
    f1, f2, f3, f4, _, _ = f_forms(Q(5, 3))
    a = p1_sextic(Q(5, 3))
    calls, built = _count_chord_products(monkeypatch)
    curve_add((f1, f2), (f3, f4), a)
    assert len(built) == 2 and len(calls) == built[-1]


def test_formal_form_chord_is_refused_before_any_arithmetic(monkeypatch):
    # a ParamPoly coefficient has no integer layout: the chord raises
    # TypeError, not an ArithmeticError from inside a division
    lam = ParamPoly.variable("lam")
    f1, f2, f3, f4, _, _ = f_forms(lam)
    monkeypatch.setattr(ecurve, "_form_chord", lambda *layouts: pytest.fail("the chord ran"))
    with pytest.raises(TypeError, match="int, Fraction or CycNum"):
        curve_add((f1, f2), (f3, f4), p1_sextic(lam))


def test_chord_identity_check_covers_denominators_of_positive_degree(monkeypatch):
    # x = x(x^3 + 2y^3) / (w(x^3 - y^3)): a doubled numerator over a
    # denominator that does not cancel fails the cross-multiplied check
    x, y = BinaryForm.exact(1, [Q(1), 0]), BinaryForm.exact(1, [0, Q(1)])
    point1, point2, a = (x, y), (x.scale(OMEGA), y.scale(OMEGA ** 2)), x ** 3 + y ** 3
    x3, y3 = curve_add(point1, point2, a)
    assert x3.den.degree > 0 and y3.den.degree > 0

    # the chord reduces such a ratio by its gcd alone
    cancelled = ecurve._cancelled
    monkeypatch.setattr(ecurve, "_cancelled", lambda num, den: cancelled(num.scale(2), den))
    with pytest.raises(ArithmeticError, match="chord identity"):
        curve_add(point1, point2, a)


def test_non_dividing_form_chord_divides_by_no_denominator_twice(monkeypatch):
    # (f1, f2) + (f4, f3): den (degree 6) divides neither numerator (degree
    # 8); after the layout division refuses them, each ratio is reduced by
    # its gcd, and the only form divisions are by the gcds
    f1, f2, f3, f4, _, _ = f_forms(Q(5, 3))
    gcds, divisors = [], []
    monkeypatch.setattr(ecurve, "form_gcd", lambda f, g: gcds.append(form_gcd(f, g)) or gcds[-1])
    monkeypatch.setattr(ecurve, "form_divexact", lambda f, g: divisors.append(g) or form_divexact(f, g))
    x3, y3 = curve_add((f1, f2), (f4, f3), p1_sextic(Q(5, 3)))
    assert isinstance(x3, RationalFunction) and isinstance(y3, RationalFunction)
    assert len(gcds) == 2 and len(divisors) == 4
    assert all(any(g is h for h in gcds) for g in divisors)


def test_chord_rejects_mixed_form_and_scalar():
    x_sq = BinaryForm.exact(2, [Q(1), 0, 0])
    with pytest.raises(TypeError):
        curve_add((x_sq, Q(1)), (Q(1), Q(2)), Q(9))
    # scalar points with a form right side, constant or not
    with pytest.raises(TypeError):
        curve_add((Q(1), Q(12)), (Q(9), Q(10)), BinaryForm.exact(0, [Q(1729)]))
    with pytest.raises(TypeError):
        curve_add((Q(1), Q(12)), (Q(9), Q(10)), BinaryForm.exact(1, [Q(1729), Q(1)]))


# ---------------------------------------------------------------- rational functions

def test_rational_function_reduces_common_factors():
    num = BinaryForm.exact(2, [Q(1), 0, Q(-1)])   # x^2 - y^2
    den = BinaryForm.exact(1, [Q(1), Q(1)])       # x + y
    rf = RationalFunction(num, den)
    assert rf.den.degree == 0
    assert rf.to_form().coeffs == (1, -1)


def test_rational_function_truth_is_its_zero_test():
    # the exact kernel's zero test is `not v`
    x_sq = BinaryForm.exact(2, [Q(1), 0, 0])
    assert not RationalFunction(Q(0)) and not RationalFunction(x_sq) - x_sq
    assert RationalFunction(x_sq, BinaryForm.exact(1, [Q(1), Q(1)]))
    assert forms.EXACT.is_zero(RationalFunction(BinaryForm.zero(2)))


def test_rational_function_arithmetic_and_equality():
    x = BinaryForm.exact(1, [Q(1), 0])
    y = BinaryForm.exact(1, [0, Q(1)])
    r = RationalFunction(x, y)
    s = RationalFunction(y, x)
    prod = r * s
    assert prod.is_zero() is False
    assert prod.equals(1)
    total = r + s  # (x^2 + y^2) / (xy)
    assert total.equals(RationalFunction(x * x + y * y, x * y))
    assert (total - total).is_zero()
    assert (1 / r).equals(s)
    assert (r ** -2).equals(s * s)


def test_rational_function_with_a_monic_cyclotomic_denominator_inverts_nothing(monkeypatch):
    inverse, calls = CycNum.inverse, []
    monkeypatch.setattr(CycNum, "inverse", lambda self: calls.append(self) or inverse(self))
    num = BinaryForm.exact(2, [OMEGA, CycNum.from_rational(3), CycNum.zeta()])
    rf = RationalFunction(num, BinaryForm.exact(0, [CycNum.one()]))
    assert calls == []
    assert rf.num == num and rf.to_form() == num
    RationalFunction(num, BinaryForm.exact(0, [OMEGA]))
    assert len(calls) == 1


_LIN = BinaryForm.exact(1, [Q(1), OMEGA])                   # x + w y
_QUAD = BinaryForm.exact(2, [Q(1), CycNum.zeta(), Q(-2)])   # x^2 + z xy - 2y^2


@pytest.mark.parametrize("num, den", [
    # den divides num
    (_LIN * _QUAD, _LIN.scale(Q(3))),
    (BinaryForm.exact(3, [Q(2), Q(-2), Q(-4), 0]), BinaryForm.exact(1, [Q(3), Q(3)])),
    (_QUAD * _LIN.scale(OMEGA), _LIN.scale(OMEGA)),
    # coprime forms
    (_QUAD, BinaryForm.exact(2, [Q(3), Q(1), 0])),
    # a partial common factor: (x + y)(x - 2y) over 2(x + y)(x + 3y)
    (BinaryForm.exact(2, [Q(1), Q(-1), Q(-2)]), BinaryForm.exact(2, [Q(2), Q(8), Q(6)])),
    # y(x^3 + w x^2 y + 5y^3) over 3y^2: the common factor is a power of y
    (BinaryForm.exact(4, [0, Q(1), OMEGA, 0, Q(5)]), BinaryForm.exact(2, [0, 0, Q(3)])),
    # a constant den, divided out by its lead's inverse
    (_QUAD, BinaryForm.exact(0, [OMEGA])),
], ids=["divides", "divides-rational", "divides-cyclotomic-lead", "coprime", "partial-factor",
        "y-power", "constant-cyclotomic"])
def test_rational_function_matches_the_gcd_reduced_reference(num, den):
    def typed(c):
        return type(c), c

    assert _form_values([RationalFunction(num, den)], typed) == _form_values([_gcd_reduced(num, den)], typed)


def test_rational_function_rejects_zero_denominator():
    x = BinaryForm.exact(1, [Q(1), 0])
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, BinaryForm.exact(1, [0, 0]))


def test_rational_function_rejects_float_forms():
    # a float or complex scalar is a float form too
    x = BinaryForm.exact(1, [Q(1), 0])
    for num, den in ((BinaryForm.floating(1, [1.0, 0.0]), None), (1.5j, None), (x, 2.0), (Q(1), 0.5 + 0j)):
        with pytest.raises(TypeError, match="requires exact forms"):
            RationalFunction(num, den)


def test_rational_function_to_form_requires_cancellation():
    x = BinaryForm.exact(1, [Q(1), 0])
    y = BinaryForm.exact(1, [0, Q(1)])
    with pytest.raises(ValueError):
        RationalFunction(x, y).to_form()
