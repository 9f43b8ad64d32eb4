import itertools
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twocubes.ecurve import RationalFunction
from twocubes import forms
from twocubes.exact import (
    ETA,
    IMAG,
    OMEGA,
    ZETA8,
    CycNum,
    ParamPoly,
    cyclotomic_layout,
    layout_coefficients,
    layout_cube,
    layout_difference,
    layout_divexact,
    layout_is_zero,
    layout_lead_inverse,
    layout_product,
    layout_sum,
    reciprocal,
    sparse_product,
)
from twocubes.forms import (
    EXACT,
    FLOAT,
    BinaryForm,
    LinearChange,
    form_compose,
    form_divexact,
    form_gcd,
    lift,
    multiplicity_structure,
    norm2,
    relative_residual,
    _quadratic_cube,
)
from twocubes.roots import linear_factors

from typing_rule import off_rule

F = Fraction


def ex(*coeffs):
    return BinaryForm.exact(len(coeffs) - 1, [F(c) if isinstance(c, int) else c for c in coeffs])


def test_mul_difference_of_squares():
    f = ex(1, 0, 1)   # x^2 + y^2
    g = ex(1, 0, -1)  # x^2 - y^2
    assert (f * g).coeffs == (F(1), F(0), F(0), F(0), F(-1))


def test_cubic_sum_identity():
    # (x^2 + xy - y^2)^3 + (x^2 - xy - y^2)^3 = 2x^6 - 2y^6
    a = ex(1, 1, -1) ** 3
    b = ex(1, -1, -1) ** 3
    assert (a + b).equals(ex(2, 0, 0, 0, 0, 0, -2))


def test_pow_matches_repeated_products():
    for base in (ex(1, -2, 3), BinaryForm.floating(2, [1 + 2j, -0.5, 3j])):
        assert (base ** 0).coeffs == (base.kernel.one,)
        prod = base
        for n in range(1, 8):
            assert (base ** n).equals(prod)
            prod = prod * base
        # a cube equals base * base**2: bit for bit in floats, in value exactly
        assert (base ** 3).coeffs == (base * (base * base)).coeffs


def test_kernel_scalar_protocol():
    assert EXACT.exact and not FLOAT.exact
    assert EXACT.inv(3) == F(1, 3) and isinstance(EXACT.inv(3), F)
    assert EXACT.inv(OMEGA) * OMEGA == CycNum.one()
    assert EXACT.inv is reciprocal  # the package's one scalar inverse rule
    assert EXACT.div(F(1), F(4)) == F(1, 4) and FLOAT.div(1.0, 4.0) == 0.25
    assert EXACT.is_zero(OMEGA - OMEGA, [1.0], 1) and not EXACT.is_zero(F(1, 10 ** 30), [F(1)], 9)
    assert FLOAT.is_zero(1e-10, [1.0], 1) and not FLOAT.is_zero(1e-8, [1.0], 1)
    # the scale is the largest term to the value's degree, with no floor at 1
    assert FLOAT.is_zero(1e-19, [1e-5], 2) and not FLOAT.is_zero(1e-18, [1e-5], 2)
    assert FLOAT.is_zero(1e-19, [1e-5, -3e-6j], 2) and not FLOAT.is_zero(1e-18, [3e-6j, 1e-5], 2)
    assert FLOAT.is_zero(1e5, [1e5], 3) and not FLOAT.is_zero(1e7, [1e5], 3)
    assert not FLOAT.is_zero(float("nan"), [1.0], 1) and FLOAT.is_zero(0j, [0j], 2)
    assert FLOAT.coerce(F(1, 2)) == 0.5 + 0j and FLOAT.coerce(OMEGA) == OMEGA.to_complex()
    assert FLOAT.coerce(F(0)) == 0j and FLOAT.coerce(CycNum.zero()) == 0j
    # a nonzero exact scalar is never promoted to 0.0, and the error does
    # not print its digits
    for tiny in (F(1, 10 ** 400), CycNum.from_rational(F(-3, 10 ** 400)), OMEGA * F(1, 10 ** 400)):
        with pytest.raises(ValueError, match="underflows") as caught:
            FLOAT.coerce(tiny)
        assert len(str(caught.value)) < 100
    assert LinearChange(1.0, 0.0, 0.0, 1e-20, FLOAT).det() == 1e-20
    with pytest.raises(ValueError, match="singular"):
        LinearChange(1.0, 0.0, 0.0, 1e-20, FLOAT).check_invertible()


def test_float_form_is_its_own_float_form_and_reprs_name_the_kernel():
    f = BinaryForm.floating(2, [1, 2j, 3])
    assert f.to_float() is f
    assert "0x" not in repr(f) and repr(f).endswith("kernel=FLOAT)")
    g = BinaryForm.exact(1, [1, F(1, 2)])
    assert repr(g).endswith("kernel=EXACT)") and g.to_float() == BinaryForm.floating(1, [1, 0.5])


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        ex(1, 0) + ex(1, 0, 0)


def test_zero_times_form_keeps_degree_sum():
    z = BinaryForm.zero(2)
    f = ex(1, 2, 3)
    assert (z * f).degree == 4
    assert (z * f).is_zero()


def test_compose_basic():
    f = ex(1, 0, 1)
    m = LinearChange(F(1), F(1), F(1), F(-1))
    assert form_compose(f, m).equals(ex(2, 0, 2))


def test_compose_scaling_law():
    # delta = alpha, beta = gamma = 0 scales a degree-d form by alpha^d
    f = ex(3, -1, 4, 1)
    m = LinearChange(F(2), F(0), F(0), F(2))
    assert form_compose(f, m).equals(f.scale(F(8)))


def test_compose_inverse_roundtrip():
    f = ex(1, -2, 0, 5, 1, 0, -3)
    m = LinearChange(F(2), F(1), F(-1), F(3))
    back = form_compose(form_compose(f, m), m.inverse())
    assert back.equals(f)


def test_compose_a15_halving():
    # x^6 + y^6 under (x+y, x-y) is twice the t=15 diagonal sextic
    a0 = ex(1, 0, 0, 0, 0, 0, 1)
    a15 = ex(1, 0, 15, 0, 15, 0, 1)
    m = LinearChange(F(1), F(1), F(1), F(-1))
    assert form_compose(a0, m).equals(a15.scale(F(2)))


def test_compose_bizarre_change_lands_on_xy_form():
    # sixth-power form with t = 5*sqrt(-2) maps onto the xy(x^4-y^4) orbit
    from twocubes.exact import SQRT2

    t = 5 * IMAG * SQRT2
    b = BinaryForm.exact(6, [CycNum.one(), CycNum.zero(), CycNum.zero(), t, CycNum.zero(), CycNum.zero(), CycNum.one()])
    m = LinearChange(ZETA8**2 * ETA, ZETA8, CycNum.one(), ZETA8**3 * ETA)
    q2 = BinaryForm.exact(6, [F(0), F(1), F(0), F(0), F(0), F(-1), F(0)])
    lhs = form_compose(b, m)
    rhs = q2.scale(54 * ZETA8**3 * ETA**3)
    assert lhs.equals(rhs)


def test_compose_associativity_float():
    f = BinaryForm.floating(4, [0.3 - 1j, 2.0, -0.5j, 1.1, 0.25])
    m = LinearChange(1.0 + 0.5j, -0.3, 0.2j, 1.5, FLOAT)
    n = LinearChange(0.4, 1.0, -1.2, 0.7 + 0.1j, FLOAT)
    once = form_compose(f, m.then(n))
    twice = form_compose(form_compose(f, m), n)
    scale = max(once.max_magnitude(), twice.max_magnitude())
    assert all(abs(a - b) <= 1e-10 * scale for a, b in zip(once.coeffs, twice.coeffs))


def test_gcd_shared_linear_factor():
    f = ex(1, 0, -1)      # (x-y)(x+y)
    g = ex(1, 2, 1)       # (x+y)^2
    d = form_gcd(f, g)
    assert d.degree == 1
    assert d.proportional_to(ex(1, 1))


def test_gcd_coprime():
    assert form_gcd(ex(1, 0, 0), ex(0, 0, 1)).degree == 0


def test_form_gcd_rejects_a_float_form():
    # a float form's common factors are those of roots.linear_factors
    f, g = BinaryForm.floating(2, [1, 0, -1]), BinaryForm.floating(2, [1, 2, 1])
    for pair in ((f, g), (f, ex(1, 2, 1)), (ex(1, 0, -1), g)):
        with pytest.raises(TypeError, match="exact kernel"):
            form_gcd(*pair)


def test_gcd_with_y_factors():
    f = ex(0, 1, 0, 0)    # x^2 y
    g = ex(0, 0, 1, 0)    # x y^2
    d = form_gcd(f, g)
    assert d.degree == 2
    assert d.proportional_to(ex(0, 1, 0))


def test_divexact():
    f = ex(1, 2, 1)
    q = form_divexact(f, ex(1, 1))
    assert q.equals(ex(1, 1))
    with pytest.raises(ValueError):
        form_divexact(ex(1, 0, 1), ex(1, 1))


def test_divexact_of_a_zero_numerator_is_the_zero_form():
    # 0 = 0 * (x + y): the quotient has degree deg f - deg g
    for f, degree in ((ex(0, 0, 0), 1), (ex(0, 0, 0, 0), 2), (ex(0, 0), 0)):
        q = form_divexact(f, ex(1, 1))
        assert q.degree == degree and q.is_zero()
    # as in RationalFunction, a zero numerator of lower degree gives degree 0
    assert form_divexact(ex(0), ex(1, 1)) == BinaryForm.zero(0)


@pytest.mark.parametrize("f", [ex(1, 2, 1), ex(0, 0, 0), ex(0)], ids=["nonzero", "zero", "zero-constant"])
def test_divexact_by_the_zero_form_raises_zero_division(f):
    for g in (ex(0, 0), ex(0), ex(0, 0, 0)):
        with pytest.raises(ZeroDivisionError):
            form_divexact(f, g)


def test_divexact_over_a_parameter_ring_divides_each_term_by_the_lead():
    # a ParamPoly lead has no inverse: it divides each quotient term exactly
    t = ParamPoly.variable("t")
    g, q = BinaryForm.exact(1, [t, 1]), BinaryForm.exact(1, [1, t + 1])
    assert form_divexact(g * q, g).coeffs == q.coeffs
    # t does not divide the lead 1 of x^2 + y^2
    with pytest.raises(ValueError, match=r"does not divide \(lead\)"):
        form_divexact(ex(1, 0, 1), g)
    # t x^2 + t xy + y^2 = x (t x + t y) + y^2 leaves the remainder y^2
    with pytest.raises(ValueError, match=r"does not divide \(remainder\)"):
        form_divexact(BinaryForm.exact(2, [t, t, 1]), BinaryForm.exact(1, [t, t]))


def test_gcd_over_a_parameter_ring_returns_only_when_each_lead_divides():
    t = ParamPoly.variable("t")
    common = BinaryForm.exact(1, [t, 1])
    d = form_gcd(common * ex(1, 1), common * ex(1, -1))
    assert form_divexact(d, common).degree == 0
    # x^2 + y^2 by t x + y: t does not divide the lead 1
    with pytest.raises(ArithmeticError):
        form_gcd(ex(1, 0, 1), common)


def _reference_divide(num, den):
    """The second exact form division this package once had, kept as an
    oracle: dense division of the dehomogenized polynomials in t = y/x,
    pivoting on den's last nonzero coefficient."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero form")
    if num.is_zero():
        return BinaryForm.zero(0) if num.degree < den.degree else BinaryForm.zero(num.degree - den.degree)
    qdeg = num.degree - den.degree
    if qdeg < 0:
        raise ValueError("form quotient is not polynomial")
    n = list(num.coeffs)
    d = list(den.coeffs)
    dtop = max(i for i, c in enumerate(d) if not EXACT.is_zero(c))
    lead_inv = EXACT.inv(d[dtop])
    quot = [EXACT.zero] * (qdeg + 1)
    for i in range(len(n) - 1, dtop - 1, -1):
        if EXACT.is_zero(n[i]):
            continue
        k = i - dtop
        if k > qdeg:
            raise ValueError("form quotient is not polynomial")
        c = n[i] * lead_inv
        quot[k] = c
        for j, dj in enumerate(d):
            n[k + j] = n[k + j] - c * dj
    if not all(EXACT.is_zero(c) for c in n):
        raise ValueError("form quotient is not polynomial")
    return BinaryForm.exact(qdeg, quot)


def _division_pairs(count, seed):
    """Nonzero (num, den) pairs of small exact forms: half are den times a
    cofactor, half are drawn freely, so both outcomes are common."""
    rng = random.Random(seed)
    pool = [F(0), F(0), F(1), F(-2), F(3, 2), OMEGA, IMAG + F(1), CycNum.from_rational(F(-1, 3))]

    def form(degree):
        return BinaryForm.exact(degree, [rng.choice(pool) for _ in range(degree + 1)])

    while count:
        den = form(rng.randint(0, 3))
        num = den * form(rng.randint(0, 3)) if rng.random() < 0.5 else form(rng.randint(0, 5))
        if not (num.is_zero() or den.is_zero()):
            count -= 1
            yield num, den


def test_divexact_matches_the_reference_division():
    outcomes = {"quotient": 0, "raises": 0}
    for num, den in _division_pairs(5000, 1):
        try:
            want = _reference_divide(num, den)
        except ValueError:
            with pytest.raises(ValueError):
                form_divexact(num, den)
            outcomes["raises"] += 1
            continue
        got = form_divexact(num, den)
        assert got.degree == want.degree and got.coeffs == want.coeffs
        outcomes["quotient"] += 1
    assert min(outcomes.values()) >= 1000, outcomes


def test_multiplicity_structure_exact():
    assert multiplicity_structure(ex(1, 0, 1) ** 3) == [3, 3]
    assert multiplicity_structure(ex(0, 1, 0, 0, 0, -1, 0)) == [1, 1, 1, 1, 1, 1]
    a_minus1 = ex(1, 0, -1, 0, -1, 0, 1)
    assert multiplicity_structure(a_minus1) == [2, 2, 1, 1]


def test_multiplicity_structure_pure_y_power():
    assert multiplicity_structure(ex(0, 0, 0, 1)) == [3]


def test_multiplicity_structure_float_agrees():
    for coeffs in [(1, 0, 1), (1, 0, -1, 0, -1, 0, 1), (0, 1, 0, 0, 0, -1, 0)]:
        f = ex(*coeffs)
        _, roots = linear_factors(f.to_float())
        assert sorted([r.multiplicity for r in roots], reverse=True) == multiplicity_structure(f)


def test_multiplicity_structure_rejects_a_float_form():
    with pytest.raises(TypeError):
        multiplicity_structure(ex(1, 0, 1).to_float())


def _iterated_derivative(coeffs, order):
    # the root finder's former derivative of a coefficient list
    out = list(coeffs)
    for _ in range(order):
        n = len(out) - 1
        out = [out[i] * (n - i) for i in range(n)]
    return out


def _form_derivative_x(coeffs):
    # the former derivative in x of the form with these coefficients
    d = len(coeffs) - 1
    return [coeffs[k] * (d - k) for k in range(d)]


@pytest.mark.parametrize("coeffs", [
    [3, 0, -5, 7, 1, 0, -2],
    [F(1, 2), F(-7, 3), 0, F(5, 4), F(9)],
    [OMEGA, 0, ETA / 3, F(2), IMAG - 1, 0, ZETA8],
    [ParamPoly("t", (1, 2)), 0, ParamPoly("t", (F(1, 3), 0, OMEGA)), 5],
    [1.5 - 2j, 0j, 3e-7 + 1j, -4.25, 2j, 1e6],
], ids=["int", "Fraction", "CycNum", "ParamPoly", "complex"])
def test_derivative_matches_both_former_formulas(coeffs):
    first = forms.derivative(coeffs)
    assert first == _form_derivative_x(coeffs)
    assert [type(c) for c in first] == [type(c) for c in _form_derivative_x(coeffs)]
    for order in range(len(coeffs) + 1):
        got, want = forms.derivative(coeffs, order), _iterated_derivative(coeffs, order)
        assert got == want and [type(c) for c in got] == [type(c) for c in want]


# the first two were labelled EXACT once: [1.5, 2j] times x gave an EXACT
# form with float coefficients, and [1.5, 0] over x + 2y built a
# RationalFunction
@pytest.mark.parametrize("coeffs", [[1.5, 2j], [1.5, 0], [F(1), 0.0], [OMEGA, 1j]],
                         ids=["float-complex", "float", "float-zero", "cyclotomic-complex"])
def test_exact_form_refuses_float_and_complex_coefficients(coeffs):
    with pytest.raises(TypeError, match="no float or complex coefficient"):
        BinaryForm.exact(1, coeffs)


@pytest.mark.parametrize("value, kernel", [
    (3, EXACT), (F(1, 2), EXACT), (OMEGA, EXACT), (ParamPoly.variable("t"), EXACT),
    (RationalFunction(ex(1, 0)), EXACT), (0.5, FLOAT), (1 - 2j, FLOAT),
], ids=["int", "Fraction", "CycNum", "ParamPoly", "RationalFunction", "float", "complex"])
def test_lift_picks_the_kernel_of_one_input(value, kernel):
    values, got = lift([value])
    assert got is kernel
    if kernel.exact:
        assert values[0] is value
    else:
        assert values == [complex(value)] and type(values[0]) is complex


def test_lift_coerces_every_value_when_one_is_float():
    values, kernel = lift([F(1, 2), OMEGA, 2, 1j])
    assert kernel is FLOAT
    assert values == [0.5 + 0j, OMEGA.to_complex(), 2 + 0j, 1j]
    assert all(type(v) is complex for v in values)
    with pytest.raises(TypeError):
        lift([ParamPoly.variable("t"), 1.0])


def test_float_equality_relative():
    f = BinaryForm.floating(2, [1e6, 0, 1])
    g = BinaryForm.floating(2, [1e6 + 1e-4, 0, 1])
    assert f.equals(g)
    h = BinaryForm.floating(2, [1e6 + 1, 0, 1])
    assert not f.equals(h)


def test_norm2_is_overflow_and_underflow_safe():
    assert norm2([3, 4j]) == 5.0
    assert norm2([]) == 0.0
    assert norm2([3e200, 4e200j]) == pytest.approx(5e200)
    assert norm2([3e-200j, 4e-200]) == pytest.approx(5e-200)


def test_relative_residual_floors_a_zero_want():
    # a zero want divides by UNDERFLOW_FLOOR, not by zero
    assert relative_residual([0, 0j, 0.0], [0, 0j, 0.0]) == 0.0
    assert relative_residual([forms.UNDERFLOW_FLOOR, 0], [0, 0]) == 1.0
    assert relative_residual([3, 4j], [0, 0]) == 5.0 / forms.UNDERFLOW_FLOOR
    assert relative_residual([F(1, 2), 0], [0, F(0)]) == 0.5 / forms.UNDERFLOW_FLOOR


@pytest.mark.parametrize("k", [-600, -53, 1, 60, 500])
def test_relative_residual_is_bit_identical_under_power_of_two_scaling(k):
    # scaling both sides by 2^k scales every difference and both 2-norms
    # exactly, so the ratio keeps every bit while no value leaves the
    # normal float range
    rng = random.Random(3400 + k)
    s = 2.0 ** k
    for _ in range(50):
        want = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(7)]
        got = [w + complex(rng.gauss(0, 1e-9), rng.gauss(0, 1e-9)) for w in want]
        assert relative_residual([s * c for c in got], [s * c for c in want]) == relative_residual(got, want)


def test_proportionality():
    assert ex(1, 2, 3).proportional_to(ex(2, 4, 6))
    assert not ex(1, 2, 3).proportional_to(ex(2, 4, 7))


def test_singular_change_rejected():
    with pytest.raises(ValueError):
        form_compose(ex(1, 0, 1), LinearChange(F(1), F(2), F(2), F(4)))


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
       st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3))
def test_gcd_divides_both(fc, gc):
    f, g = ex(*fc), ex(*gc)
    if f.is_zero() or g.is_zero():
        return
    d = form_gcd(f, g)
    for h in (f, g):
        q = form_divexact(h, d)
        assert (q * d).proportional_to(h)


# -- the cube of an exact quadratic -------------------------------------------

def _rational(rng):
    return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _cycnum(rng):
    return CycNum([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8)])


def _scalar(rng):
    return rng.choice([_rational, _cycnum])(rng)


def _param(rng, name, coefficient):
    return ParamPoly(name, tuple([coefficient(rng) for _ in range(rng.randint(1, 3))]))


_RINGS = {
    "int": lambda rng: rng.choice([-1, 1]) * rng.randint(1, 9),
    "Fraction": _rational,
    "CycNum": _cycnum,
    "mixed": _scalar,
    "ParamPoly": lambda rng: _param(rng, "t", _scalar),
    # the root parameter is the lexicographically smaller one
    "nested ParamPoly": lambda rng: _param(rng, "s", lambda r: _param(r, "t", _rational)),
    # the identity suite's u = sqrt(1 - d^6): "U" over Q(zeta24)[d]
    "U over d": lambda rng: _param(rng, "U", lambda r: _param(r, "d", _scalar)),
}


def _nonzero(rng, draw):
    while True:
        v = draw(rng)
        if v:
            return v


def _reached_slots(coeffs):
    """The slots of (a, b, c)**3 that a monomial a^i b^j c^l with nonzero
    factors reaches: slot j + 2l."""
    return {j + 2 * (3 - i - j) for i in range(4) for j in range(4 - i)
            if (coeffs[0] or not i) and (coeffs[1] or not j) and (coeffs[2] or i + j == 3)}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_RINGS)), st.lists(st.booleans(), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=2 ** 32))
def test_exact_quadratic_cube_matches_product(ring, zeros, seed):
    rng = random.Random(seed)
    coeffs = [EXACT.zero if zero else _nonzero(rng, _RINGS[ring]) for zero in zeros]
    f = BinaryForm.exact(2, coeffs)
    cube = f ** 3
    assert cube.degree == 6 and cube.kernel is EXACT
    assert all(got == want for got, want in zip(cube.coeffs, (f * (f * f)).coeffs))
    reached = _reached_slots(coeffs)
    for k, c in enumerate(cube.coeffs):
        if k not in reached:
            assert c is EXACT.zero


# -- exact products on the scalar loops --------------------------------------

def _same_slots(got, want):
    """Slot by slot: the same type and value, a CycNum stored identically,
    and a slot that no product reaches is EXACT.zero itself."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and g == w, (g, w)
        if isinstance(w, CycNum):
            assert (g.num, g.den) == (w.num, w.den)
        if w is EXACT.zero:
            assert g is EXACT.zero


def _same_values(got, want):
    """Slot by slot: the values of the scalar loops, a CycNum of theirs stored
    identically when the layout path also gives a CycNum, each typed by its
    value."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (g, w)
        if isinstance(g, CycNum) and isinstance(w, CycNum):
            assert (g.num, g.den) == (w.num, w.den)
    assert off_rule(got) == []


def _exact_form(rng, ring, zeros):
    return BinaryForm.exact(len(zeros) - 1, [EXACT.zero if zero else _nonzero(rng, _RINGS[ring]) for zero in zeros])


_ZEROS = st.integers(min_value=0, max_value=6).flatmap(
    lambda degree: st.lists(st.booleans(), min_size=degree + 1, max_size=degree + 1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_RINGS)), st.sampled_from(sorted(_RINGS)), _ZEROS, _ZEROS,
       st.integers(min_value=0, max_value=2 ** 32))
def test_exact_product_and_cube_match_the_scalar_loops(ring_f, ring_g, zeros_f, zeros_g, seed):
    rng = random.Random(seed)
    f, g = _exact_form(rng, ring_f, zeros_f), _exact_form(rng, ring_g, zeros_g)
    product = f * g
    assert product.degree == f.degree + g.degree and product.kernel is EXACT
    _same_slots(product.coeffs, sparse_product(f.coeffs, g.coeffs, EXACT.zero))
    if f.degree == 2:
        cube = f ** 3
        assert cube.degree == 6 and cube.kernel is EXACT
        _same_slots(cube.coeffs, _quadratic_cube(*f.coeffs, EXACT.zero))
    # a form carries nothing but its fields
    assert all(vars(h).keys() == {"degree", "coeffs", "kernel"} for h in (f, g, product))


def test_exact_products_keep_cancelling_and_rational_values():
    # (x + wy)(x - wy) = x^2 - w^2 y^2: the middle slot is reached and cancels
    f, g = BinaryForm.exact(1, [1, OMEGA]), BinaryForm.exact(1, [1, -OMEGA])
    assert (f * g).coeffs == (1, 0, -OMEGA ** 2)
    # (wx + y)(2x + 3y): the y^2 slot takes only the int products 1 * 3
    product = BinaryForm.exact(1, [OMEGA, 1]) * BinaryForm.exact(1, [2, 3])
    assert product.coeffs == (2 * OMEGA, 3 * OMEGA + 2, 3)
    # w * w^2 = 1: a product of two CycNums with a rational value
    product = BinaryForm.exact(0, [OMEGA]) * BinaryForm.exact(1, [OMEGA ** 2, OMEGA])
    assert product.coeffs == (1, OMEGA ** 2)
    # (x^2 + 2i xy + 2y^2)^2 has a middle slot 2ac + b^2 = 0
    q = BinaryForm.exact(2, [1, 2 * IMAG, F(2)])
    assert (q * q).coeffs[2] == 0
    assert (q ** 3).coeffs == (q * (q * q)).coeffs


def test_a_form_with_a_cycnum_and_a_parampoly_takes_the_scalar_loops():
    mixed = BinaryForm.exact(2, [OMEGA, ParamPoly.variable("t"), 1])
    _same_slots((mixed * mixed).coeffs, sparse_product(mixed.coeffs, mixed.coeffs, EXACT.zero))
    _same_slots((mixed ** 3).coeffs, _quadratic_cube(*mixed.coeffs, EXACT.zero))


def test_sums_differences_and_products_refuse_two_kernels():
    ex_form, float_form = BinaryForm.exact(1, [1, 2]), BinaryForm.floating(1, [1.5, 2])
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((ex_form, float_form), (float_form, ex_form)):
            with pytest.raises(TypeError, match="kernel mismatch"):
                op(left, right)


def test_equality_and_proportionality_refuse_two_kernels():
    # the exact form tested exactly against floats said False, the float
    # form tested at its tolerance said True
    e, f = BinaryForm.exact(1, [1, 2]), BinaryForm.floating(1, [1 + 1e-15, 2])
    for left, right in ((e, f), (f, e)):
        with pytest.raises(TypeError, match="kernel mismatch"):
            left.equals(right)
        with pytest.raises(TypeError, match="kernel mismatch"):
            left.proportional_to(right)
    assert f.equals(e.to_float()) and e.to_float().proportional_to(f)


def _hex(coeffs):
    return [(c.real.hex(), c.imag.hex()) for c in coeffs]


def test_compose_takes_the_kernel_of_the_form_and_the_change():
    f = BinaryForm.exact(2, [1, 0, 1])
    # a float entry makes the call FLOAT, whatever the change is labelled
    for change in (LinearChange(1.5, 0, 0, 1), LinearChange(1.5, 0, 0, 1, FLOAT)):
        got = form_compose(f, change)
        assert got.kernel is FLOAT and got.coeffs == (2.25, 0, 1)
        assert all(type(c) is complex for c in got.coeffs)
    # the invertibility check runs on that kernel too
    with pytest.raises(ValueError, match="singular"):
        form_compose(f, LinearChange(1, 1, 1, 1 + 1e-12))
    # an exact form under an exact change keeps its values and types
    change = LinearChange(F(3, 2), 2, OMEGA, 1)
    want = f.substituted(BinaryForm.exact(1, (change.alpha, change.beta)),
                         BinaryForm.exact(1, (change.gamma, change.delta)))
    got = form_compose(f, change)
    assert got.kernel is EXACT and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert got.coeffs == want.coeffs
    # a float form under an exact change keeps its bits
    g = BinaryForm.floating(2, [1.1 + 0.3j, -2.7, 0.9j])
    change = LinearChange(F(3, 2), 2, -1, F(1, 3))
    want = g.substituted(BinaryForm(1, (change.alpha, change.beta), FLOAT),
                         BinaryForm(1, (change.gamma, change.delta), FLOAT))
    got = form_compose(g, change)
    assert got.kernel is FLOAT and _hex(got.coeffs) == _hex(want.coeffs)



def test_a_near_singular_float_change_is_refused_as_compose_refuses_it():
    # det = 1e-15 against entries of 1: zero on the float kernel, although
    # not exactly zero, whatever the change is labelled
    for m in (LinearChange(1.0, 1.0, 1.0, 1.0 + 1e-15), LinearChange(1.0, 1.0, 1.0, 1.0 + 1e-15, EXACT)):
        for call in (m.check_invertible, m.inverse, lambda: m.then(LinearChange(1, 0, 0, 1)),
                     lambda: form_compose(BinaryForm.floating(1, [1, 0]), m)):
            with pytest.raises(ValueError, match="singular"):
                call()


def test_inverse_and_then_carry_the_kernel_of_their_entries():
    m = LinearChange(1.5, 0, 0, 1)
    for got in (m.inverse(), m.then(LinearChange(1, 2, 0, 1)), LinearChange(1, 2, 0, 1).then(m)):
        assert got.kernel is FLOAT
        assert all(type(v) is complex for v in (got.alpha, got.beta, got.gamma, got.delta))
    assert m.inverse().alpha == 1 / 1.5 and m.check_invertible().kernel is FLOAT
    exact = LinearChange(F(2), 1, OMEGA, 1)
    for got in (exact.inverse(), exact.then(exact)):
        assert got.kernel is EXACT and not any(isinstance(v, complex) for v in (got.alpha, got.delta))
    assert exact.then(exact.inverse()) == LinearChange(1, 0, 0, 1)


def test_scale_lifts_its_scalar_with_the_form():
    f = BinaryForm.exact(2, [1, 2, 3])
    for s in (1.5, 2j):
        with pytest.raises(TypeError, match="scale"):
            f.scale(s)
    assert f.scale(OMEGA).kernel is EXACT and f.scale(OMEGA).coeffs == (OMEGA, 2 * OMEGA, 3 * OMEGA)
    g = BinaryForm.floating(2, [1, 0, 1]).scale(OMEGA)
    w = OMEGA.to_complex()
    assert g.kernel is FLOAT and g.coeffs == (w, 0, w) and all(type(c) is complex for c in g.coeffs)
    assert _hex(BinaryForm.floating(1, [0.3, 1j]).scale(F(1, 3)).coeffs) == _hex([0.3 * (1 / 3), 1j * (1 / 3)])


def test_floating_and_to_float_coerce_one_way():
    values = [3, F(1, 3), OMEGA, F(-7, 10 ** 300), IMAG * F(2, 7)]
    f, g = BinaryForm.floating(4, values), BinaryForm.exact(4, values).to_float()
    assert f == g and _hex(f.coeffs) == _hex(g.coeffs) and f.kernel is FLOAT
    assert BinaryForm.floating(1, [0.5, 2j]).coeffs == (0.5, 2j)
    tiny = [1, F(1, 10 ** 400)]
    for make in (lambda: BinaryForm.floating(1, tiny), lambda: BinaryForm.exact(1, tiny).to_float()):
        with pytest.raises(ValueError, match="underflows"):
            make()


def test_a_form_names_its_kernel():
    with pytest.raises(TypeError):
        BinaryForm(2, (1.5, 0.0, 1.0))
    assert BinaryForm.lifted(2, [1.5, 0, 1]) == BinaryForm.floating(2, [1.5, 0, 1])
    assert BinaryForm.lifted(1, [F(1, 2), OMEGA]) == BinaryForm(1, (F(1, 2), OMEGA), EXACT)


def test_evaluate_runs_horner_in_x():
    f = ex(1, 2, 3)
    assert f.evaluate(F(1, 2), 2) == F(1, 4) + 2 + 12 and f.evaluate(2, 0) == 4
    t = ParamPoly.variable("t")
    assert BinaryForm.exact(1, [t, 1]).evaluate(2, 3) == 2 * t + 3

# -- layout arithmetic against the scalar loops ---------------------------------

def _layouts(*forms_):
    """The layouts of the forms, or None when a coefficient is outside
    int, Fraction and CycNum, which happens only for a ParamPoly ring."""
    layouts = [cyclotomic_layout(f.coeffs) for f in forms_]
    if any(layout is None for layout in layouts):
        assert any(isinstance(c, ParamPoly) for f in forms_ for c in f.coeffs)
        return None
    return layouts


def _layout_quotient(f, g):
    lf, lg = _layouts(f, g)
    return layout_divexact(lf, lg, layout_lead_inverse(lg))


def _same_division(f, g):
    """The layout division of f by g returns what form_divexact returns, or
    raises what it raises, with the same message."""
    try:
        want = form_divexact(f, g)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            _layout_quotient(f, g)
        assert str(got.value) == str(exc)
        return type(exc)
    _same_values(_layout_quotient(f, g), want.coeffs)
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_RINGS)), st.sampled_from(sorted(_RINGS)), _ZEROS,
       st.integers(min_value=0, max_value=2 ** 32))
def test_layout_sum_difference_product_cube_and_zero_test_match_the_scalar_loops(ring_f, ring_g, zeros, seed):
    rng = random.Random(seed)
    f, g = _exact_form(rng, ring_f, zeros), _exact_form(rng, ring_g, zeros)
    layouts = _layouts(f, g)
    if layouts is None:
        return
    lf, lg = layouts

    def coefficients(layout):
        return layout_coefficients(layout)

    _same_values(coefficients(lf), f.coeffs)
    _same_values(coefficients(layout_sum(lf, lg)), (f + g).coeffs)
    _same_values(coefficients(layout_difference(lf, lg)), (f - g).coeffs)
    # every slot cancels, so each is EXACT.zero itself
    _same_values(coefficients(layout_difference(lf, lf)), (f - f).coeffs)
    _same_values(coefficients(layout_product(lf, lg)), sparse_product(f.coeffs, g.coeffs, EXACT.zero))
    if f.degree == 2:
        _same_values(coefficients(layout_cube(lf)), _quadratic_cube(*f.coeffs, EXACT.zero))
    assert layout_is_zero(layout_difference(lf, lf))
    assert layout_is_zero(lf) == f.is_zero()
    assert layout_is_zero(layout_sum(lf, lg)) == (f + g).is_zero()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_RINGS)), st.sampled_from(sorted(_RINGS)), _ZEROS, _ZEROS,
       st.sampled_from(["divides", "remainder", "zero numerator"]),
       st.integers(min_value=0, max_value=2 ** 32))
def test_layout_division_matches_form_divexact(ring_q, ring_g, zeros_q, zeros_g, case, seed):
    # leading zeros of g are a y-power of the divisor
    rng = random.Random(seed)
    q, g = _exact_form(rng, ring_q, zeros_q), _exact_form(rng, ring_g, zeros_g)
    f = q * g
    if case == "remainder":
        f = f + _exact_form(rng, ring_q, [False] * (f.degree + 1))
    elif case == "zero numerator":
        f = BinaryForm.zero(f.degree)
    if _layouts(f, g) is None:
        return
    _same_division(f, g)


def test_layout_division_matches_form_divexact_on_the_reference_pairs():
    outcomes = {None: 0, ValueError: 0}
    for num, den in _division_pairs(2000, 2):
        outcomes[_same_division(num, den)] += 1
    assert min(outcomes.values()) >= 400, outcomes


def test_layout_division_edge_cases_match_form_divexact():
    x2y = ex(0, 1, 0)                      # x y
    cases = [
        (ex(1, 2, 1).scale(OMEGA), ex(1, 1)),   # divides, CycNum quotient
        (ex(0, 1, OMEGA), ex(0, 1)),            # y-power divisor of a y-power numerator
        (ex(0, 0, 1, 1), x2y),                  # divisor y-power within the numerator's
        (ex(1, 1, 0), x2y),                     # y-multiplicity
        (ex(1, 0, 1), ex(1, 1)),                # nonzero remainder
        (ex(1, 1), ex(1, 0, 1)),                # degree
        (ex(0, 0, 0), ex(1, 1)),                # zero numerator
        (ex(0), ex(1, 1)),                      # zero numerator of lower degree
        (ex(1, 2, 1), ex(0, 0)),                # zero divisor
        # x(x + y) / (x + 0y) with a CycNum 0, where form_divexact's long
        # division gives x + y a CycNum coefficient
        (ex(1, 1, 0), BinaryForm.exact(1, [F(1), CycNum.zero()])),
    ]
    raised = {_same_division(f, g) for f, g in cases}
    assert raised == {None, ValueError, ZeroDivisionError}
    assert _layout_quotient(*cases[-1]) == (1, 1)
    assert type(_layout_quotient(*cases[-1])[1]) is Fraction
    # w x^2 / (w x) = x: a CycNum lead whose quotient is rational
    got = _layout_quotient(BinaryForm.exact(2, [OMEGA, 0, 0]), BinaryForm.exact(1, [OMEGA, 0]))
    assert got == (1, 0) and type(got[0]) is Fraction and got[1] is EXACT.zero


def test_layout_sums_type_each_coefficient_by_its_value():
    def layout_sum_of(f, g):
        lf, lg = _layouts(f, g)
        got = layout_coefficients(layout_sum(lf, lg))
        _same_values(got, (f + g).coeffs)
        return got

    # a CycNum 0 plus a rational is a Fraction
    got = layout_sum_of(BinaryForm.exact(1, [CycNum.zero(), F(1, 2)]), BinaryForm.exact(1, [F(3), 2]))
    assert got == (3, F(5, 2)) and all(type(c) is Fraction for c in got)
    # w + (1 - w) is rational, w + (-w) is zero
    got = layout_sum_of(BinaryForm.exact(1, [OMEGA, OMEGA]), BinaryForm.exact(1, [1 - OMEGA, -OMEGA]))
    assert got[0] == 1 and type(got[0]) is Fraction and got[1] is EXACT.zero


# the rings of _RINGS whose forms have layouts: no ParamPoly coefficients
_LAYOUT_RINGS = ["CycNum", "Fraction", "int", "mixed"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_LAYOUT_RINGS), st.sampled_from(_LAYOUT_RINGS), _ZEROS, _ZEROS,
       st.integers(min_value=0, max_value=2 ** 32))
def test_layout_path_types_every_coefficient_by_its_value(ring_f, ring_g, zeros_f, zeros_g, seed):
    rng = random.Random(seed)
    f, g = _exact_form(rng, ring_f, zeros_f), _exact_form(rng, ring_g, zeros_g)
    # a coefficient times the CycNum 1 is a CycNum with a rational value
    if rng.random() < 0.5:
        f = BinaryForm.exact(f.degree, [c * CycNum.one() if rng.random() < 0.5 else c for c in f.coeffs])
    lf, lg = _layouts(f, g)
    product = layout_product(lf, lg)
    outputs = [layout_coefficients(lf), layout_coefficients(product)]
    if not g.is_zero():
        quotient = layout_divexact(product, lg, layout_lead_inverse(lg))
        assert quotient == f.coeffs
        outputs.append(quotient)
    for coeffs in outputs:
        assert off_rule(coeffs) == []


class _Counted:
    """An int that counts the ring products (both factors counted) and the
    small-integer scalings it takes part in."""

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __mul__(self, other):
        if isinstance(other, _Counted):
            self.tally["products"] += 1
            return _Counted(self.value * other.value, self.tally)
        self.tally["scalings"] += 1
        return _Counted(self.value * other, self.tally)

    __rmul__ = __mul__

    def __add__(self, other):
        return _Counted(self.value + (other.value if isinstance(other, _Counted) else other), self.tally)

    __radd__ = __add__

    def __bool__(self):
        return bool(self.value)


def _tally(build):
    tally = {"products": 0, "scalings": 0}
    build(lambda v: _Counted(v, tally))
    return tally


def test_exact_quadratic_cube_takes_fourteen_products():
    def cube(n):
        f = BinaryForm.exact(2, [n(2), n(-3), n(5)])
        assert [c.value for c in (f ** 3).coeffs] == [8, -36, 114, -207, 285, -225, 125]

    assert _tally(cube) == {"products": 14, "scalings": 5}
    assert _tally(lambda n: (lambda f: f * (f * f))(BinaryForm.exact(2, [n(2), n(-3), n(5)]))) == {
        "products": 24, "scalings": 0}


# -- float products and cubes against the dense loop ---------------------------

EPS = sys.float_info.epsilon


def _dense_product(f, g):
    """f * g by the dense double loop over all coefficient pairs, as float
    forms were multiplied before they shared the exact kernel's product."""
    out = [f.kernel.zero] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return BinaryForm(f.degree + g.degree, tuple(out), f.kernel)


def _absolute(f):
    return BinaryForm(f.degree, tuple([complex(abs(c)) for c in f.coeffs]), f.kernel)


def _float_form(rng, zeros):
    return BinaryForm.floating(len(zeros) - 1, [
        0j if zero else complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.randint(-3, 3)
        for zero in zeros])


def _assert_close_to_oracle(got, want, scale, reached):
    """got agrees with want to 8 eps of each slot's scale, the same slot of
    the oracle on absolute values, and a slot that no nonzero product
    reaches holds FLOAT.zero."""
    assert got.kernel is FLOAT and got.degree == want.degree
    for k, (c, w, s) in enumerate(zip(got.coeffs, want.coeffs, scale.coeffs)):
        assert abs(c - w) <= 8 * EPS * s.real, (k, c, w)
        if k not in reached:
            assert c is FLOAT.zero


_ZERO_PATTERNS = list(itertools.product((False, True), repeat=3))


@pytest.mark.parametrize("zeros", _ZERO_PATTERNS)
def test_float_product_matches_the_dense_loop(zeros):
    rng = random.Random(3100 + _ZERO_PATTERNS.index(zeros))
    for _ in range(20):
        f = _float_form(rng, zeros)
        g = _float_form(rng, [rng.random() < 0.3 for _ in range(rng.randint(1, 5))])
        reached = {i + j for i, a in enumerate(f.coeffs) if a for j, b in enumerate(g.coeffs) if b}
        _assert_close_to_oracle(f * g, _dense_product(f, g), _dense_product(_absolute(f), _absolute(g)),
                                reached)


@pytest.mark.parametrize("zeros", _ZERO_PATTERNS)
def test_float_quadratic_cube_matches_the_dense_loop(zeros):
    rng = random.Random(3200 + _ZERO_PATTERNS.index(zeros))
    for _ in range(20):
        f = _float_form(rng, zeros)
        a = _absolute(f)
        _assert_close_to_oracle(f ** 3, _dense_product(f, _dense_product(f, f)),
                                _dense_product(a, _dense_product(a, a)), _reached_slots(f.coeffs))


# -- composition: Horner against the running-powers expansion -------------------

def _expanded_substitution(f, fx, fy):
    """f(fx, fy) by the running powers fx**k and fy**k: each term
    c_k fx**(d-k) fy**k is expanded and summed, as forms did before Horner."""
    d, unit = f.degree, BinaryForm(0, (f.kernel.one,), f.kernel)
    xs, ys = [unit], [unit]
    for _ in range(d):
        xs.append(xs[-1] * fx)
        ys.append(ys[-1] * fy)
    out = BinaryForm.zero(d, f.kernel)
    for k, c in enumerate(f.coeffs):
        if c:
            out = out + (xs[d - k] * ys[k]).scale(c)
    return out


def _linear(change):
    return (BinaryForm(1, (change.alpha, change.beta), change.kernel),
            BinaryForm(1, (change.gamma, change.delta), change.kernel))


def _exact_scalar(rng):
    return rng.choice([lambda r: F(0), _rational, _rational, _cycnum])(rng)


def _exact_change(rng):
    while True:
        m = LinearChange(*[_exact_scalar(rng) for _ in range(4)])
        if m.det():
            return m


@pytest.mark.parametrize("degree", range(7))
def test_horner_composition_matches_expansion_exactly(degree):
    rng = random.Random(1500 + degree)
    for _ in range(12):
        f = BinaryForm.exact(degree, [_exact_scalar(rng) for _ in range(degree + 1)])
        m = _exact_change(rng)
        got = form_compose(f, m)
        want = _expanded_substitution(f, *_linear(m))
        assert got.degree == degree and got.coeffs == want.coeffs
    # formal parameters in the form and in the change
    t = ParamPoly.variable("t")
    f = BinaryForm.exact(degree, [t ** k + k for k in range(degree + 1)])
    m = LinearChange(t, F(1), OMEGA, 1 - t)
    assert form_compose(f, m).coeffs == _expanded_substitution(f, *_linear(m)).coeffs


@pytest.mark.parametrize("degree", range(7))
def test_horner_composition_matches_expansion_in_floats(degree):
    rng = random.Random(2500 + degree)
    for _ in range(12):
        f = BinaryForm.floating(degree, [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(degree + 1)])
        m = LinearChange(*[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)], FLOAT)
        got = form_compose(f, m)
        want = _expanded_substitution(f, *_linear(m))
        assert got.kernel is FLOAT and relative_residual(got.coeffs, want.coeffs) <= 1e-12


def test_horner_composition_takes_fewer_products():
    # positive scalars, so that no slot cancels and every product is made
    def compose(degree):
        def build(n):
            f = BinaryForm.exact(degree, [n(k + 1) for k in range(degree + 1)])
            return f.substituted(BinaryForm.exact(1, [n(2), n(3)]), BinaryForm.exact(1, [n(5), n(7)]))
        return build

    def expand(degree):
        def build(n):
            f = BinaryForm.exact(degree, [n(k + 1) for k in range(degree + 1)])
            return _expanded_substitution(f, BinaryForm.exact(1, [n(2), n(3)]), BinaryForm.exact(1, [n(5), n(7)]))
        return build

    # the expansion's products by the kernel's unit count as scalings
    for degree, horner, expansion in ((2, 15, 31), (6, 109, 217)):
        assert _tally(compose(degree)) == {"products": horner, "scalings": 0}
        assert sum(_tally(expand(degree)).values()) == expansion


@pytest.mark.parametrize("degree", range(7))
def test_compose_then_is_composition_exactly(degree):
    rng = random.Random(3500 + degree)
    for _ in range(6):
        f = BinaryForm.exact(degree, [_exact_scalar(rng) for _ in range(degree + 1)])
        m, n = _exact_change(rng), _exact_change(rng)
        once = form_compose(f, m.then(n))
        assert once.coeffs == form_compose(form_compose(f, m), n).coeffs
