import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twocubes.exact import IMAG, OMEGA, ZETA8, ETA, CycNum, ParamPoly
from twocubes.families import _SqrtExt
from twocubes.forms import (
    EXACT,
    FLOAT,
    BinaryForm,
    LinearChange,
    form_compose,
    form_divexact,
    form_gcd,
    multiplicity_structure,
    norm2,
    relative_residual,
)

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
    assert EXACT.div(F(1), F(4)) == F(1, 4) and FLOAT.div(1.0, 4.0) == 0.25
    assert EXACT.is_zero(OMEGA - OMEGA, 1.0) and not EXACT.is_zero(F(1, 10 ** 30))
    assert FLOAT.is_zero(1e-10) and not FLOAT.is_zero(1e-8)
    assert FLOAT.negligible(1e-13, 1.0) and not FLOAT.negligible(1e-11, 1.0)
    assert FLOAT.coerce(F(1, 2)) == 0.5 + 0j and FLOAT.coerce(OMEGA) == OMEGA.to_complex()
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
        assert multiplicity_structure(f.to_float()) == multiplicity_structure(f)


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


def _param(rng, name, coefficient):
    return ParamPoly(name, tuple([coefficient(rng) for _ in range(rng.randint(1, 3))]))


_RINGS = {
    "int": lambda rng: rng.choice([-1, 1]) * rng.randint(1, 9),
    "Fraction": _rational,
    "CycNum": _cycnum,
    "mixed": lambda rng: rng.choice([_rational, _cycnum])(rng),
    "ParamPoly": lambda rng: _param(rng, "t", lambda r: r.choice([_rational, _cycnum])(r)),
    # the root parameter is the lexicographically smaller one
    "nested ParamPoly": lambda rng: _param(rng, "s", lambda r: _param(r, "t", _rational)),
    "_SqrtExt": lambda rng: _SqrtExt(_param(rng, "d", _rational), _param(rng, "d", _cycnum)),
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
        assert got.kernel is FLOAT and relative_residual(got, want) <= 1e-12


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
