import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twocubes import exact
from twocubes.exact import (
    ETA,
    IMAG,
    OMEGA,
    SQRT2,
    SQRT3,
    SQRT6,
    SQRTM3,
    SQRTM6,
    ZETA8,
    ZETA12,
    ZETA24,
    CycNum,
    ParamPoly,
)
from twocubes.forms import BinaryForm


def close(z, w, tol=1e-12):
    return abs(z - w) <= tol


def test_minimal_polynomial_reduction():
    # z^4 * z^4 reduces to z^4 - 1
    z4 = ZETA24**4
    assert z4 * z4 == ZETA24**4 - CycNum.one()


def test_zeta_has_order_24():
    assert ZETA24**24 == CycNum.one()
    for k in range(1, 24):
        assert ZETA24**k != CycNum.one()


def test_omega_is_cube_root():
    assert OMEGA**3 == CycNum.one()
    assert OMEGA**2 + OMEGA + 1 == CycNum.zero()


def test_imag_squares_to_minus_one():
    assert IMAG * IMAG == CycNum.from_rational(-1)


@pytest.mark.parametrize(
    "value,expected",
    [
        (SQRT2, math.sqrt(2)),
        (SQRT3, math.sqrt(3)),
        (SQRT6, math.sqrt(6)),
        (ETA, (math.sqrt(6) + math.sqrt(2)) / 2),
    ],
)
def test_real_constants(value, expected):
    assert close(value.to_complex(), expected)


def test_squared_radicals_exact():
    assert SQRT2 * SQRT2 == CycNum.from_rational(2)
    assert SQRT3 * SQRT3 == CycNum.from_rational(3)
    assert SQRTM3 * SQRTM3 == CycNum.from_rational(-3)
    assert SQRT6 * SQRT6 == CycNum.from_rational(6)
    assert SQRTM6 * SQRTM6 == CycNum.from_rational(-6)
    assert SQRTM3 == 2 * OMEGA + 1


def test_roots_of_unity_tower():
    assert ZETA8**8 == CycNum.one()
    assert ZETA8**4 == CycNum.from_rational(-1)
    assert ZETA12**12 == CycNum.one()
    assert ZETA12**3 == IMAG
    assert OMEGA == ZETA12**4


def test_division_and_inverse():
    v = 3 * ZETA24**5 - ZETA24**2 + CycNum.from_rational(Fraction(7, 3))
    assert v * v.inverse() == CycNum.one()
    assert (v / v) == CycNum.one()
    with pytest.raises(ZeroDivisionError):
        CycNum.zero().inverse()


@pytest.mark.parametrize("q", [Fraction(-18), Fraction(7, 3), Fraction(-5, 12), Fraction(1)], ids=str)
def test_inverse_of_a_rational_element_takes_no_galois_step(q, monkeypatch):
    calls = []
    real = exact._conjugate
    monkeypatch.setattr(exact, "_conjugate", lambda *args: calls.append(args) or real(*args))
    inv = CycNum.from_rational(q).inverse()
    assert inv == 1 / q and inv.coeffs == (1 / q,) + (Fraction(0),) * 7
    assert calls == []


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=8, max_size=8))
def test_inverse_random(coords):
    v = CycNum(tuple(Fraction(c) for c in coords))
    if v.is_zero():
        return
    assert v * v.inverse() == CycNum.one()


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=8, max_size=8),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=8, max_size=8),
)
def test_mul_matches_complex_embedding(a, b):
    u = CycNum(tuple(Fraction(c) for c in a))
    v = CycNum(tuple(Fraction(c) for c in b))
    lhs = (u * v).to_complex()
    rhs = u.to_complex() * v.to_complex()
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_parampoly_basic():
    lam = ParamPoly.variable("lambda")
    p = (lam**3 - 1) * (lam**3 + 1)
    assert p == lam**6 - 1
    assert p.degree() == 6
    assert (p - p).is_zero()


def test_parampoly_cycnum_coefficients():
    lam = ParamPoly.variable("lambda")
    p = OMEGA * lam + 1
    q = OMEGA**2 * lam + 1
    prod = p * q
    # (omega lam + 1)(omega^2 lam + 1) = lam^2 + (omega + omega^2) lam + 1
    assert prod == lam**2 - lam + 1


def test_parampoly_tower_two_parameters():
    a = ParamPoly.variable("a")
    b = ParamPoly.variable("b")
    # (a + b)^2 expanded in the a-tower
    sq = (a + b) * (a + b)
    expect = a**2 + 2 * b * a + b * b
    assert (sq - expect).is_zero()


def test_parampoly_evaluate():
    lam = ParamPoly.variable("lambda")
    p = lam**4 + 4 * lam**2 + 1
    val = p.evaluate(Fraction(1, 2))
    assert val == Fraction(1, 16) + 1 + 1


def test_parampoly_reversal():
    lam = ParamPoly.variable("t")
    p = 3 * lam**2 + 2 * lam + 1
    rev = p.reversed_coeffs(2)
    assert rev == lam**2 + 2 * lam + 3
    # t^4 p(1/t) pads with zeros
    rev4 = p.reversed_coeffs(4)
    assert rev4 == lam**4 + 2 * lam**3 + 3 * lam**2


def test_parampoly_negative_power_rejected():
    lam = ParamPoly.variable("lambda")
    with pytest.raises(ValueError):
        lam**-1


def test_parampoly_exact_division():
    n = ParamPoly.variable("n")
    assert (n**3 - 1) / (n - 1) == n * n + n + 1
    assert (OMEGA * n * n) / (2 * n) == OMEGA * n / 2 and (6 * n) / 4 == Fraction(3, 2) * n
    with pytest.raises(ArithmeticError):
        (n * n + 1) / (n - 1)
    with pytest.raises(ArithmeticError):
        1 / n
    with pytest.raises(ZeroDivisionError):
        n / ParamPoly("n", (0, 0))
    with pytest.raises(TypeError):
        n / "2"
    # two parameters: the one named first is the outer ring
    a, b = ParamPoly.variable("a"), ParamPoly.variable("b")
    assert (a * a - b * b) / (a - b) == a + b and (a * b) / a == b and (a * b) / b == a
    assert (b * b) / ParamPoly("a", (b,)) == b
    with pytest.raises(ArithmeticError):
        a / b


def test_cycnum_operators_leave_foreign_operands_to_the_other_side():
    # like +, - and *, the reflected - and both divisions return
    # NotImplemented for an operand that is not an int, Fraction or CycNum
    with pytest.raises(TypeError):
        "3" - OMEGA
    with pytest.raises(TypeError):
        OMEGA / "2"
    with pytest.raises(TypeError):
        "2" / OMEGA
    # so a ParamPoly divisor gets its reflected turn, and divides exactly
    assert OMEGA / ParamPoly("n", (2,)) == OMEGA / 2
    with pytest.raises(ArithmeticError):
        OMEGA / ParamPoly.variable("n")


def test_parampoly_hash_ignores_trailing_zeros():
    a, b = ParamPoly("t", (1, 0)), ParamPoly("t", (1,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    lam = ParamPoly.variable("t")
    assert len({lam * lam, ParamPoly("t", (0, 0, Fraction(1), 0, CycNum.zero()))}) == 1


def test_equal_scalars_hash_alike_across_types():
    # a set holding one value in several exact types keeps one member
    ones = {CycNum.one(), 1, Fraction(1), ParamPoly("t", (1,))}
    assert len(ones) == 1
    assert len({ParamPoly("t", (2,)), 2}) == 1
    assert len({CycNum.from_rational(Fraction(-3, 4)), Fraction(-3, 4), ParamPoly("t", (Fraction(-3, 4), 0))}) == 1
    assert len({CycNum.zero(), 0, ParamPoly("t", ())}) == 1
    # equal irrational values reached two ways
    a, b = OMEGA + 1, -(OMEGA * OMEGA)
    assert a == b and hash(a) == hash(b)
    const = ParamPoly("t", (b, 0))
    assert const == a and hash(const) == hash(a)
    assert SQRT2 * SQRT3 == SQRT6 and hash(SQRT2 * SQRT3) == hash(SQRT6)


def test_cycnum_never_equals_a_string():
    # a rational string is not a scalar, so it neither compares equal nor
    # hashes alike
    for x, text in ((CycNum.one(), "1"), (CycNum.from_rational(1), "1/1"),
                    (CycNum.from_rational(Fraction(-3, 4)), "-3/4"), (CycNum.zero(), "0")):
        assert x != text and not (x == text) and text != x
        assert len({x, text}) == 2
    assert CycNum.one() != "not a number"


def test_cycnum_refuses_string_scalars():
    with pytest.raises(TypeError):
        CycNum.from_rational("3/2")
    with pytest.raises(TypeError):
        CycNum(["1/2", 0, 0, 0, 0, 0, 0, 0])


def test_cycnum_equality_with_numbers_and_polynomials_unchanged():
    half = CycNum.from_rational(Fraction(1, 2))
    assert CycNum.one() == 1 and 1 == CycNum.one()
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != 1 and half != Fraction(1, 3)
    assert CycNum.zero() == 0
    assert half == ParamPoly("t", (Fraction(1, 2),)) and ParamPoly("t", (Fraction(1, 2),)) == half
    assert half != ParamPoly("t", (Fraction(1, 2), 1))
    assert SQRT2 != 2 and SQRT2 * SQRT2 == 2


def test_pow_matches_repeated_products():
    v = OMEGA + SQRT2 - Fraction(2, 3) * ZETA24**5
    prod = CycNum.one()
    for n in range(8):
        assert v**n == prod
        assert v ** (-n) * prod == CycNum.one()
        prod = prod * v
    lam = ParamPoly.variable("lam")
    p = 2 * lam**2 - OMEGA * lam + Fraction(1, 3)
    prod = ParamPoly("lam", (Fraction(1),))
    for n in range(8):
        assert p**n == prod
        prod = prod * p


# -- the integer-vector CycNum against a plain 8-Fraction reference -------------

def _ref_mul(a, b):
    prod = [Fraction(0)] * 15
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(14, 7, -1):  # z^8 = z^4 - 1
        prod[d - 4] += prod[d]
        prod[d - 8] -= prod[d]
    return tuple(prod[:8])


def _ref_inverse(a):
    """Solve a * x = 1 by Gaussian elimination on the multiplication matrix."""
    unit = [tuple(Fraction(int(i == k)) for i in range(8)) for k in range(8)]
    columns = [_ref_mul(a, e) for e in unit]
    rows = [[columns[k][i] for k in range(8)] + [Fraction(int(i == 0))] for i in range(8)]
    for c in range(8):
        pivot = next(r for r in range(c, 8) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(8):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[8] for row in rows)


_ZERO8 = (Fraction(0),) * 8
_coord = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
_vectors = st.one_of(st.just(_ZERO8), st.lists(_coord, min_size=8, max_size=8).map(tuple))
_rationals = st.one_of(st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=12))


@settings(max_examples=60)
@given(_vectors, _vectors)
def test_cycnum_matches_fraction_reference(a, b):
    x, y = CycNum(a), CycNum(b)
    assert x.coeffs == a and all(type(c) is Fraction for c in x.coeffs)
    assert (x + y).coeffs == tuple(u + v for u, v in zip(a, b))
    assert (x - y).coeffs == tuple(u - v for u, v in zip(a, b))
    assert (-x).coeffs == tuple(-u for u in a)
    assert (x * y).coeffs == _ref_mul(a, b)
    assert (x == y) == (a == b) and (x != y) == (a != b)
    # equal values hash alike, and a rational element hashes like its Fraction
    assert x == CycNum(list(a)) and hash(x) == hash(CycNum(list(a)))
    if not any(a[1:]):
        assert x == a[0] and hash(x) == hash(a[0])
    assert x.is_zero() == (a == _ZERO8)
    z = cmath.exp(1j * math.pi / 12)
    assert x.to_complex() == sum(float(c) * z**k for k, c in enumerate(a))
    if b == _ZERO8:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        inv = _ref_inverse(b)
        assert y.inverse().coeffs == inv
        assert (x / y).coeffs == _ref_mul(a, inv)
        assert (y ** -2).coeffs == _ref_mul(inv, inv)
        assert (y ** 3).coeffs == _ref_mul(b, _ref_mul(b, b))


@settings(max_examples=60)
@given(_vectors, _rationals)
def test_cycnum_rational_operands_on_either_side(a, r):
    x, q = CycNum(a), Fraction(r)
    rv = (q,) + _ZERO8[1:]
    assert (x + r).coeffs == (r + x).coeffs == tuple(u + v for u, v in zip(a, rv))
    assert (x - r).coeffs == tuple(u - v for u, v in zip(a, rv))
    assert (r - x).coeffs == tuple(v - u for u, v in zip(a, rv))
    assert (x * r).coeffs == (r * x).coeffs == tuple(u * q for u in a)
    assert (x == r) == (a == rv) and (r == x) == (a == rv)
    if r != 0:
        assert (x / r).coeffs == tuple(u / q for u in a)
    else:
        with pytest.raises(ZeroDivisionError):
            x / r
    if a != _ZERO8:
        assert (r / x).coeffs == tuple(q * u for u in _ref_inverse(a))


def _dense_cycnums(seed, count):
    """Seeded CycNums whose eight coordinates are all nonzero."""
    rng = random.Random(seed)
    return [
        CycNum([Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 60)) for _ in range(8)])
        for _ in range(count)
    ]


def _conjugate(v, k):
    """z -> z^k applied to a CycNum through `exact._conjugate`."""
    den = math.lcm(*[c.denominator for c in v.coeffs])
    return CycNum(exact._conjugate([int(c * den) for c in v.coeffs], k)) / den


@pytest.mark.parametrize("k", [5, 7, 13])
def test_conjugation_is_a_ring_automorphism(k):
    assert _conjugate(ZETA24, k) == ZETA24**k
    assert _conjugate(CycNum.from_rational(Fraction(-7, 3)), k) == Fraction(-7, 3)
    values = _dense_cycnums(k, 40)
    for a, b in zip(values[::2], values[1::2]):
        ca, cb = _conjugate(a, k), _conjugate(b, k)
        assert _conjugate(a * b, k) == ca * cb
        assert _conjugate(a + b, k) == ca + cb
        # k^2 = 1 mod 24, so each conjugation is an involution
        assert _conjugate(ca, k) == a


def test_mul_vec_folds_every_high_power_like_the_reference():
    # integer vectors whose unreduced product has nonzero z^8..z^14 coordinates
    rng = random.Random(24)
    checked = 0
    for _ in range(200):
        a = [rng.randint(1, 10**9) * rng.choice([-1, 1]) for _ in range(8)]
        b = [rng.randint(1, 10**9) * rng.choice([-1, 1]) for _ in range(8)]
        raw = [sum(a[i] * b[d - i] for i in range(d - 7, 8)) for d in range(8, 15)]
        if not all(raw):
            continue
        assert tuple(exact._mul_vec(a, b)) == _ref_mul([Fraction(x) for x in a], [Fraction(y) for y in b])
        checked += 1
    assert checked >= 190


def test_cycnum_is_frozen():
    import dataclasses

    v = OMEGA / 3
    for name, value in (("num", (0,) * 8), ("den", 1), ("coeffs", _ZERO8)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, value)
    assert v == CycNum((Fraction(-1, 3), 0, 0, 0, Fraction(1, 3), 0, 0, 0))


@given(
    st.lists(_rationals, min_size=1, max_size=5),
    st.lists(_rationals, min_size=1, max_size=5),
)
def test_parampoly_matches_dense_reference(a, b):
    p, q = ParamPoly("t", tuple(a)), ParamPoly("t", tuple(b))
    n = max(len(a), len(b))
    pa = [Fraction(c) for c in a] + [Fraction(0)] * (n - len(a))
    pb = [Fraction(c) for c in b] + [Fraction(0)] * (n - len(b))
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    assert list((p + q).coeffs) == [u + v for u, v in zip(pa, pb)]
    assert list((p - q).coeffs) == [u - v for u, v in zip(pa, pb)]
    assert list((p * q).coeffs) == prod
    assert list((3 - q).coeffs) == [Fraction(3) - pb[0]] + [-v for v in pb[1:len(b)]]


# -- one zero test (bool) and one zero-skipping product -----------------------

def _isinstance_is_zero(v):
    """The type-dispatched zero test that `bool` replaced, kept as a reference."""
    if isinstance(v, CycNum):
        return not any(v.num)
    if isinstance(v, ParamPoly):
        return all(_isinstance_is_zero(c) for c in v.coeffs)
    return v == 0


def _random_scalar(rng, params=("lam", "mu")):
    """0, int, Fraction, CycNum or a polynomial in lam or mu; a lam polynomial
    may carry mu polynomials as coefficients (the nesting order of ParamPoly)."""
    kind = rng.randrange(3 + len(params) + 2)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if kind <= 4:
        coord = lambda: rng.choice((0, 0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        return CycNum([coord() for _ in range(8)])
    name, inner = params[0], params[1:]
    return ParamPoly(name, tuple([_random_scalar(rng, inner) for _ in range(rng.randint(1, 3))]))


def _dense_product(a, b):
    """The dense product loop exact forms used before they skipped zero terms:
    every slot starts at Fraction(0) and takes every product."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def test_exact_scalars_are_false_exactly_when_zero():
    lam, mu = ParamPoly.variable("lam"), ParamPoly.variable("mu")
    zeros = [
        0, Fraction(0), 0j, CycNum.zero(), CycNum([0] * 8), OMEGA - OMEGA,
        ParamPoly("t", ()), ParamPoly("t", (0,)), ParamPoly("t", (0, CycNum.zero(), Fraction(0))),
        lam - lam, ParamPoly("lam", (mu - mu, 0)), (lam * mu) - (mu * lam),
    ]
    nonzeros = [
        1, Fraction(-1, 3), 1j, CycNum.one(), OMEGA, ZETA24**5 / 7, lam,
        ParamPoly("t", (0, 0, SQRT2)), ParamPoly("lam", (0, mu)), lam * mu - 1,
    ]
    for v in zeros:
        assert not v and _isinstance_is_zero(v), v
    for v in nonzeros:
        assert v and not _isinstance_is_zero(v), v
    for v in zeros + nonzeros:
        if isinstance(v, (CycNum, ParamPoly)):
            assert v.is_zero() is (not v)


def test_bool_agrees_with_isinstance_dispatch():
    rng = random.Random(20261018)
    for _ in range(400):
        u, v = _random_scalar(rng), _random_scalar(rng)
        for w in (u, u - u, u * v, u * v - v * u, u + v):
            assert (not w) == _isinstance_is_zero(w)


def test_parampoly_times_a_scalar_maps_its_coefficients():
    # an int, Fraction, CycNum or later-parameter ParamPoly on either side:
    # the products coefficient * scalar of sparse_product, with int 0 slots
    rng = random.Random(27)
    for _ in range(300):
        p = ParamPoly("lam", tuple([_random_scalar(rng) for _ in range(rng.randint(0, 4))]))
        s = _random_scalar(rng, ("mu",))
        want = exact.sparse_product(p.coeffs, (s,), 0)
        for got in ((p * s).coeffs, (s * p).coeffs):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert type(g) is type(w) and g == w
                if isinstance(w, CycNum):
                    assert (g.num, g.den) == (w.num, w.den)


def test_zero_skipping_products_equal_the_dense_loop():
    rng = random.Random(8)
    for _ in range(150):
        a = [_random_scalar(rng) for _ in range(rng.randint(1, 4))]
        b = [_random_scalar(rng) for _ in range(rng.randint(1, 4))]
        want = _dense_product(a, b)
        got = BinaryForm.exact(len(a) - 1, a) * BinaryForm.exact(len(b) - 1, b)
        assert got.degree == len(want) - 1
        assert all(g == w for g, w in zip(got.coeffs, want, strict=True))
        # "a" sorts before lam and mu, so it nests them as coefficients
        poly = ParamPoly("a", tuple(a)) * ParamPoly("a", tuple(b))
        assert all(g == w for g, w in zip(poly.coeffs, want, strict=True))


# -- one long division and one Horner loop ------------------------------------

def _reference_parampoly_quotient(p, d):
    """The quotient loop ParamPoly ran before `exact.long_division`, kept as a
    reference: low degree first, every term divided by the lead, an int lead
    made a Fraction first, and a slot that no term reaches the int 0."""
    den = d.coeffs[: d.degree() + 1]
    lead = Fraction(den[-1]) if isinstance(den[-1], int) else den[-1]
    rem = list(p.coeffs)
    quot = [0] * max(len(rem) - len(den) + 1, 0)
    for i in reversed(range(len(quot))):
        c = rem[i + len(den) - 1]
        if c:
            q = quot[i] = c / lead
            for j, e in enumerate(den):
                if e:
                    rem[i + j] = rem[i + j] - q * e
    if any(rem):
        raise ArithmeticError("does not divide")
    return ParamPoly(p.param, tuple(quot))


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _cyclotomic(rng):
    return CycNum([rng.choice((0, rng.randint(-5, 5), _rational(rng))) for _ in range(8)])


def _polynomial(name, draw):
    return lambda rng: ParamPoly(name, tuple([draw(rng) for _ in range(rng.randint(1, 3))]))


# every ring leaves a zero coefficient to a third of the draws
_DIVISION_RINGS = {
    "int": lambda rng: rng.randint(-9, 9),
    "Fraction": _rational,
    "CycNum": _cyclotomic,
    "ParamPoly": _polynomial("mu", lambda rng: rng.choice((_rational, _cyclotomic))(rng)),
    "two-parameter ParamPoly": _polynomial("lam", _polynomial("mu", _rational)),
}


def _draw(rng, ring):
    return 0 if rng.random() < 1 / 3 else _DIVISION_RINGS[ring](rng)


@pytest.mark.parametrize("ring", sorted(_DIVISION_RINGS))
def test_long_division_returns_the_quotient_and_a_shorter_remainder(ring):
    rng = random.Random(37)
    for _ in range(120):
        b = [_draw(rng, ring) for _ in range(rng.randint(1, 4))]
        while not b[0]:
            b[0] = _DIVISION_RINGS[ring](rng)
        q = [_draw(rng, ring) for _ in range(rng.randint(0, 4))]
        r = [_draw(rng, ring) for _ in range(rng.randint(0, len(b) - 1))]
        a = list(exact.sparse_product(q, b, 0)) if q else [0] * (len(b) - 1)
        a = a[: len(a) - len(r)] + [x + y for x, y in zip(a[len(a) - len(r):], r)]
        quot, rem = exact.long_division(a, b)
        # q*b + r = a, deg r < deg b, and the remainder has no leading zero
        assert len(rem) < len(b) and (not rem or rem[0])
        back = list(exact.sparse_product(quot, b, 0)) if quot else [0] * (len(b) - 1)
        back[len(back) - len(rem):] = [x + y for x, y in zip(back[len(back) - len(rem):], rem)]
        assert len(back) == len(a) and all(x == y for x, y in zip(back, a))
        # a ParamPoly quotient is the old loop's, up to the unreached slots
        # that now hold exact.ZERO in place of the int 0
        p, d = ParamPoly("a", tuple(a[::-1])), ParamPoly("a", tuple(b[::-1]))
        try:
            want = _reference_parampoly_quotient(p, d)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                p / d
            assert any(r)
            continue
        got = (p / d).coeffs
        assert len(got) == len(want.coeffs)
        for g, w in zip(got, want.coeffs):
            assert g == w
            assert type(g) is type(w) or (g is exact.ZERO and type(w) is int and w == 0), (g, w)


def test_a_cycnum_lead_is_inverted_once(monkeypatch):
    inverted = []
    inverse = CycNum.inverse

    def spy(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(CycNum, "inverse", spy)
    n = ParamPoly.variable("n")
    divisor = OMEGA * n + SQRT2
    assert ((n ** 5 + 3 * n + 1) * divisor) / divisor == n ** 5 + 3 * n + 1
    assert inverted == [OMEGA]


def test_horner_is_the_power_sum_and_the_parampoly_value():
    rng = random.Random(38)
    for _ in range(200):
        coeffs = [_rational(rng) for _ in range(rng.randint(0, 6))]
        z = _rational(rng)
        want = sum([c * z ** k for k, c in enumerate(reversed(coeffs))])
        assert exact.horner(coeffs, z) == ParamPoly("t", tuple(coeffs[::-1])).evaluate(z) == want


def _reference_polyval(coeffs, z):
    """The float Horner loop of the root finder's cluster polish before
    `exact.horner`, kept as a reference."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def test_horner_keeps_the_bits_of_the_complex_loop():
    rng = random.Random(39)

    def value():
        scale = 10.0 ** rng.randint(-8, 8)
        if rng.random() < 0.3:  # a real coefficient, as a derivative of a real form has
            return complex(rng.uniform(-1, 1) * scale)
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale

    for _ in range(500):
        coeffs, z = [value() for _ in range(rng.randint(1, 8))], value()
        got, want = exact.horner(coeffs, z), _reference_polyval(coeffs, z)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
