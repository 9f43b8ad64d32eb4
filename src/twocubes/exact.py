"""Exact scalar arithmetic: rationals, the degree-8 cyclotomic field containing
every constant the identity suite needs, and univariate parameter polynomials.

The field is Q(z) with z a primitive 24th root of unity, reduced by the minimal
polynomial z^8 = z^4 - 1.  An element is stored as eight integer numerators
on 1, z, ..., z^7 over one positive common denominator, reduced by their gcd,
so equal elements have equal storage and the ring operations run on Python
ints alone.  That one field houses omega, i, the 8th and 12th roots of unity,
sqrt2, sqrt3, sqrt(-3), sqrt6, sqrt(-6) and eta, so every exact identity in
the suite can be checked coefficient-wise without nested radicals.

Polynomials have two products.  `sparse_product` multiplies coefficients of
any exact ring one scalar product at a time.  `cyclotomic_product` and
`cyclotomic_cube` multiply forms whose coefficients are ints, Fractions and
CycNums as one integer convolution in (x, z) over one common denominator,
normalizing once per output coefficient; this module is the only one that
knows CycNum's storage, so the layout they work on is built, read and sized
here.  The same layout carries sums, differences, products, cubes, zero tests
and exact division of such forms (`layout_*`), so that a computation
normalizes only what it returns, and types each returned coefficient by its
value: 0, a rational or a CycNum.  `_reduce` is the one place that applies
z^8 = z^4 - 1: a CycNum product, a Galois conjugate and a layout convolution
all fold their powers z^8..z^14 through it.
`ParamPoly` times a scalar maps its coefficients.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import operator
from fractions import Fraction
from itertools import compress

Rational = Fraction
# CycNum's operators take these and CycNum, and return NotImplemented for
# any other operand, so that a ring over CycNum values gets its reflected turn
_RATIONALS = (int, Fraction)
ZERO = Fraction(0)  # forms.EXACT.zero, and every 0 that leaves a layout

_DEG = 8
_ZPOWERS = [cmath.exp(1j * math.pi / 12) ** k for k in range(_DEG)]
_new_object = object.__new__
_set_slot = object.__setattr__  # CycNum's own __setattr__ refuses every write


def _ratio(v) -> tuple[int, int]:
    """(numerator, positive denominator) in lowest terms of an int or
    Fraction; TypeError for anything else."""
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"cannot interpret {v!r} as a rational")


class CycNum:
    """An exact element of the 24th cyclotomic field, immutable like a frozen
    dataclass.

    `num` holds the numerators on 1, z, ..., z^7 and `den` their positive
    common denominator, coprime to the numerators taken together.

    >>> (CycNum.zeta() ** 24) == CycNum.one()
    True
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        if len(coeffs) != _DEG:
            raise ValueError("CycNum needs exactly 8 coordinates")
        parts = [_ratio(c) for c in coeffs]
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = math.lcm(*[q for _, q in parts])
        _set_slot(self, "num", tuple([p * (den // q) for p, q in parts]))
        _set_slot(self, "den", den)

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _cyc, (self.num, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates on 1, z, ..., z^7 as Fractions."""
        d = self.den
        return tuple([Fraction(n, d) for n in self.num])

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(v) -> CycNum:
        p, q = _ratio(v)
        return _cyc((p, 0, 0, 0, 0, 0, 0, 0), q)

    @staticmethod
    def zero() -> CycNum:
        return _ZERO

    @staticmethod
    def one() -> CycNum:
        return _ONE

    @staticmethod
    def zeta() -> CycNum:
        return _cyc((0, 1, 0, 0, 0, 0, 0, 0), 1)

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, CycNum):
            return _plus(self, other, 1)
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        return _plus_rational(self, *_ratio(other))

    __radd__ = __add__

    def __neg__(self):
        return _cyc(tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        if isinstance(other, CycNum):
            return _plus(self, other, -1)
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        p, q = _ratio(other)
        return _plus_rational(self, -p, q)

    def __rsub__(self, other):
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        return _plus_rational(-self, *_ratio(other))

    def __mul__(self, other):
        if isinstance(other, CycNum):
            if not any(other.num) or not any(self.num):
                return _ZERO
            return _normalized(_mul_vec(self.num, other.num), self.den * other.den)
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        return _scaled(self, *_ratio(other))

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """Field inverse: the product of the other seven Galois conjugates over
        the norm.  The Galois group {1, 5, 7, ..., 23} is generated by the
        commuting involutions z -> z^5, z^7, z^13, so three conjugate-and-multiply
        steps reach the rational norm; a rational element needs none of them."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in the cyclotomic field")
        n = self.num
        if not any(n[1:]):  # den/n[0], already in lowest terms
            return _cyc((self.den if n[0] > 0 else -self.den,) + n[1:], abs(n[0]))
        m1 = _conjugate(n, 5)
        p1 = _mul_vec(n, m1)
        m2 = _conjugate(p1, 7)
        p2 = _mul_vec(p1, m2)
        m3 = _conjugate(p2, 13)
        norm = _mul_vec(p2, m3)[0]
        adjugate = _mul_vec(_mul_vec(m1, m2), m3)
        if norm < 0:
            norm, adjugate = -norm, [-x for x in adjugate]
        return _normalized([x * self.den for x in adjugate], norm)

    def __truediv__(self, other):
        if isinstance(other, CycNum):
            return self * other.inverse()
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        p, q = _ratio(other)
        if not p:
            raise ZeroDivisionError("inverse of zero in the cyclotomic field")
        return _scaled(self, q, p) if p > 0 else _scaled(self, -q, -p)

    def __rtruediv__(self, other):
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        return _scaled(self.inverse(), *_ratio(other))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _ONE
        return binary_power(self, n)

    def __eq__(self, other):
        if isinstance(other, CycNum):
            return self.den == other.den and self.num == other.num
        # any other operand, a rational string included, gets its reflected turn
        if not isinstance(other, _RATIONALS):
            return NotImplemented
        p, q = _ratio(other)
        return self.den == q and self.num[0] == p and not any(self.num[1:])

    def __hash__(self):
        # equal values hash alike: a rational element compares equal to its
        # int or Fraction, so it takes that hash
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- conversions ----------------------------------------------------

    def to_complex(self) -> complex:
        d = self.den
        return sum((n / d) * zk for n, zk in zip(self.num, _ZPOWERS))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z^{k}" if k > 1 else f"{c}*z")
        return "CycNum(" + (" + ".join(terms) if terms else "0") + ")"


def _cyc(num: tuple, den: int) -> CycNum:
    """A CycNum from numerators and a denominator already in reduced form."""
    v = _new_object(CycNum)
    _set_slot(v, "num", num)
    _set_slot(v, "den", den)
    return v


def _normalized(num: list, den: int) -> CycNum:
    """Reduce numerators over a positive denominator by their common gcd."""
    if den != 1:
        g = math.gcd(*num, den)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _cyc(tuple(num), den)


def _plus(a: CycNum, b: CycNum, sign: int) -> CycNum:
    """a + sign*b for sign = +1 or -1."""
    if not any(b.num):
        return a
    if not any(a.num):
        return b if sign > 0 else -b
    an, bn, ad, bd = a.num, b.num, a.den, b.den
    if ad == bd:
        num = [x + y for x, y in zip(an, bn)] if sign > 0 else [x - y for x, y in zip(an, bn)]
        return _normalized(num, ad)
    g = math.gcd(ad, bd)
    fa, fb = bd // g, sign * (ad // g)
    return _normalized([x * fa + y * fb for x, y in zip(an, bn)], ad * fa)


def _plus_rational(a: CycNum, p: int, q: int) -> CycNum:
    """a + p/q for a positive denominator q."""
    if not p:
        return a
    g = math.gcd(a.den, q)
    s = q // g
    num = [x * s for x in a.num] if s != 1 else list(a.num)
    num[0] += p * (a.den // g)
    return _normalized(num, a.den * s)


def _scaled(a: CycNum, p: int, q: int) -> CycNum:
    """a * p/q for a positive denominator q."""
    if not p or not any(a.num):
        return _ZERO
    return _normalized([x * p for x in a.num], a.den * q)


def _mul_vec(a, b) -> list:
    """Product of two integer coordinate vectors, reduced by `_reduce`."""
    terms = [(j, y) for j, y in enumerate(b) if y]
    prod = [0] * _STRIDE
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                prod[i + j] += x * y
    return _reduce(prod, 1)[:_DEG]


def _conjugate(num, k: int) -> list:
    """The Galois conjugate z -> z^k of an integer coordinate vector: z^j goes
    to z^(jk mod 12), negated when jk mod 24 >= 12 since z^12 = -1, and
    `_reduce` folds z^8..z^11."""
    out = [0] * _STRIDE
    for j, c in enumerate(num):
        if c:
            e = j * k % 24
            if e >= 12:
                out[e - 12] -= c
            else:
                out[e] += c
    return _reduce(out, 1)[:_DEG]


_ZERO = _cyc((0,) * _DEG, 1)
_ONE = _cyc((1,) + (0,) * (_DEG - 1), 1)


def binary_power(base, n: int):
    """base**n for n >= 1 by binary powering from the low bits, starting from
    base itself and stopping at the top bit: a cube is the one product
    base * base**2."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def sparse_product(a, b, zero) -> tuple:
    """Coefficients of the product of two polynomials given low degree first.
    Zero terms are skipped and each slot starts at its first product, so a
    slot that no product reaches holds `zero`."""
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                acc = out[i + j]
                out[i + j] = x * y if acc is None else acc + x * y
    return tuple([zero if c is None else c for c in out])


# -- forms over Q(zeta24) as integer layouts -----------------------------------
#
# A layout holds a form's coefficients as integer vectors over one common
# denominator: (den, size, terms), with den a positive common denominator of
# the coefficients, size their count, and terms the pairs (_STRIDE*k + e, n)
# of the nonzero numerators n of z^e in coefficient k, scaled to den.  Two
# coordinate vectors multiply into z^0..z^14, so a stride of 16 keeps the
# x-powers of a product apart.
#
# Sums, differences, products and cubes of layouts are layouts again, made
# with no CycNum and no gcd of a coefficient's coordinates, and a layout is
# zero exactly when it has no terms, since 1, z, ..., z^7 is a basis and den
# is positive.  Every coefficient returned from a layout leaves through
# `_coefficients`, normalized once and typed by its value: `ZERO` itself
# for 0, a reduced Fraction for a rational, and a gcd-normalized CycNum for
# any other value.

_STRIDE = 16


def cyclotomic_layout(coeffs):
    """The layout of a form's exact coefficients, or None when one of them is
    not an int, a Fraction or a CycNum."""
    parts = []
    for c in coeffs:
        t = type(c)
        if t is CycNum:
            parts.append((c.num, c.den))
        elif t in _RATIONALS:
            parts.append(((c.numerator,), c.denominator))
        else:
            return None
    den = math.lcm(*[q for _, q in parts])
    terms = []
    for k, (num, q) in enumerate(parts):
        s, base = den // q, _STRIDE * k
        terms += [(base + e, n * s) for e, n in enumerate(num) if n]
    return den, len(parts), tuple(terms)


@functools.lru_cache(maxsize=None)
def _high_coordinates(size: int):
    """The positions of z^8..z^14 in `size` slots, and their getter."""
    high = [base + e for base in range(0, _STRIDE * size, _STRIDE)
            for e in range(_DEG, 2 * _DEG - 1)]
    return high, operator.itemgetter(*high)


def _reduce(acc: list, size: int) -> list:
    """The integer coordinates of `size` slots, at _STRIDE*k + e for z^e in
    slot k with e up to 14, reduced to e < 8 and left 0 above: z^e = -z^(e-12)
    for e = 12..14, since z^12 = -1, and z^e = z^(e-4) - z^(e-8) for
    e = 8..11.  Only the nonzero coordinates above z^7 are visited."""
    high, get = _high_coordinates(size)
    for d in compress(high, get(acc)):
        c = acc[d]
        acc[d] = 0
        if d % _STRIDE >= 12:
            acc[d - 12] -= c
        else:
            acc[d - 4] += c
            acc[d - 8] -= c
    return acc


def _convolve(a, b) -> list:
    """The reduced integer coordinates, over the product of the two
    denominators, of the product of two layouts."""
    size = a[1] + b[1] - 1
    acc = [0] * (_STRIDE * size)
    terms = b[2]
    for p, x in a[2]:
        for q, y in terms:
            acc[p + q] += x * y
    return _reduce(acc, size)


def _terms(acc: list) -> tuple:
    """The pairs (position, coordinate) of the nonzero reduced coordinates."""
    return tuple([(p, acc[p]) for p in compress(range(len(acc)), acc)])


def _coefficients(acc: list, den: int) -> tuple:
    """The coefficients of reduced coordinates over den, each normalized once
    and typed by its value: `ZERO` itself for 0, a reduced Fraction for a
    rational, else a gcd-normalized CycNum."""
    out = []
    for base in range(0, len(acc), _STRIDE):
        num = acc[base:base + _DEG]
        if any(num[1:]):
            out.append(_normalized(num, den))
        else:
            out.append(Fraction(num[0], den) if num[0] else ZERO)
    return tuple(out)


def cyclotomic_product(a, b) -> tuple:
    """The coefficients of the product of two forms given by their layouts,
    as one integer convolution over the product of their denominators."""
    return _coefficients(_convolve(a, b), a[0] * b[0])


def cyclotomic_cube(a) -> tuple:
    """The coefficients of the cube of a form given by its layout: the
    square's layout times the form."""
    return cyclotomic_product(layout_product(a, a), a)


def layout_product(a, b):
    """The layout of the product of two layouts."""
    return a[0] * b[0], a[1] + b[1] - 1, _terms(_convolve(a, b))


def layout_cube(a):
    """The layout of the cube of a layout: the square's layout times it."""
    return layout_product(layout_product(a, a), a)


def _combined(a, b, sign: int):
    """The layout of a + sign*b for sign = +1 or -1, over the lcm of the two
    denominators; ValueError for forms of two degrees, as BinaryForm's sum."""
    size = a[1]
    if b[1] != size:
        raise ValueError(f"degree mismatch: {size - 1} vs {b[1] - 1}")
    if a[0] == b[0]:
        den, fa, fb = a[0], 1, sign
    else:
        den = math.lcm(a[0], b[0])
        fa, fb = den // a[0], sign * (den // b[0])
    acc = [0] * (_STRIDE * size)
    for p, x in a[2]:
        acc[p] = x * fa
    for p, y in b[2]:
        acc[p] += y * fb
    return den, size, _terms(acc)


def layout_sum(a, b):
    """The layout of the sum of two layouts of one degree."""
    return _combined(a, b, 1)


def layout_difference(a, b):
    """The layout of a - b for two layouts of one degree."""
    return _combined(a, b, -1)


def layout_is_zero(a) -> bool:
    """True when every reduced coordinate of the layout is 0."""
    return not a[2]


def layout_degree(a) -> int:
    """The degree of the form a layout holds."""
    return a[1] - 1


def layout_coefficients(a) -> tuple:
    """The coefficients of a layout, each normalized once and typed by its
    value as `_coefficients` says."""
    acc = [0] * (_STRIDE * a[1])
    for p, n in a[2]:
        acc[p] = n
    return _coefficients(acc, a[0])


def _vectors(a, first: int, count: int) -> list:
    """The coordinate vectors of slots first .. first+count-1 of a layout."""
    out = [[0] * _DEG for _ in range(count)]
    low, high = _STRIDE * first, _STRIDE * (first + count)
    for p, n in a[2]:
        if low <= p < high:
            out[(p - low) // _STRIDE][p % _STRIDE] = n
    return out


def layout_lead_inverse(b) -> CycNum:
    """The field inverse of a layout's first nonzero coefficient;
    ZeroDivisionError for the zero layout."""
    if not b[2]:
        raise ZeroDivisionError("division by the zero form")
    lead = _vectors(b, b[2][0][0] // _STRIDE, 1)[0]
    return _normalized(lead, b[0]).inverse()


def layout_divexact(a, b, inverse) -> tuple:
    """The coefficients of the exact quotient a / b of two layouts, equal in
    value to `forms.form_divexact`'s: `inverse` is `layout_lead_inverse(b)`,
    the quotient's terms are those of the long division of a by b, and a
    nonzero a - q*b, found by one more convolution, raises ValueError, as a
    remainder does; a zero a gives the zero form of degree
    max(deg a - deg b, 0)."""
    if not b[2]:
        raise ZeroDivisionError("division by the zero form")
    if not a[2]:
        return (ZERO,) * max(a[1] - b[1] + 1, 1)
    # the first term of a nonzero layout lies in its first nonzero slot
    my, ny = a[2][0][0] // _STRIDE, b[2][0][0] // _STRIDE
    if ny > my:
        raise ValueError("does not divide (y-multiplicity)")
    la, lb = a[1] - my, b[1] - ny
    if lb > la:
        raise ValueError("does not divide (degree)")
    n = la - lb + 1
    rems, divisor = _vectors(a, my, n), _vectors(b, ny, min(n, lb))
    quot = []
    # quotient term i is (a_i - sum_k q_k b_(i-k)) / lead, as in the long division
    for i in range(n):
        rem, den = rems[i], a[0]
        for k in range(max(0, i - lb + 1), i):
            q = quot[k]
            if q is _ZERO or not any(divisor[i - k]):
                continue
            term, term_den = _mul_vec(q.num, divisor[i - k]), q.den * b[0]
            if term_den == den:
                rem = [x - y for x, y in zip(rem, term)]
            else:
                rem = [x * term_den - y * den for x, y in zip(rem, term)]
                den *= term_den
        if any(rem):
            quot.append(_normalized(_mul_vec(rem, inverse.num), den * inverse.den))
        else:
            quot.append(_ZERO)
    # a - q*b = 0, compared over the product of the two denominators
    q = cyclotomic_layout([_ZERO] * (my - ny) + quot)
    acc = _convolve(q, b)
    qb_den = q[0] * b[0]
    for p, x in a[2]:
        acc[p] = acc[p] * a[0] - x * qb_den
    if any(acc):
        raise ValueError("does not divide (remainder)")
    return layout_coefficients(q)


def scalar_key(v) -> tuple:
    """A canonical, orderable key of an exact scalar (int, Fraction, CycNum or
    ParamPoly): scalars that compare equal get equal keys, so trailing zero
    coefficients and constant polynomials do not split a value in two."""
    if isinstance(v, ParamPoly):
        terms = v.coeffs[: v.degree() + 1]
        if len(terms) <= 1:
            return scalar_key(terms[0] if terms else 0)
        return (1, v.param, tuple([scalar_key(c) for c in terms]))
    if isinstance(v, CycNum):
        return (0, v.num, v.den)
    p, q = _ratio(v)
    return (0, (p,) + (0,) * (_DEG - 1), q)


def _poly_sum(a: tuple, b: tuple, sign: int) -> tuple:
    """Coefficients of a + sign*b, touching only the nonzero terms of b."""
    out = list(a)
    if len(b) > len(out):
        out += [0] * (len(b) - len(out))
    for j, y in enumerate(b):
        if not y:
            continue
        x = out[j]
        if not x:
            out[j] = y if sign > 0 else -y
        else:
            out[j] = x + y if sign > 0 else x - y
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class ParamPoly:
    """Dense univariate polynomial in a formal parameter over a duck-typed
    exact ring (Fraction, CycNum, or another ParamPoly for two-parameter work).

    Coefficients are stored low degree first.  `/` divides exactly or raises
    ArithmeticError, so identities with true denominators are cleared of them.
    """

    param: str
    coeffs: tuple

    @staticmethod
    def variable(name: str) -> ParamPoly:
        return ParamPoly(name, (0, 1))

    def _coerce(self, v) -> ParamPoly:
        if isinstance(v, ParamPoly) and v.param == self.param:
            return v
        # foreign polynomials become scalar coefficients; _outranks has already
        # arranged that the lexicographically smaller parameter is the root
        return ParamPoly(self.param, (v,))

    def _outranks(self, other) -> bool:
        return isinstance(other, ParamPoly) and other.param < self.param

    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d >= 0 and not self.coeffs[d]:
            d -= 1
        return d

    def __bool__(self):
        # any() recurses through nested polynomial and CycNum coefficients
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, _COEFFICIENTS):
            return NotImplemented
        if self._outranks(other):
            return other + self
        return ParamPoly(self.param, _poly_sum(self.coeffs, self._coerce(other).coeffs, 1))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.param, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        if not isinstance(other, _COEFFICIENTS):
            return NotImplemented
        if self._outranks(other):
            return -(other - self)
        return ParamPoly(self.param, _poly_sum(self.coeffs, self._coerce(other).coeffs, -1))

    def __rsub__(self, other):
        if not isinstance(other, _COEFFICIENTS):
            return NotImplemented
        return ParamPoly(self.param, _poly_sum(self._coerce(other).coeffs, self.coeffs, -1))

    def __mul__(self, other):
        if not isinstance(other, _COEFFICIENTS):
            return NotImplemented
        if self._outranks(other):
            return other * self
        if isinstance(other, ParamPoly) and other.param == self.param:
            return ParamPoly(self.param, sparse_product(self.coeffs, other.coeffs, 0))
        # a scalar, or a polynomial in a later parameter, maps the coefficients:
        # the products and the int 0 slots of sparse_product by (other,)
        if not other:
            return ParamPoly(self.param, (0,) * len(self.coeffs))
        return ParamPoly(self.param, tuple([c * other if c else 0 for c in self.coeffs]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The exact quotient by long division.  ArithmeticError when other
        does not divide self (ZeroDivisionError when other is zero)."""
        if not isinstance(other, _COEFFICIENTS):
            return NotImplemented
        if self._outranks(other):
            return ParamPoly(other.param, (self,)) / other
        divisor = self._coerce(other)
        den = divisor.coeffs[: divisor.degree() + 1]
        if not den:
            raise ZeroDivisionError("division by a zero ParamPoly")
        # an int lead would make int / int a float
        lead = Fraction(den[-1]) if isinstance(den[-1], int) else den[-1]
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - len(den) + 1, 0)
        for i in reversed(range(len(quot))):
            c = rem[i + len(den) - 1]
            if c:
                q = quot[i] = c / lead
                for j, d in enumerate(den):
                    if d:
                        rem[i + j] = rem[i + j] - q * d
        if any(rem):
            raise ArithmeticError(f"{other!r} does not divide {self!r}")
        return ParamPoly(self.param, tuple(quot))

    def __rtruediv__(self, other):
        if not isinstance(other, _COEFFICIENTS):
            return NotImplemented
        return ParamPoly(self.param, (other,)) / self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("ParamPoly has no negative powers; clear denominators first")
        if n == 0:
            return ParamPoly(self.param, (1,))
        return binary_power(self, n)

    def __eq__(self, other):
        if not isinstance(other, (ParamPoly, int, Fraction, CycNum)):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # a constant compares equal to its coefficient, so it takes that hash
        terms = self.coeffs[: self.degree() + 1]
        if len(terms) <= 1:
            return hash(terms[0] if terms else 0)
        return hash(scalar_key(self))

    def evaluate(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def reversed_coeffs(self, formal_degree: int) -> ParamPoly:
        """t^D * p(1/t): the coefficient reversal used by the 1/lambda symmetries."""
        if formal_degree < self.degree():
            raise ValueError("formal degree below actual degree")
        padded = list(self.coeffs) + [0] * (formal_degree + 1 - len(self.coeffs))
        return ParamPoly(self.param, tuple(reversed(padded)))

    def __repr__(self):
        return f"ParamPoly({self.param!r}, deg={self.degree()})"


# ParamPoly's operators take these and return NotImplemented for any other
# operand, so that a ring over ParamPoly values gets its reflected turn
_COEFFICIENTS = (ParamPoly, CycNum, int, Fraction)

# named constants of the field
ZETA24 = CycNum.zeta()
OMEGA = ZETA24**8          # primitive cube root of unity
IMAG = ZETA24**6           # i
ZETA8 = ZETA24**3
ZETA12 = ZETA24**2         # nu in the sextic representation displays
SQRT2 = ZETA24**3 + ZETA24**21
SQRT3 = ZETA24**2 + ZETA24**22
SQRTM3 = OMEGA - OMEGA**2  # sqrt(-3) = 2*omega + 1
SQRT6 = SQRT2 * SQRT3
SQRTM6 = IMAG * SQRT6
ETA = (SQRT6 + SQRT2) / CycNum.from_rational(2)
