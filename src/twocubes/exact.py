"""Exact scalar arithmetic: rationals, the degree-8 cyclotomic field containing
every constant the identity suite needs, and univariate parameter polynomials.

The field is Q(z) with z a primitive 24th root of unity, reduced by the minimal
polynomial z^8 = z^4 - 1.  An element is stored as eight integer numerators
on 1, z, ..., z^7 over one positive common denominator, reduced by their gcd,
so equal elements have equal storage and the ring operations run on Python
ints alone.  That one field houses omega, i, the 8th and 12th roots of unity,
sqrt2, sqrt3, sqrt(-3), sqrt6, sqrt(-6) and eta, so every exact identity in
the suite can be checked coefficient-wise without nested radicals.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from fractions import Fraction

Rational = Fraction
# CycNum's operators take these and CycNum, and return NotImplemented for
# any other operand, so that a ring over CycNum values gets its reflected turn
_RATIONALS = (int, Fraction)

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
    """Product of two integer coordinate vectors, reduced by z^8 = z^4 - 1."""
    terms = [(j, y) for j, y in enumerate(b) if y]
    prod = [0] * (2 * _DEG - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                prod[i + j] += x * y
    # highest power first, so a carry into z^8..z^10 is reduced in turn
    for d in range(2 * _DEG - 2, _DEG - 1, -1):
        c = prod[d]
        if c:
            prod[d - 4] += c
            prod[d - 8] -= c
    return prod[:_DEG]


def _conjugate(num, k: int) -> list:
    """The Galois conjugate z -> z^k of an integer coordinate vector."""
    out = [0] * _DEG
    for j, c in enumerate(num):
        if c:
            e = j * k % 24
            if e >= 12:  # z^12 = -1
                e, c = e - 12, -c
            if e < _DEG:
                out[e] += c
            else:        # z^e = z^(e-4) - z^(e-8)
                out[e - 4] += c
                out[e - 8] -= c
    return out


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
        return ParamPoly(self.param, sparse_product(self.coeffs, self._coerce(other).coeffs, 0))

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
