"""Cube-sum curve parameterization and chord addition.

Every equal sum f1^3 + f2^3 = f3^3 + f4^3 of scalars (or of binary forms,
after dividing by a common denominator) arises from three parameters
(a, b, mu): with q = a^2 + 3b^2,

    f1 = mu*(1 - (a - 3b)*q),    f3 = mu*((a + 3b) - q^2),
    f2 = mu*((a + 3b)*q - 1),    f4 = mu*(q^2 - (a - 3b)).

`curve_map` is the one place these formulas and the extra representation
(mu*(1 + 2aq))^3 - (mu*(2a + q^2))^3 of the flipped sum are written:
`eb_forward` builds the quadruple from the parameters, `curve_third_rep`
the extra pair, and the identity suite proves both from it.  `eb_inverse`
recovers the parameters, and `curve_add` performs chord addition of two
points on X^3 + Y^3 = A.

Scalar inputs may be exact (Fraction / cyclotomic) or complex.  Each public
call lifts its inputs once, through `forms.lift`: one float or complex input
makes the call's kernel `forms.FLOAT` and every input complex, and otherwise
the kernel is `forms.EXACT`.  Every zero test, of an identity or of a
degeneracy, asks that kernel's one `is_zero`, whose float scale is the
largest of the terms a value is built from to the value's degree in them, so
no test changes when every input is scaled.  The curve map and the scalar
chord each run one path for both kernels, in projective coordinates from
`forms.projective`: rational values become integers over the lcm of their
denominators, carried along (a and b over d and mu over e in `eb_forward`
and `curve_third_rep`, the four fk and the 1/2 over d in `eb_inverse`), and
every other value stays as it is over 1.  So every zero test of a rational
call runs on ints, each output coordinate is divided once, and a product by
a cleared denominator of 1 is skipped, so complex, cyclotomic and form
results are computed as before, bit for bit.  The chord works on points
(X : Y : Z), asks `is_zero` whether m(X^3 + Y^3) = n Z^3 for A = n/m, and
divides with the kernel's `div` once per output coordinate.
A form chord runs on the integer layouts of `exact` (forms with int,
Fraction and CycNum coefficients as integer vectors over one denominator,
read only through `exact.layout_*`), built from its five entries on every
call: it shares the products x1x2 and y1y2 and the cross term x2y1 - x1y2
between its denominator and both numerators (ten layout products), tests
every value for zero on its integer coordinates, and normalizes only its
two outputs.
The two numerators share one denominator, whose lead is inverted once; a
numerator that it divides, as on every family chord, reduces by one exact
layout division, and any other becomes a RationalFunction of two forms.
A RationalFunction reduces every ratio one way: both forms divided by their
gcd, the denominator made monic.  The form chord is checked cross-multiplied,
on numerators and denominators, so the advertised cancellations are
verified identities, not floating coincidences.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction

from .exact import (
    CycNum,
    cyclotomic_layout,
    layout_coefficients,
    layout_cube,
    layout_degree,
    layout_difference,
    layout_divexact,
    layout_is_zero,
    layout_lead_inverse,
    layout_product,
    layout_sum,
)
from .forms import EXACT, BinaryForm, form_divexact, form_gcd, lift, projective


# the benchmark's tracer times `forms.form_divexact` under this name too
_divide_forms = form_divexact


class RationalFunction:
    """Reduced ratio of exact homogeneous forms: both divided by their gcd,
    the denominator made monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num, den = [v if isinstance(v, BinaryForm) else BinaryForm.lifted(0, [v])
                    for v in (num, Fraction(1) if den is None else den)]
        if not (num.kernel.exact and den.kernel.exact):
            raise TypeError("rational-function arithmetic requires exact forms")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator form")
        self.num, self.den = _cancelled(num, den)

    # -- helpers ---------------------------------------------------------

    @classmethod
    def _coerce(cls, v):
        if isinstance(v, cls):
            return v
        if isinstance(v, (BinaryForm, int, Fraction, CycNum)):
            return cls(v)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def equals(self, other) -> bool:
        other = self._coerce(other)
        return (self.num * other.den - other.num * self.den).is_zero()

    def to_form(self) -> BinaryForm:
        """The numerator, when reduction has cleared the denominator."""
        if self.den.degree != 0:
            raise ValueError("denominator did not cancel")
        return self.num

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return _lowest_terms(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> RationalFunction:
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)


def _lowest_terms(num, den) -> RationalFunction:
    """The RationalFunction num/den of a pair already in lowest terms."""
    out = object.__new__(RationalFunction)
    out.num = num
    out.den = den
    return out


def _cancelled(num, den):
    """The pair num, den divided by the gcd of the two forms, den made
    monic; 0 over 1 for a zero num."""
    if num.is_zero():
        return BinaryForm.zero(0), BinaryForm.lifted(0, [Fraction(1)])
    # a constant form shares no factor of positive degree
    if num.degree and den.degree:
        g = form_gcd(num, den)
        if g.degree > 0:
            num = form_divexact(num, g)
            den = form_divexact(den, g)
    lead = next(c for c in den.coeffs if c)
    if lead != 1:
        inv = EXACT.inv(lead)
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


# --------------------------------------------------------------------------
# parameterization
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class EBParams:
    """Parameters (a, b, mu) of an equal sum of two pairs of cubes.

    Entries are exact scalars, complex numbers, or RationalFunction values
    (forms are wrapped on use).  b = 0 parameterizes the degenerate sum 0.
    """

    a: object
    b: object
    mu: object


@dataclasses.dataclass(frozen=True)
class EBQuadruple:
    f1: object
    f2: object
    f3: object
    f4: object
    p: object
    degenerate: bool


def _lifted(values):
    """The values of one call lifted to one arithmetic, and the kernel that
    decides its zeros: a form becomes a RationalFunction and an int a
    Fraction, and then `forms.lift` picks the kernel and coerces."""
    return lift([RationalFunction(v) if isinstance(v, BinaryForm)
                 else Fraction(v) if isinstance(v, int) else v
                 for v in values])


def _check_identity(kernel, diff, terms, name: str):
    """Raise ArithmeticError unless diff, a cubic in `terms`, vanishes."""
    if not kernel.is_zero(diff, terms, 3):
        raise ArithmeticError(f"{name} identity failed")


def _scaled(value, k: int):
    """value * k for an int k; value itself when k is 1, so a value that no
    denominator was cleared from keeps its bits."""
    return value if k == 1 else value * k


def _divided(num, den):
    """An output coordinate num/den, divided once: the reduced Fraction of
    integers, num itself over the int 1, else num / den."""
    if isinstance(num, int):
        return Fraction(num, den)
    if isinstance(den, int) and den == 1:
        return num
    return num / den


def curve_map(a, b, mu, d):
    """The curve map at the parameters (a/d, b/d, mu), times d^4: the
    quadruple (f1, f2, f3, f4) of the module's display and the extra pair
    (h1, h2) of `curve_third_rep`.  At d = 1 it is the map itself."""
    d3 = d ** 3
    q = a * a + 3 * (b * b)
    qq = q * q
    u, v = a - 3 * b, a + 3 * b
    return (mu * _scaled(d3 - u * q, d), mu * _scaled(v * q - d3, d),
            mu * (_scaled(v, d3) - qq), mu * (qq - _scaled(u, d3)),
            mu * _scaled(d3 + 2 * (a * q), d), mu * (_scaled(2 * a, d3) + qq))


def _cleared_map(params: EBParams):
    """The curve map's numerators at params, their common denominator and
    the call's kernel: a = A/d, b = B/d and mu = M/e make every value an
    integer over e d^4."""
    (a, b, mu), kernel = _lifted([params.a, params.b, params.mu])
    a, b, d = projective(a, b)
    mu, e = projective(mu)
    return curve_map(a, b, mu, d), e * d ** 4, kernel


def eb_forward(params: EBParams) -> EBQuadruple:
    """Quadruple (f1..f4) with f1^3 + f2^3 = f3^3 + f4^3, and their sum p."""
    (f1, f2, f3, f4, _, _), z, kernel = _cleared_map(params)
    left = f1 ** 3 + f2 ** 3
    _check_identity(kernel, left - (f3 ** 3 + f4 ** 3), (f1, f2, f3, f4), "equal-sum")
    return EBQuadruple(_divided(f1, z), _divided(f2, z), _divided(f3, z), _divided(f4, z),
                       _divided(left, z ** 3), kernel.is_zero(left, (f1, f2), 3))


def eb_inverse(f1, f2, f3, f4) -> EBParams:
    """Recover (a, b, mu) from an honest equal sum f1^3 + f2^3 = f3^3 + f4^3.

    Form inputs are lifted to RationalFunction values, so they yield
    RationalFunction parameters (a common denominator for a and b; mu
    restores the cleared scale).  A quadruple whose two pairs share their
    cubes has no honest parameterization and raises ValueError, as does one
    with vanishing parameter denominator.
    """
    values = [f1, f2, f3, f4]
    if any(isinstance(v, BinaryForm) for v in values):
        if not all(isinstance(v, BinaryForm) for v in values):
            raise TypeError("mixed form and scalar quadruple")
    (f1, f2, f3, f4), kernel = _lifted(values)

    # the 1/2 is cleared with the fk, so every gk is an integer over d^2
    f1, f2, f3, f4, half, d = projective(f1, f2, f3, f4, Fraction(1, 2))
    g1, g2, g3, g4 = (f1 + f2) * half, (f2 - f1) * half, (f3 + f4) * half, (f4 - f3) * half
    den = g1 * g1 + 3 * (g2 * g2)
    num_a = g1 * g3 + 3 * (g2 * g4)
    num_b = g1 * g4 - g3 * g2

    if kernel.is_zero(den, (g1, g2, g3, g4), 2):
        raise ValueError("parameter denominator g1^2 + 3*g2^2 vanishes")
    a, b = _divided(num_a, den), _divided(num_b, den)

    # c and 3bq over e^3, for a = A/e and b = B/e in lowest terms
    a_num, b_num, e = projective(a, b)
    e3 = e ** 3
    q = a_num * a_num + 3 * (b_num * b_num)
    c = a_num * q - e3
    t = 3 * (b_num * q)
    c_zero = kernel.is_zero(c, (a_num, b_num, e), 3)  # c has the constant term -e^3
    t_zero = kernel.is_zero(t, (a_num, b_num), 3)
    if c_zero and t_zero:
        raise ValueError("quadruple is not honest: both pairs share their cubes")
    # mu = g1 / 3bq, or g2 / c when 3bq vanishes
    g, h = (g1, t) if not t_zero else (g2, c)
    return EBParams(a, b, _divided(_scaled(g, e3), _scaled(h, d * d)))


def curve_third_rep(params: EBParams):
    """The pair (h1, h2) with h1^3 - h2^3 = f1^3 - f4^3 for the quadruple.

    The flipped sum of the parameterized quadruple has this one extra
    representation; the identity is checked on the cleared numerators,
    exactly (or to the float kernel's tolerance in the complex case).
    """
    (f1, _, _, f4, h1, h2), z, kernel = _cleared_map(params)
    diff = (h1 ** 3 - h2 ** 3) - (f1 ** 3 - f4 ** 3)
    _check_identity(kernel, diff, (h1, h2, f1, f4), "third-representation")
    return _divided(h1, z), _divided(h2, z)


# --------------------------------------------------------------------------
# chord addition on X^3 + Y^3 = A
# --------------------------------------------------------------------------

def curve_add(point1, point2, a):
    """Chord addition: the third intersection of the line through two points
    of X^3 + Y^3 = A, in the coordinates that make it the curve's group law.

    Scalar points run one projective chord: with A = n/m, a point (X : Y : Z)
    lies on the curve when m(X^3 + Y^3) = n Z^3, as the call's kernel decides.
    Form points run on integer layouts over Q(zeta24) and return plain forms
    whenever the denominators cancel; their coefficients must be ints,
    Fractions or CycNums, and any other coefficient, a ParamPoly for one,
    raises TypeError before any arithmetic.  A vanishing chord denominator
    (equal or opposite points; no tangent rule is provided) raises
    ValueError; a form among the five entries needs all five to be forms.
    """
    x1, y1 = point1
    x2, y2 = point2
    entries = [x1, y1, x2, y2, a]
    if any(isinstance(v, BinaryForm) for v in entries):
        if not all(isinstance(v, BinaryForm) for v in entries):
            raise TypeError("form points need form coordinates and a form right side")
        if not all(v.kernel.exact for v in entries):
            raise TypeError("chord addition on forms requires the exact kernel")
        layouts = [cyclotomic_layout(v.coeffs) for v in entries]
        if any(layout is None for layout in layouts):
            raise TypeError("chord addition on forms needs int, Fraction or CycNum coefficients")
        return _form_chord(*layouts)
    (x1, y1, x2, y2, a), kernel = _lifted(entries)
    n, m = (a.numerator, a.denominator) if isinstance(a, Fraction) else (a, 1)

    def on_curve(x, y):
        X, Y, Z = projective(x, y)
        # measured against the cubes, not their sum: X^3 + Y^3 cancels near
        # the asymptote X = -Y, where |X^3| carries the rounding error
        cubes = (m * X ** 3, m * Y ** 3, n * Z ** 3)
        if not kernel.is_zero(cubes[0] + cubes[1] - cubes[2], cubes, 1):  # a NaN is never zero
            raise ValueError("point is not on the curve")
        return X, Y, Z

    X1, Y1, Z1 = on_curve(x1, y1)
    X2, Y2, Z2 = on_curve(x2, y2)
    den = m * (Z2 * (X1 * X1 * X2 + Y1 * Y1 * Y2) - Z1 * (X1 * X2 * X2 + Y1 * Y2 * Y2))
    if kernel.is_zero(den, (x1, y1, x2, y2), 3):
        raise ValueError("chord degenerates (coincident or opposite points)")
    nz, p, q = n * Z1 * Z2, X2 * Y1, X1 * Y2
    x3 = kernel.div(nz * (X1 * Z2 - X2 * Z1) + m * Y1 * Y2 * (p - q), den)
    y3 = kernel.div(nz * (Y1 * Z2 - Y2 * Z1) + m * X1 * X2 * (q - p), den)
    on_curve(x3, y3)
    return x3, y3


def _layout_form(layout) -> BinaryForm:
    return BinaryForm.exact(layout_degree(layout), layout_coefficients(layout))


def _reduced(num, den, inverse):
    """The chord coordinate num/den from the layouts of its numerator and
    its denominator: when den divides num, as on every family chord, the
    quotient form, by one exact division with `inverse`, the inverse of
    den's lead (None for a constant den); otherwise the two forms, built
    once each, reduced by gcd cancellation with no second division: a form
    when den cancels, else their RationalFunction."""
    if inverse is not None and not layout_is_zero(num) and layout_degree(num) >= layout_degree(den):
        try:
            quot = layout_divexact(num, den, inverse)
        except ValueError:
            pass
        else:
            return BinaryForm.exact(len(quot) - 1, quot)
    num, den = _cancelled(_layout_form(num), _layout_form(den))
    return num if den.degree == 0 else _lowest_terms(num, den)


def _form_chord(x1, y1, x2, y2, a):
    """Chord addition over the layouts of exact forms, in ten layout
    products: with the shared products x1x2 and y1y2 and the cross term
    x2y1 - x1y2,

        den   = x1x2 (x1 - x2) + y1y2 (y1 - y2),
        num_x = a (x1 - x2) + y1y2 (x2y1 - x1y2),
        num_y = a (y1 - y2) - x1x2 (x2y1 - x1y2).

    Every value up to the two coordinates is a layout, tested for zero on
    its integer coordinates; den's lead is inverted once for both
    divisions.  The result is checked cross-multiplied, on numerators and
    denominators."""
    for x, y in ((x1, y1), (x2, y2)):
        if not layout_is_zero(layout_difference(layout_sum(layout_cube(x), layout_cube(y)), a)):
            raise ValueError("point is not on the curve")
    xx, yy = layout_product(x1, x2), layout_product(y1, y2)
    dx, dy = layout_difference(x1, x2), layout_difference(y1, y2)
    den = layout_sum(layout_product(xx, dx), layout_product(yy, dy))
    if layout_is_zero(den):
        raise ValueError("chord degenerates (coincident or opposite points)")
    cross = layout_difference(layout_product(x2, y1), layout_product(x1, y2))
    num_x = layout_sum(layout_product(a, dx), layout_product(yy, cross))
    num_y = layout_difference(layout_product(a, dy), layout_product(xx, cross))
    inverse = layout_lead_inverse(den) if layout_degree(den) > 0 else None
    x3, y3 = _reduced(num_x, den, inverse), _reduced(num_y, den, inverse)
    # x3^3 + y3^3 = a cleared of denominators; it holds exactly when the
    # terms of each degree cancel, so forms of two degrees are never added.
    # A coordinate that is a form has the denominator 1, which multiplies
    # nothing through.
    (nx, dx), (ny, dy) = _fraction(x3), _fraction(y3)
    tx, ty, ta = layout_cube(nx), layout_cube(ny), a
    if dy is not None:
        cy = layout_cube(dy)
        tx, ta = layout_product(tx, cy), layout_product(ta, cy)
    if dx is not None:
        cx = layout_cube(dx)
        ty, ta = layout_product(ty, cx), layout_product(ta, cx)
    parts = {}
    for t, combine in ((tx, layout_sum), (ty, layout_sum), (ta, layout_difference)):
        degree = layout_degree(t)
        # a part alone in its degree is zero exactly when its negative is
        parts[degree] = combine(parts[degree], t) if degree in parts else t
    if not all(layout_is_zero(part) for part in parts.values()):
        raise ArithmeticError("chord identity failed")
    return x3, y3


def _fraction(v):
    """The layouts of a chord coordinate's numerator and of its denominator,
    None for the denominator of a form."""
    if isinstance(v, BinaryForm):
        return cyclotomic_layout(v.coeffs), None
    return cyclotomic_layout(v.num.coeffs), cyclotomic_layout(v.den.coeffs)
