"""Binary forms in (x, y) over a pluggable scalar kernel.

A form of degree d is the coefficient tuple (c0, ..., cd) of
sum_k c_k x^(d-k) y^k.  Two kernels are provided: an exact one whose scalars
are Fractions, CycNums or ParamPolys, and a complex floating one with
relative-tolerance equality.  Each kernel owns its scalar protocol (`zero`,
`one`, `is_zero`, `div`, `coerce` and the `exact` flag; the exact kernel adds
`inv`), so code above this module (`roots`, `decomp`, `classify` and
`ecurve`) asks the kernel, not the type.  `is_zero(value, terms, degree)` is
each kernel's one zero test: exactly zero, or for floats at most `FLOAT_TOL`
of the scale, the largest of the `terms` the value is built from to the
value's `degree` in them, so the test is unchanged when every term is scaled.
`lift` is the one place a call's kernel is chosen from its inputs: one float
or complex value makes it FLOAT, else it is EXACT, and `BinaryForm.exact`
raises TypeError on a value it would make FLOAT.  `projective` clears the
denominators of a call's rational values once, so the call computes on ints
and divides only its outputs; any other value passes through over 1.
`scalar_json` is the package's one encoder of a scalar as JSON, and
`derivative` the one derivative of a coefficient list, which the exact
multiplicity chain and `roots`' cluster polish share.
A product of forms, and the cube of a quadratic, takes one of two paths
chosen by the coefficient ring.  When the exact factors' coefficients are
ints, Fractions and CycNums, at least one a CycNum, it is one integer
convolution over Q(zeta24) (`exact.cyclotomic_product` and
`exact.cyclotomic_cube`), on a layout built at most once per form and kept
on it (`form_layout`).  Every other product, of float, rational or ParamPoly
forms, takes one scalar product at a time (`exact.sparse_product`,
`_quadratic_cube`).
Both paths give equal coefficients; the convolution's are typed by value
(`EXACT.zero` itself, a Fraction or a CycNum).  `form_divexact` and
`form_gcd` multiply by the inverse of the divisor's lead.
Forms are immutable; all operations return new values, so they are safe to
share across threads (a cached layout is a pure function of the
coefficients).
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .exact import (
    ZERO,
    CycNum,
    ParamPoly,
    binary_power,
    cyclotomic_cube,
    cyclotomic_layout,
    cyclotomic_product,
    sparse_product,
)

# The float tolerance policy.  A threshold that more than one module applies
# is defined here, next to the float kernel; a threshold that one module
# alone applies is named at the top of that module.
FLOAT_TOL = 1e-9          # a floating result agrees to this relative residual
NEGLIGIBLE_REL = 1e-12    # the near-zero cut of classify and roots, far below FLOAT_TOL
UNDERFLOW_FLOOR = 1e-300  # scales are floored here, so a zero scale never zeroes a cut or a divisor

PROPORTIONAL_REL = 1e-7   # default cut on the cross products of proportional forms


class ExactKernel:
    """Scalars in Q, Q(zeta24) or a ParamPoly ring; zero means exactly zero
    (`bool(value)` is false), so `terms` and `degree` are ignored."""

    exact = True
    zero = ZERO
    one = Fraction(1)

    def is_zero(self, value, terms=(), degree=1) -> bool:
        return not value

    def inv(self, value):
        return value.inverse() if isinstance(value, CycNum) else Fraction(1) / value

    def div(self, num, den):
        # a ParamPoly divides exactly or raises ArithmeticError
        return num / den if isinstance(den, ParamPoly) else num * self.inv(den)

    @staticmethod
    def coerce(value):
        return value

    def __repr__(self) -> str:
        return "EXACT"


class FloatKernel:
    """Complex floats; zero means small against the terms a value is built from."""

    exact = False
    zero = 0j
    one = 1.0 + 0j

    def is_zero(self, value, terms, degree) -> bool:
        """|value| <= FLOAT_TOL * max|terms| ** degree; a NaN is never zero."""
        scale = max([abs(t) for t in terms]) ** degree
        return abs(value) <= FLOAT_TOL * max(scale, UNDERFLOW_FLOOR)

    def div(self, num, den):
        return num / den

    @staticmethod
    def coerce(value) -> complex:
        """The complex value of an exact or floating scalar; ValueError for a
        nonzero exact scalar whose complex value underflows to zero."""
        if isinstance(value, ParamPoly):
            raise TypeError("cannot promote a formal parameter to a complex number")
        if isinstance(value, CycNum):
            out = value.to_complex()
        elif isinstance(value, Fraction):
            out = complex(float(value))
        else:
            return complex(value)
        if value and not out:
            raise ValueError("a nonzero exact scalar underflows to zero as a float")
        return out

    def __repr__(self) -> str:
        return "FLOAT"


EXACT = ExactKernel()
FLOAT = FloatKernel()


def lift(values) -> tuple[list, object]:
    """The values of one call on one kernel, and that kernel.  One float or
    complex value makes it FLOAT, and every value is coerced to its complex
    value; otherwise it is EXACT and the values stay as they are."""
    values = list(values)
    if any(isinstance(v, (float, complex)) for v in values):
        return [FLOAT.coerce(v) for v in values], FLOAT
    return values, EXACT


def projective(*values) -> tuple:
    """(X1, ..., Xn, Z) with each value Xk/Z: integers over the lcm Z of the
    denominators when every value is an int or a Fraction, and the values
    themselves over Z = 1 otherwise."""
    if all([isinstance(v, (int, Fraction)) for v in values]):
        dens = [v.denominator for v in values]
        z = math.lcm(*dens)
        return (*[v.numerator * (z // q) for v, q in zip(values, dens)], z)
    return (*values, 1)


@dataclasses.dataclass(frozen=True)
class BinaryForm:
    degree: int
    coeffs: tuple
    kernel: object = EXACT

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def exact(degree: int, coeffs) -> BinaryForm:
        """An exact form; TypeError when a coefficient is a float or complex."""
        coeffs, kernel = lift(coeffs)
        if not kernel.exact:
            raise TypeError("an exact form takes no float or complex coefficient")
        return BinaryForm(degree, tuple(coeffs), EXACT)

    @staticmethod
    def floating(degree: int, coeffs) -> BinaryForm:
        return BinaryForm(degree, tuple([complex(c) for c in coeffs]), FLOAT)

    @staticmethod
    def zero(degree: int, kernel=EXACT) -> BinaryForm:
        return BinaryForm(degree, (kernel.zero,) * (degree + 1), kernel)

    def to_float(self) -> BinaryForm:
        if not self.kernel.exact:
            return self
        return BinaryForm(self.degree, tuple([FLOAT.coerce(c) for c in self.coeffs]), FLOAT)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        # the zero form is zero at its own scale, so every kernel tests exactly
        return not any(self.coeffs)

    def max_magnitude(self) -> float:
        """The largest coefficient modulus of a float form."""
        return max([abs(c) for c in self.coeffs])

    def equals(self, other: BinaryForm) -> bool:
        if self.degree != other.degree:
            return False
        terms = self.coeffs + other.coeffs
        return all(self.kernel.is_zero(a - b, terms, 1) for a, b in zip(self.coeffs, other.coeffs))

    def proportional_to(self, other: BinaryForm, rel_tol: float = PROPORTIONAL_REL) -> bool:
        """True when self and other span the same line of forms."""
        if self.degree != other.degree:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        a, b, n = self.coeffs, other.coeffs, self.degree + 1
        crosses = (a[i] * b[j] - a[j] * b[i] for i in range(n) for j in range(i + 1, n))
        if self.kernel.exact:
            return all(self.kernel.is_zero(cr) for cr in crosses)
        cut = rel_tol * max(self.max_magnitude() * other.max_magnitude(), UNDERFLOW_FLOOR)
        return not any(abs(cr) > cut for cr in crosses)

    # -- arithmetic ---------------------------------------------------------

    def _require_same_degree(self, other: BinaryForm):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: BinaryForm) -> BinaryForm:
        self._require_same_degree(other)
        return BinaryForm(self.degree, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]), self.kernel)

    def __sub__(self, other: BinaryForm) -> BinaryForm:
        self._require_same_degree(other)
        return BinaryForm(self.degree, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]), self.kernel)

    def __neg__(self) -> BinaryForm:
        return BinaryForm(self.degree, tuple([-a for a in self.coeffs]), self.kernel)

    def __mul__(self, other: BinaryForm) -> BinaryForm:
        d = self.degree + other.degree
        if self.kernel.exact and other.kernel.exact:
            layouts = _cyclotomic_layouts(self, other)
            if layouts:
                return BinaryForm(d, cyclotomic_product(*layouts), EXACT)
        return BinaryForm(d, sparse_product(self.coeffs, other.coeffs, self.kernel.zero), self.kernel)

    def scale(self, s) -> BinaryForm:
        return BinaryForm(self.degree, tuple([s * a for a in self.coeffs]), self.kernel)

    def __pow__(self, n: int) -> BinaryForm:
        if n < 0:
            raise ValueError("forms have no negative powers")
        if n == 0:
            return BinaryForm(0, (self.kernel.one,), self.kernel)
        if n == 3 and self.degree == 2:
            if self.kernel.exact:
                layouts = _cyclotomic_layouts(self)
                if layouts:
                    return BinaryForm(6, cyclotomic_cube(*layouts), EXACT)
            return BinaryForm(6, _quadratic_cube(*self.coeffs, self.kernel.zero), self.kernel)
        return binary_power(self, n)

    def evaluate(self, x, y):
        acc = None
        for k, c in enumerate(self.coeffs):
            term = c * x ** (self.degree - k) * y**k
            acc = term if acc is None else acc + term
        return acc

    def substituted(self, fx: BinaryForm, fy: BinaryForm) -> BinaryForm:
        """f(fx, fy) for two degree-1 forms, by homogeneous Horner:
        acc <- acc * fx + c_k * fy**k.  The workhorse behind compose."""
        if fx.degree != 1 or fy.degree != 1:
            raise ValueError("substitution needs two linear forms")
        acc = BinaryForm(0, self.coeffs[:1], self.kernel)
        power = None  # fy**k by running products
        for c in self.coeffs[1:]:
            power = fy if power is None else power * fy
            acc = acc * fx
            if c:
                acc = acc + power.scale(c)
        return acc


def form_layout(f: BinaryForm):
    """The form's `exact.cyclotomic_layout`, built at most once and kept on
    it; None when a coefficient is not an int, a Fraction or a CycNum.  The
    dataclass fields, and so equality and hashing, do not see it, and two
    threads that build it at once store equal values."""
    try:
        return f.__dict__["_layout"]
    except KeyError:
        layout = cyclotomic_layout(f.coeffs)
        object.__setattr__(f, "_layout", layout)
        return layout


def _cyclotomic_layouts(*forms):
    """The layouts of exact forms whose coefficients are ints, Fractions and
    CycNums, at least one a CycNum; else None, and the forms multiply
    through `sparse_product` and `_quadratic_cube`.  A form with no CycNum
    gets a layout only as the factor of one that has one."""
    if not any(CycNum in map(type, f.coeffs) for f in forms):
        return None
    layouts = [form_layout(f) for f in forms]
    return layouts if all(layouts) else None


def _quadratic_cube(a, b, c, zero) -> tuple:
    """Coefficients of (a x^2 + b xy + c y^2)^3 from its ten cubic monomials:
    a^3, 3a^2b, 3(a^2c + ab^2), b^3 + 6abc, 3(ac^2 + b^2c), 3bc^2, c^3, from
    a^2, b^2, c^2 and ab.  That is 14 ring products, against 24 for
    f * f**2.  Zero coefficients are skipped, so a slot that no nonzero
    monomial reaches holds `zero`, as in `sparse_product`."""
    out = [zero] * 7
    if a:
        a2 = a * a
        out[0] = a2 * a
    if c:
        c2 = c * c
        out[6] = c2 * c
    if not b:
        if a and c:
            out[2] = 3 * (a2 * c)
            out[4] = 3 * (a * c2)
        return tuple(out)
    b2 = b * b
    out[3] = b2 * b
    if a:
        ab = a * b
        out[1] = 3 * (a2 * b)
        out[2] = ab * b
    if c:
        out[4] = b2 * c
        out[5] = 3 * (b * c2)
    if a and c:
        out[2] = a2 * c + out[2]
        out[3] = out[3] + 6 * (ab * c)
        out[4] = a * c2 + out[4]
    if a:
        out[2] = 3 * out[2]
    if c:
        out[4] = 3 * out[4]
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class LinearChange:
    """(x, y) -> (alpha x + beta y, gamma x + delta y), invertible."""

    alpha: object
    beta: object
    gamma: object
    delta: object
    kernel: object = EXACT

    def det(self):
        return self.alpha * self.delta - self.beta * self.gamma

    def check_invertible(self):
        if self.kernel.is_zero(self.det(), (self.alpha, self.beta, self.gamma, self.delta), 2):
            raise ValueError("singular linear change")

    def inverse(self) -> LinearChange:
        self.check_invertible()
        k, d = self.kernel, self.det()
        return LinearChange(k.div(self.delta, d), k.div(-self.beta, d), k.div(-self.gamma, d), k.div(self.alpha, d), k)

    def then(self, other: LinearChange) -> LinearChange:
        """Matrix product: applying self after substituting with other.

        form_compose(f, self.then(other)) == form_compose(form_compose(f, self), other).
        """
        a = self.alpha * other.alpha + self.beta * other.gamma
        b = self.alpha * other.beta + self.beta * other.delta
        c = self.gamma * other.alpha + self.delta * other.gamma
        d = self.gamma * other.beta + self.delta * other.delta
        return LinearChange(a, b, c, d, self.kernel)


def form_compose(f: BinaryForm, m: LinearChange) -> BinaryForm:
    m.check_invertible()
    fx = BinaryForm(1, (m.alpha, m.beta), f.kernel)
    fy = BinaryForm(1, (m.gamma, m.delta), f.kernel)
    return f.substituted(fx, fy)


def _dehomogenize(f: BinaryForm):
    """Strip the y^m factor of a nonzero exact form; return (m, coefficients
    of f(x,1) highest power first, led by a nonzero one)."""
    m = next(k for k, c in enumerate(f.coeffs) if c)
    return m, list(f.coeffs[m:])


def _poly_trim(c):
    c = list(c)
    while len(c) > 1 and not c[0]:
        c.pop(0)
    return c


def _long_division(a, b):
    """Quotient and remainder of exact univariate polynomials, coefficients
    highest power first and b's lead nonzero, by the inverse of that lead.
    A zero running coefficient adds no quotient term, so such a slot holds
    `EXACT.zero`."""
    n = max(len(a) - len(b) + 1, 0)
    quot, rem, inv = [EXACT.zero] * n, list(a), EXACT.inv(b[0])
    for i in range(n):
        if not rem[i]:
            continue
        c = quot[i] = rem[i] * inv
        for j in range(1, len(b)):
            rem[i + j] = rem[i + j] - c * b[j]
    return quot, rem[n:]


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """A gcd up to scalar; the constant form 1 means relatively prime.  Exact
    kernel only: a float form's common factors are those of
    `roots.linear_factors`."""
    if not (f.kernel.exact and g.kernel.exact):
        raise TypeError("form gcd requires the exact kernel")
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    my, a = _dehomogenize(f)
    ny, b = _dehomogenize(g)
    while any(b):
        a, b = b, _poly_trim(_long_division(a, b)[1])
    # re-homogenize: y^ycommon shifts the x-polynomial toward higher k indices
    ycommon = min(my, ny)
    return BinaryForm(len(a) - 1 + ycommon, tuple([EXACT.zero] * ycommon + a), EXACT)


def derivative(coeffs, order: int = 1) -> list:
    """The order-th derivative of a univariate polynomial over any ring of
    scalars, coefficients highest power first, as in a form's (x, 1)."""
    out = list(coeffs)
    for _ in range(order):
        n = len(out) - 1
        out = [out[i] * (n - i) for i in range(n)]
    return out


def form_divexact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """The exact quotient f / g; exact kernel only.  A zero g raises
    ZeroDivisionError, a g that leaves a remainder raises ValueError, and a
    zero f gives the zero form of degree max(deg f - deg g, 0)."""
    kernel = f.kernel
    if not kernel.exact:
        raise TypeError("exact division requires the exact kernel")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero form")
    if f.is_zero():
        return BinaryForm.zero(max(f.degree - g.degree, 0))
    my, a = _dehomogenize(f)
    ny, b = _dehomogenize(g)
    if ny > my:
        raise ValueError("does not divide (y-multiplicity)")
    if len(b) > len(a):
        raise ValueError("does not divide (degree)")
    quot, rem = _long_division(a, b)
    if any(rem):
        raise ValueError("does not divide (remainder)")
    return BinaryForm(f.degree - g.degree, tuple([kernel.zero] * (my - ny) + quot), kernel)


def multiplicity_structure(p: BinaryForm) -> list[int]:
    """Sorted multiset of projective root multiplicities (root at infinity
    included); exact kernel only.  A float form's multiplicities are those
    of `roots.linear_factors`."""
    if not p.kernel.exact:
        raise TypeError("exact multiplicities require the exact kernel")
    if p.is_zero():
        raise ValueError("zero form has no multiplicity structure")
    # exact square-free chain on f(x,1), y-multiplicity tracked separately
    ym, a = _dehomogenize(p)
    mults = [ym] if ym else []
    if len(a) > 1:
        fx = BinaryForm(len(a) - 1, tuple(a), p.kernel)
        mults += _exact_multiplicities(fx)
    return sorted(mults, reverse=True)


def _exact_multiplicities(f: BinaryForm) -> list[int]:
    # multiplicities of f's x-roots via the gcd chain f, gcd(f, f'), ...
    chain = [f]
    cur = f
    while cur.degree > 0:
        der = BinaryForm(cur.degree - 1, tuple(derivative(cur.coeffs)), cur.kernel)
        g = form_gcd(cur, der)
        if g.degree == 0:
            break
        chain.append(g)
        cur = g
    # chain[i] has each root of multiplicity >= i+1, with multiplicity reduced by i
    counts = []
    degrees = [c.degree for c in chain] + [0]
    # number of roots with multiplicity exactly k:
    #   (deg chain[k-1] - deg chain[k]) - (deg chain[k] - deg chain[k+1]) summed out
    distinct_at_least = [degrees[i] - degrees[i + 1] for i in range(len(chain))]
    for k in range(len(distinct_at_least), 0, -1):
        exactly = distinct_at_least[k - 1] - (distinct_at_least[k] if k < len(distinct_at_least) else 0)
        counts += [k] * exactly
    return counts


def scalar_json(v):
    """The JSON value of a scalar: an exact rational as its string, a
    non-rational CycNum as its eight coordinates, a float as [re, im]."""
    if isinstance(v, (int, Fraction)):
        return str(v)
    if isinstance(v, CycNum):
        coords = v.coeffs
        if not any(coords[1:]):
            return str(coords[0])
        return {"cyclotomic": [str(c) for c in coords]}
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, float):
        return [v, 0.0]
    raise TypeError(f"no serialization for {type(v).__name__}")


def form_to_json(f: BinaryForm) -> dict:
    return {"degree": f.degree, "coeffs": [scalar_json(c) for c in f.coeffs]}


def det3(rows):
    """Determinant of a 3x3 matrix of scalars, by cofactors along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def norm2(values) -> float:
    """The 2-norm of complex values, without overflow or underflow in the squares."""
    return math.hypot(*[abs(v) for v in values])


def relative_residual(got: BinaryForm, want: BinaryForm) -> float:
    """Coefficient 2-norm of got - want over that of want, in complex floats."""
    num = norm2([complex(a) - complex(b) for a, b in zip(got.coeffs, want.coeffs)])
    den = norm2([complex(b) for b in want.coeffs])
    return num / max(den, UNDERFLOW_FLOOR)
