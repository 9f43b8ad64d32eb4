"""Binary forms in (x, y) over a pluggable scalar kernel.

A form of degree d is the coefficient tuple (c0, ..., cd) of
sum_k c_k x^(d-k) y^k.  Two kernels are provided: an exact one whose scalars
are Fractions, CycNums or ParamPolys, and a complex floating one with
relative-tolerance equality.  Each kernel owns its scalar protocol (`zero`,
`one`, `is_zero`, `negligible`, `div`, `coerce` and the `exact` flag; the exact
kernel adds `inv`), so code above this module asks the kernel, not the type.
`scalar_json` is the package's one encoder of a scalar as JSON.
Forms are immutable; all operations return new values, so they are safe to
share across threads.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .exact import CycNum, ParamPoly, binary_power, sparse_product

# The float tolerance policy.  A threshold that more than one module applies
# is defined here, next to the float kernel; a threshold that one module
# alone applies is named at the top of that module.
FLOAT_TOL = 1e-9          # a floating result agrees to this relative residual
NEGLIGIBLE_REL = 1e-12    # floating values below this share of their scale count as zero
UNDERFLOW_FLOOR = 1e-300  # scales are floored here, so a zero scale never zeroes a cut or a divisor

PROPORTIONAL_REL = 1e-7   # default cut on the cross products of proportional forms


class ExactKernel:
    """Scalars in Q, Q(zeta24) or a ParamPoly ring; zero means exactly zero
    (`bool(value)` is false), so every scale argument is ignored."""

    exact = True
    zero = Fraction(0)
    one = Fraction(1)

    def is_zero(self, value, scale=None) -> bool:
        return not value

    negligible = is_zero

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
    """Complex floats; zero means small against a scale."""

    exact = False
    zero = 0j
    one = 1.0 + 0j

    def is_zero(self, value, scale=1.0) -> bool:
        return abs(value) <= FLOAT_TOL * max(scale, UNDERFLOW_FLOOR)

    def negligible(self, value, scale) -> bool:
        """The coefficient cut used to trim and dehomogenize forms."""
        return abs(value) <= NEGLIGIBLE_REL * max(scale, UNDERFLOW_FLOOR)

    def div(self, num, den):
        return num / den

    @staticmethod
    def coerce(value) -> complex:
        """The complex value of an exact or floating scalar."""
        if isinstance(value, CycNum):
            return value.to_complex()
        if isinstance(value, ParamPoly):
            raise TypeError("cannot promote a formal parameter to a complex number")
        if isinstance(value, Fraction):
            return complex(float(value))
        return complex(value)

    def __repr__(self) -> str:
        return "FLOAT"


EXACT = ExactKernel()
FLOAT = FloatKernel()


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
        scale = None if self.kernel.exact else max(self.max_magnitude(), other.max_magnitude())
        return all(self.kernel.is_zero(a - b, scale) for a, b in zip(self.coeffs, other.coeffs))

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
        if self.kernel.exact:
            return BinaryForm(d, sparse_product(self.coeffs, other.coeffs, self.kernel.zero), self.kernel)
        # the float product stays dense: decomp.rep_count reproduces these bits
        out = [self.kernel.zero] * (d + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BinaryForm(d, tuple(out), self.kernel)

    def scale(self, s) -> BinaryForm:
        return BinaryForm(self.degree, tuple([s * a for a in self.coeffs]), self.kernel)

    def __pow__(self, n: int) -> BinaryForm:
        if n < 0:
            raise ValueError("forms have no negative powers")
        if n == 0:
            return BinaryForm(0, (self.kernel.one,), self.kernel)
        if n == 3 and self.degree == 2 and self.kernel.exact:
            return BinaryForm(6, _quadratic_cube(*self.coeffs, self.kernel.zero), self.kernel)
        # float cubes stay f * f**2: decomp.rep_count reproduces those bits
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
        k = self.kernel
        scale = None if k.exact else max(abs(self.alpha), abs(self.beta), abs(self.gamma), abs(self.delta)) ** 2
        if k.is_zero(self.det(), scale):
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


def _y_multiplicity(f: BinaryForm) -> int:
    scale = None if f.kernel.exact else f.max_magnitude()
    m = 0
    while m < len(f.coeffs) and f.kernel.negligible(f.coeffs[m], scale):
        m += 1
    return m


def _dehomogenize(f: BinaryForm):
    """Strip the y^m factor; return (m, coefficients of f(x,1) highest power first)."""
    m = _y_multiplicity(f)
    return m, list(f.coeffs[m:])


def _poly_trim(c, kernel, scale):
    c = list(c)
    while len(c) > 1 and kernel.negligible(c[0], scale):
        c.pop(0)
    return c


def _long_division(a, b, kernel, scale):
    """Quotient and remainder of univariate polynomials, coefficients highest
    power first, b's lead not negligible.  A negligible running coefficient
    adds no quotient term, so such a slot holds `kernel.zero`."""
    n = max(len(a) - len(b) + 1, 0)
    quot, rem, lead = [kernel.zero] * n, list(a), b[0]
    inv = kernel.inv(lead) if kernel.exact else None
    for i in range(n):
        if kernel.negligible(rem[i], scale):
            continue
        # floats divide at each step, which keeps the bits of the float gcd
        c = quot[i] = rem[i] * inv if kernel.exact else kernel.div(rem[i], lead)
        for j in range(1, len(b)):
            rem[i + j] = rem[i + j] - c * b[j]
    return quot, rem[n:]


def _is_poly_zero(a, kernel, scale):
    return all(kernel.negligible(c, scale) for c in a)


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """A gcd up to scalar; the constant form 1 means relatively prime.

    The floating kernel truncates remainders below NEGLIGIBLE_REL of the
    operand scale, which is the documented meaning of 'common factor' there.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero forms")
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    kernel = f.kernel
    scale = None if kernel.exact else max(f.max_magnitude(), g.max_magnitude())
    my, a = _dehomogenize(f)
    ny, b = _dehomogenize(g)
    ycommon = min(my, ny)
    a = _poly_trim(a, kernel, scale)
    b = _poly_trim(b, kernel, scale)
    while not _is_poly_zero(b, kernel, scale):
        a, b = b, _poly_trim(_long_division(a, b, kernel, scale)[1], kernel, scale)
    # re-homogenize: y^ycommon shifts the x-polynomial toward higher k indices
    deg = len(a) - 1 + ycommon
    return BinaryForm(deg, tuple([kernel.zero] * ycommon + a), kernel)


def form_derivative_x(f: BinaryForm) -> BinaryForm:
    if f.degree == 0:
        return BinaryForm.zero(0, f.kernel)
    out = []
    for k in range(f.degree):
        out.append(f.coeffs[k] * (f.degree - k))
    return BinaryForm(f.degree - 1, tuple(out), f.kernel)


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
    quot, rem = _long_division(a, b, kernel, None)
    if any(rem):
        raise ValueError("does not divide (remainder)")
    return BinaryForm(f.degree - g.degree, tuple([kernel.zero] * (my - ny) + quot), kernel)


def multiplicity_structure(p: BinaryForm) -> list[int]:
    """Sorted multiset of projective root multiplicities (root at infinity included)."""
    if p.is_zero():
        raise ValueError("zero form has no multiplicity structure")
    if not p.kernel.exact:
        from .roots import linear_factors

        _, roots = linear_factors(p)
        return sorted((r.multiplicity for r in roots), reverse=True)
    # exact square-free chain on f(x,1), y-multiplicity tracked separately
    ym, a = _dehomogenize(p)
    mults = [ym] if ym else []
    a = _poly_trim(a, p.kernel, 1.0)
    if len(a) > 1:
        fx = BinaryForm(len(a) - 1, tuple(a), p.kernel)
        mults += _exact_multiplicities(fx)
    return sorted(mults, reverse=True)


def _exact_multiplicities(f: BinaryForm) -> list[int]:
    # multiplicities of f's x-roots via the gcd chain f, gcd(f, f'), ...
    chain = [f]
    cur = f
    while cur.degree > 0:
        der = form_derivative_x(cur)
        if der.is_zero():
            break
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
        if not any(v.num[1:]):
            return str(Fraction(v.num[0], v.den))
        return {"cyclotomic": [str(c) for c in v.coeffs]}
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
