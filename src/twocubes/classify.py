"""Structure theory of equal two-cube sums.

An honest family f1^3 + f2^3 = f3^3 + f4^3 always admits an arrangement in
which one signed pair sum is a scalar multiple T of the other; this module
detects that scalar (the family's type), diagonalizes coprime quadratic
pairs, completes the tame and wild one-parameter families, and produces the
linear change of variables carrying any honest type-T family onto the
reference family with the same T.
"""
from __future__ import annotations

import cmath
import dataclasses
import math

from .exact import OMEGA
from .forms import (EXACT, FLOAT, FLOAT_TOL, NEGLIGIBLE_REL, UNDERFLOW_FLOOR, BinaryForm, LinearChange,
                    form_compose, form_gcd, relative_residual)

TYPE_PROP_TOL = 1e-8       # proportionality tolerance in arrangement search
SQUARE_DISC_TOL = 1e-8     # relative discriminant bound for square extraction
CANON_MATCH_TOL = 1e-7     # relative tolerance on canonicalization output
DEGENERATE_REL = 1e-10     # relative cut under which a pencil, pair or type degenerates
ARRANGEMENT_TOL = 1e-6     # relative residual accepted for f1 + f2 = T (f3 + f4)
COINCIDENT_REL = 1e-9      # relative distance under which the two pencil roots coincide
SIGN_CUT = 1e-15           # real parts within this of zero count as zero when fixing a sign

_W = complex(OMEGA.to_complex())

# Arrangements compatible with f1^3 + f2^3 = f3^3 + f4^3, searched in order:
# each entry is ((a, b, sign_b), (c, d, sign_d)) encoding the candidate
# proportionality  f_a + sign_b*w^i*f_b  =  T * (f_c + sign_d*w^j*f_d).
_SPLITS = (
    ((0, 1, 1), (2, 3, 1)),
    ((2, 1, -1), (0, 3, -1)),
    ((3, 1, -1), (0, 2, -1)),
    # the same three reversed: a formal T may be a polynomial one way only
    ((2, 3, 1), (0, 1, 1)),
    ((0, 3, -1), (2, 1, -1)),
    ((0, 2, -1), (3, 1, -1)),
)
_OMEGA_ORDER = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))


def _twists(kernel) -> dict:
    """The six twists sign * w^k, k = 0, 1, 2, as scalars of one kernel."""
    omega = kernel.coerce(OMEGA)
    return {sign: tuple([omega ** k * sign for k in range(3)]) for sign in (1, -1)}


_TWISTS = {kernel: _twists(kernel) for kernel in (EXACT, FLOAT)}


@dataclasses.dataclass(frozen=True)
class TypeTag:
    T: object
    split: int
    omega_left: int
    omega_right: int

    def describe(self) -> str:
        (a, b, sb), (c, d, sd) = _SPLITS[self.split]
        def side(u, v, sv, k):
            sign = "+" if sv > 0 else "-"
            power = "" if k == 0 else f"w^{k}*"
            return f"f{u + 1} {sign} {power}f{v + 1}"
        return (
            f"{side(a, b, sb, self.omega_left)} = T*({side(c, d, sd, self.omega_right)})"
        )


def _check_equal_cube_sums(f1, f2, f3, f4):
    lhs = f1 ** 3 + f2 ** 3
    rhs = f3 ** 3 + f4 ** 3
    if lhs.kernel.exact:
        if not lhs.equals(rhs):
            raise ValueError("cube sums differ")
    elif relative_residual(lhs, rhs) > FLOAT_TOL:
        raise ValueError("cube sums differ beyond tolerance")


def type_detect(f1: BinaryForm, f2: BinaryForm, f3: BinaryForm,
                f4: BinaryForm) -> TypeTag:
    """Scalar T and arrangement with f_a + w^i f_b = T(f_c + w^j f_d)."""
    forms = (f1, f2, f3, f4)
    if any(f.degree != 2 for f in forms):
        raise ValueError("four quadratic forms required")
    kernel = f1.kernel
    _check_equal_cube_sums(f1, f2, f3, f4)
    for i, a in enumerate(forms):
        for b in forms[i + 1:]:
            if a.proportional_to(b, rel_tol=DEGENERATE_REL):
                raise ValueError("dishonest family: proportional members")
    twists = _TWISTS[kernel]
    for split_index, ((a, b, sb), (c, d, sd)) in enumerate(_SPLITS):
        # the twisted (CycNum) member first: Fraction + CycNum would reach
        # CycNum.__add__ only after Fraction.__add__ returns NotImplemented
        lefts = [forms[b].scale(w) + forms[a] for w in twists[sb]]
        rights = [forms[d].scale(w) + forms[c] for w in twists[sd]]
        for i, j in _OMEGA_ORDER:
            left, right = lefts[i], rights[j]
            if right.is_zero() or left.is_zero():
                continue
            if not left.proportional_to(right, rel_tol=TYPE_PROP_TOL):
                continue
            try:
                T = _coefficient_ratio(left, right, kernel)
            except ArithmeticError:  # a formal parameter's ratio that does not divide
                continue
            return TypeTag(T, split_index, i, j)
    raise ArithmeticError(
        "no type arrangement found; honest equal sums always admit one"
    )


def _coefficient_ratio(left: BinaryForm, right: BinaryForm, kernel):
    if kernel.exact:
        for num, den in zip(left.coeffs, right.coeffs):
            if not kernel.is_zero(den):
                return kernel.div(num, den)
        raise ValueError("zero form has no ratio")
    cr = [complex(c) for c in right.coeffs]
    k = max(range(len(cr)), key=lambda idx: abs(cr[idx]))
    return complex(left.coeffs[k]) / cr[k]


# ------------------------------------------------------------- diagonalize

def _quadratic_coeffs(f: BinaryForm):
    a, b, c = (complex(v) for v in f.to_float().coeffs)
    return a, b, c


def _square_root_of_quadratic(q: BinaryForm) -> BinaryForm:
    """Linear ell with ell^2 = q, for q with (numerically) zero discriminant;
    the sign makes the leading nonzero coefficient lie in the right half
    plane (or on the positive imaginary axis)."""
    a, b, c = _quadratic_coeffs(q)
    scale = (abs(a) + abs(b) + abs(c)) ** 2
    disc = b * b - 4 * a * c
    if abs(disc) > SQUARE_DISC_TOL * max(scale, UNDERFLOW_FLOOR):
        raise ValueError("quadratic is not a perfect square")
    if abs(a) >= abs(c):
        s = cmath.sqrt(a)
        ell = (s, b / (2 * s)) if abs(s) > 0 else (0j, cmath.sqrt(c))
    else:
        t = cmath.sqrt(c)
        ell = (b / (2 * t), t)
    lead = ell[0] if abs(ell[0]) > NEGLIGIBLE_REL * (abs(ell[0]) + abs(ell[1])) else ell[1]
    if lead.real < -SIGN_CUT or (abs(lead.real) <= SIGN_CUT and lead.imag < 0):
        ell = (-ell[0], -ell[1])
    return BinaryForm.floating(1, ell)


def diagonalize(f1: BinaryForm, f2: BinaryForm) -> LinearChange:
    """Linear change M making both quadratics even (no xy term).

    The pencil u*f1 + f2 contains two independent perfect squares ell_1^2,
    ell_2^2 (two roots of its discriminant, or f1 itself plus one root when
    f1 is already a square); M sends ell_1, ell_2 to the coordinates."""
    if f1.degree != 2 or f2.degree != 2:
        raise ValueError("quadratic forms required")
    if form_gcd(f1, f2).degree > 0:
        raise ValueError("forms share a factor; diagonalization needs coprime inputs")
    a1, b1, c1 = _quadratic_coeffs(f1)
    a2, b2, c2 = _quadratic_coeffs(f2)
    # Disc(u*f1 + f2) = A u^2 + B u + C
    A = b1 * b1 - 4 * a1 * c1
    B = 2 * b1 * b2 - 4 * (a1 * c2 + a2 * c1)
    C = b2 * b2 - 4 * a2 * c2
    scale = max(abs(v) for v in (a1, b1, c1, a2, b2, c2)) ** 2
    f1f = f1.to_float()
    f2f = f2.to_float()
    squares = []
    if abs(A) > DEGENERATE_REL * max(scale, UNDERFLOW_FLOOR):
        root = cmath.sqrt(B * B - 4 * A * C)
        for sign in (1, -1):
            u = (-B + sign * root) / (2 * A)
            squares.append(f1f.scale(u) + f2f)
    else:
        # f1 is itself the square member at infinity of the pencil
        squares.append(f1f)
        if abs(B) <= DEGENERATE_REL * max(scale, UNDERFLOW_FLOOR):
            raise ValueError("degenerate pencil; forms are not coprime")
        squares.append(f1f.scale(-C / B) + f2f)
    ell1 = _square_root_of_quadratic(squares[0])
    ell2 = _square_root_of_quadratic(squares[1])
    l11, l12 = (complex(v) for v in ell1.coeffs)
    l21, l22 = (complex(v) for v in ell2.coeffs)
    det = l11 * l22 - l12 * l21
    if abs(det) <= DEGENERATE_REL * max(abs(l11), abs(l12), abs(l21), abs(l22)) ** 2:
        raise ValueError("pencil squares are dependent; forms are not coprime")
    return LinearChange(l22 / det, -l12 / det, -l21 / det, l11 / det, FLOAT)


# ------------------------------------------------------------ tame / wild

def tame_complete(gamma):
    """Diagonal pair completing x^2 +- gamma*xy + y^2 to equal cube sums.

    Returns (f1, f2, f3, f4, T): f3, f4 = x^2 +- gamma*xy + y^2 and
    f1 = r*x^2 + s*y^2, f2 = s*x^2 + r*y^2 where r, s are the roots of
    X^2 - P*X + 2(1+gamma^2)/P with P = (8+6*gamma^2)^(1/3), so that both
    sums equal 2*(x^6 + 3(1+g^2)x^4y^2 + 3(1+g^2)x^2y^4 + y^6); T = P/2.
    """
    g = complex(gamma)
    if abs(g) < NEGLIGIBLE_REL:
        raise ValueError("gamma = 0 degenerates the pair")
    base = 8 + 6 * g * g
    if abs(base) < NEGLIGIBLE_REL:
        raise ValueError("gamma^2 = -4/3 is excluded")
    P = base ** (1.0 / 3.0)
    Q = 2 * (1 + g * g) / P
    root = cmath.sqrt(P * P - 4 * Q)
    r = (P + root) / 2
    s = (P - root) / 2
    f1 = BinaryForm.floating(2, [r, 0, s])
    f2 = BinaryForm.floating(2, [s, 0, r])
    f3 = BinaryForm.floating(2, [1, g, 1])
    f4 = BinaryForm.floating(2, [1, -g, 1])
    t_coeff = 3 * (1 + g * g)
    target = BinaryForm.floating(6, [2, 0, 2 * t_coeff, 0, 2 * t_coeff, 0, 2])
    for fa, fb in ((f1, f2), (f3, f4)):
        if relative_residual(fa ** 3 + fb ** 3, target) > FLOAT_TOL:
            raise ArithmeticError("tame completion failed its sum contract")
    return f1, f2, f3, f4, P / 2


def wild_family(d):
    """The one-parameter family with three representations of one sextic.

    Returns (f1, f2, f3, f4, third, T): f1^3 + f2^3 = f3^3 + f4^3, the
    linear relation f1 + d^2 f2 = d^2 f3 + f4 = (1+d^3)x^2 + (1-d^3)y^2
    holds, the flip f1^3 - f4^3 = f3^3 - f2^3 holds, and third =
    (f1(x,-y), f2(x,-y)) is a further representation of the common sum
    (the sum is even while f1, f2 carry odd cross terms); T = d^2.
    """
    dv = complex(d)
    if abs(dv) < NEGLIGIBLE_REL or abs(dv ** 6 - 1) < NEGLIGIBLE_REL:
        raise ValueError("d*(d^6 - 1) = 0 is excluded")
    r = dv ** 3
    u = cmath.sqrt(1 - dv ** 6)
    s3 = math.sqrt(3.0)
    f1 = BinaryForm.floating(2, [1, -2 * s3 * r / u, 1])
    f2 = BinaryForm.floating(2, [dv, 2 * s3 * dv / u, -dv])
    denom = 1 - dv ** 6
    f3 = BinaryForm.floating(
        2, [-dv * (2 + 3 * r + r * r) / denom, 0, dv * (2 - 3 * r + r * r) / denom]
    )
    f4 = BinaryForm.floating(
        2, [(1 + 3 * r + 2 * r * r) / denom, 0, (1 - 3 * r + 2 * r * r) / denom]
    )
    p = f1 ** 3 + f2 ** 3
    if relative_residual(f3 ** 3 + f4 ** 3, p) > FLOAT_TOL:
        raise ArithmeticError("wild family failed its equal-sum contract")
    if relative_residual(f1 ** 3 - f4 ** 3, f3 ** 3 - f2 ** 3) > FLOAT_TOL:
        raise ArithmeticError("wild family failed its flip contract")
    line = BinaryForm.floating(2, [1 + r, 0, 1 - r])
    dsq = dv * dv
    if (
        relative_residual(f1 + f2.scale(dsq), line) > FLOAT_TOL
        or relative_residual(f3.scale(dsq) + f4, line) > FLOAT_TOL
    ):
        raise ArithmeticError("wild family failed its linear relation")
    third = (_negate_y(f1), _negate_y(f2))
    if relative_residual(third[0] ** 3 + third[1] ** 3, p) > FLOAT_TOL:
        raise ArithmeticError("wild family failed its third-representation contract")
    return f1, f2, f3, f4, third, dsq


def _negate_y(f: BinaryForm) -> BinaryForm:
    return BinaryForm.floating(
        2, [f.coeffs[0], -complex(f.coeffs[1]), f.coeffs[2]]
    )


# -------------------------------------------------------- canonicalization

def reference_family(lam):
    """The type-lambda^2 reference family (floating kernel): the arrangement
    (g1, g2, g3, g4) with g1^3 + g2^3 = g3^3 + g4^3 and g1 + g2 =
    lam^2 (g3 + g4)."""
    lv = complex(lam)
    w, w2 = _W, _W * _W
    l3, l4 = lv ** 3, lv ** 4
    F3 = BinaryForm.floating(2, [l3 * w2, -1, l3 * w])
    F5 = BinaryForm.floating(2, [l3 * w, -1, l3 * w2])
    F4 = BinaryForm.floating(2, [-lv * w2, l4, -lv * w])
    F6 = BinaryForm.floating(2, [-lv * w, l4, -lv * w2])
    return F3, -F5, -F4, F6


def _phi_roots(T: complex):
    """Roots r of (4 - T^3) r^2 - (4 + 2 T^3) r + (4 - T^3), ordered."""
    a = 4 - T ** 3
    b = -(4 + 2 * T ** 3)
    if abs(a) < NEGLIGIBLE_REL * max(1.0, abs(b)):
        raise ValueError("T^3 = 4 degenerates the square pencil")
    root = cmath.sqrt(b * b - 4 * a * a)
    r1 = (-b + root) / (2 * a)
    r2 = (-b - root) / (2 * a)
    if (round(r2.real, 9), round(r2.imag, 9)) < (round(r1.real, 9), round(r1.imag, 9)):
        r1, r2 = r2, r1
    if abs(r1 - r2) < COINCIDENT_REL * max(1.0, abs(r1)):
        raise ValueError("coincident square-pencil roots; type is degenerate")
    return r1, r2


def _square_pencil_lines(f3: BinaryForm, f4: BinaryForm, roots):
    return tuple([
        _square_root_of_quadratic(f3.to_float() + f4.to_float().scale(-r))
        for r in roots
    ])


def canonicalize_type(f1: BinaryForm, f2: BinaryForm, f3: BinaryForm,
                      f4: BinaryForm, lam) -> LinearChange:
    """Linear change M carrying an honest type-(lam^2) family, arranged so
    that f1 + f2 = lam^2 (f3 + f4), onto the reference family: f3.M and
    f4.M hit the reference pair exactly and {f1.M, f2.M} matches the
    reference completion up to cube roots of unity."""
    lv = complex(lam)
    T = lv * lv
    if abs(T) < DEGENERATE_REL or abs(T ** 3 - 1) < DEGENERATE_REL:
        raise ValueError("T(T^3 - 1) = 0 is excluded")
    forms = tuple([f.to_float() for f in (f1, f2, f3, f4)])
    _check_equal_cube_sums(*forms)
    arrangement = forms[0] + forms[1]
    right = forms[2] + forms[3]
    if relative_residual(arrangement, right.scale(T)) > ARRANGEMENT_TOL:
        raise ValueError(
            "family must be arranged with f1 + f2 = lam^2 (f3 + f4)"
        )
    roots = _phi_roots(T)
    try:
        ells = _square_pencil_lines(forms[2], forms[3], roots)
    except ValueError as exc:
        raise ValueError(f"dishonest family: {exc}") from exc
    ref = reference_family(lv)
    ref_ells = _square_pencil_lines(ref[2], ref[3], roots)
    l11, l12 = (complex(v) for v in ells[0].coeffs)
    l21, l22 = (complex(v) for v in ells[1].coeffs)
    det = l11 * l22 - l12 * l21
    if abs(det) <= DEGENERATE_REL * max(abs(l11) + abs(l12), abs(l21) + abs(l22)) ** 2:
        raise ValueError("dishonest family: dependent square pencil")
    h11, h12 = (complex(v) for v in ref_ells[0].coeffs)
    h21, h22 = (complex(v) for v in ref_ells[1].coeffs)
    # M = L^{-1} * Lhat so that ell_j composed with M equals the reference line
    inverse = LinearChange(l22 / det, -l12 / det, -l21 / det, l11 / det, FLOAT)
    m = inverse.then(LinearChange(h11, h12, h21, h22, FLOAT))
    m.check_invertible()
    images = tuple([form_compose(f, m) for f in forms])
    for image, target in ((images[2], ref[2]), (images[3], ref[3])):
        if relative_residual(image, target) > CANON_MATCH_TOL:
            raise ArithmeticError("canonicalization failed to hit the reference pair")
    got = {0: images[0] ** 3, 1: images[1] ** 3}
    want = (ref[0] ** 3, ref[1] ** 3)
    direct = (
        relative_residual(got[0], want[0]) <= CANON_MATCH_TOL
        and relative_residual(got[1], want[1]) <= CANON_MATCH_TOL
    )
    swapped = (
        relative_residual(got[0], want[1]) <= CANON_MATCH_TOL
        and relative_residual(got[1], want[0]) <= CANON_MATCH_TOL
    )
    if not (direct or swapped):
        raise ArithmeticError("canonicalization failed to match the completion pair")
    return m
