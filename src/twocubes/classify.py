"""Structure theory of equal two-cube sums.

An honest family f1^3 + f2^3 = f3^3 + f4^3 always admits an arrangement in
which one signed pair sum is a scalar multiple T of the other, and that
arrangement is the one linear relation of the four quadratics.  This module
detects that scalar (the family's type) from the relation's coefficients,
diagonalizes coprime quadratic pairs, completes the tame and wild
one-parameter families, and produces the linear change of variables
carrying any honest type-T family onto the reference family with the same T.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from fractions import Fraction

from .exact import OMEGA
from .families import f_forms, mirror, tame_mirror_pair, wild_family_cleared
from .forms import (EXACT, FLOAT, FLOAT_TOL, NEGLIGIBLE_REL, UNDERFLOW_FLOOR, BinaryForm, LinearChange,
                    det3, form_compose, lift, projective, relative_residual)

TYPE_PROP_TOL = 1e-8       # proportionality tolerance in arrangement search
SQUARE_DISC_TOL = 1e-8     # relative discriminant bound for square extraction
CANON_MATCH_TOL = 1e-7     # relative tolerance on canonicalization output
DEGENERATE_REL = 1e-10     # relative cut under which a pencil, pair or type degenerates
ARRANGEMENT_TOL = 1e-6     # relative residual accepted for f1 + f2 = T (f3 + f4)
COINCIDENT_REL = 1e-9      # relative distance under which the two pencil roots coincide
SIGN_CUT = 1e-15           # real parts within this of zero count as zero when fixing a sign

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


def _twists(kernel) -> dict:
    """The six twists sign * w^k, k = 0, 1, 2, as scalars of one kernel.  The
    k = 0 twist is the sign itself, the int +-1 on the exact kernel, so a
    rational side stays rational."""
    omega = kernel.coerce(OMEGA)
    return {sign: (kernel.coerce(sign), omega * sign, omega ** 2 * sign) for sign in (1, -1)}


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
    elif relative_residual(lhs.coeffs, rhs.coeffs) > FLOAT_TOL:
        raise ValueError("cube sums differ beyond tolerance")


def type_detect(f1: BinaryForm, f2: BinaryForm, f3: BinaryForm,
                f4: BinaryForm) -> TypeTag:
    """Scalar T and arrangement with f_a + w^i f_b = T(f_c + w^j f_d).

    The four quadratics satisfy sum alpha_k f_k = 0, and an arrangement is
    such a relation with coefficients (1, s_b w^i, -T, -T s_d w^j) on
    (f_a, f_b, f_c, f_d).  Equal cube sums of pairwise non-proportional
    quadratics span all three dimensions, so the relation is unique and a
    split names one candidate at most: alpha_b = s_b w^i alpha_a and
    alpha_d = s_d w^j alpha_c.  An exact kernel takes the twists that hold
    exactly, and the relation proves the sides proportional; a float kernel
    takes the nearest twists and tests the sides' proportionality.  A
    rational relation holds only the k = 0 twist, the int sign, so rational
    input builds both sides over Q and T is a Fraction.

    When every coefficient is rational, the cube-sum check, the tests for
    proportional members and the relation's minors run on the four forms
    times D, the lcm of the coefficients' denominators: integer forms whose
    cube sums, proportions and relation are those of the inputs up to
    powers of D, so every T, split and twist, and every refusal, is the
    same.  Any other coefficient leaves D = 1.  The two sides, and T, come
    from the forms as given."""
    if any(f.degree != 2 for f in (f1, f2, f3, f4)):
        raise ValueError("four quadratic forms required")
    # one kernel for all four: every form is float when any of them is
    coeffs, kernel = lift([c for f in (f1, f2, f3, f4) for c in f.coeffs])
    forms = _quadratics(coeffs, kernel)
    cleared = _quadratics(projective(*coeffs)[:12], kernel)
    _check_equal_cube_sums(*cleared)
    for i, a in enumerate(cleared):
        for b in cleared[i + 1:]:
            if a.proportional_to(b, rel_tol=DEGENERATE_REL):
                raise ValueError("dishonest family: proportional members")
    alpha = _relation(cleared, kernel)
    twists = _TWISTS[kernel]
    for split_index, ((a, b, sb), (c, d, sd)) in enumerate(_SPLITS):
        i = _twist(alpha[a], alpha[b], twists[sb], kernel)
        j = _twist(alpha[c], alpha[d], twists[sd], kernel)
        if i is None or j is None:
            continue
        # the twisted member first: when it is a CycNum, Fraction + CycNum
        # would reach CycNum.__add__ only after Fraction.__add__ returns
        # NotImplemented
        left = forms[b].scale(twists[sb][i]) + forms[a]
        right = forms[d].scale(twists[sd][j]) + forms[c]
        if not kernel.exact and not left.proportional_to(right, rel_tol=TYPE_PROP_TOL):
            continue
        try:
            T = _coefficient_ratio(left, right, kernel)
        except ArithmeticError:  # a formal parameter's ratio that does not divide
            continue
        return TypeTag(T, split_index, i, j)
    raise ArithmeticError(
        "no type arrangement found; honest equal sums always admit one"
    )


def _quadratics(coeffs, kernel) -> tuple:
    """Four quadratic forms from their twelve coefficients."""
    return tuple([BinaryForm(2, tuple(coeffs[k:k + 3]), kernel) for k in range(0, 12, 3)])


def _relation(forms, kernel) -> list:
    """alpha with sum alpha_k f_k = 0 for four quadratics: alpha_k is the
    signed 3x3 minor of the other three coefficient rows."""
    rows = [f.coeffs for f in forms]
    if not kernel.exact:
        # one power of two for every row keeps the minors' ratios bit for
        # bit and their triple products inside the float range
        unit = math.ldexp(1.0, -math.frexp(max([abs(c) for row in rows for c in row]))[1])
        rows = [[unit * c for c in row] for row in rows]
    minors = [det3(rows[:k] + rows[k + 1:]) for k in range(4)]
    return [m if k % 2 == 0 else -m for k, m in enumerate(minors)]


def _twist(alpha_from, alpha_to, twists, kernel):
    """k with alpha_to = twists[k] * alpha_from: exactly on an exact kernel,
    the nearest on a float one; None when alpha_from is zero or no twist fits.
    The ratio of two rational coefficients is rational, and s * w^k is
    rational only at k = 0, so that twist is the only one tried on them."""
    if not alpha_from:
        return None
    if kernel.exact:
        rational = isinstance(alpha_from, (int, Fraction)) and isinstance(alpha_to, (int, Fraction))
        return next((k for k in range(1 if rational else 3) if not twists[k] * alpha_from - alpha_to), None)
    return min(range(3), key=lambda k: abs(twists[k] * alpha_from - alpha_to))


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
    a1, b1, c1 = _quadratic_coeffs(f1)
    a2, b2, c2 = _quadratic_coeffs(f2)
    # Disc(u*f1 + f2) = A u^2 + B u + C
    A = b1 * b1 - 4 * a1 * c1
    B = 2 * b1 * b2 - 4 * (a1 * c2 + a2 * c1)
    C = b2 * b2 - 4 * a2 * c2
    scale = max(abs(v) for v in (a1, b1, c1, a2, b2, c2)) ** 2
    # B^2 - 4AC = 16 Res(f1, f2), which vanishes when the forms share a factor
    disc = B * B - 4 * A * C
    if abs(disc) <= NEGLIGIBLE_REL * max(scale * scale, UNDERFLOW_FLOOR):
        raise ValueError("forms share a factor; diagonalization needs coprime inputs")
    f1f = f1.to_float()
    f2f = f2.to_float()
    squares = []
    if abs(A) > DEGENERATE_REL * max(scale, UNDERFLOW_FLOOR):
        root = cmath.sqrt(disc)
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
    return LinearChange(*ell1.coeffs, *ell2.coeffs).inverse()


# ------------------------------------------------------------ tame / wild

def tame_complete(gamma):
    """Diagonal pair completing x^2 +- gamma*xy + y^2 to equal cube sums.

    Returns (f1, f2, f3, f4, T): f3, f4 = x^2 +- gamma*xy + y^2 and
    f1 = r*x^2 + s*y^2, f2 = s*x^2 + r*y^2 where r, s are the roots of
    X^2 - P*X + 2(1+gamma^2)/P with P = (8+6*gamma^2)^(1/3), so that both
    sums equal 2*(x^6 + 3(1+g^2)x^4y^2 + 3(1+g^2)x^2y^4 + y^6); T = P/2.
    The pair f3, f4 and that target are `families.tame_mirror_pair`'s.
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
    f3, f4, target = tame_mirror_pair(g)
    for fa, fb in ((f1, f2), (f3, f4)):
        if relative_residual((fa ** 3 + fb ** 3).coeffs, target.coeffs) > FLOAT_TOL:
            raise ArithmeticError("tame completion failed its sum contract")
    return f1, f2, f3, f4, P / 2


def wild_family(d):
    """The one-parameter family with three representations of one sextic.

    Returns (f1, f2, f3, f4, third, T): f1^3 + f2^3 = f3^3 + f4^3, the
    linear relation f1 + d^2 f2 = d^2 f3 + f4 = (1+d^3)x^2 + (1-d^3)y^2
    holds, the flip f1^3 - f4^3 = f3^3 - f2^3 holds, and third =
    (f1(x,-y), f2(x,-y)) is a further representation of the common sum
    (the sum is even while f1, f2 carry odd cross terms); T = d^2.  The
    members are those of `families.wild_family_cleared` divided by 1 - d^6.
    """
    dv = complex(d)
    if abs(dv) < NEGLIGIBLE_REL or abs(dv ** 6 - 1) < NEGLIGIBLE_REL:
        raise ValueError("d*(d^6 - 1) = 0 is excluded")
    *cleared, denom = wild_family_cleared(dv)
    f1, f2, f3, f4 = [BinaryForm(2, tuple([c / denom for c in f.coeffs]), FLOAT) for f in cleared]
    p = f1 ** 3 + f2 ** 3
    if relative_residual((f3 ** 3 + f4 ** 3).coeffs, p.coeffs) > FLOAT_TOL:
        raise ArithmeticError("wild family failed its equal-sum contract")
    if relative_residual((f1 ** 3 - f4 ** 3).coeffs, (f3 ** 3 - f2 ** 3).coeffs) > FLOAT_TOL:
        raise ArithmeticError("wild family failed its flip contract")
    r = dv ** 3
    line = BinaryForm.floating(2, [1 + r, 0, 1 - r])
    dsq = dv * dv
    if (
        relative_residual((f1 + f2.scale(dsq)).coeffs, line.coeffs) > FLOAT_TOL
        or relative_residual((f3.scale(dsq) + f4).coeffs, line.coeffs) > FLOAT_TOL
    ):
        raise ArithmeticError("wild family failed its linear relation")
    third = (mirror(f1), mirror(f2))
    if relative_residual((third[0] ** 3 + third[1] ** 3).coeffs, p.coeffs) > FLOAT_TOL:
        raise ArithmeticError("wild family failed its third-representation contract")
    return f1, f2, f3, f4, third, dsq


# -------------------------------------------------------- canonicalization

def reference_family(lam):
    """The type-lambda^2 reference family (floating kernel): the arrangement
    (g1, g2, g3, g4) with g1^3 + g2^3 = g3^3 + g4^3 and g1 + g2 =
    lam^2 (g3 + g4)."""
    _, _, f3, f4, f5, f6 = f_forms(complex(lam))
    return f3, -f5, -f4, f6


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
    if relative_residual(arrangement.coeffs, right.scale(T).coeffs) > ARRANGEMENT_TOL:
        raise ValueError(
            "family must be arranged with f1 + f2 = lam^2 (f3 + f4)"
        )
    roots = _phi_roots(T)
    try:
        ells = _square_pencil_lines(forms[2], forms[3], roots)
        inverse = LinearChange(*ells[0].coeffs, *ells[1].coeffs).inverse()
    except ValueError as exc:
        raise ValueError(f"dishonest family: {exc}") from exc
    ref = reference_family(lv)
    ref_ells = _square_pencil_lines(ref[2], ref[3], roots)
    # M = L^{-1} * Lhat so that ell_j composed with M equals the reference line
    m = inverse.then(LinearChange(*ref_ells[0].coeffs, *ref_ells[1].coeffs))
    images = tuple([form_compose(f, m) for f in forms])
    for image, target in ((images[2], ref[2]), (images[3], ref[3])):
        if relative_residual(image.coeffs, target.coeffs) > CANON_MATCH_TOL:
            raise ArithmeticError("canonicalization failed to hit the reference pair")
    got = {0: images[0] ** 3, 1: images[1] ** 3}
    want = (ref[0] ** 3, ref[1] ** 3)
    direct = (
        relative_residual(got[0].coeffs, want[0].coeffs) <= CANON_MATCH_TOL
        and relative_residual(got[1].coeffs, want[1].coeffs) <= CANON_MATCH_TOL
    )
    swapped = (
        relative_residual(got[0].coeffs, want[1].coeffs) <= CANON_MATCH_TOL
        and relative_residual(got[1].coeffs, want[0].coeffs) <= CANON_MATCH_TOL
    )
    if not (direct or swapped):
        raise ArithmeticError("canonicalization failed to match the completion pair")
    return m
