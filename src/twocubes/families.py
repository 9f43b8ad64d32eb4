"""Generators for named equal-cube-sum families and the identity suite.

The module builds, over exact scalars, the classical families of binary
quadratics whose cubes form equal sums (the 1913 integer quadruple, its
1914 parametric extension, the omega-twisted one-parameter family and its
flips, the tame and wild completions, plus the Vieta / Young / Hirschhorn /
Sandor displays), and re-verifies every identity they satisfy.  The tame
mirror pair, the wild family cleared of its denominators and the y -> -y
mirror are defined here once: `classify` completes its tame and wild
families from them, and identity groups 10 and 11 prove them, as group 20
proves `ecurve.curve_map`.

`verify_identity_suite` runs 21 identity groups.  Each is a list of named
exact polynomial identities (label, lhs, rhs), holding when lhs - rhs is
exactly zero: coefficients live in Q(zeta24), formal parameters are
ParamPoly values (nested for two-parameter identities), and the square root
u = sqrt(1-d^6) needed by the wild family and by the tau-substitution of the
final group is one more formal parameter, reduced by u^2 = 1 - d^6 when an
identity is tested.
"""
from __future__ import annotations

import cmath
from fractions import Fraction

from .ecurve import curve_map
from .exact import (
    CycNum,
    ParamPoly,
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
)
from .forms import EXACT, BinaryForm, LinearChange, det3, form_compose, lift

ONE = 1

# The wild family and the tau-substitution need u = sqrt(1 - d^6).  Formally
# it is the parameter "U", which sorts before "d" and so is the outer variable
# over Q(zeta24)[d].
_U = ParamPoly.variable("U")


def _parameter(value, name: str):
    """Normalize a family parameter to (value, kernel); None means formal."""
    if value is None:
        return ParamPoly.variable(name), EXACT
    (value,), kernel = lift([value])
    return value, kernel


def _form(degree: int, coeffs, kernel) -> BinaryForm:
    return BinaryForm(degree, tuple([kernel.coerce(c) for c in coeffs]), kernel)


# --------------------------------------------------------------------------
# family generators
# --------------------------------------------------------------------------

def ramanujan_quadruple() -> tuple[BinaryForm, ...]:
    """Integer quadratics (r1, r2, r3, r4) with r1^3 = r2^3 + r3^3 + r4^3."""
    return (
        BinaryForm.exact(2, [6, -4, 4]),
        BinaryForm.exact(2, [3, 5, -5]),
        BinaryForm.exact(2, [4, -4, 6]),
        BinaryForm.exact(2, [5, -5, -3]),
    )


def narayanan_coefficients(lam):
    """The scalar weights (l, m, n, p) of the parametric quadruple."""
    return (
        lam * (lam ** 3 + 1),
        2 * lam ** 3 - 1,
        lam * (lam ** 3 - 2),
        lam ** 3 + 1,
    )


def narayanan_quadruple(lam=None) -> tuple[BinaryForm, ...]:
    """Parametric quadratics (n1..n4) with n1^3 = n2^3 + n3^3 + n4^3.

    At parameter 2, each member is exactly three times the matching member
    of `ramanujan_quadruple`.
    """
    lam, kernel = _parameter(lam, "lam")
    l, m, n, p = narayanan_coefficients(lam)
    return (
        _form(2, [l, -n, n], kernel),
        _form(2, [p, m, -m], kernel),
        _form(2, [n, -n, l], kernel),
        _form(2, [m, -m, -p], kernel),
    )


def narayanan_extra_pair(lam=None) -> tuple[BinaryForm, BinaryForm]:
    """The third pair: n4^3 + n3^3 = -n2^3 + n1^3 = (sum of these two cubes)."""
    lam, kernel = _parameter(lam, "lam")
    l, m, n, p = narayanan_coefficients(lam)
    return (
        _form(2, [-p, m + 2 * p, -p], kernel),
        _form(2, [l, n - 2 * l, l], kernel),
    )


def mirror(f: BinaryForm) -> BinaryForm:
    """The form f(x, -y)."""
    return BinaryForm(f.degree, tuple([-c if k % 2 else c for k, c in enumerate(f.coeffs)]), f.kernel)


def _omega_twist(f: BinaryForm, k: int) -> BinaryForm:
    """Compose a quadratic with the scaling (x, y) -> (w^k x, w^(2k) y)."""
    w = f.kernel.coerce(OMEGA)
    a, b, c = f.coeffs
    return _form(2, [w ** (2 * k) * a, b, w ** k * c], f.kernel)


def f_forms(lam=None) -> tuple[BinaryForm, ...]:
    """The six-member one-parameter family (f1..f6).

    f1 = t^3 x^2 - xy + t^3 y^2 and f2 = -t x^2 + t^4 xy - t y^2; the other
    four are their omega-twists, and all three pairings have equal cube sums.
    """
    lam, kernel = _parameter(lam, "lam")
    f1 = _form(2, [lam ** 3, -ONE, lam ** 3], kernel)
    f2 = _form(2, [-lam, lam ** 4, -lam], kernel)
    return (
        f1,
        f2,
        _omega_twist(f1, 1),
        _omega_twist(f2, 1),
        _omega_twist(f1, 2),
        _omega_twist(f2, 2),
    )


def f78_cleared(lam=None):
    """The flip-similar pair, cleared of its 1/(1-t^6) denominators.

    Returns (g7, g8, s) with s = 1 - t^6; the genuine family members are
    g7/s and g8/s, and g7^3 + g8^3 = s^3 * p2_sextic.
    """
    lam, kernel = _parameter(lam, "lam")
    s = 1 - lam ** 6
    g7 = _form(
        2,
        [2 * lam ** 3 + lam ** 9, 1 + 5 * lam ** 6, 2 * lam ** 3 + lam ** 9],
        kernel,
    )
    g8 = _form(
        2,
        [
            -(lam + 2 * lam ** 7),
            -(5 * lam ** 4 + lam ** 10),
            -(lam + 2 * lam ** 7),
        ],
        kernel,
    )
    return g7, g8, s


def p1_sextic(lam=None) -> BinaryForm:
    """(t^6-1)(t^3 x^3 + y^3)(x^3 + t^3 y^3): the family's common cube sum."""
    lam, kernel = _parameter(lam, "lam")
    a = _form(3, [lam ** 3, 0, 0, 1], kernel)
    b = _form(3, [1, 0, 0, lam ** 3], kernel)
    return (a * b).scale(lam ** 6 - 1)


def p2_sextic(lam=None) -> BinaryForm:
    """The first flip's sum: a product of two displayed cubics."""
    lam, kernel = _parameter(lam, "lam")
    a = _form(3, [1 + lam ** 6, 3 * lam ** 3, 0, -(lam ** 3)], kernel)
    b = _form(3, [-(lam ** 3), 0, 3 * lam ** 3, 1 + lam ** 6], kernel)
    return a * b


def p3_sextic(lam=None) -> BinaryForm:
    """The second flip's sum: 3*sqrt(-3)*t^3 * xy(x-y)(x+y)(t^3 x+y)(x+t^3 y)."""
    lam, kernel = _parameter(lam, "lam")
    lin = lambda u, v: _form(1, [u, v], kernel)
    scale = kernel.coerce(SQRTM3) * 3 * lam ** 3
    prod = (
        lin(ONE, 0)
        * lin(0, ONE)
        * lin(ONE, -ONE)
        * lin(ONE, ONE)
        * lin(lam ** 3, ONE)
        * lin(ONE, lam ** 3)
    )
    return prod.scale(scale)


def sextic_a(t) -> BinaryForm:
    """x^6 + t x^4 y^2 + t x^2 y^4 + y^6 (the even palindromic census family)."""
    t, kernel = _parameter(t, "t")
    return _form(6, [ONE, 0, t, 0, t, 0, ONE], kernel)


def sextic_b(t) -> BinaryForm:
    """x^6 + t x^3 y^3 + y^6 (the midcube census family)."""
    t, kernel = _parameter(t, "t")
    return _form(6, [ONE, 0, 0, t, 0, 0, ONE], kernel)


def tame_mirror_pair(gamma=None) -> tuple[BinaryForm, ...]:
    """The tame mirror pair x^2 + gamma xy + y^2 and x^2 - gamma xy + y^2,
    and their cube sum 2 A(3(1 + gamma^2)), A the `sextic_a` family."""
    gamma, kernel = _parameter(gamma, "ga")
    left = _form(2, [ONE, gamma, ONE], kernel)
    return left, mirror(left), sextic_a(3 * (1 + gamma ** 2)).scale(2)


def wild_family_cleared(d=None) -> tuple:
    """The wild family times 1 - d^6, and that factor.

    Returns (e1, e2, g3, g4, s) with s = 1 - d^6 and u = sqrt(1 - d^6): the
    family members are e1/s, e2/s, g3/s and g4/s.  A formal d is the
    parameter "d" with u the parameter "U"; any other d is complex.
    """
    d, kernel = _parameter(None if d is None else complex(d), "d")
    s = 1 - d ** 6
    u = _U if kernel.exact else cmath.sqrt(s)
    sqrt3 = kernel.coerce(SQRT3)
    return (
        _form(2, [s, -2 * sqrt3 * d ** 3 * u, s], kernel),
        _form(2, [d * s, 2 * sqrt3 * d * u, -d * s], kernel),
        _form(2, [-d * (2 + 3 * d ** 3 + d ** 6), 0, d * (2 - 3 * d ** 3 + d ** 6)], kernel),
        _form(2, [1 + 3 * d ** 3 + 2 * d ** 6, 0, 1 - 3 * d ** 3 + 2 * d ** 6], kernel),
        s,
    )


def q2_sextic() -> BinaryForm:
    """xy(x^4 - y^4), the sextic with the octahedral root set."""
    return BinaryForm.exact(6, [0, 1, 0, 0, 0, -1, 0])


def young_quadruple() -> tuple[BinaryForm, ...]:
    """Integer quadratics (y1..y4) with y1^3 + y2^3 + y3^3 = y4^3.

    The rearrangement y1^3 + y2^3 = y4^3 + (-y3)^3 satisfies
    y1 + y2 = 4(y4 - y3).
    """
    return (
        BinaryForm.exact(2, [1, 16, -21]),
        BinaryForm.exact(2, [-1, 16, 21]),
        BinaryForm.exact(2, [2, -4, 42]),
        BinaryForm.exact(2, [2, 4, 42]),
    )


def young_family(n=None) -> tuple[BinaryForm, ...]:
    """One-parameter equal sum f1^3+f2^3 = f3^3+f4^3 with f4-f2 = n^2(f1-f3)."""
    n, kernel = _parameter(n, "n")
    return (
        _form(2, [n, -6 * n, 3 * (n ** 7 - n)], kernel),
        _form(2, [-ONE, 6 * n ** 3, 3 * (n ** 6 - 1)], kernel),
        _form(2, [n, 6 * n, 3 * (n ** 7 - n)], kernel),
        _form(2, [-ONE, -6 * n ** 3, 3 * (n ** 6 - 1)], kernel),
    )


def hirschhorn_quadruple() -> tuple[BinaryForm, ...]:
    """Integer quadratics with f1^3+f2^3 = f3^3+f4^3 and f1-f4 = 4(f3-f2)."""
    return (
        BinaryForm.exact(2, [1, 7, -9]),
        BinaryForm.exact(2, [2, -4, 12]),
        BinaryForm.exact(2, [2, 0, 10]),
        BinaryForm.exact(2, [1, -9, -1]),
    )


def hirschhorn_family(n=None) -> tuple[BinaryForm, ...]:
    """One-parameter equal sum f1^3+f2^3 = f3^3+f4^3 with f1-f3 = n^2(f4-f2)."""
    n, kernel = _parameter(n, "n")
    return (
        _form(2, [3 * ONE, 6 * n ** 3, 1 - n ** 6], kernel),
        _form(2, [3 * n, -6 * n, n ** 7 - n], kernel),
        _form(2, [3 * ONE, -6 * n ** 3, 1 - n ** 6], kernel),
        _form(2, [3 * n, 6 * n, n ** 7 - n], kernel),
    )


def sandor_family(w1, w2, w3, w4):
    """Quadratic equal sum built from scalars with w1^3+w2^3 = w3^3+w4^3.

    Returns (a, b, c, d, T) with a^3+b^3 = c^3+d^3 and, in the flipped
    arrangement, a - c = T(d - b) where T = (w4-w2)/(w1-w3).
    Raises ValueError if the scalar premise fails or T is undefined.
    """
    ws = [Fraction(w) if isinstance(w, int) else w for w in (w1, w2, w3, w4)]
    w1, w2, w3, w4 = ws
    premise = w1 ** 3 + w2 ** 3 - w3 ** 3 - w4 ** 3
    if not EXACT.is_zero(premise):
        raise ValueError("scalars must satisfy w1^3 + w2^3 = w3^3 + w4^3")
    diff13 = w1 - w3
    diff42 = w4 - w2
    if EXACT.is_zero(diff13):
        raise ValueError("type parameter undefined: w1 = w3")
    a = BinaryForm.exact(2, [w2 * diff13, w1 ** 2 - w3 ** 2, w4 * diff42])
    b = BinaryForm.exact(2, [-w3 * diff13, w2 ** 2 - w4 ** 2, -w1 * diff42])
    c = BinaryForm.exact(2, [w4 * diff13, w1 ** 2 - w3 ** 2, w2 * diff42])
    d = BinaryForm.exact(2, [-w1 * diff13, w2 ** 2 - w4 ** 2, -w3 * diff42])
    T = diff42 / diff13
    return a, b, c, d, T


def vieta_quartics() -> tuple[BinaryForm, ...]:
    """Linearly independent quartics (v1..v4) with v1^3+v2^3 = v3^3+v4^3."""
    x = BinaryForm.exact(1, [1, 0])
    y = BinaryForm.exact(1, [0, 1])
    diff = BinaryForm.exact(3, [1, 0, 0, -1])
    return (
        x * diff,
        y * diff,
        x * BinaryForm.exact(3, [1, 0, 0, 2]),
        -(y * BinaryForm.exact(3, [2, 0, 0, 1])),
    )


# --------------------------------------------------------------------------
# identity suite
# --------------------------------------------------------------------------
#
# Each exact group is a generator of named identities (label, lhs, rhs) over
# exact scalars; `_holds` is the one test of whether an identity holds.

# `_holds` applies u^2 = 1 - d^6 to a difference that is not already zero.
_U_SQUARE = 1 - ParamPoly.variable("d") ** 6


def _reduced(c):
    """(even, odd) with c = even + odd * u once u^2 = 1 - d^6 is applied.

    As 1 - d^6 is no square, c is zero exactly when both parts are."""
    if not (isinstance(c, ParamPoly) and c.param == _U.param):
        return c, 0
    return tuple([ParamPoly(_U.param, c.coeffs[k::2]).evaluate(_U_SQUARE) for k in (0, 1)])


def _holds(lhs, rhs) -> bool:
    """An identity holds when lhs - rhs is exactly zero; a difference that
    is not plainly zero is tested again with u^2 = 1 - d^6 applied."""
    diff = lhs - rhs
    if isinstance(diff, BinaryForm):
        return diff.is_zero() or not any(any(_reduced(c)) for c in diff.coeffs)
    return not diff or not any(_reduced(diff))


def _lin(u, v) -> BinaryForm:
    return BinaryForm.exact(1, [u, v])


def _quad(a, b, c) -> BinaryForm:
    return BinaryForm.exact(2, [a, b, c])


def _integer_quadruple():
    r1, r2, r3, r4 = ramanujan_quadruple()
    yield "r2^3 + r3^3 + r4^3 = r1^3", r2 ** 3 + r3 ** 3 + r4 ** 3, r1 ** 3


def _integer_flips():
    r1, r2, r3, r4 = ramanujan_quadruple()
    e1, e2 = _quad(6, -8, 6), _quad(3, -11, 3)
    g1 = _quad(Fraction(94, 21), Fraction(-8, 21), Fraction(94, 21))
    g2 = _quad(Fraction(23, 21), Fraction(-199, 21), Fraction(23, 21))

    first = r3 ** 3 + r4 ** 3
    yield "first = r1^3 - r2^3", first, r1 ** 3 - r2 ** 3
    yield "first = e1^3 - e2^3", first, e1 ** 3 - e2 ** 3
    yield "first = 63 (x2+xy+y2)(3x2-3xy+y2)(x2-3xy+3y2)", first, (
        _quad(1, 1, 1) * _quad(3, -3, 1) * _quad(1, -3, 3)).scale(63)

    second = r1 ** 3 - r4 ** 3
    yield "second = r3^3 + r2^3", second, r3 ** 3 + r2 ** 3
    yield "second = g1^3 + g2^3", second, g1 ** 3 + g2 ** 3
    yield "second = (13x2-23xy+13y2)(7x2+xy+y2)(x2+xy+7y2)", second, (
        _quad(13, -23, 13) * _quad(7, 1, 1) * _quad(1, 1, 7))

    third = r1 ** 3 - r3 ** 3
    yield "third = r2^3 + r4^3", third, r2 ** 3 + r4 ** 3
    yield "third = 8 (x-y)(x+y)(x2-xy+y2)(19x2-11xy+19y2)", third, (
        _lin(1, -1) * _lin(1, 1) * _quad(1, -1, 1) * _quad(19, -11, 19)).scale(8)

    # the second rearrangement is the first one composed with an integer
    # change of variables, cleared of its sqrt(21) normalization
    m = LinearChange(5, -2, 3, 3)
    pairs = (
        ("r3", r3, "g1", g1), ("r4", r4, "g2", g2),      # extra pair -> extra pair
        ("r1", r1, "r1", r1), ("-r2", -r2, "-r4", -r4),  # left pair  -> left pair
        ("e1", e1, "r3", r3), ("-e2", -e2, "r2", r2),    # third pair -> right pair
    )
    for src_name, src, dst_name, dst in pairs:
        yield f"{src_name} o (5x-2y, 3x+3y) = 21 {dst_name}", form_compose(src, m), dst.scale(21)


def _parametric_quadruple():
    n1, n2, n3, n4 = narayanan_quadruple()
    x1, x2 = narayanan_extra_pair()
    lam = ParamPoly.variable("lam")
    c1, c2, c3, c4 = n1 ** 3, n2 ** 3, n3 ** 3, n4 ** 3
    yield "n2^3 + n3^3 + n4^3 = n1^3", c2 + c3 + c4, c1
    yield "n4^3 + n3^3 = n1^3 - n2^3", c4 + c3, c1 - c2
    yield "n4^3 + n3^3 = x1^3 + x2^3", c4 + c3, x1 ** 3 + x2 ** 3
    yield "n2^3 + n4^3 = n1^3 - n3^3", c2 + c4, c1 - c3
    yield "n2 + n4 = lam^2 (n1 - n3)", n2 + n4, (n1 - n3).scale(lam ** 2)
    # at parameter 2 the quadruple is three times the integer one
    for k, (nf, rf) in enumerate(zip(narayanan_quadruple(2), ramanujan_quadruple()), 1):
        yield f"n{k}(2) = 3 r{k}", nf, rf.scale(3)


def _threefold_product():
    al = ParamPoly.variable("al")
    left = _quad(al, -ONE, al)
    right = _quad(-ONE, al, -ONE)
    prod = (
        BinaryForm.exact(3, [al, 0, 0, ONE]) * BinaryForm.exact(3, [ONE, 0, 0, al])
    ).scale(al ** 2 - 1)
    yield "left^3 + al right^3 = (al^2-1)(al x3+y3)(x3+al y3)", left ** 3 + (right ** 3).scale(al), prod


def _twisted_equal_sums():
    f1, f2, f3, f4, f5, f6 = f_forms()
    c3, c4, c5, c6 = f3 ** 3, f4 ** 3, f5 ** 3, f6 ** 3
    lam = ParamPoly.variable("lam")
    total = f1 ** 3 + f2 ** 3
    yield "f1^3 + f2^3 = f3^3 + f4^3", total, c3 + c4
    yield "f1^3 + f2^3 = f5^3 + f6^3", total, c5 + c6
    yield "f1^3 + f2^3 = p1", total, p1_sextic()
    # the family's defining linear relation (type parameter = lam^2)
    yield "f5^3 - f3^3 = f4^3 - f6^3", c5 - c3, c4 - c6
    yield "f5 - f3 = lam^2 (f4 - f6)", f5 - f3, (f4 - f6).scale(lam ** 2)


def _clean_flips():
    _, _, f3, f4, f5, f6 = f_forms()
    c3, c4, c5, c6 = f3 ** 3, f4 ** 3, f5 ** 3, f6 ** 3
    yield "f4^3 - f5^3 = f6^3 - f3^3", c4 - c5, c6 - c3
    yield "f4^3 - f5^3 = p2", c4 - c5, p2_sextic()
    yield "f4^3 - f6^3 = f5^3 - f3^3", c4 - c6, c5 - c3
    yield "f4^3 - f6^3 = p3", c4 - c6, p3_sextic()


def _flip_similarity():
    f1, f2, f3, f4, f5, f6 = f_forms()
    g7, g8, s = f78_cleared()
    lam = ParamPoly.variable("lam")
    mc = LinearChange(lam ** 3, ONE, -ONE, -(lam ** 3))
    images = (
        ("f1", f1, "g7", g7), ("f2", f2, "g8", g8),
        ("f3", f3, "-s f3", f3.scale(-s)), ("f4", f4, "s f6", f6.scale(s)),
        ("f5", f5, "-s f5", f5.scale(-s)), ("f6", f6, "s f4", f4.scale(s)),
    )
    for name, f, image_name, image in images:
        yield f"{name} o M = {image_name}", form_compose(f, mc), image
    s3 = s ** 3
    p2 = p2_sextic()
    total = g7 ** 3 + g8 ** 3
    yield "g7^3 + g8^3 = s^3 p2", total, p2.scale(s3)
    yield "g7^3 + g8^3 = s^3 (f6^3 - f3^3)", total, (f6 ** 3 - f3 ** 3).scale(s3)
    yield "g7^3 + g8^3 = s^3 (f4^3 - f5^3)", total, (f4 ** 3 - f5 ** 3).scale(s3)
    yield "p1 o M = s^3 p2", form_compose(p1_sextic(), mc), p2.scale(s3)


def _sqrt_minus_three_change():
    lam = ParamPoly.variable("lam")
    h = [
        _quad(1 - 2 * lam ** 3, 0, 3 + 6 * lam ** 3),
        _quad(2 * lam - lam ** 4, 0, -6 * lam - 3 * lam ** 4),
        _quad(1 + lam ** 3, 6 * lam ** 3, 3 - 3 * lam ** 3),
        _quad(-lam - lam ** 4, -6 * lam, 3 * lam - 3 * lam ** 4),
        _quad(1 + lam ** 3, -6 * lam ** 3, 3 - 3 * lam ** 3),
        _quad(-lam - lam ** 4, 6 * lam, 3 * lam - 3 * lam ** 4),
    ]
    msq = LinearChange(CycNum.one(), -SQRTM3, CycNum.one(), SQRTM3)
    for k, (disp, f) in enumerate(zip(h, f_forms()), 1):
        yield f"f{k} o (x-sqrt(-3)y, x+sqrt(-3)y) = -h{k}", form_compose(f, msq), -disp
    total = h[0] ** 3 + h[1] ** 3
    yield "h1^3 + h2^3 = h3^3 + h4^3", total, h[2] ** 3 + h[3] ** 3
    yield "h1^3 + h2^3 = h5^3 + h6^3", total, h[4] ** 3 + h[5] ** 3


def _reversed_parameter(f: BinaryForm) -> BinaryForm:
    """t^4 * f(1/t), coefficientwise in the formal parameter."""
    out = []
    for c in f.coeffs:
        poly = c if isinstance(c, ParamPoly) else ParamPoly("lam", (c,))
        out.append(poly.reversed_coeffs(4))
    return BinaryForm.exact(2, out)


def _parameter_symmetries():
    f1, f2 = f_forms()[:2]
    negated = f_forms(-ParamPoly.variable("lam"))[:2]
    for name, f, f_neg in zip(("f1", "f2"), (f1, f2), negated):
        yield f"{name}(-lam) = -{name}(x, -y)", f_neg, -mirror(f)
    # t^4 * f(1/t) swaps the base pair up to sign
    yield "lam^4 f1(1/lam) = -f2", _reversed_parameter(f1), -f2
    yield "lam^4 f2(1/lam) = -f1", _reversed_parameter(f2), -f1


def _tame_mirror_sum():
    left, right, target = tame_mirror_pair()
    yield "(x2+ga xy+y2)^3 + (x2-ga xy+y2)^3 = 2 A(3(1+ga^2))", left ** 3 + right ** 3, target


def _wild_construction():
    e1, e2, g3, g4, s = wild_family_cleared()
    d = ParamPoly.variable("d")
    c1, c2, c3, c4 = e1 ** 3, e2 ** 3, g3 ** 3, g4 ** 3
    total = c1 + c2
    yield "e1^3 + e2^3 = g3^3 + g4^3", total, c3 + c4
    yield "e1^3 - g4^3 = g3^3 - e2^3", c1 - c4, c3 - c2
    left_line = e1 + e2.scale(d * d)
    yield "e1 + d^2 e2 = d^2 g3 + g4", left_line, g3.scale(d * d) + g4
    yield "e1 + d^2 e2 = (1-d^6)((1+d^3)x2 + (1-d^3)y2)", left_line, _quad(
        s * (1 + d ** 3), 0, s * (1 - d ** 3))
    # mirroring y -> -y gives the even sum's genuinely new third pair: it
    # differs from e1 and from g3 by the nonzero u-odd xy term 2 sqrt3 d^3 u
    e5, e6 = mirror(e1), mirror(e2)
    xy = 2 * SQRT3 * d ** 3 * _U
    yield "e5^3 + e6^3 = e1^3 + e2^3", e5 ** 3 + e6 ** 3, total
    yield "e5 - e1 = 4 sqrt3 d^3 u xy", e5 - e1, _quad(0, 2 * xy, 0)
    yield "e5 - g3 has the xy term 2 sqrt3 d^3 u", (e5 - g3).coeffs[1], xy
    # the common sum is even: its x^5 y, x^3 y^3 and x y^5 terms vanish
    for k, monomial in ((1, "x^5 y"), (3, "x^3 y^3"), (5, "x y^5")):
        yield f"{monomial} coefficient vanishes", total.coeffs[k], 0


def _simplest_family():
    w = OMEGA
    pairs = [(a, mirror(a)) for a in (_quad(1, 1, -1), _quad(w, ONE, -w ** 2), _quad(w ** 2, ONE, -w))]
    target = BinaryForm.exact(6, [2, 0, 0, 0, 0, 0, -2])
    for k, (a, b) in enumerate(pairs):
        yield f"pair w^{k}: a^3 + b^3 = 2(x6 - y6)", a ** 3 + b ** 3, target
    skew = BinaryForm.exact(6, [0, -3 * SQRTM3, 0, 0, 0, 3 * SQRTM3, 0])
    yield "flip: a1^3 - a2^3 = 3 sqrt(-3) xy(y4 - x4)", pairs[1][0] ** 3 - pairs[2][0] ** 3, skew


def _dependent_factor_triples():
    lam = ParamPoly.variable("lam")
    w = OMEGA
    factors = (
        _lin(lam, ONE), _lin(ONE, lam),
        _lin(lam, w), _lin(ONE, lam * w ** 2),
        _lin(lam, w ** 2), _lin(ONE, lam * w),
    )
    a0, b0, a1, b1, a2, b2 = factors
    triples = [
        (a0 * b0, a1 * b1, a2 * b2),
        (a0 * b2, a1 * b0, a2 * b1),
        (a0 * b1, a1 * b2, a2 * b0),
    ]
    for k, triple in enumerate(triples):
        yield f"triple {k}: det = 0", det3([t.coeffs for t in triple]), 0
        # every member lies in the span of x^2 + w^k y^2 and xy
        for j, t in enumerate(triple, 1):
            a, _, c = t.coeffs
            yield f"triple {k} member {j}: y2 = w^{k} x2", c, OMEGA ** k * a
    # the product of all six linear factors is the family's sum, up to the
    # (t^6 - 1) normalization
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    yield "(lam^6 - 1) product of the six factors = p1", product.scale(lam ** 6 - 1), p1_sextic()


def _octahedral_similarity():
    t = 5 * IMAG * SQRT2
    bt = BinaryForm.exact(6, [CycNum.one(), 0, 0, t, 0, 0, CycNum.one()])
    m = LinearChange(ZETA8 ** 2 * ETA, ZETA8, CycNum.one(), ZETA8 ** 3 * ETA)
    target = q2_sextic().scale(54 * ZETA8 ** 3 * ETA ** 3)
    yield "B(5 i sqrt2) o M = 54 z8^3 eta^3 q2", form_compose(bt, m), target


def _octahedral_representations():
    nu = ZETA12
    q2 = q2_sextic()
    minus = q2.scale(-3 * SQRTM3)
    plus = q2.scale(6 * SQRTM6)
    entries = [
        (_quad(nu ** 5, ONE, nu), _quad(nu ** 7, -ONE, nu ** 11), minus),
        (_quad(nu ** 11, ONE, nu ** 7), _quad(nu, -ONE, nu ** 5), minus),
        (_quad(nu ** 10, ONE, nu ** 8), _quad(nu ** 8, -ONE, nu ** 10), minus),
        (_quad(nu ** 4, ONE, nu ** 2), _quad(nu ** 2, -ONE, nu ** 4), minus),
        (_quad(ZETA8 ** 5, SQRT6, ZETA8 ** 7), _quad(ZETA8, SQRT6, ZETA8 ** 3), plus),
        (_quad(ZETA8 ** 7, -SQRT6, ZETA8 ** 5), _quad(ZETA8 ** 3, -SQRT6, ZETA8), plus),
    ]
    for k, (a, b, target) in enumerate(entries, 1):
        yield f"representation {k}: a^3 + b^3 = c q2", a ** 3 + b ** 3, target


def _vieta_quartic_identities():
    v1, v2, v3, v4 = vieta_quartics()
    yield "v1^3 + v2^3 = v3^3 + v4^3", v1 ** 3 + v2 ** 3, v3 ** 3 + v4 ** 3
    # linear independence: the x^2 y^2 column is zero, and the 4x4 minor on
    # the other four columns is nonzero
    sub = [[f.coeffs[c] for c in (0, 1, 3, 4)] for f in (v1, v2, v3, v4)]
    minor = sum(
        (-1) ** j * sub[0][j] * det3([row[:j] + row[j + 1:] for row in sub[1:]])
        for j in range(4)
    )
    yield "minor on x4, x3y, xy3, y4 = -9", minor, -9


def _sandor_instances():
    for ws in ((12, 1, 10, 9), (10, -1, -9, 12)):
        a, b, c, d, T = sandor_family(*ws)
        yield f"w = {ws}: a^3 + b^3 = c^3 + d^3", a ** 3 + b ** 3, c ** 3 + d ** 3
        yield f"w = {ws}: a - c = T (d - b)", a - c, (d - b).scale(T)


def _young_families():
    y1, y2, y3, y4 = young_quadruple()
    yield "y1^3 + y2^3 + y3^3 = y4^3", y1 ** 3 + y2 ** 3 + y3 ** 3, y4 ** 3
    yield "y1 + y2 = 4 (y4 - y3)", y1 + y2, (y4 - y3).scale(4)
    f1, f2, f3, f4 = young_family()
    n = ParamPoly.variable("n")
    yield "f1^3 + f2^3 = f3^3 + f4^3", f1 ** 3 + f2 ** 3, f3 ** 3 + f4 ** 3
    yield "f4 - f2 = n^2 (f1 - f3)", f4 - f2, (f1 - f3).scale(n ** 2)


def _hirschhorn_families():
    h1, h2, h3, h4 = hirschhorn_quadruple()
    yield "h1^3 + h2^3 = h3^3 + h4^3", h1 ** 3 + h2 ** 3, h3 ** 3 + h4 ** 3
    yield "h1 - h4 = 4 (h3 - h2)", h1 - h4, (h3 - h2).scale(4)
    f1, f2, f3, f4 = hirschhorn_family()
    n = ParamPoly.variable("n")
    yield "f1^3 + f2^3 = f3^3 + f4^3", f1 ** 3 + f2 ** 3, f3 ** 3 + f4 ** 3
    yield "f1 - f3 = n^2 (f4 - f2)", f1 - f3, (f4 - f2).scale(n ** 2)


def _chord_third_representation():
    a = ParamPoly.variable("a")
    b = ParamPoly.variable("b")
    q = a * a + 3 * b * b
    f1, f2, f3, f4, h1, h2 = curve_map(a, b, 1, 1)
    c1, c2, c3, c4 = f1 ** 3, f2 ** 3, f3 ** 3, f4 ** 3
    left = c1 - c4
    yield "f1^3 - f4^3 = f3^3 - f2^3", left, c3 - c2
    yield "f1^3 - f4^3 = (1 + 2aq)^3 - (2a + q^2)^3", left, h1 ** 3 - h2 ** 3
    # the common sum of the parameterization, in factored display form
    conv = 18 * b * q * (1 - (a + b) ** 3 - (a - b) ** 3 + q ** 3)
    yield "f1^3 + f2^3 = 18bq(1 - (a+b)^3 - (a-b)^3 + q^3)", c1 + c2, conv
    yield "f3^3 + f4^3 = 18bq(1 - (a+b)^3 - (a-b)^3 + q^3)", c3 + c4, conv


def _tau_substitution():
    # tau = u - i d^3, with u = sqrt(1 - d^6) the formal parameter _U, and
    # M = (x + tau y, -i tau x + i y).  These images of the quadratics give
    # (f4^3 - f6^3) o M = (a, b, a)^3 + (a, -b, a)^3 = 2 a^3 A(4d^6 - 1) by
    # group 10, as 3(1 + (b/a)^2) = 4d^6 - 1, and the same even sextic as the
    # diagonal-swap pair (f5^3 - f3^3) o M by group 05; checking the cubes
    # themselves would take over twice as long.
    d = ParamPoly.variable("d")
    _, _, f3, f4, f5, f6 = f_forms(d)
    tau = _U - IMAG * d ** 3
    m = LinearChange(1, tau, -IMAG * tau, IMAG)
    a, b, c = form_compose(f4, m).coeffs
    yield "f4 o M = (a, b, a)", c, a
    yield "-f6 o M = (a, -b, a)", form_compose(-f6, m), _quad(a, -b, a)
    a5, b5, c5 = form_compose(f5, m).coeffs
    yield "f5 o M = (a5, 0, c5)", b5, 0
    yield "-f3 o M = (c5, 0, a5)", form_compose(-f3, m), _quad(c5, 0, a5)
    yield "a = sqrt(-3) d (1-d^6) + sqrt3 d^4 u, so a != 0", a, (
        SQRTM3 * d * (1 - d ** 6) + SQRT3 * d ** 4 * _U)
    yield "3 (a^2 + b^2) = (4d^6 - 1) a^2", 3 * (a * a + b * b), (4 * d ** 6 - 1) * (a * a)


_SUITE = (
    ("01", "ramanujan-integer-quadruple", _integer_quadruple),
    ("02", "integer-flips-and-factored-products", _integer_flips),
    ("03", "narayanan-parametric-quadruple", _parametric_quadruple),
    ("04", "threefold-product-identity", _threefold_product),
    ("05", "omega-twisted-equal-sums", _twisted_equal_sums),
    ("06", "clean-flips-of-the-twisted-family", _clean_flips),
    ("07", "flip-similarity-cleared-denominators", _flip_similarity),
    ("08", "sqrt-minus-three-rational-display", _sqrt_minus_three_change),
    ("09", "parameter-negation-and-inversion", _parameter_symmetries),
    ("10", "tame-mirror-pair-sum", _tame_mirror_sum),
    ("11", "wild-family-construction", _wild_construction),
    ("12", "simplest-integer-family-and-flip", _simplest_family),
    ("13", "dependent-factor-triples", _dependent_factor_triples),
    ("14", "octahedral-similarity-change", _octahedral_similarity),
    ("15", "octahedral-six-representations", _octahedral_representations),
    ("16", "vieta-quartic-identity", _vieta_quartic_identities),
    ("17", "sandor-conditional-family", _sandor_instances),
    ("18", "young-type-four-and-square", _young_families),
    ("19", "hirschhorn-type-four-and-square", _hirschhorn_families),
    ("20", "chord-third-representation", _chord_third_representation),
    ("21", "tau-substitution-even-shape", _tau_substitution),
)


def verify_identity_suite(ids=None) -> list[dict]:
    """Run the identity suite; returns ordered report entries.

    Each entry is {"id", "anchor", "method", "pass"}, and "method" is always
    "exact".  A group passes when each of its identities holds; the check
    stops at the first that does not.  A raised exception in a group is
    reported as a failure, never propagated.
    """
    wanted = None if ids is None else set(ids)
    report = []
    for entry_id, anchor, group in _SUITE:
        if wanted is not None and entry_id not in wanted:
            continue
        try:
            passed = all(_holds(lhs, rhs) for _, lhs, rhs in group())
        except Exception:
            passed = False
        report.append(
            {"id": entry_id, "anchor": anchor, "method": "exact", "pass": passed}
        )
    return report
