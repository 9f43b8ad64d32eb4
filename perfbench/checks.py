"""Reference arithmetic that the benchmark uses to check answers.

Nothing here calls into `twocubes`: answers are read as plain data
(coefficient tuples, Fractions, cyclotomic coordinates) and checked with
the benchmark's own polynomial and field arithmetic, so a defect in the
package cannot also hide in its own check.
"""
from __future__ import annotations

import math
from fractions import Fraction

REP_RESIDUAL_TOL = 1e-9  # residual contract the README states for emitted representations


# -- float binary forms: coefficient lists, x-power descending ---------------

def poly_mul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cube(q):
    return poly_mul(poly_mul(q, q), q)


def compose(coeffs, change):
    """p(a*x + b*y, c*x + d*y) for p given by coefficients of x^(n-k) y^k."""
    a, b, c, d = change
    n = len(coeffs) - 1
    out = [0j] * (n + 1)
    for k, coef in enumerate(coeffs):
        if coef == 0:
            continue
        term = [complex(coef)]
        for _ in range(n - k):
            term = poly_mul(term, [a, b])
        for _ in range(k):
            term = poly_mul(term, [c, d])
        out = [u + v for u, v in zip(out, term)]
    return out


def relative_residual(f1, f2, p) -> float:
    """||f1^3 + f2^3 - p|| / ||p|| in the coefficient 2-norm."""
    got = [u + v for u, v in zip(cube(f1), cube(f2))]
    num = math.sqrt(sum(abs(g - w) ** 2 for g, w in zip(got, p)))
    den = math.sqrt(sum(abs(w) ** 2 for w in p))
    return num / den


def census_answer_ok(report, coeffs, reference) -> bool:
    """A decision agrees with its reference and every emitted representation
    reconstructs the input sextic.

    `reference` is ("eq", n) when N is known exactly and ("ge", n) when only
    a lower bound is known (a sextic built as a sum of two cubes).
    """
    kind, n = reference
    if len(report.reps) != report.N:
        return False
    if (kind == "eq" and report.N != n) or (kind == "ge" and report.N < n):
        return False
    for rep in report.reps:
        f1 = [complex(c) for c in rep.f1.coeffs]
        f2 = [complex(c) for c in rep.f2.coeffs]
        if len(f1) != 3 or len(f2) != 3:
            return False
        if not relative_residual(f1, f2, coeffs) <= REP_RESIDUAL_TOL:
            return False
    return True


# -- exact points on X^3 + Y^3 = A ---------------------------------------------

def on_cubic(x: Fraction, y: Fraction, a: Fraction) -> bool:
    return x ** 3 + y ** 3 == a


def third_intersection(p1, p2, a: Fraction):
    """Third point where the line through p1 and p2 meets X^3 + Y^3 = A.

    Along P(t) = p1 + t*(p2 - p1) the cubic X^3 + Y^3 - A has roots 0 and 1;
    the third is read off the sum of the roots.
    """
    (x1, y1), (x2, y2) = p1, p2
    dx, dy = x2 - x1, y2 - y1
    c3 = dx ** 3 + dy ** 3
    if c3 == 0:
        return None
    c2 = 3 * (x1 * dx * dx + y1 * dy * dy)
    t = -c2 / c3 - 1
    return (x1 + t * dx, y1 + t * dy)


def eb_quadruple(a, b, mu):
    """The three-parameter equal-sum quadruple, evaluated in Fractions."""
    q = a * a + 3 * b * b
    return (
        mu * (1 - (a - 3 * b) * q),
        mu * ((a + 3 * b) * q - 1),
        mu * ((a + 3 * b) - q * q),
        mu * (q * q - (a - 3 * b)),
    )


def eb_answer_ok(params, answer) -> bool:
    """Forward quadruple, recovered parameters and third representation."""
    a, b, mu = params
    quad, inv, (h1, h2) = answer
    want = eb_quadruple(a, b, mu)
    got = (quad.f1, quad.f2, quad.f3, quad.f4)
    if any(Fraction(g) != w for g, w in zip(got, want)):
        return False
    f1, f2, f3, f4 = want
    if f1 ** 3 + f2 ** 3 != f3 ** 3 + f4 ** 3:
        return False
    if (inv.a, inv.b, inv.mu) != (a, b, mu):
        return False
    return Fraction(h1) ** 3 - Fraction(h2) ** 3 == f1 ** 3 - f4 ** 3


# -- exact scalars of Q(zeta24) as coordinate tuples ---------------------------

def cyclotomic_coords(v) -> tuple:
    """Eight rational coordinates on 1, z, ..., z^7 (z = zeta24)."""
    coords = getattr(v, "coeffs", None)
    if coords is not None and len(coords) == 8:
        return tuple(Fraction(c) for c in coords)
    return (Fraction(v),) + (Fraction(0),) * 7


def forms_equal(f, g) -> bool:
    if len(f.coeffs) != len(g.coeffs):
        return False
    return all(
        cyclotomic_coords(u) == cyclotomic_coords(v) for u, v in zip(f.coeffs, g.coeffs)
    )


# Q(omega) as pairs (u, v) meaning u + v*omega, omega^2 = -1 - omega.  In the
# zeta24 coordinates omega = z^8 = z^4 - 1, so u + v*omega = (u - v) + v*z^4.

def _qw(v):
    c = cyclotomic_coords(v)
    if any(c[k] for k in (1, 2, 3, 5, 6, 7)):
        return None
    return (c[0] + c[4], c[4])


def _qw_mul(p, q):
    (a, b), (c, d) = p, q
    return (a * c - b * d, a * d + b * c - b * d)


def _qw_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


_OMEGA_POWERS = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1)))


def type_relation_holds(forms, tag, splits) -> bool:
    """f_a + s_b w^i f_b = T (f_c + s_d w^j f_d), with the arrangement named
    by the tag's split index into `splits`, re-formed coefficient by
    coefficient over Q(omega)."""
    T = _qw(tag.T)
    if T is None or T == (0, 0):
        return False
    (a, b, sb), (c, d, sd) = splits[tag.split]
    wl = _qw_mul(_OMEGA_POWERS[tag.omega_left % 3], (Fraction(sb), Fraction(0)))
    wr = _qw_mul(_OMEGA_POWERS[tag.omega_right % 3], (Fraction(sd), Fraction(0)))
    for k in range(3):
        coeff = [_qw(f.coeffs[k]) for f in forms]
        if any(v is None for v in coeff):
            return False
        left = _qw_add(coeff[a], _qw_mul(wl, coeff[b]))
        right = _qw_mul(T, _qw_add(coeff[c], _qw_mul(wr, coeff[d])))
        if left != right:
            return False
    return True
