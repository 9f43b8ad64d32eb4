"""Census of two-cube representations of binary sextics.

A sextic p splits into six projective linear factors; p = f1^3 + f2^3 holds
exactly when some grouping of the factors into three quadratics (g1, g2, g3)
is linearly dependent, g3 = a*g1 + b*g2 with a, b both nonzero, and every
such grouping yields one representation via

    3*sqrt(-3)*a*b * g1*g2*g3 = (w*a*g1 - b*g2)^3 + (-a*g1 + w*b*g2)^3,

w a primitive cube root of unity.  Conversely, the factors f1 + w^k*f2 of a
representation are a dependent grouping, which fixes f1, f2 up to summand
order and cube roots of unity; a quadratic is fixed up to a scalar by its
two roots.  So representations and dependent groupings of the six roots
correspond one to one, and counting emits one representation per grouping.
"""
from __future__ import annotations

import dataclasses
import functools
import math

from .exact import OMEGA, SQRTM3, scalar_key
from .forms import FLOAT, FLOAT_TOL, UNDERFLOW_FLOOR, BinaryForm, det3, form_to_json, norm2, relative_residual
from .roots import linear_factors

DISTINCT_REL = 1e-5        # quadratics closer than this count as proportional
DEP_DET_REL = 1e-7         # |det| below this (times row-norm product) = dependent
COEFF_SOLVE_REL = 1e-6     # accepted relative residual of the dependence solve

_OMEGA_F = complex(OMEGA.to_complex())
_SQRTM3_F = complex(SQRTM3.to_complex())


def _index_pairings() -> tuple:
    def rec(avail):
        if not avail:
            return [[]]
        first = avail[0]
        out = []
        for k in range(1, len(avail)):
            partner = avail[k]
            rest = avail[1:k] + avail[k + 1:]
            for tail in rec(rest):
                out.append([(first, partner)] + tail)
        return out

    return tuple([tuple(map(tuple, p)) for p in rec(list(range(6)))])


PAIRINGS = _index_pairings()
_PAIRS = tuple([(i, j) for i in range(6) for j in range(i + 1, 6)])
# each pairing as three indices into _PAIRS
_PAIRING_IDS = tuple([tuple([_PAIRS.index(pair) for pair in pairing]) for pairing in PAIRINGS])


@dataclasses.dataclass(frozen=True)
class Representation:
    """p * scale = f1**3 + f2**3; the floating pipeline normalizes scale = 1."""

    f1: BinaryForm
    f2: BinaryForm
    scale: object
    residual: float = 0.0


@dataclasses.dataclass(frozen=True)
class Dependence:
    dependent: bool
    alpha: object = None
    beta: object = None


@dataclasses.dataclass(frozen=True)
class DecompositionReport:
    N: int
    reps: tuple
    roots: tuple
    multiplicities: tuple
    H: complex


def _coeff_key(f: BinaryForm):
    if f.kernel.exact:
        return tuple([scalar_key(c) for c in f.coeffs])
    return tuple([(round(c.real, 12), round(c.imag, 12)) for c in map(complex, f.coeffs)])


def _fresh_pairings(pair_keys):
    """(index, pairing) of each pairing whose sorted pair keys were not seen
    at an earlier index: groupings made identical by repeated factors
    collapse to their first pairing."""
    seen = set()
    for k, pairing in enumerate(_PAIRING_IDS):
        key = tuple(sorted([pair_keys[pair] for pair in pairing]))
        if key not in seen:
            seen.add(key)
            yield k, pairing


@functools.lru_cache(maxsize=None)
def _pattern_pairings(multiplicities: tuple) -> tuple:
    """The fresh pairings of six slots whose roots repeat with these
    multiplicities: two pairs are one quadratic when they pair the same roots."""
    ids = [root for root, m in enumerate(multiplicities) for _ in range(m)]
    return tuple(_fresh_pairings([(ids[i], ids[j]) for i, j in _PAIRS]))


def pair_partitions(factors) -> list:
    """All distinct ways to multiply six linear forms pairwise into a triple
    of quadratics; groupings made identical by repeated factors collapse."""
    factors = list(factors)
    if len(factors) != 6:
        raise ValueError("exactly six linear factors required")
    if any(f.degree != 1 for f in factors):
        raise ValueError("factors must be linear forms")
    products = [factors[i] * factors[j] for i, j in _PAIRS]
    keys = [_coeff_key(q) for q in products]
    return [tuple([products[pair] for pair in pairing]) for _, pairing in _fresh_pairings(keys)]


def _span_fit(r1, r2, r3, n3):
    """Least-squares (alpha, beta) with r3 = alpha*r1 + beta*r2 over complex
    rows, via the 2x2 normal equations; None when the fit misses r3 by more
    than COEFF_SOLVE_REL of its 2-norm n3."""
    g11 = sum(a * b.conjugate() for a, b in zip(r1, r1))
    g12 = sum(a * b.conjugate() for a, b in zip(r2, r1))
    g21 = g12.conjugate()
    g22 = sum(a * b.conjugate() for a, b in zip(r2, r2))
    b1 = sum(a * b.conjugate() for a, b in zip(r3, r1))
    b2 = sum(a * b.conjugate() for a, b in zip(r3, r2))
    disc = g11 * g22 - g12 * g21
    if abs(disc) == 0:
        raise ValueError("first two quadratics are proportional")
    alpha = (b1 * g22 - b2 * g12) / disc
    beta = (g11 * b2 - g21 * b1) / disc
    fit = [alpha * a + beta * b for a, b in zip(r1, r2)]
    err = norm2([f - c for f, c in zip(fit, r3)])
    if err > COEFF_SOLVE_REL * max(n3, UNDERFLOW_FLOOR):
        return None
    return alpha, beta


def dependence_test(q1: BinaryForm, q2: BinaryForm, q3: BinaryForm) -> Dependence:
    """Whether q3 lies in the span of q1 and q2, with the span coefficients."""
    if any(q.degree != 2 for q in (q1, q2, q3)):
        raise ValueError("quadratic forms required")
    if q1.proportional_to(q2):
        raise ValueError("first two quadratics are proportional")
    kernel = q1.kernel
    rows = [q1.coeffs, q2.coeffs, q3.coeffs]
    if kernel.exact:
        if not kernel.is_zero(det3(rows)):
            return Dependence(False)
        for c1, c2 in ((0, 1), (0, 2), (1, 2)):
            pivot = q1.coeffs[c1] * q2.coeffs[c2] - q1.coeffs[c2] * q2.coeffs[c1]
            if not kernel.is_zero(pivot):
                inv = kernel.inv(pivot)
                alpha = (q3.coeffs[c1] * q2.coeffs[c2] - q3.coeffs[c2] * q2.coeffs[c1]) * inv
                beta = (q1.coeffs[c1] * q3.coeffs[c2] - q1.coeffs[c2] * q3.coeffs[c1]) * inv
                return Dependence(True, alpha, beta)
        raise ValueError("first two quadratics are proportional")
    crows = [[complex(c) for c in row] for row in rows]
    norms = [norm2(row) for row in crows]
    if abs(det3(crows)) > DEP_DET_REL * (norms[0] * norms[1] * norms[2]):
        return Dependence(False)
    fit = _span_fit(crows[0], crows[1], crows[2], norms[2])
    if fit is None:
        return Dependence(False)
    return Dependence(True, *fit)


def _float_cube_pair(r1, r2, alpha, beta, scale):
    """Coefficients (f1, f2) with f1^3 + f2^3 = scale * g1*g2*g3, over complex
    floats, where r1, r2 are the coefficients of g1, g2 and g3 = alpha*g1 +
    beta*g2."""
    wa, wb = _OMEGA_F * alpha, _OMEGA_F * beta
    s = 3.0 * _SQRTM3_F * alpha * beta
    c = (scale / s) ** (1.0 / 3.0)
    f1 = [c * (wa * a - beta * b) for a, b in zip(r1, r2)]
    f2 = [c * (wb * b - alpha * a) for a, b in zip(r1, r2)]
    return f1, f2


def construct_from_triple(g1: BinaryForm, g2: BinaryForm, g3: BinaryForm,
                          alpha, beta) -> Representation:
    """Representation of g1*g2*g3 from the dependence g3 = alpha*g1 + beta*g2."""
    if not alpha or not beta:
        raise ValueError("dependence coefficients must both be nonzero")
    if g1.kernel.exact:
        h1 = g1.scale(OMEGA * alpha) - g2.scale(beta)
        h2 = g2.scale(OMEGA * beta) - g1.scale(alpha)
        s = SQRTM3 * 3 * alpha * beta
        if not (h1 ** 3 + h2 ** 3).equals((g1 * g2 * g3).scale(s)):
            raise ArithmeticError("construction identity failed")
        return Representation(h1, h2, s, 0.0)
    alpha, beta = complex(alpha), complex(beta)
    c1, c2 = _float_cube_pair(g1.coeffs, g2.coeffs, alpha, beta, 1.0)
    f1 = BinaryForm(g1.degree, tuple(c1), g1.kernel)
    f2 = BinaryForm(g2.degree, tuple(c2), g2.kernel)
    residual = relative_residual(f1 ** 3 + f2 ** 3, g1 * g2 * g3)
    return Representation(f1, f2, 1.0, residual)


def _pair_rows(roots) -> tuple[list, list]:
    """The complex coefficient row (a0 b0, a0 b1 + a1 b0, a1 b1) of the
    product of the linear factors (t, -s) of each pair of the six roots,
    each root repeated by its multiplicity, in _PAIRS order; and the 2-norm
    of each row."""
    lin = [(complex(r.t), complex(-r.s)) for r in roots for _ in range(r.multiplicity)]
    if len(lin) != 6:
        raise ValueError("exactly six projective roots required")
    rows = [(a0 * b0, a0 * b1 + a1 * b0, a1 * b1)
            for (a0, a1), (b0, b1) in [(lin[i], lin[j]) for i, j in _PAIRS]]
    return rows, [math.hypot(abs(a), abs(b), abs(c)) for a, b, c in rows]


def _grouping_determinants(rows, norms) -> list:
    """(det, product of the row norms) of the three pair rows of each
    pairing, in PAIRINGS order."""
    return [(det3((rows[i], rows[j], rows[k])), norms[i] * norms[j] * norms[k])
            for i, j, k in _PAIRING_IDS]


def _H_product(dets) -> complex:
    """H from the determinants of the pair rows: each row is the H row
    (t_i t_j, s_i t_j + s_j t_i, s_i s_j) with its middle entry negated, so
    each of the 15 determinants, and so their product, changes sign."""
    total = 1.0 + 0j
    for det, norm in dets:
        total *= det / norm
    # a zero part is stored as +0.0, whatever sign the rounding of the
    # factors left: decompose prints H
    return -total + 0j


def H_eval(roots) -> complex:
    """Product over the 15 pairings of the normalized grouping determinants;
    vanishing is necessary for a square-free sextic to be a sum of two cubes.

    Each factor is the determinant with rows (t_i t_j, s_i t_j + s_j t_i,
    s_i s_j) — the coefficient vector of the quadratic from one pair —
    divided by the product of the row 2-norms, so the value is invariant
    under root rescaling.
    """
    return _H_product(_grouping_determinants(*_pair_rows(roots)))


def _distinct(a, b, mag_prod) -> bool:
    """Two nonzero quadratic rows are not proportional to DISTINCT_REL, as
    BinaryForm.proportional_to decides it; mag_prod is the product of their
    largest coefficient magnitudes."""
    cut = DISTINCT_REL * max(mag_prod, UNDERFLOW_FLOOR)
    return (abs(a[0] * b[1] - a[1] * b[0]) > cut
            or abs(a[0] * b[2] - a[2] * b[0]) > cut
            or abs(a[1] * b[2] - a[2] * b[1]) > cut)


def rep_count(p: BinaryForm) -> DecompositionReport:
    """Count and construct all essentially distinct two-cube representations
    of a sextic: one per grouping of its roots that repeated roots do not
    make equal, whose quadratics are pairwise distinct and dependent, and
    whose construction has a residual within FLOAT_TOL.  Distinct groupings
    give distinct representations.

    One pass over the pairings on complex coefficient rows: per call, each
    of the 15 pair quadratics is formed once, and forms are built only for
    candidate representations.  A pairing's gates run in the order
    determinant prefilter (DEP_DET_REL), distinctness (DISTINCT_REL),
    span-fit prefilter (COEFF_SOLVE_REL), residual (FLOAT_TOL), so a sextic
    with no dependent grouping makes no distinctness test.  The answers are
    those of the staged pipeline pair_partitions ->
    proportional_to(rel_tol=DISTINCT_REL) -> dependence_test ->
    construct_from_triple, bit for bit.
    """
    if p.degree != 6:
        raise ValueError("sextic form required")
    if p.is_zero():
        raise ValueError("cannot decompose the zero form")
    pf = p.to_float()
    scale, roots = linear_factors(pf)
    rows, norms = _pair_rows(roots)
    dets = _grouping_determinants(rows, norms)
    H = _H_product(dets)
    mags = None
    cube_root = complex(scale) ** (1.0 / 3.0)

    reps = []
    for k, (i, j, m) in _pattern_pairings(tuple([r.multiplicity for r in roots])):
        # the gates are ANDed, so their order changes no answer: the
        # determinant prefilter first, since it is precomputed and rejects
        # most pairings, then distinctness, then the span-fit prefilter.  Both
        # prefilters are there for speed only: the FLOAT_TOL residual below
        # decides, and the benchmark's census sextics get the same answers
        # without them
        det, norm_prod = dets[k]
        if abs(det) > DEP_DET_REL * norm_prod:  # skips distinctness and the span fit
            continue
        if mags is None:
            mags = [max([abs(c) for c in row]) for row in rows]
        q1, q2, q3 = rows[i], rows[j], rows[m]
        # roots are unit vectors, so no pair quadratic is the zero form
        if not (_distinct(q1, q2, mags[i] * mags[j]) and _distinct(q1, q3, mags[i] * mags[m])
                and _distinct(q2, q3, mags[j] * mags[m])):
            continue
        fit = _span_fit(q1, q2, q3, norms[m])
        if fit is None:  # skips building forms for the residual
            continue
        alpha, beta = fit
        c1, c2 = _float_cube_pair(q1, q2, alpha, beta, 1.0)
        f1 = BinaryForm(2, tuple([cube_root * c for c in c1]), FLOAT)
        f2 = BinaryForm(2, tuple([cube_root * c for c in c2]), FLOAT)
        residual = relative_residual(f1 ** 3 + f2 ** 3, pf)
        if residual <= FLOAT_TOL:
            reps.append(Representation(f1, f2, 1.0, residual))

    return DecompositionReport(
        N=len(reps),
        reps=tuple(reps),
        roots=tuple(roots),
        multiplicities=tuple(sorted((r.multiplicity for r in roots), reverse=True)),
        H=H,
    )


def report_to_json(report: DecompositionReport) -> dict:
    return {
        "N": report.N,
        "representations": [
            {
                "f1": form_to_json(rep.f1),
                "f2": form_to_json(rep.f2),
                "residual": rep.residual,
            }
            for rep in report.reps
        ],
        "multiplicities": list(report.multiplicities),
        "H": [report.H.real, report.H.imag],
    }
