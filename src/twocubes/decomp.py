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

rep_count counts on complex coefficient rows in four stages, each a module
function: pair_partitions picks the groupings of six roots with given
multiplicities, H_eval makes the obstruction H from the 15 grouping
determinants, dependence_test fits g3 = a*g1 + b*g2 for one grouping, and
construct_from_triple builds the representation and its residual.
"""
from __future__ import annotations

import dataclasses
import functools

from .exact import OMEGA, SQRTM3
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


@functools.lru_cache(maxsize=None)
def pair_partitions(multiplicities: tuple) -> tuple:
    """(index into PAIRINGS, three indices into _PAIRS) of each pairing of
    six slots whose roots repeat with these multiplicities, unless an
    earlier pairing groups the same roots: two pairs are one quadratic when
    they pair the same roots, so groupings made identical by repeated roots
    collapse to their first pairing."""
    ids = [root for root, m in enumerate(multiplicities) for _ in range(m)]
    pair_keys = [(ids[i], ids[j]) for i, j in _PAIRS]
    seen, fresh = set(), []
    for k, pairing in enumerate(_PAIRING_IDS):
        key = tuple(sorted([pair_keys[pair] for pair in pairing]))
        if key not in seen:
            seen.add(key)
            fresh.append((k, pairing))
    return tuple(fresh)


def _pair_rows(roots) -> tuple[list, list]:
    """The complex coefficient row (a0 b0, a0 b1 + a1 b0, a1 b1) of the
    product of the linear factors (a0, a1) = factor_coeffs() of each pair of
    the six roots, each root repeated by its multiplicity, in _PAIRS order;
    and the 2-norm of each row."""
    lin = [r.factor_coeffs() for r in roots for _ in range(r.multiplicity)]
    if len(lin) != 6:
        raise ValueError("exactly six projective roots required")
    rows = [(a0 * b0, a0 * b1 + a1 * b0, a1 * b1)
            for (a0, a1), (b0, b1) in [(lin[i], lin[j]) for i, j in _PAIRS]]
    return rows, [norm2(row) for row in rows]


def _grouping_determinants(rows, norms) -> list:
    """(det, product of the row norms) of the three pair rows of each
    pairing, in PAIRINGS order."""
    return [(det3((rows[i], rows[j], rows[k])), norms[i] * norms[j] * norms[k])
            for i, j, k in _PAIRING_IDS]


def H_eval(dets) -> complex:
    """H, the product over the 15 pairings of the grouping determinants
    normalized by their row norms: invariant under root rescaling, and zero
    when a square-free sextic is a sum of two cubes.  Each pair row is the H
    row (t_i t_j, s_i t_j + s_j t_i, s_i s_j) with its middle entry negated,
    so each of the 15 determinants, and so their product, changes sign."""
    total = 1.0 + 0j
    for det, norm in dets:
        total *= det / norm
    # a zero part is stored as +0.0, whatever sign the rounding of the
    # factors left: decompose prints H
    return -total + 0j


def dependence_test(r1, r2, r3) -> Dependence:
    """Whether the complex row r3 is alpha*r1 + beta*r2: the least-squares
    (alpha, beta) via the 2x2 normal equations, dependent unless the fit's
    relative residual against r3 exceeds COEFF_SOLVE_REL."""
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
    if relative_residual(fit, r3) > COEFF_SOLVE_REL:
        return Dependence(False)
    return Dependence(True, alpha, beta)


def construct_from_triple(r1, r2, alpha, beta, cube_root, p) -> Representation:
    """The representation f1^3 + f2^3 of p from a grouping g1*g2*g3 with
    g3 = alpha*g1 + beta*g2, where r1, r2 are the coefficient rows of g1, g2
    and cube_root**3 * g1*g2*g3 = p, and its relative residual against p."""
    wa, wb = _OMEGA_F * alpha, _OMEGA_F * beta
    c = (1.0 / (3.0 * _SQRTM3_F * alpha * beta)) ** (1.0 / 3.0)
    f1 = BinaryForm(2, tuple([cube_root * (c * (wa * a - beta * b)) for a, b in zip(r1, r2)]), FLOAT)
    f2 = BinaryForm(2, tuple([cube_root * (c * (wb * b - alpha * a)) for a, b in zip(r1, r2)]), FLOAT)
    return Representation(f1, f2, 1.0, relative_residual((f1 ** 3 + f2 ** 3).coeffs, p.coeffs))


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

    The 15 pair quadratics of the roots are complex coefficient rows, formed
    once per call, and the four stages run on them: pair_partitions picks
    the groupings, H_eval makes H from their determinants, and each grouping
    that passes the determinant prefilter (DEP_DET_REL) and distinctness
    (DISTINCT_REL) goes to dependence_test (COEFF_SOLVE_REL) and, when
    dependent, to construct_from_triple, whose representation is kept when
    its residual is within FLOAT_TOL.  So a sextic with no dependent grouping
    makes no distinctness test, and forms are built only for candidate
    representations.
    """
    if p.degree != 6:
        raise ValueError("sextic form required")
    if p.is_zero():
        raise ValueError("cannot decompose the zero form")
    pf = p.to_float()
    scale, roots = linear_factors(pf)
    rows, norms = _pair_rows(roots)
    dets = _grouping_determinants(rows, norms)
    H = H_eval(dets)
    mags = None
    cube_root = complex(scale) ** (1.0 / 3.0)

    reps = []
    for k, (i, j, m) in pair_partitions(tuple([r.multiplicity for r in roots])):
        # the gates are ANDed, so their order changes no answer: the
        # determinant prefilter first, since it is precomputed and rejects
        # most pairings, then distinctness, then the span fit.  The
        # determinant prefilter and the span fit's cut are there for speed
        # only: the FLOAT_TOL residual below decides, and the benchmark's
        # census sextics get the same answers without them
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
        dep = dependence_test(q1, q2, q3)
        if not dep.dependent:  # skips building forms for the residual
            continue
        rep = construct_from_triple(q1, q2, dep.alpha, dep.beta, cube_root, pf)
        if rep.residual <= FLOAT_TOL:
            reps.append(rep)

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
