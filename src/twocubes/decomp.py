"""Census of two-cube representations of binary sextics.

A sextic p splits into six projective linear factors; p = f1^3 + f2^3 holds
exactly when some grouping of the factors into three quadratics (g1, g2, g3)
is linearly dependent, g3 = a*g1 + b*g2 with a, b both nonzero, and every
such grouping yields one representation via

    3*sqrt(-3)*a*b * g1*g2*g3 = (w*a*g1 - b*g2)^3 + (-a*g1 + w*b*g2)^3,

w a primitive cube root of unity.  Counting runs over the 15 groupings and
identifies representations that differ only by summand order or by cube
roots of unity multiplying the summands.
"""
from __future__ import annotations

import dataclasses
import math

from .exact import OMEGA, SQRTM3, scalar_key
from .forms import FLOAT_TOL, UNDERFLOW_FLOOR, BinaryForm, det3, form_to_json, relative_residual
from .roots import ProjectiveRoot, expanded_root_slots, linear_factors

DISTINCT_REL = 1e-5        # quadratics closer than this count as proportional
DEP_DET_REL = 1e-7         # |det| below this (times row-norm product) = dependent
COEFF_SOLVE_REL = 1e-6     # accepted relative residual of the dependence solve
MIN_COEFF_ABS = 1e-9       # dependence coefficients below this count as zero
SUBSPACE_MATCH_TOL = 1e-5  # projector distance under which spans are identified
PIVOT_REL = 1e-9           # echelon pivots below this share of the largest entry count as zero
SUBSPACE_ROW_TOL = 1e-6    # entrywise distance under which two echelon bases are one span
CUBE_PAIR_REL = 1e-6       # relative distance under which two summand cubes are one

_OMEGA_F = complex(OMEGA.to_complex())
_SQRTM3_F = complex(SQRTM3.to_complex())


def _index_pairings(n: int = 6) -> tuple:
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

    return tuple([tuple(map(tuple, p)) for p in rec(list(range(n)))])


PAIRINGS = _index_pairings()


@dataclasses.dataclass(frozen=True)
class Representation:
    """p * scale = f1**3 + f2**3; the floating pipeline normalizes scale = 1."""

    f1: BinaryForm
    f2: BinaryForm
    scale: object
    residual: float = 0.0


@dataclasses.dataclass(frozen=True)
class Subspace:
    """Reduced-row-echelon basis (2 x 3, unit pivots) of the span of two
    quadratic coefficient vectors."""

    rows: tuple

    @staticmethod
    def from_forms(f1: BinaryForm, f2: BinaryForm) -> "Subspace":
        rows = [
            [complex(c) for c in f1.to_float().coeffs],
            [complex(c) for c in f2.to_float().coeffs],
        ]
        scale = max(abs(c) for row in rows for c in row) or 1.0
        rank = 0
        for col in range(3):
            pivot = max(range(rank, 2), key=lambda r: abs(rows[r][col]), default=None)
            if pivot is None or abs(rows[pivot][col]) <= PIVOT_REL * scale:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            lead = rows[rank][col]
            rows[rank] = [c / lead for c in rows[rank]]
            for r in range(2):
                if r != rank:
                    factor = rows[r][col]
                    rows[r] = [c - factor * d for c, d in zip(rows[r], rows[rank])]
            rank += 1
            if rank == 2:
                break
        if rank < 2:
            raise ValueError("coefficient vectors do not span a plane")
        return Subspace(tuple([tuple(row) for row in rows]))

    def matches(self, other: "Subspace", tol: float = SUBSPACE_ROW_TOL) -> bool:
        return all(
            abs(a - b) <= tol
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )


@dataclasses.dataclass(frozen=True)
class Dependence:
    dependent: bool
    alpha: object = None
    beta: object = None


@dataclasses.dataclass(frozen=True)
class DecompositionReport:
    N: int
    reps: tuple
    subspaces: tuple
    roots: tuple
    multiplicities: tuple
    H: complex
    dependent_triples: int


@dataclasses.dataclass(frozen=True)
class CubicSplit:
    ok: bool
    ell1: BinaryForm = None
    ell2: BinaryForm = None
    reason: str = ""


def _coeff_key(f: BinaryForm):
    if f.kernel.exact:
        return tuple([scalar_key(c) for c in f.coeffs])
    return tuple([(round(complex(c).real, 12), round(complex(c).imag, 12)) for c in f.coeffs])


def pair_partitions(factors) -> list:
    """All distinct ways to multiply six linear forms pairwise into a triple
    of quadratics; groupings made identical by repeated factors collapse."""
    factors = list(factors)
    if len(factors) != 6:
        raise ValueError("exactly six linear factors required")
    if any(f.degree != 1 for f in factors):
        raise ValueError("factors must be linear forms")
    out = []
    seen = set()
    for pairing in PAIRINGS:
        triple = tuple([factors[i] * factors[j] for i, j in pairing])
        key = tuple(sorted(_coeff_key(q) for q in triple))
        if key in seen:
            continue
        seen.add(key)
        out.append(triple)
    return out


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
    det = det3(crows)
    norm_prod = 1.0
    for row in crows:
        norm_prod *= math.sqrt(sum(abs(c) ** 2 for c in row))
    if abs(det) > DEP_DET_REL * norm_prod:
        return Dependence(False)
    # least-squares span coefficients via the 2x2 normal equations
    g11 = sum(a * b.conjugate() for a, b in zip(crows[0], crows[0]))
    g12 = sum(a * b.conjugate() for a, b in zip(crows[1], crows[0]))
    g21 = g12.conjugate()
    g22 = sum(a * b.conjugate() for a, b in zip(crows[1], crows[1]))
    b1 = sum(a * b.conjugate() for a, b in zip(crows[2], crows[0]))
    b2 = sum(a * b.conjugate() for a, b in zip(crows[2], crows[1]))
    disc = g11 * g22 - g12 * g21
    if abs(disc) == 0:
        raise ValueError("first two quadratics are proportional")
    alpha = (b1 * g22 - b2 * g12) / disc
    beta = (g11 * b2 - g21 * b1) / disc
    fit = [alpha * a + beta * b for a, b in zip(crows[0], crows[1])]
    err = math.sqrt(sum(abs(f - c) ** 2 for f, c in zip(fit, crows[2])))
    nq3 = math.sqrt(sum(abs(c) ** 2 for c in crows[2]))
    if err > COEFF_SOLVE_REL * max(nq3, UNDERFLOW_FLOOR):
        return Dependence(False)
    return Dependence(True, alpha, beta)


def _float_cube_pair(g1: BinaryForm, g2: BinaryForm, alpha, beta, scale):
    """(f1, f2) with f1^3 + f2^3 = scale * g1*g2*g3 for g3 = alpha*g1 + beta*g2,
    over complex floats."""
    h1 = g1.scale(_OMEGA_F * alpha) - g2.scale(beta)
    h2 = g2.scale(_OMEGA_F * beta) - g1.scale(alpha)
    s = 3.0 * _SQRTM3_F * alpha * beta
    c = (scale / s) ** (1.0 / 3.0)
    return h1.scale(c), h2.scale(c)


def construct_from_triple(g1: BinaryForm, g2: BinaryForm, g3: BinaryForm,
                          alpha, beta) -> Representation:
    """Representation of g1*g2*g3 from the dependence g3 = alpha*g1 + beta*g2."""
    if g1.kernel.exact:
        if g1.kernel.is_zero(alpha) or g1.kernel.is_zero(beta):
            raise ValueError("dependence coefficients must both be nonzero")
        h1 = g1.scale(OMEGA * alpha) - g2.scale(beta)
        h2 = g2.scale(OMEGA * beta) - g1.scale(alpha)
        s = SQRTM3 * 3 * alpha * beta
        if not (h1 ** 3 + h2 ** 3).equals((g1 * g2 * g3).scale(s)):
            raise ArithmeticError("construction identity failed")
        return Representation(h1, h2, s, 0.0)
    alpha, beta = complex(alpha), complex(beta)
    if abs(alpha) <= MIN_COEFF_ABS or abs(beta) <= MIN_COEFF_ABS:
        raise ValueError("dependence coefficients must both be nonzero")
    f1, f2 = _float_cube_pair(g1, g2, alpha, beta, 1.0)
    target = g1 * g2 * g3
    residual = relative_residual(f1 ** 3 + f2 ** 3, target)
    return Representation(f1, f2, 1.0, residual)


def cubic_two_cubes(q: BinaryForm) -> CubicSplit:
    """The unique (up to summand order and cube roots of unity) pair of
    linear forms with ell1^3 + ell2^3 = q, which exists exactly when the
    cubic q is square-free."""
    if q.degree != 3:
        raise ValueError("cubic form required")
    if q.is_zero():
        raise ValueError("cannot split the zero form")
    scale, roots = linear_factors(q.to_float())
    if any(r.multiplicity > 1 for r in roots):
        return CubicSplit(False, reason="square factor")
    ells = [BinaryForm.floating(1, r.factor_coeffs()) for r in roots]
    g1, g2, g3 = ells
    # three linear forms are always dependent; distinct factors force both
    # coefficients nonzero
    d11 = g1.coeffs[0] * g2.coeffs[1] - g1.coeffs[1] * g2.coeffs[0]
    alpha = (g3.coeffs[0] * g2.coeffs[1] - g3.coeffs[1] * g2.coeffs[0]) / d11
    beta = (g1.coeffs[0] * g3.coeffs[1] - g1.coeffs[1] * g3.coeffs[0]) / d11
    ell1, ell2 = _float_cube_pair(g1, g2, alpha, beta, scale)
    residual = relative_residual(ell1 ** 3 + ell2 ** 3, q.to_float())
    if residual > FLOAT_TOL:
        raise ArithmeticError(f"cubic split residual {residual:.2e} too large")
    return CubicSplit(True, ell1, ell2)


def H_eval(roots) -> complex:
    """Product over the 15 pairings of the normalized grouping determinants;
    vanishing is necessary for a square-free sextic to be a sum of two cubes.

    Each factor is the determinant with rows (t_i t_j, s_i t_j + s_j t_i,
    s_i s_j) — the coefficient vector of the quadratic from one pair —
    divided by the product of the row 2-norms, so the value is invariant
    under root rescaling.
    """
    slots = expanded_root_slots(list(roots))
    if len(slots) != 6:
        raise ValueError("exactly six projective roots required")
    total = 1.0 + 0j
    for pairing in PAIRINGS:
        rows = []
        for i, j in pairing:
            a, b = slots[i], slots[j]
            rows.append((a.t * b.t, a.s * b.t + b.s * a.t, a.s * b.s))
        det = det3(rows)
        norm = 1.0
        for row in rows:
            norm *= math.sqrt(sum(abs(c) ** 2 for c in row))
        total *= det / norm
    return total


def _orthonormal_projector(f1: BinaryForm, f2: BinaryForm):
    """3x3 orthogonal projector onto the span of the two coefficient vectors;
    a basis-free fingerprint of the subspace."""
    v1 = [complex(c) for c in f1.coeffs]
    n1 = math.sqrt(sum(abs(c) ** 2 for c in v1))
    v1 = [c / n1 for c in v1]
    v2 = [complex(c) for c in f2.coeffs]
    dot = sum(a * b.conjugate() for a, b in zip(v2, v1))
    v2 = [a - dot * b for a, b in zip(v2, v1)]
    n2 = math.sqrt(sum(abs(c) ** 2 for c in v2))
    v2 = [c / n2 for c in v2]
    return tuple([
        v1[i] * v1[j].conjugate() + v2[i] * v2[j].conjugate()
        for i in range(3)
        for j in range(3)
    ])


def _projector_distance(p, q) -> float:
    return math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(p, q)))


def _forms_close(a: BinaryForm, b: BinaryForm, tol: float = CUBE_PAIR_REL) -> bool:
    na = math.sqrt(sum(abs(complex(c)) ** 2 for c in a.coeffs))
    nb = math.sqrt(sum(abs(complex(c)) ** 2 for c in b.coeffs))
    diff = math.sqrt(sum(abs(complex(x) - complex(y)) ** 2
                         for x, y in zip(a.coeffs, b.coeffs)))
    return diff <= tol * max(na, nb, UNDERFLOW_FLOOR)


def _cube_pairs_match(pair_a, pair_b) -> bool:
    a1, a2 = pair_a
    b1, b2 = pair_b
    return (_forms_close(a1, b1) and _forms_close(a2, b2)) or (
        _forms_close(a1, b2) and _forms_close(a2, b1)
    )


def rep_count(p: BinaryForm) -> DecompositionReport:
    """Count and construct all essentially distinct two-cube representations
    of a sextic.  Repeated factors need no special casing: groupings that
    repeat a quadratic or merge proportional ones are filtered, and the rest
    run through the same dependence test."""
    if p.degree != 6:
        raise ValueError("sextic form required")
    if p.is_zero():
        raise ValueError("cannot decompose the zero form")
    pf = p.to_float()
    scale, roots = linear_factors(pf)
    slots = expanded_root_slots(roots)
    factors = [BinaryForm.floating(1, r.factor_coeffs()) for r in slots]
    H = H_eval(slots)
    cube_root = complex(scale) ** (1.0 / 3.0)

    kept = []  # (Representation, projector, cube pair)
    dependent_triples = 0
    for g1, g2, g3 in pair_partitions(factors):
        if (
            g1.proportional_to(g2, rel_tol=DISTINCT_REL)
            or g1.proportional_to(g3, rel_tol=DISTINCT_REL)
            or g2.proportional_to(g3, rel_tol=DISTINCT_REL)
        ):
            continue
        dep = dependence_test(g1, g2, g3)
        if not dep.dependent:
            continue
        dependent_triples += 1
        if abs(dep.alpha) <= MIN_COEFF_ABS or abs(dep.beta) <= MIN_COEFF_ABS:
            continue
        base = construct_from_triple(g1, g2, g3, dep.alpha, dep.beta)
        f1 = base.f1.scale(cube_root)
        f2 = base.f2.scale(cube_root)
        cubes = (f1 ** 3, f2 ** 3)
        residual = relative_residual(cubes[0] + cubes[1], pf)
        if residual > FLOAT_TOL:
            continue
        rep = Representation(f1, f2, 1.0, residual)
        projector = _orthonormal_projector(f1, f2)
        duplicate = any(
            _projector_distance(projector, proj) <= SUBSPACE_MATCH_TOL
            and _cube_pairs_match(cubes, seen_cubes)
            for _, proj, seen_cubes in kept
        )
        if not duplicate:
            kept.append((rep, projector, cubes))

    reps = tuple([rep for rep, _, _ in kept])
    subspaces = []
    for rep, proj, _ in kept:
        if not any(
            _projector_distance(proj, prev_proj) <= SUBSPACE_MATCH_TOL
            for prev_proj, _ in subspaces
        ):
            subspaces.append((proj, Subspace.from_forms(rep.f1, rep.f2)))
    return DecompositionReport(
        N=len(reps),
        reps=reps,
        subspaces=tuple([sub for _, sub in subspaces]),
        roots=tuple(roots),
        multiplicities=tuple(sorted((r.multiplicity for r in roots), reverse=True)),
        H=H,
        dependent_triples=dependent_triples,
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
