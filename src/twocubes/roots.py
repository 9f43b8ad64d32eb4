"""Projective factorization of binary forms over the complex floating kernel.

A degree-d form splits into d projective linear factors (t_j x - s_j y).
Roots at infinity (1, 0) and at zero (0, 1) come from exactly-zero end
coefficients, and from the Newton-polygon edges past a gap of 1/eps between
root moduli, on the side of the smaller coefficients.  The others come from
an Aberth solve of p(x, 1), started on the circles of its Newton polygon
(MPSolve's rule), that stops at its rounding floor, then clustering into
multiplicities; when the tightest clustering fails, the roots are polished on
exact residuals before coarser clusterings.  One Newton polygon per form
serves both the split at 0 and infinity and, when nothing is split off, the
starts.  The float solve and the exact polish share one sweep loop,
`_sweeps`, with the Aberth step written inline there, once; they differ
only in how p and p' are evaluated and in the float rules.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
import sys

from .exact import horner
from .forms import NEGLIGIBLE_REL, BinaryForm, derivative, norm2, relative_residual

CLUSTER_REL = 1e-6          # base mutual-distance threshold for multiplicity grouping
RECONSTRUCT_TOL = 1e-8      # relative residual demanded of the refactored product
ABERTH_STEP_TOL = 1e-14     # Aberth stops once no root moves more than this, relative
POLISH_STEP_TOL = 1e-15     # Newton polishing stops at a step this small, relative
STALL_NUDGE = 1e-6          # real and imaginary shift of an iterate where p' vanishes
GAP_GUARD = 1e-30           # stands in for a zero gap or denominator in the Aberth step
# Bini's stopping rule: |p(z)| under this times n * sum |a_k| |z|^(n-k), the
# rounding bound of a Horner evaluation, means more float sweeps cannot help
PSEUDOZERO_REL = 4 * sys.float_info.epsilon
POLISH_SWEEPS = 16          # cap on the exact-residual Aberth sweeps
MAX_SWEEPS = 260            # cap on the float Aberth sweeps
START_TURN = 0.35           # start angle, in steps of 2*pi / (starts on its circle)
LOG_RADIUS_CAP = 700.0      # |log| of a start radius, clamped inside the float range
LOG_ROOT_GAP = -math.log(sys.float_info.epsilon)  # root moduli apart by 1/eps are 0 and infinity
# Threshold multipliers tried tightest-first: an m-fold root scatters the solver
# output across a radius ~eps**(1/m), so coarser groupings must be available,
# but each proposed grouping has to pass the global reconstruction gate.
_CLUSTER_LADDER = (1.0, 10.0, 1e2, 1e3, 1e4)


@dataclasses.dataclass(frozen=True)
class ProjectiveRoot:
    """Unit-norm (s, t) with the first nonzero entry real-positive; the
    associated linear factor is t*x - s*y."""

    s: complex
    t: complex
    multiplicity: int = 1

    @staticmethod
    def normalized(s: complex, t: complex, multiplicity: int = 1) -> ProjectiveRoot:
        nrm = norm2((s, t))
        if nrm == 0:
            raise ValueError("(0, 0) is not a projective point")
        s, t = s / nrm, t / nrm
        lead = s if abs(s) > NEGLIGIBLE_REL else t
        phase = lead / abs(lead)
        return ProjectiveRoot(s / phase, t / phase, multiplicity)

    def is_infinite(self) -> bool:
        return abs(self.t) <= NEGLIGIBLE_REL

    def affine(self) -> complex:
        if self.is_infinite():
            raise ValueError("root at infinity has no affine value")
        return self.s / self.t

    def factor_coeffs(self) -> tuple[complex, complex]:
        return (complex(self.t), complex(-self.s))


def _newton_polygon(coeffs) -> tuple[list[tuple[int, float]], list[float]]:
    """Upper convex hull of (k, log|a_k|) over the nonzero a_k of x^k (`coeffs`
    leading first), lowest k first, and the log radius (log|a_i| - log|a_j|) /
    (j - i) of each edge from i to j: about the modulus of its j - i roots."""
    hull = []
    for k, c in enumerate(reversed(coeffs)):
        if c == 0:
            continue
        h = math.log(abs(c))  # in log space, so that no radius overflows
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (h - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, h))
    return hull, [(a[1] - b[1]) / (b[0] - a[0]) for a, b in zip(hull, hull[1:])]


def _aberth_roots(coeffs, polygon=None) -> list[complex]:
    """All roots of a dense complex polynomial with nonzero end coefficients
    (leading coefficient first), started from its Newton polygon, which the
    caller passes as `polygon` when it has `_newton_polygon(coeffs)` already.

    The iteration ends on a small step, or after the first sweep in which
    every iterate is a pseudozero (|p(z)| within Horner's rounding bound) when
    its update starts: roots squeezed into a cluster never meet the step test
    and would only wander inside the pseudozero set.  The final configuration
    is returned regardless; the caller validates it by reconstruction."""
    n = len(coeffs) - 1
    if n == 0:
        return []
    # j - i starts per hull edge from k = i to k = j, on the circle of its
    # radius, each edge's angles turned by its share of the degree
    hull, radii = polygon or _newton_polygon(coeffs)
    zs = [cmath.rect(math.exp(min(max(r, -LOG_RADIUS_CAP), LOG_RADIUS_CAP)),
                     2.0 * math.pi * ((k + START_TURN) / (j - i) + i / n))
          for (i, _), (j, _), r in zip(hull, hull[1:], radii) for k in range(j - i)]
    return _sweeps(coeffs, zs, None, MAX_SWEEPS)


def _sweeps(coeffs, zs: list[complex], exact, limit: int) -> list[complex]:
    """Aberth sweeps on zs in place, at most `limit` of them, until no
    iterate moves by more than ABERTH_STEP_TOL relative.

    With `exact` None, p(z) and p'(z) come from one float Horner pass, and
    the float rules apply: a stall where p' vanishes nudges the iterate, a
    NaN or infinite step is not applied, and a sweep that starts every
    update at a pseudozero ends the iteration.  With `exact` the
    `_dyadic_poly` of the coefficients, they come from `_exact_eval`, and a
    stalled iterate stays where it is.  The step, its repulsion sum and its
    guards are the same for both, written inline: a call per iterate and
    sweep cost a float solve about a sixth of its time."""
    n = len(zs)
    lead, tail = coeffs[0], coeffs[1:]
    moduli = [abs(c) for c in coeffs]
    floor_rel = PSEUDOZERO_REL * n
    for _ in range(limit):
        moved = 0.0
        at_floor = exact is None
        for i in range(n):
            z = zs[i]
            if exact is None:
                # p(z) and p'(z) in one Horner pass
                p, dp = lead, 0j
                for c in tail:
                    dp = dp * z + p
                    p = p * z + c
                if at_floor:
                    # Horner's rounding bound: the same pass on |a_k| at |z|
                    r = abs(z)
                    bound = 0.0
                    for m in moduli:
                        bound = bound * r + m
                    at_floor = abs(p) <= floor_rel * bound
                if dp == 0:
                    zs[i] = z + complex(STALL_NUDGE, STALL_NUDGE)
                    moved = math.inf
                    continue
            else:
                p, dp = _exact_eval(exact, z)
                if dp == 0:
                    continue
            # the Aberth correction of z from its Newton step p/p', with the
            # repulsion of the other iterates summed in index order
            newton = p / dp
            repulsion = 0j
            j = 0
            for zj in zs:
                if j != i:
                    try:
                        repulsion += 1.0 / (z - zj)
                    except ZeroDivisionError:  # a zero gap
                        repulsion += 1.0 / complex(GAP_GUARD)
                j += 1
            try:
                step = newton / (1.0 - newton * repulsion)
            except ZeroDivisionError:  # a zero denominator
                step = newton / complex(GAP_GUARD)
            size = abs(step)
            if exact is None and not size < math.inf:
                # a NaN or infinite step, from an overflowed p or p': keep the
                # iterate, and the sweep unconverged
                moved, at_floor = math.inf, False
                continue
            zs[i] = z = z - step
            size /= 1.0 + abs(z)
            if size > moved:
                moved = size
        if moved <= ABERTH_STEP_TOL or at_floor:
            break
    return zs


def _dyadic(values: list[float]) -> tuple[list[int], int]:
    """Ints m_k and one shift e >= 0 with values[k] == m_k / 2**e exactly."""
    ratios = [x.as_integer_ratio() for x in values]
    e = max(den.bit_length() for _, den in ratios) - 1
    return [num << (e - den.bit_length() + 1) for num, den in ratios], e


def _dyadic_poly(coeffs: list[complex]) -> tuple[list[tuple[int, int]], int]:
    """The float coefficients as Gaussian integers over one power of two."""
    parts, shift = _dyadic([x for c in coeffs for x in (c.real, c.imag)])
    return list(zip(parts[::2], parts[1::2])), shift


def _exact_eval(poly: tuple[list[tuple[int, int]], int], z: complex) -> tuple[complex, complex]:
    """p(z) and p'(z) of a polynomial of degree >= 1, each computed exactly
    and rounded once to a float.

    With p = sum A_k x^(n-k) / 2^D and z = Z / 2^G, one Horner pass on
    Gaussian integers gives P = sum A_k Z^(n-k) 2^(Gk) = 2^(D+Gn) p(z) and its
    Z-derivative 2^(D+G(n-1)) p'(z); int true division rounds correctly."""
    ints, shift = poly
    (zr, zi), g = _dyadic([z.real, z.imag])
    pr, pi = ints[0]
    dr = di = 0
    for k in range(1, len(ints)):
        dr, di = dr * zr - di * zi + pr, dr * zi + di * zr + pi
        ar, ai = ints[k]
        pr, pi = pr * zr - pi * zi + (ar << (g * k)), pr * zi + pi * zr + (ai << (g * k))
    n = len(ints) - 1
    p_den = 1 << (shift + g * n)
    dp_den = 1 << (shift + g * (n - 1))
    return complex(pr / p_den, pi / p_den), complex(dr / dp_den, di / dp_den)


def _exact_polish(body: list[complex], zs: list[complex]) -> list[complex]:
    """Aberth sweeps on exact residuals from float iterates.

    p(z) and p'(z) come from `_exact_eval`, so the Newton step keeps its
    relative accuracy inside the pseudozero set, where float Horner returns
    rounding noise; gaps and repulsion stay in floats.  Ends on the float
    solver's step test, or after POLISH_SWEEPS sweeps."""
    return _sweeps(body, list(zs), _dyadic_poly(body), POLISH_SWEEPS)


def _cluster(points: list[complex], tol_scale: float = 1.0) -> list[tuple[complex, int]]:
    threshold = CLUSTER_REL * tol_scale
    used = [False] * len(points)
    out = []
    for i, z in enumerate(points):
        if used[i]:
            continue
        group = [z]
        used[i] = True
        for j in range(i + 1, len(points)):
            if used[j]:
                continue
            if abs(z - points[j]) <= threshold * (1.0 + abs(z)):
                group.append(points[j])
                used[j] = True
        center = sum(group) / len(group)
        out.append((center, len(group)))
    return out


def _polished_center(body: list[complex], center: complex, mult: int, move_cap: float) -> complex:
    """Newton-refine a multiplicity-m cluster center, m > 1, on the (m-1)-th
    derivative, where it sits as a simple root; the centroid alone carries the
    full scatter of the solver output, which does not cancel in the
    reconstructed product."""
    q = derivative(body, mult - 1)
    dq = derivative(q)
    z = center
    for _ in range(60):
        dv = horner(dq, z)
        if dv == 0:
            break
        step = horner(q, z) / dv
        z -= step
        if abs(z - center) > move_cap:
            return center
        if abs(step) <= POLISH_STEP_TOL * (1.0 + abs(z)):
            break
    return z


def linear_factors(p: BinaryForm) -> tuple[complex, list[ProjectiveRoot]]:
    """p = scale * prod (t_j x - s_j y)^(m_j), residual-checked.

    Roots are ordered deterministically: infinity first, then by (Re, Im) of
    the affine value, so partition enumeration downstream is reproducible.
    """
    p = p.to_float()
    if p.is_zero():
        raise ValueError("cannot factor the zero form")
    coeffs = [complex(c) for c in p.coeffs]
    # roots at infinity and zero by the module's rule: a small end coefficient
    # alone is a large or a small root, which the starts find
    hull, radii = _newton_polygon(coeffs)
    lo, hi = 0, len(hull) - 1
    for v in range(1, len(hull) - 1):
        if radii[v] - radii[v - 1] > LOG_ROOT_GAP:
            split = p.degree - hull[v][0]
            drop_top = max(map(abs, coeffs[:split])) < max(map(abs, coeffs[split + 1:]))
            lo, hi = (lo, min(hi, v)) if drop_top else (v, hi)
    inf_mult, zero_mult = p.degree - hull[hi][0], hull[lo][0]
    body = coeffs[inf_mult:p.degree + 1 - zero_mult]

    finite: list[tuple[complex, int]] = [(0j, zero_mult)] if zero_mult else []

    def factored(solved: list[complex], tol_scale: float):
        clusters = []
        for z, m in _cluster(solved, tol_scale):
            if m > 1:
                z = _polished_center(body, z, m, 10.0 * CLUSTER_REL * tol_scale * (1.0 + abs(z)) * m)
            clusters.append((z, m))
        roots = []
        if inf_mult:
            roots.append(ProjectiveRoot(1.0 + 0j, 0j, inf_mult))
        for z, m in finite + clusters:
            try:
                nrm = math.sqrt(1.0 + abs(z) ** 2)
            except OverflowError:  # |z| past ~1.3e154, where 1 + |z|^2 rounds to |z|^2
                nrm = abs(z)
            roots.append(ProjectiveRoot.normalized(z / nrm, 1.0 / nrm, m))
        roots = _ordered(roots)
        scale, residual = _reconstruction(p, roots)
        return scale, roots, residual

    # the body is the whole form when no root is at 0 or infinity, and its
    # Newton polygon is the one above
    whole = (hull, radii) if len(body) == len(coeffs) else None
    solved = _aberth_roots(body, whole) if len(body) > 1 else []
    scale, roots, residual = factored(solved, _CLUSTER_LADDER[0])
    if residual <= RECONSTRUCT_TOL:
        return scale, roots
    polished = _exact_polish(body, solved)
    for tol_scale in _CLUSTER_LADDER:
        scale, roots, residual = factored(polished, tol_scale)
        if residual <= RECONSTRUCT_TOL:
            return scale, roots
    raise ArithmeticError(f"reconstruction residual {residual:.2e} too large")


def _ordered(roots: list[ProjectiveRoot]) -> list[ProjectiveRoot]:
    def key(r: ProjectiveRoot):
        if r.is_infinite():
            return (0, 0.0, 0.0)
        z = r.s / r.t  # r.affine(), without testing infinity again
        return (1, round(z.real, 9), round(z.imag, 9))

    return sorted(roots, key=key)


def _reconstruction(p: BinaryForm, roots: list[ProjectiveRoot]) -> tuple[complex, float]:
    prod = [1.0 + 0j]
    for r in roots:
        t, ms = r.t, -r.s
        for _ in range(r.multiplicity):
            nxt = [0j] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i] += c * t
                nxt[i + 1] += c * ms
            prod = nxt
    coeffs = [complex(c) for c in p.coeffs]
    k = max(range(len(coeffs)), key=lambda i: abs(coeffs[i]))
    if abs(prod[k]) == 0:
        return 0j, math.inf
    scale = coeffs[k] / prod[k]
    return scale, relative_residual([scale * c for c in prod], coeffs)
