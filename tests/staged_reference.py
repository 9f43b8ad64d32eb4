"""The census engine rebuilt at form level, one `BinaryForm` per linear
factor and per quadratic: the reference that the tests hold
`decomp.rep_count` to.

`pair_partitions` keys the groupings of six factors by the coefficients of
their quadratics, where `rep_count` keys them by root index.
`dependence_test` and `construct_from_triple` take exact forms too, and
check the paper's construction identity exactly; their float branches end
in `decomp`'s row-level stages of the same names.  `H_eval` takes the roots.
`staged_rep_count` chains them, with `BinaryForm.proportional_to` as the
distinctness test.
"""
import itertools

from twocubes import decomp
from twocubes.decomp import DEP_DET_REL, DISTINCT_REL, Dependence, Representation
from twocubes.exact import OMEGA, SQRTM3, scalar_key
from twocubes.forms import FLOAT_TOL, BinaryForm, det3, norm2, relative_residual
from twocubes.roots import linear_factors


def _coeff_key(f: BinaryForm):
    if f.kernel.exact:
        return tuple([scalar_key(c) for c in f.coeffs])
    return tuple([(round(c.real, 12), round(c.imag, 12)) for c in map(complex, f.coeffs)])


def pair_partitions(factors) -> list:
    """All distinct ways to multiply six linear forms pairwise into a triple
    of quadratics, in `decomp.PAIRINGS` order; groupings made identical by
    repeated factors collapse to their first pairing."""
    factors = list(factors)
    if len(factors) != 6:
        raise ValueError("exactly six linear factors required")
    if any(f.degree != 1 for f in factors):
        raise ValueError("factors must be linear forms")
    products = {(i, j): factors[i] * factors[j] for i, j in itertools.combinations(range(6), 2)}
    keys = {pair: _coeff_key(q) for pair, q in products.items()}
    seen, out = set(), []
    for pairing in decomp.PAIRINGS:
        key = tuple(sorted([keys[pair] for pair in pairing]))
        if key not in seen:
            seen.add(key)
            out.append(tuple([products[pair] for pair in pairing]))
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
    norms = [norm2(row) for row in crows]
    if abs(det3(crows)) > DEP_DET_REL * (norms[0] * norms[1] * norms[2]):
        return Dependence(False)
    return decomp.dependence_test(*crows)


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
    return decomp.construct_from_triple(g1.coeffs, g2.coeffs, complex(alpha), complex(beta), 1.0,
                                        g1 * g2 * g3)


def H_eval(roots) -> complex:
    """H of the six roots, each repeated by its multiplicity."""
    return decomp.H_eval(decomp._grouping_determinants(*decomp._pair_rows(roots)))


def staged_rep_count(p: BinaryForm):
    """(N, the representations kept, H) of a sextic through the form-level
    stages: pair_partitions -> proportional_to(rel_tol=DISTINCT_REL) ->
    dependence_test -> construct_from_triple -> scale, residual."""
    pf = p.to_float()
    scale, roots = linear_factors(pf)
    factors = [BinaryForm.floating(1, r.factor_coeffs()) for r in roots for _ in range(r.multiplicity)]
    H = H_eval(roots)
    cube_root = complex(scale) ** (1.0 / 3.0)
    reps = []
    for g1, g2, g3 in pair_partitions(factors):
        if (g1.proportional_to(g2, rel_tol=DISTINCT_REL) or g1.proportional_to(g3, rel_tol=DISTINCT_REL)
                or g2.proportional_to(g3, rel_tol=DISTINCT_REL)):
            continue
        dep = dependence_test(g1, g2, g3)
        if not dep.dependent:
            continue
        base = construct_from_triple(g1, g2, g3, dep.alpha, dep.beta)
        f1, f2 = base.f1.scale(cube_root), base.f2.scale(cube_root)
        residual = relative_residual((f1 ** 3 + f2 ** 3).coeffs, pf.coeffs)
        if residual <= FLOAT_TOL:
            reps.append(Representation(f1, f2, 1.0, residual))
    return len(reps), reps, H
