"""Eight end-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line (visible with ``pytest -s`` or by
running the module directly) and then asserts, so a failure is loud both as
text and as a pytest error.  Tolerances are pinned in the assertions.
"""
import math
import random
from fractions import Fraction

from twocubes.classify import canonicalize_type, reference_family, type_detect
from twocubes.decomp import rep_count
from twocubes.ecurve import EBParams, curve_add, curve_third_rep, eb_forward, eb_inverse
from twocubes.families import (
    f_forms,
    p1_sextic,
    q2_sextic,
    sextic_a,
    sextic_b,
    verify_identity_suite,
)
from twocubes import families
from twocubes.forms import BinaryForm, LinearChange, form_compose
from twocubes.roots import linear_factors

from family_helpers import flip_sums, q1_sextic
from staged_reference import dependence_test

Q = Fraction


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {label}")
    assert ok, f"criterion {number} failed: {label}"


def _exact_equals(value, k) -> bool:
    if hasattr(value, "is_zero"):
        return (value - k).is_zero()
    return value == k


# -- 1. census table: exact counts, residuals <= 1e-9 ------------------------

A_EXCEPTIONAL = {Q(3): 0, Q(-1): 1, Q(0): 4, Q(15): 4, Q(-5): 6}
B_EXCEPTIONAL = {Q(0): 4, Q(2): 0, Q(-2): 0}
_A_AVOID = [complex(float(t), 0.0) for t in A_EXCEPTIONAL]
_B_AVOID = [complex(float(t), 0.0) for t in B_EXCEPTIONAL] + [
    complex(0.0, 5.0 * math.sqrt(2.0)),
    complex(0.0, -5.0 * math.sqrt(2.0)),
]


def _generic_parameters(count, avoid, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
        if min(abs(t - bad) for bad in avoid) > 0.3:
            out.append(t)
    return out


def test_criterion_1_census_counts():
    ok = True
    worst_residual = 0.0

    def count(form):
        nonlocal worst_residual
        report = rep_count(form.to_float())
        for rep in report.reps:
            worst_residual = max(worst_residual, rep.residual)
        return report.N

    for t, n in A_EXCEPTIONAL.items():
        ok = ok and count(sextic_a(t)) == n
    for t in _generic_parameters(20, _A_AVOID, 20240814):
        ok = ok and count(sextic_a(t)) == 2
    for t, n in B_EXCEPTIONAL.items():
        ok = ok and count(sextic_b(t)) == n
    for sign in (1.0, -1.0):
        ok = ok and count(sextic_b(complex(0.0, sign * 5.0 * math.sqrt(2.0)))) == 6
    for t in _generic_parameters(20, _B_AVOID, 20240815):
        ok = ok and count(sextic_b(t)) == 3
    ok = ok and count(q1_sextic()) == 4
    ok = ok and count(q2_sextic()) == 6
    ok = ok and worst_residual <= 1e-9
    _report(1, f"census counts exact, max representation residual {worst_residual:.2e} <= 1e-9", ok)


# -- 2. identity suite --------------------------------------------------------

def test_criterion_2_identity_suite():
    entries = verify_identity_suite()
    ok = len(entries) == 21 and all(entry["pass"] for entry in entries)
    failed = [entry["id"] for entry in entries if not entry["pass"]]
    _report(2, f"all 21 identity groups verify exactly (failed: {failed or 'none'})", ok)


# -- 3. flip sums through the decomposition engine ---------------------------

def test_criterion_3_flip_counts():
    first, second, third = (rep_count(p.to_float()).N for p in flip_sums())
    ok = first == 3 and third == 2 and second == 3
    _report(3, f"flip sums give N = {first}, {second}, {third} (expected 3, 3, 2)", ok)


# -- 4. chord addition on the twisted family: denominators cancel exactly ----

def test_criterion_4_form_chords():
    rng = random.Random(7)
    ok = True
    seen = 0
    while seen < 20:
        lam = Q(rng.randint(-9, 9), rng.randint(1, 9))
        if lam == 0 or abs(lam) == 1:
            continue
        seen += 1
        f1, f2, f3, f4, f5, f6 = f_forms(lam)
        x3, y3 = curve_add((f1, f2), (f3, f4), p1_sextic(lam))
        ok = ok and isinstance(x3, BinaryForm) and isinstance(y3, BinaryForm)
        ok = ok and (x3 - f5).is_zero() and (y3 - f6).is_zero()
    _report(4, "form chords reduce to plain forms and hit the third pair at 20 exact parameters", ok)


# -- 5. cube-sum curve parameterization ---------------------------------------

def test_criterion_5_curve_parameterization():
    quad = eb_forward(EBParams(Q(-3, 2), Q(1, 2), Q(1)))
    ok = (quad.f1, quad.f2, quad.f3, quad.f4) == (10, -1, -9, 12)

    recovered = eb_inverse(Q(10), Q(-1), Q(-9), Q(12))
    ok = ok and (recovered.a, recovered.b, recovered.mu) == (Q(-3, 2), Q(1, 2), 1)

    h1, h2 = curve_third_rep(EBParams(Q(-3, 2), Q(1, 2), Q(1)))
    ok = ok and (h1, h2) == (-8, 6) and h1 ** 3 - h2 ** 3 == 10 ** 3 - 12 ** 3 == -728

    # Third-representation identity proved in (a, b): both sides are
    # polynomials of degree <= 12 in each variable, so exact agreement on a
    # 13 x 13 rational grid forces them to coincide identically.
    grid_ok = True
    a_nodes = [Q(i - 6) + Q(1, 5) for i in range(13)]
    b_nodes = [Q(j - 6) + Q(2, 7) for j in range(13)]
    for a in a_nodes:
        for b in b_nodes:
            params = EBParams(a, b, Q(1))
            f = eb_forward(params)
            g1, g2 = curve_third_rep(params)
            grid_ok = grid_ok and g1 ** 3 - g2 ** 3 == f.f1 ** 3 - f.f4 ** 3
    ok = ok and grid_ok
    _report(5, "curve map, its inverse, and the chord third representation hold exactly", ok)


# -- 6. type detection and canonicalization -----------------------------------

def _lambda_samples(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lam = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
        if 0.3 <= abs(lam) <= 3.0 and abs(lam) * abs(lam ** 6 - 1) > 0.05:
            out.append(lam)
    return out


def _cube_multiset_matches(images, targets, tol):
    remaining = list(targets)
    for image in images:
        cube = image ** 3
        hit = None
        for idx, target in enumerate(remaining):
            want = target ** 3
            if (cube - want).max_magnitude() <= tol * want.max_magnitude():
                hit = idx
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def test_criterion_6_type_detection():
    ok = True
    for lam in _lambda_samples(20, 101):
        tag = type_detect(*reference_family(lam))
        ok = ok and abs(tag.T - lam * lam) <= 1e-8

    ram = [BinaryForm.exact(2, c) for c in ([3, 5, -5], [5, -5, -3], [6, -4, 4], [-4, 4, -6])]
    ok = ok and _exact_equals(type_detect(*ram).T, 4)
    young = [BinaryForm.exact(2, c) for c in ([1, 16, -21], [-1, 16, 21], [2, 4, 42], [-2, 4, -42])]
    ok = ok and _exact_equals(type_detect(*young).T, 4)

    rng = random.Random(4242)
    for lam in _lambda_samples(5, 8):
        while True:
            m0 = LinearChange(*[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)])
            if abs(m0.det()) >= 0.3:
                break
        conjugated = [form_compose(f, m0) for f in reference_family(lam)]
        m = canonicalize_type(*conjugated, lam)
        images = [form_compose(f, m) for f in conjugated]
        ok = ok and _cube_multiset_matches(images, list(reference_family(lam)), 1e-7)
    _report(6, "T = lambda^2 on 20 samples (1e-8), T = 4 exactly, canonical cubes match to 1e-7", ok)


# -- 7. property suites --------------------------------------------------------

def _gaussian_det(rows):
    n = len(rows)
    m = [list(row) for row in rows]
    det = 1.0 + 0j
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) == 0:
            return 0j
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def test_criterion_7_property_suites():
    census = [sextic_a(t) for t in A_EXCEPTIONAL] + [sextic_b(t) for t in B_EXCEPTIONAL]
    census += [q1_sextic(), q2_sextic()]
    census = [f.to_float() for f in census]

    invariance_ok = True
    rng = random.Random(13)
    for form in census:
        base = rep_count(form).N
        done = 0
        while done < 50:
            entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
            m = LinearChange(*entries)
            if abs(m.det()) < 0.3:
                continue
            done += 1
            invariance_ok = invariance_ok and rep_count(form_compose(form, m)).N == base

    rng = random.Random(3)
    margin_ok = True
    for _ in range(100):
        p = BinaryForm.floating(6, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)])
        report = rep_count(p)
        margin_ok = margin_ok and report.N == 0 and abs(report.H) > 1e-6
    census_reports = [rep_count(f) for f in census]
    vanish_ok = all(abs(r.H) <= 1e-12 for r in census_reports if r.N >= 1)

    rng = random.Random(97)
    vandermonde_ok = True
    for n in range(2, 8):
        for _ in range(10):
            nodes = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            rows = [[node ** k for k in range(n)] for node in nodes]
            direct = _gaussian_det(rows)
            product = 1.0 + 0j
            for i in range(n):
                for j in range(i + 1, n):
                    product *= nodes[j] - nodes[i]
            scale = max(abs(direct), abs(product), 1e-30)
            vandermonde_ok = vandermonde_ok and abs(direct - product) <= 1e-8 * scale

    rng = random.Random(11)
    worst = 0.0
    for _ in range(500):
        p = BinaryForm.floating(6, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)])
        scale, roots = linear_factors(p)
        prod = BinaryForm.floating(0, [1.0])
        for r in roots:
            lin = BinaryForm.floating(1, r.factor_coeffs())
            for _ in range(r.multiplicity):
                prod = prod * lin
        rebuilt = prod.scale(scale)
        num = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(rebuilt.coeffs, p.coeffs)))
        den = math.sqrt(sum(abs(b) ** 2 for b in p.coeffs))
        worst = max(worst, num / den)
    reconstruction_ok = worst <= 1e-8

    ok = invariance_ok and margin_ok and vanish_ok and vandermonde_ok and reconstruction_ok
    _report(
        7,
        "N invariant under 500 changes; |H| > 1e-6 on 100 generic / <= 1e-12 on represented; "
        f"Vandermonde 1e-8; worst root reconstruction {worst:.2e} <= 1e-8",
        ok,
    )


# -- 8. negative controls -------------------------------------------------------

def test_criterion_8_negative_controls():
    original = families.ramanujan_quadruple

    def perturbed():
        return (BinaryForm.exact(2, [7, -4, 4]),) + original()[1:]

    families.ramanujan_quadruple = perturbed
    try:
        entry = verify_identity_suite({"01"})[0]
    finally:
        families.ramanujan_quadruple = original
    perturbed_fails = entry["pass"] is False

    report = rep_count(sextic_b(2).to_float())
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    triple = [
        BinaryForm.floating(1, [1.0, w]) ** 2 for w in (1.0 + 0j, omega, omega.conjugate())
    ]
    product = triple[0] * triple[1] * triple[2]
    is_factorization = (product - sextic_b(2).to_float()).max_magnitude() <= 1e-9
    independent = not dependence_test(*triple).dependent
    b2_ok = report.N == 0 and is_factorization and independent

    ok = perturbed_fails and b2_ok
    _report(8, "perturbed integer identity rejected; doubled-cube sextic has only independent triples", ok)


if __name__ == "__main__":
    failures = []
    for test in (
        test_criterion_1_census_counts,
        test_criterion_2_identity_suite,
        test_criterion_3_flip_counts,
        test_criterion_4_form_chords,
        test_criterion_5_curve_parameterization,
        test_criterion_6_type_detection,
        test_criterion_7_property_suites,
        test_criterion_8_negative_controls,
    ):
        try:
            test()
        except AssertionError as exc:
            failures.append(str(exc))
    raise SystemExit(1 if failures else 0)
