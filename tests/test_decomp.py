"""Census engine: groupings, dependence, construction, counting, H."""
import math
import random

import pytest

from twocubes import decomp
from twocubes.decomp import PAIRINGS, rep_count, report_to_json
from twocubes.exact import OMEGA, SQRTM3, ParamPoly, Rational
from twocubes.forms import FLOAT, BinaryForm, LinearChange, form_compose, norm2
from twocubes.roots import linear_factors

from staged_reference import H_eval, construct_from_triple, dependence_test, pair_partitions, staged_rep_count
from test_perfbench_hooks import _tracer


def ex_lin(a, b):
    return BinaryForm.exact(1, [a, b])


def fl_lin(a, b):
    return BinaryForm.floating(1, [a, b])


def fl6(coeffs):
    return BinaryForm.floating(6, coeffs)


def A_form(t):
    return fl6([1, 0, t, 0, t, 0, 1])


def B_form(t):
    return fl6([1, 0, 0, t, 0, 0, 1])


Q2_FORM = fl6([0, 1, 0, 0, 0, -1, 0])  # xy(x^4 - y^4)


# ---------------------------------------------------------------- pairings

def test_pairings_enumeration_is_canonical():
    assert len(PAIRINGS) == 15
    assert len(set(PAIRINGS)) == 15
    for pairing in PAIRINGS:
        flat = sorted(i for pair in pairing for i in pair)
        assert flat == [0, 1, 2, 3, 4, 5]


def test_pair_partitions_distinct_factors():
    factors = [ex_lin(1, k) for k in range(6)]
    triples = pair_partitions(factors)
    assert len(triples) == 15
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    for g1, g2, g3 in triples:
        assert (g1 * g2 * g3).equals(product)


def test_pair_partitions_wrong_count():
    with pytest.raises(ValueError):
        pair_partitions([ex_lin(1, 0)] * 5)


def test_pair_partitions_collapses_repeated_factors():
    # (x^3 + y^3)^2 factors: (x+y), (x+wy), (x+w^2 y), each twice
    lines = [ex_lin(1, OMEGA ** k) for k in range(3)]
    factors = [lines[0], lines[0], lines[1], lines[1], lines[2], lines[2]]
    triples = pair_partitions(factors)
    assert len(triples) < 15
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    squares = tuple(line * line for line in lines)
    found_squares = False
    for triple in triples:
        assert (triple[0] * triple[1] * triple[2]).equals(product)
        if all(any(q.equals(s) for s in squares) for q in triple):
            found_squares = True
    assert found_squares


def test_pair_partitions_keys_parametric_factors_by_value():
    # six distinct factors (lam, k*lam): all 15 groupings differ
    lam = ParamPoly.variable("lam")
    assert len(pair_partitions([ex_lin(lam, k * lam) for k in range(1, 7)])) == 15
    # equal factors collapse even when one copy carries a trailing zero coefficient
    padded = [ParamPoly("lam", (0, k, 0)) for k in (1, 2, 3)]
    factors = [ex_lin(lam, k * lam) for k in (1, 2, 3)] + [ex_lin(lam, p) for p in padded]
    integer = [ex_lin(1, k) for k in (1, 2, 3, 1, 2, 3)]
    assert len(pair_partitions(factors)) == len(pair_partitions(integer)) < 15


# ---------------------------------------------------------------- dependence

def test_dependence_always_dependent_pattern():
    # x(ax+y), y(x+ay), (x+y)(x-y) is dependent for every a
    for a in (2, 3, Rational(5, 7)):
        q1 = ex_lin(1, 0) * ex_lin(a, 1)
        q2 = ex_lin(0, 1) * ex_lin(1, a)
        q3 = ex_lin(1, 1) * ex_lin(1, -1)
        dep = dependence_test(q1, q2, q3)
        assert dep.dependent
        assert (q1.scale(dep.alpha) + q2.scale(dep.beta)).equals(q3)


def test_dependence_monomials_independent():
    q1 = BinaryForm.exact(2, [1, 0, 0])
    q2 = BinaryForm.exact(2, [0, 1, 0])
    q3 = BinaryForm.exact(2, [0, 0, 1])
    assert not dependence_test(q1, q2, q3).dependent


def test_dependence_repeated_line_squares_independent():
    # the three squared factors of (x^3+y^3)^2 span the whole space
    s0 = ex_lin(1, 1) ** 2
    s1 = ex_lin(1, OMEGA) ** 2
    s2 = ex_lin(1, OMEGA * OMEGA) ** 2
    assert not dependence_test(s0, s1, s2).dependent


def test_dependence_proportional_inputs_rejected():
    q1 = BinaryForm.exact(2, [1, 0, 0])
    with pytest.raises(ValueError):
        dependence_test(q1, q1.scale(2), BinaryForm.exact(2, [0, 0, 1]))


def test_dependence_float_solve_coefficients():
    g1 = fl_lin(1, 0) * fl_lin(1, -1)      # x^2 - xy
    g2 = fl_lin(0, 1) * fl_lin(1, 1)       # xy + y^2
    g3 = fl_lin(1, 1j) * fl_lin(1, -1j)    # x^2 + y^2
    dep = dependence_test(g1, g2, g3)
    assert dep.dependent
    assert abs(dep.alpha - 1) < 1e-9 and abs(dep.beta - 1) < 1e-9


@pytest.mark.parametrize("share, dependent", [(0.5, True), (2.0, False)])
def test_dependence_cut_is_the_relative_residual_of_the_fit(share, dependent):
    # r3 = r1 + r2 + e*n with n a unit normal to the span: the fit is r1 + r2
    # and misses r3 by e, a relative residual of e / |r3| = share * cut
    r1, r2 = (1 + 0j, -1 + 0j, 0j), (0j, 1 + 0j, 1 + 0j)
    normal = [c / math.sqrt(3.0) for c in (-1, -1, 1)]
    rel = share * decomp.COEFF_SOLVE_REL
    e = rel * math.sqrt(2.0) / math.sqrt(1.0 - rel * rel)
    r3 = tuple([a + b + e * c for a, b, c in zip(r1, r2, normal)])
    dep = decomp.dependence_test(r1, r2, r3)
    assert dep.dependent is dependent
    if dependent:
        assert abs(dep.alpha - 1) < 1e-12 and abs(dep.beta - 1) < 1e-12


# ---------------------------------------------------------------- construction

def test_construction_identity_exact_oracle():
    g1 = BinaryForm.exact(2, [1, 0, 0])
    g2 = BinaryForm.exact(2, [0, 0, -1])
    g3 = BinaryForm.exact(2, [1, 0, -1])
    rep = construct_from_triple(g1, g2, g3, 1, 1)
    assert rep.residual == 0.0
    lhs = rep.f1 ** 3 + rep.f2 ** 3
    rhs = (g1 * g2 * g3).scale(SQRTM3 * 3)
    assert lhs.equals(rhs)


def test_construction_zero_coefficient_rejected():
    g1 = BinaryForm.exact(2, [1, 0, 0])
    g2 = BinaryForm.exact(2, [0, 0, 1])
    g3 = BinaryForm.exact(2, [1, 0, 1])
    with pytest.raises(ValueError):
        construct_from_triple(g1, g2, g3, 0, 1)
    # the same exact zero test serves the float kernel
    with pytest.raises(ValueError):
        construct_from_triple(g1.to_float(), g2.to_float(), g3.to_float(), 1.0, 0j)


def test_construction_lands_in_span():
    g1 = fl_lin(1, 0) * fl_lin(1, -1)
    g2 = fl_lin(0, 1) * fl_lin(1, 1)
    g3 = fl_lin(1, 1j) * fl_lin(1, -1j)
    dep = dependence_test(g1, g2, g3)
    rep = construct_from_triple(g1, g2, g3, dep.alpha, dep.beta)
    assert rep.residual <= 1e-9
    # both summands lie in <x^2 - xy, x^2 + y^2>
    basis1 = (1, -1, 0)
    basis2 = (1, 0, 1)
    for f in (rep.f1, rep.f2):
        rows = [basis1, basis2, tuple(complex(c) for c in f.coeffs)]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assert abs(det) <= 1e-9 * max(1.0, f.max_magnitude())


# ---------------------------------------------------------------- census

CENSUS = [
    ("A_3", A_form(3), 0),
    ("A_-1", A_form(-1), 1),
    ("A_0", A_form(0), 4),
    ("A_15", A_form(15), 4),
    ("A_-5", A_form(-5), 6),
    ("A_7", A_form(7), 2),
    ("B_0", B_form(0), 4),
    ("B_2", B_form(2), 0),
    ("B_-2", B_form(-2), 0),
    ("B_5i*sqrt2", B_form(5j * math.sqrt(2)), 6),
    ("B_7", B_form(7), 3),
    ("Q2", Q2_FORM, 6),
]


@pytest.mark.parametrize("name,p,expected", CENSUS, ids=[c[0] for c in CENSUS])
def test_census_counts(name, p, expected):
    report = rep_count(p)
    assert report.N == expected
    assert report.N == len(report.reps)
    for rep in report.reps:
        assert rep.residual <= 1e-9


def test_census_b2_no_representation_despite_feasible_partition():
    report = rep_count(B_form(2))
    assert report.N == 0
    assert report.multiplicities == (2, 2, 2)


def test_census_cube_input_runs_same_pipeline():
    p = BinaryForm.floating(2, [1, 0, 2]) ** 3
    report = rep_count(p)
    assert report.N == 0
    assert report.multiplicities == (3, 3)


def test_census_similarity_invariance_sample():
    rng = random.Random(20240811)
    forms = [A_form(0), B_form(7), Q2_FORM]
    base = [rep_count(p).N for p in forms]
    for _ in range(5):
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        m = LinearChange(*entries)
        if abs(m.det()) < 0.1:
            continue
        for p, n0 in zip(forms, base):
            assert rep_count(form_compose(p, m)).N == n0


def test_census_scale_invariance():
    rng = random.Random(7)
    for p in (A_form(-1), Q2_FORM):
        n0 = rep_count(p).N
        c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        assert rep_count(p.scale(c)).N == n0


def test_census_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rep_count(BinaryForm.floating(4, [1, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        rep_count(BinaryForm.zero(6))


# ---------------------------------------------------------------- H

def test_H_vanishes_when_representations_exist():
    for p in (Q2_FORM, A_form(0), B_form(0)):
        _, roots = linear_factors(p)
        assert abs(H_eval(roots)) <= 1e-12


def test_H_vanishes_for_threefold_product_sextic():
    lam = 2.0
    cubic1 = BinaryForm.floating(3, [lam ** 3, 0, 0, 1])
    cubic2 = BinaryForm.floating(3, [1, 0, 0, lam ** 3])
    p = (cubic1 * cubic2).scale(lam ** 6 - 1)
    _, roots = linear_factors(p)
    assert abs(H_eval(roots)) <= 1e-12


def test_H_nonzero_on_random_sextics():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)]
        p = BinaryForm.floating(6, coeffs)
        report = rep_count(p)
        assert report.N == 0
        assert abs(report.H) > 1e-6


def test_H_wrong_root_count_rejected():
    _, roots = linear_factors(BinaryForm.floating(4, [1, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        H_eval(roots)


# ---------------------------------------------------------------- properties

def _det4(rows):
    m = [list(r) for r in rows]
    det = 1.0 + 0j
    for col in range(4):
        pivot = max(range(col, 4), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) == 0:
            return 0j
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, 4):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def test_cubed_line_coefficient_determinant_is_vandermonde_product():
    rng = random.Random(99)
    for _ in range(100):
        lines = [
            (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
             complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            for _ in range(4)
        ]
        crosses = [
            lines[j][0] * lines[k][1] - lines[k][0] * lines[j][1]
            for j in range(4)
            for k in range(j + 1, 4)
        ]
        if min(abs(c) for c in crosses) < 1e-3:
            continue  # nearly proportional pair: outside the property's domain
        rows = [
            (a ** 3, 3 * a ** 2 * b, 3 * a * b ** 2, b ** 3)
            for a, b in lines
        ]
        det = _det4(rows)
        assert abs(det) > 0
        product = 9.0 + 0j
        for c in crosses:
            product *= c
        assert abs(det - product) <= 1e-8 * max(abs(det), abs(product))


def test_report_json_schema():
    report = rep_count(A_form(-1))
    obj = report_to_json(report)
    assert set(obj) == {"N", "representations", "multiplicities", "H"}
    assert obj["N"] == 1
    assert obj["multiplicities"] == [2, 2, 1, 1]
    assert len(obj["H"]) == 2
    for entry in obj["representations"]:
        assert set(entry) == {"f1", "f2", "residual"}
        assert entry["residual"] <= 1e-9


# ---------------------------------------------------------------- one-pass kernel

def _answer(n, reps, H):
    # repr keeps the sign of zero parts, which == would not compare
    return (
        n,
        [(repr(f1.coeffs), repr(f2.coeffs), repr(res)) for f1, f2, res in reps],
        repr(H),
    )


def _report_answer(report):
    return _answer(report.N, [(r.f1, r.f2, r.residual) for r in report.reps], report.H)


def _staged_answer(p):
    n, reps, H = staged_rep_count(p)
    return _answer(n, [(r.f1, r.f2, r.residual) for r in reps], H)


def _conditioned_change(rng, cond):
    """A real change R(u) diag(cond * s, s) R(v) with condition number cond."""
    s = 10 ** rng.uniform(-1, 1)
    u, v = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
    cu, su, cv, sv = math.cos(u), math.sin(u), math.cos(v), math.sin(v)
    s1, s2 = cond * s, s
    return LinearChange(s1 * cu * cv - s2 * su * sv, -s1 * cu * sv - s2 * su * cv,
                        s1 * su * cv + s2 * cu * sv, -s1 * su * sv + s2 * cu * cv, FLOAT)


def _oracle_mix():
    rng = random.Random(20261018)
    gauss = lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1))  # noqa: E731
    forms = [A_form(t) for t in (3, -1, 0, 15, -5, 7)]
    forms += [B_form(t) for t in (0, 2, -2, 5j * math.sqrt(2), -5j * math.sqrt(2), 7)]
    forms += [A_form(rng.randint(-60, 60) / rng.randint(1, 9)) for _ in range(4)]
    forms += [B_form(rng.randint(-60, 60) / rng.randint(1, 9)) for _ in range(4)]
    sums = [BinaryForm.floating(2, [gauss() for _ in range(3)]) ** 3
            + BinaryForm.floating(2, [gauss() for _ in range(3)]) ** 3 for _ in range(4)]
    forms += sums + [fl6([gauss() for _ in range(7)]) for _ in range(4)]
    # x^6, x^2 y^2 (x^2 - y^2), x^3 y^3, x y (x^4 - y^4), and x^3 y (x^2 - y^2),
    # whose one representation comes from a grouping repeated six times
    forms += [fl6([1, 0, 0, 0, 0, 0, 0]), fl6([0, 0, 1, 0, -1, 0, 0]), fl6([0, 0, 0, 1, 0, 0, 0]), Q2_FORM,
              fl6([0, 1, 0, -1, 0, 0, 0])]
    for base in (A_form(-5), B_form(7), Q2_FORM, A_form(-1), sums[0]):
        forms.append(form_compose(base, _conditioned_change(rng, 1e3)))
    # (x^2 + y^2)^3 under x -> x/100 and x/1000: six simple roots in two tight
    # clusters, with groupings whose quadratics are nearly proportional
    forms += [_rescaled([1, 0, 3, 0, 3, 0, 1], e) for e in (-2, -3)]
    return forms


def _outcome(fn, p):
    try:
        return fn(p)
    except (ValueError, ArithmeticError) as exc:
        return (type(exc).__name__, str(exc))


def test_rep_count_matches_staged_pipeline_bit_for_bit():
    mix = _oracle_mix()
    counts = set()
    for p in mix:
        want = _outcome(_staged_answer, p)
        got = _outcome(lambda q: _report_answer(rep_count(q)), p)
        assert got == want, p.coeffs
        counts.add(got[0])
    # the mix reaches every census count the families have, including N = 6
    assert {0, 1, 2, 3, 4, 6} <= counts


def _relative_distance(a, b):
    diff = norm2([x - y for x, y in zip(a.coeffs, b.coeffs)])
    return diff / max(norm2(a.coeffs), norm2(b.coeffs))


def _cube_pair_distance(rep_a, rep_b):
    """How far apart two representations are up to summand order and cube
    roots of unity: the unordered pairs {f1^3, f2^3}, which cubing makes
    blind to the roots of unity, matched the nearer way."""
    a1, a2 = rep_a.f1 ** 3, rep_a.f2 ** 3
    b1, b2 = rep_b.f1 ** 3, rep_b.f2 ** 3
    return min(max(_relative_distance(a1, b1), _relative_distance(a2, b2)),
               max(_relative_distance(a1, b2), _relative_distance(a2, b1)))


def test_each_grouping_gives_a_distinct_representation():
    # rep_count emits one representation per grouping and merges none, so
    # no two of them may be one representation up to order and omega
    forms = [p for _, p, _ in CENSUS] + _oracle_mix()
    total = 0
    for p in forms:
        report = rep_count(p)
        assert report.N == len(report.reps)
        for k, rep in enumerate(report.reps):
            for other in report.reps[:k]:
                assert _cube_pair_distance(rep, other) > 1e-6, p.coeffs
        total += report.N
    assert total > 0


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_pattern_pairings_are_the_pair_partitions_of_every_multiplicity_pattern():
    # decomp.pair_partitions keys pairs by root index, the reference's by
    # coefficients: on distinct roots, every multiplicity pattern gives the
    # same groupings
    patterns = list(_compositions(6))
    assert len(patterns) == 32
    for pattern in patterns:
        factors = [ex_lin(1, -(root + 1)) for root, m in enumerate(pattern) for _ in range(m)]
        products = [factors[i] * factors[j] for i, j in decomp._PAIRS]
        got = [tuple([products[pair] for pair in ids]) for _, ids in decomp.pair_partitions(pattern)]
        assert got == pair_partitions(factors), pattern


def test_the_benchmark_tracer_sees_each_stage_of_rep_count():
    # perfbench/tracer.py spans rep_count's four stages by name, so each
    # call through a module global shows in a traced run
    tracer = _tracer().Tracer(seed=1)
    tracer.install()
    try:
        report = rep_count(Q2_FORM)
    finally:
        tracer.uninstall()
    assert report.N == 6
    calls = {name: totals[0] for name, totals in tracer.totals().items()}
    assert calls.get("decomp.pair_partitions", 0) == 1
    assert calls.get("decomp.H_eval", 0) == 1
    assert calls.get("decomp.construct_from_triple", 0) == 6
    assert tracer.outcomes["decomp.dependence_test"] >= 6


@pytest.fixture
def form_op_counts(monkeypatch):
    counts = dict.fromkeys(("__mul__", "__pow__", "proportional_to"), 0)
    for name in counts:
        original = getattr(BinaryForm, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(BinaryForm, name, counted)
    return counts


def test_rep_count_builds_no_forms_for_rejected_groupings(form_op_counts):
    rng = random.Random(41)
    p = fl6([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(7)])
    assert rep_count(p).N == 0
    assert form_op_counts == {"__mul__": 0, "__pow__": 0, "proportional_to": 0}


def test_rep_count_tests_distinctness_only_past_the_determinant_gate(monkeypatch):
    # the precomputed determinant prefilter runs first: a Gaussian sextic has
    # no dependent grouping, so none of its 15 pairings reaches the three
    # distinctness tests; the dependent groupings of xy(x^4 - y^4) do
    calls = []
    real = decomp._distinct

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decomp, "_distinct", spy)
    rng = random.Random(43)
    for _ in range(4):
        assert rep_count(fl6([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(7)])).N == 0
    assert calls == []
    assert rep_count(Q2_FORM).N == 6
    assert len(calls) >= 3 * 6


def test_rep_count_builds_only_the_emitted_cubes(form_op_counts):
    report = rep_count(Q2_FORM)
    assert report.N == 6
    # two cubes per representation, each from its ten cubic monomials, with no form product
    assert form_op_counts == {"__mul__": 0, "__pow__": 2 * report.N, "proportional_to": 0}


@pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300, 1e-300])
@pytest.mark.parametrize("coeffs, n", [
    ((1, 0, 0, 0, 0, 0, -1), 4),  # x^6 - y^6
    ((0, 1, 0, 0, 0, -1, 0), 6),  # x y (x^4 - y^4)
], ids=["x6-y6", "xy(x4-y4)"])
def test_rep_count_at_extreme_coefficient_scales(coeffs, n, scale):
    # N is invariant under scaling, and no 2-norm may overflow or underflow
    report = rep_count(fl6([scale * c for c in coeffs]))
    assert report.N == n
    assert report.multiplicities == (1, 1, 1, 1, 1, 1)


def test_rep_count_with_roots_past_the_square_root_of_the_float_range():
    # roots of modulus past ~1.3e154, whose squares overflow: the projective
    # normalization uses |z| there, since 1 + |z|^2 rounds to |z|^2
    coeffs = [10.0 ** e for e in (-39, 217, -76, -239, -262, -232, -213)]
    assert rep_count(fl6(coeffs)).N == 0


def _rescaled(coeffs, e):
    """The sextic with these coefficients under x -> 10^e x, each coefficient
    multiplied by 10^e one factor at a time."""
    out = []
    for k, c in enumerate(coeffs):
        for _ in range(6 - k):
            c *= 10.0 ** e
        out.append(c)
    return fl6(out)


@pytest.mark.parametrize("e", [-3, -2, -1, 1, 2, 3])
def test_rep_count_rescaled_cube_has_no_representation(e):
    # (x^2 + y^2)^3 under x -> 10^e x: for e < 0 its two triple roots come
    # back as six simple roots in two tight clusters, and the groupings that
    # pair one root of each cluster give three near-equal quadratics whose
    # degenerate construction meets FLOAT_TOL; the distinctness gate must
    # reject them
    assert rep_count(_rescaled([1, 0, 3, 0, 3, 0, 1], e)).N == 0


@pytest.mark.xfail(strict=True, reason="DISTINCT_REL compares coefficients, so the gate is not GL2-invariant: "
                                       "it rejects distinct quadratics whose coefficients differ in scale by ~1e6")
@pytest.mark.parametrize("coeffs, n", [
    ((1, 0, 2, 0, 2, 0, 1), 2),  # A(2)
    ((1, 0, 0, 0, 0, 0, 1), 4),  # x^6 + y^6
], ids=["A(2)", "x6+y6"])
def test_rep_count_keeps_distinct_quadratics_of_unequal_scale(coeffs, n):
    # under x -> x/1000 the representations come from quadratics a x^2 + b y^2
    # with |a| ~ 1e-6 |b|, distinct by their roots
    assert rep_count(_rescaled(coeffs, -3)).N == n
