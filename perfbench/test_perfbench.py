"""Tests of the benchmark itself: seeded inputs, the answer checks, the
negative control and the layer wrappers.

    python3 -m pytest perfbench
"""
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from twocubes import decomp, forms  # noqa: E402
from twocubes.classify import TypeTag, _SPLITS  # noqa: E402
from twocubes.forms import BinaryForm  # noqa: E402


def _outcomes(name, seed, count):
    """One pass over the first `count` operations of a workload."""
    workload = workloads.build(name, seed)
    workload.ops = workload.ops[:count]
    return [op.key for op in workload.ops], run.closed_loop(workload, 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    first = [op.key for op in workloads.build(name, 7).ops]
    again = [op.key for op in workloads.build(name, 7).ops]
    assert first == again


@pytest.mark.parametrize("name", ["census", "census-gl2", "chord"])
def test_other_seed_other_inputs(name):
    first = [op.key for op in workloads.build(name, 7).ops]
    other = [op.key for op in workloads.build(name, 8).ops]
    assert sorted(first) != sorted(other)


def test_same_seed_same_wrong_count_on_gl2():
    keys, tally = _outcomes("census-gl2", 11, 120)
    keys_again, tally_again = _outcomes("census-gl2", 11, 120)
    assert keys == keys_again
    assert tally.wrong == tally_again.wrong


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pass_count_depends_on_seconds_alone(name):
    first, other = workloads.build(name, 7), workloads.build(name, 8)
    assert first.passes_for(25) == other.passes_for(25) == round(25 / workloads.PASS_S[name])
    assert first.passes_for(0.01) == 1
    assert len(list(first.passes(3))) == 3


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_negative_control_catches_a_spoiled_answer(name):
    count = 21 if name == "identities" else 40
    _, tally = _outcomes(name, 3, count)
    assert tally.controls
    assert run.negative_control(tally)


def test_negative_control_fails_when_checks_accept_anything():
    _, tally = _outcomes("chord", 3, 20)
    lenient = {
        kind: (workloads.Op(op.kind, op.key, op.call, lambda answer: True, op.spoil), answer)
        for kind, (op, answer) in tally.controls.items()
    }
    tally.controls = lenient
    assert not run.negative_control(tally)


def test_raised_and_malformed_answers_count_as_wrong():
    op = workloads.build("census-gl2", 1).ops[0]
    tally = run.Tally()
    tally.record(op, None, 0.0, failed=True)
    tally.record(op, "not a report", 0.0)
    assert (tally.attempted, tally.wrong) == (2, 2)


def test_census_check_recomputes_residuals():
    coeffs = [0, 1, 0, 0, 0, -1, 0]
    report = decomp.rep_count(BinaryForm.floating(6, coeffs))
    assert checks.census_answer_ok(report, coeffs, ("eq", 6))
    assert not checks.census_answer_ok(report, coeffs, ("eq", 5))
    bad = workloads._spoil_report(report)
    assert not checks.census_answer_ok(bad, coeffs, ("ge", 1))


def test_third_intersection_matches_the_taxicab_chord():
    p, q = (Fraction(1), Fraction(12)), (Fraction(9), Fraction(10))
    assert checks.third_intersection(p, q, Fraction(1729)) == (Fraction(-37, 3), Fraction(46, 3))
    assert checks.third_intersection(p, (Fraction(12), Fraction(1)), Fraction(1729)) is None


def test_type_relation_is_re_formed_over_q_omega():
    # Young family at n = 2: f4 - f2 = 4 (f1 - f3), split 2 of the arrangement table
    fs = [BinaryForm.exact(2, [Fraction(c) for c in row]) for row in
          ([2, -12, 378], [-1, 48, 189], [2, 12, 378], [-1, -48, 189])]
    assert checks.type_relation_holds(fs, TypeTag(Fraction(4), 2, 0, 0), _SPLITS)
    assert not checks.type_relation_holds(fs, TypeTag(Fraction(5), 2, 0, 0), _SPLITS)
    assert not checks.type_relation_holds(fs, TypeTag(Fraction(4), 2, 1, 0), _SPLITS)


def test_compose_matches_the_package():
    coeffs = [1, 0, 2.5, 0, 2.5, 0, 1]
    m = (0.3, -1.2, 0.7, 0.4)
    change = forms.LinearChange(*m, kernel=forms.FLOAT)
    want = forms.form_compose(BinaryForm.floating(6, coeffs), change).coeffs
    got = checks.compose(coeffs, m)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_tracer_restores_the_package_and_accounts_for_time():
    before = (decomp.rep_count, BinaryForm.__mul__, forms.form_gcd)
    t = tracer.Tracer(seed=1)
    t.install()
    try:
        assert decomp.rep_count is not before[0]
        report = t.root("op.decide", lambda: decomp.rep_count(
            BinaryForm.floating(6, [0, 1, 0, 0, 0, -1, 0])))
    finally:
        t.uninstall()
    assert (decomp.rep_count, BinaryForm.__mul__, forms.form_gcd) == before
    assert report.N == 6
    totals = t.totals()
    calls, inclusive, _ = totals["decomp.rep_count"]
    assert calls == 1 and t.outcomes["decomp.rep_count"] == 6
    # self times of every span add up to the root span's duration
    root_calls, root_time, _ = totals["op.decide"]
    assert root_calls == 1
    assert sum(own for _, _, own in totals.values()) == pytest.approx(root_time, rel=1e-9)
    assert inclusive <= root_time
