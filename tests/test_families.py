"""Family generators and the exact identity suite."""
from fractions import Fraction

import pytest

import twocubes.families as fam
from twocubes.decomp import rep_count
from twocubes.exact import CycNum, ParamPoly, ETA, IMAG
from twocubes.families import (
    f78_cleared,
    f_forms,
    hirschhorn_family,
    hirschhorn_quadruple,
    narayanan_quadruple,
    p1_sextic,
    p2_sextic,
    p3_sextic,
    q2_sextic,
    ramanujan_quadruple,
    sandor_family,
    sextic_a,
    sextic_b,
    vieta_quartics,
    verify_identity_suite,
    young_family,
    young_quadruple,
)
from twocubes.forms import BinaryForm, det3

from family_helpers import cube_sum_difference, flip_sums, q1_sextic


# ---------------------------------------------------------------- suite

def test_suite_all_pass():
    report = verify_identity_suite()
    assert len(report) == 21
    assert [e["id"] for e in report] == [f"{k:02d}" for k in range(1, 22)]
    for entry in report:
        assert entry["pass"], f"identity group {entry['id']} ({entry['anchor']}) failed"
    assert all(e["method"] == "exact" for e in report)


def test_suite_subset_keeps_order():
    report = verify_identity_suite(ids={"05", "01", "17"})
    assert [e["id"] for e in report] == ["01", "05", "17"]
    assert all(e["pass"] for e in report)


def test_suite_entry_shape():
    (entry,) = verify_identity_suite(ids={"12"})
    assert set(entry) == {"id", "anchor", "method", "pass"}
    assert isinstance(entry["anchor"], str) and entry["anchor"]


def test_perturbed_quadruple_reported_as_failure(monkeypatch):
    def perturbed():
        return (
            BinaryForm.exact(2, [7, -4, 4]),
            BinaryForm.exact(2, [3, 5, -5]),
            BinaryForm.exact(2, [4, -4, 6]),
            BinaryForm.exact(2, [5, -5, -3]),
        )

    monkeypatch.setattr(fam, "ramanujan_quadruple", perturbed)
    (entry,) = verify_identity_suite(ids={"01"})
    assert entry["id"] == "01"
    assert entry["pass"] is False


def test_raising_checker_reported_not_propagated(monkeypatch):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(fam, "ramanujan_quadruple", broken)
    (entry,) = verify_identity_suite(ids={"01"})
    assert entry["pass"] is False


EXACT_GROUPS = [(gid, group) for gid, _, group in fam._SUITE]


@pytest.mark.parametrize("gid, group", EXACT_GROUPS, ids=[gid for gid, _ in EXACT_GROUPS])
def test_every_identity_of_an_exact_group_holds(gid, group):
    identities = list(group())
    labels = [label for label, _, _ in identities]
    assert labels, f"group {gid} yields no identities"
    assert len(set(labels)) == len(labels), f"group {gid} repeats a label: {labels}"
    for label, lhs, rhs in identities:
        assert fam._holds(lhs, rhs), f"group {gid}: {label!r} does not hold"


def _spoiled(value):
    # one more than the value: x^d added to a form, 1 to a scalar
    if isinstance(value, BinaryForm):
        return value + BinaryForm.exact(value.degree, [1] + [0] * value.degree)
    return value + 1


@pytest.mark.parametrize("gid, group", EXACT_GROUPS, ids=[gid for gid, _ in EXACT_GROUPS])
def test_failing_last_identity_fails_its_group(monkeypatch, gid, group):
    def spoiled_last():
        *head, (label, lhs, rhs) = list(group())
        yield from head
        yield label, lhs, _spoiled(rhs)

    suite = tuple([
        (entry_id, anchor, spoiled_last if entry_id == gid else check)
        for entry_id, anchor, check in fam._SUITE
    ])
    monkeypatch.setattr(fam, "_SUITE", suite)
    (entry,) = verify_identity_suite(ids={gid})
    assert entry["pass"] is False


# Each closed formula has one definition, which the group that proves it
# calls: the tame pair (group 10), the cleared wild family (group 11) and the
# curve map with its third representation (group 20).  One wrong output of
# that definition fails its group, so `verify` proves the code that ships.
_SHARED_DEFINITIONS = [
    ("10", "tame_mirror_pair", k) for k in range(3)
] + [
    ("11", "wild_family_cleared", k) for k in range(4)
] + [
    ("20", "curve_map", k) for k in range(6)
]


@pytest.mark.parametrize("gid, name, index", _SHARED_DEFINITIONS,
                         ids=[f"{gid}-{name}-{index}" for gid, name, index in _SHARED_DEFINITIONS])
def test_wrong_shared_definition_fails_its_group(monkeypatch, gid, name, index):
    assert verify_identity_suite(ids={gid})[0]["pass"] is True
    shipped = getattr(fam, name)

    def wrong(*args):
        out = list(shipped(*args))
        out[index] = _spoiled(out[index])
        return tuple(out)

    monkeypatch.setattr(fam, name, wrong)
    (entry,) = verify_identity_suite(ids={gid})
    assert entry["pass"] is False


# ---------------------------------------------------------------- generators

def test_integer_quadruple_point_values():
    values = [f.evaluate(1, 0) for f in ramanujan_quadruple()]
    assert values == [6, 3, 4, 5]
    assert 6 ** 3 == 3 ** 3 + 4 ** 3 + 5 ** 3


def test_parametric_quadruple_specializes_to_integer_triple():
    for nf, rf in zip(narayanan_quadruple(Fraction(2)), ramanujan_quadruple()):
        assert (nf - rf.scale(Fraction(3))).is_zero()


def test_family_base_member_at_two():
    f1, f2 = f_forms(Fraction(2))[:2]
    assert f1.evaluate(1, 0) == 8
    assert f1.coeffs == (8, -1, 8)
    assert f2.coeffs == (-2, 16, -2)


def test_family_float_kernel_matches_exact():
    lam = Fraction(3, 4)
    for exact_f, float_f in zip(f_forms(lam), f_forms(0.75)):
        for ce, cf in zip(exact_f.coeffs, float_f.coeffs):
            ce = ce.to_complex() if isinstance(ce, CycNum) else complex(ce)
            assert abs(ce - cf) < 1e-12


def test_cleared_pair_denominator_consistency():
    lam = Fraction(1, 2)
    g7, g8, s = f78_cleared(lam)
    assert s == 1 - Fraction(1, 2) ** 6
    total = g7 ** 3 + g8 ** 3
    assert (total - p2_sextic(lam).scale(s ** 3)).is_zero()


def test_product_sextics_are_consistent_flips():
    lam = Fraction(2, 3)
    f1, f2, f3, f4, f5, f6 = f_forms(lam)
    assert (f1 ** 3 + f2 ** 3 - p1_sextic(lam)).is_zero()
    assert (f4 ** 3 - f5 ** 3 - p2_sextic(lam)).is_zero()
    assert (f4 ** 3 - f6 ** 3 - p3_sextic(lam)).is_zero()


def test_threefold_sum_coefficients_stay_low_degree():
    f1, f2 = f_forms()[:2]
    total = f1 ** 3 + f2 ** 3
    for coeff in total.coeffs:
        if isinstance(coeff, ParamPoly):
            assert coeff.degree() <= 18
    assert (total - p1_sextic()).is_zero()


def test_census_sextics():
    assert sextic_a(Fraction(3)).coeffs == (1, 0, 3, 0, 3, 0, 1)
    assert sextic_b(Fraction(-2)).coeffs == (1, 0, 0, -2, 0, 0, 1)
    assert q1_sextic().coeffs == (1, 0, 0, 0, 0, 0, 1)
    assert q2_sextic().evaluate(2, 1) == 2 * (16 - 1)


def test_cube_sum_difference_helper():
    r1, r2, r3, r4 = ramanujan_quadruple()
    assert cube_sum_difference([r2, r3, r4], [r1]).is_zero()
    assert not cube_sum_difference([r2, r3], [r1]).is_zero()


# ---------------------------------------------------------------- u = sqrt(1 - d^6)

_D = ParamPoly.variable("d")
_U_IDENTITIES = [
    ("u^2 = 1 - d^6", fam._U ** 2, 1 - _D ** 6, True),
    ("u^3 = (1 - d^6) u", fam._U ** 3, (1 - _D ** 6) * fam._U, True),
    ("u = 0", fam._U, 0, False),
    ("1 + u = 0", 1 + fam._U, 0, False),
    ("u^2 = 1 - d^5", fam._U ** 2, 1 - _D ** 5, False),
]


@pytest.mark.parametrize("lhs, rhs, holds", [case[1:] for case in _U_IDENTITIES],
                         ids=[case[0] for case in _U_IDENTITIES])
def test_holds_reduces_by_u_squared(lhs, rhs, holds):
    assert fam._holds(lhs, rhs) is holds
    # the same identity as the middle coefficient of a quadratic
    assert fam._holds(BinaryForm.exact(2, [1, lhs, _D]), BinaryForm.exact(2, [1, rhs, _D])) is holds


def test_only_the_groups_with_u_reduce(monkeypatch):
    # a plain exact zero decides every identity outside groups 11 and 21
    reduced = set()
    real = fam._reduced

    def spy(c):
        reduced.add(gid)
        return real(c)

    monkeypatch.setattr(fam, "_reduced", spy)
    for gid, _, group in fam._SUITE:
        assert all(fam._holds(lhs, rhs) for _, lhs, rhs in group())
    assert reduced == {"11", "21"}


# ---------------------------------------------------------------- conditional families

def test_sandor_premise_violation_rejected():
    with pytest.raises(ValueError):
        sandor_family(1, 2, 3, 4)


def test_sandor_undefined_type_rejected():
    # 9^3 + 10^3 = 9^3 + 10^3 but w1 = w3 leaves the type ratio undefined
    with pytest.raises(ValueError):
        sandor_family(9, 10, 9, 10)


def test_sandor_type_values():
    *_, T = sandor_family(12, 1, 10, 9)
    assert T == Fraction(4)
    *_, T2 = sandor_family(10, -1, -9, 12)
    assert T2 == Fraction(13, 19)


def test_young_and_hirschhorn_integer_instances():
    y1, y2, y3, y4 = young_quadruple()
    assert cube_sum_difference([y1, y2, y3], [y4]).is_zero()
    h1, h2, h3, h4 = hirschhorn_quadruple()
    assert cube_sum_difference([h1, h2], [h3, h4]).is_zero()


def test_young_and_hirschhorn_square_families_at_a_point():
    n = Fraction(3)
    f1, f2, f3, f4 = young_family(n)
    assert cube_sum_difference([f1, f2], [f3, f4]).is_zero()
    assert ((f4 - f2) - (f1 - f3).scale(n ** 2)).is_zero()
    g1, g2, g3, g4 = hirschhorn_family(n)
    assert cube_sum_difference([g1, g2], [g3, g4]).is_zero()
    assert ((g1 - g3) - (g4 - g2).scale(n ** 2)).is_zero()


def test_vieta_quartics_equal_sums():
    v1, v2, v3, v4 = vieta_quartics()
    assert cube_sum_difference([v1, v2], [v3, v4]).is_zero()
    assert all(f.degree == 4 for f in (v1, v2, v3, v4))


# ---------------------------------------------------------------- exceptional parameters

EXCEPTIONAL_PARAMETER = IMAG * ETA  # smallest-argument root of t^4 + 4t^2 + 1


def exceptional_parameter_determinant(lam=None):
    """Dependence determinant of the extra factor triple of p1_sextic.

    Equals (t^2 - 1)(t^4 + 4t^2 + 1); its nonreal roots mark the parameters
    where the product sextic gains representations beyond the generic three.
    """
    lam = ParamPoly.variable("lam") if lam is None else lam
    return det3([[lam, lam ** 2 + 1, lam], [1, -lam, lam ** 2], [lam ** 2, -lam, 1]])


def test_exceptional_determinant_factored_form():
    lam = ParamPoly.variable("lam")
    det = exceptional_parameter_determinant()
    target = (lam ** 2 - 1) * (lam ** 4 + 4 * lam ** 2 + 1)
    assert (det - target).is_zero()


def test_exceptional_parameter_is_a_determinant_root():
    det = exceptional_parameter_determinant(EXCEPTIONAL_PARAMETER)
    assert det.is_zero()
    # the exceptional sextic matches the midcube census family with t^2 = -50
    lam = EXCEPTIONAL_PARAMETER
    t = lam ** 3 + (lam ** 3).inverse()
    assert (t * t + CycNum.from_rational(50)).is_zero()


def test_exceptional_parameter_value():
    assert (EXCEPTIONAL_PARAMETER - IMAG * ETA).is_zero()
    approx = EXCEPTIONAL_PARAMETER.to_complex()
    assert abs(approx.real) < 1e-12
    assert abs(approx.imag - 1.9318516525781366) < 1e-12


# ---------------------------------------------------------------- representation counts

def test_generic_product_sextic_has_three_representations():
    lam = 0.9 + 0.3j
    assert rep_count(p1_sextic(lam)).N == 3
    assert rep_count(p2_sextic(lam)).N == 3


def test_skew_product_sextic_has_two_representations():
    assert rep_count(p3_sextic(0.9 + 0.3j)).N == 2


def test_exceptional_product_sextic_has_six_representations():
    lam = complex(EXCEPTIONAL_PARAMETER.to_complex())
    assert rep_count(p1_sextic(lam)).N == 6


def test_integer_flip_counts():
    first, second, third = flip_sums()
    assert rep_count(first).N == 3
    assert rep_count(second).N == 3
    assert rep_count(third).N == 2
