"""Type detection, diagonalization, tame/wild completion, canonicalization."""
import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_reference as reference
from twocubes import classify
from twocubes.classify import (
    canonicalize_type,
    diagonalize,
    reference_family,
    tame_complete,
    type_detect,
    wild_family,
)
from twocubes.decomp import rep_count
from twocubes.exact import OMEGA, CycNum, ParamPoly
from twocubes.ecurve import EBParams, eb_forward
from twocubes.families import (hirschhorn_family, hirschhorn_quadruple, mirror, sandor_family, tame_mirror_pair,
                               wild_family_cleared, young_family, young_quadruple)
from twocubes.forms import FLOAT, BinaryForm, LinearChange, form_compose, relative_residual


def fl2(a, b, c):
    return BinaryForm.floating(2, [a, b, c])


RAM1 = fl2(3, 5, -5)
RAM2 = fl2(4, -4, 6)
RAM3 = fl2(5, -5, -3)
RAM4 = fl2(6, -4, 4)


def safe_lambdas(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lam = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
        if 0.3 <= abs(lam) <= 3.0 and abs(lam) * abs(lam ** 6 - 1) > 0.05:
            out.append(lam)
    return out


# ------------------------------------------------------------ type_detect

def test_type_detect_reference_family():
    for lam in safe_lambdas(8, 101):
        tag = type_detect(*reference_family(lam))
        assert tag.split == 0 and tag.omega_left == 0 and tag.omega_right == 0
        assert abs(tag.T - lam * lam) <= 1e-8


def test_type_detect_crossed_arrangement():
    lam = 1.3 + 0.2j
    g1, g2, g3, g4 = reference_family(lam)
    # swapping one member from each side yields the crossed split (a+d = T(c+b))
    tag = type_detect(-g3, g2, -g1, g4)
    assert tag.split == 1
    assert abs(tag.T - lam * lam) <= 1e-8


def test_type_detect_ramanujan_exact():
    f1 = BinaryForm.exact(2, [3, 5, -5])
    f2 = BinaryForm.exact(2, [5, -5, -3])
    f3 = BinaryForm.exact(2, [6, -4, 4])
    f4 = BinaryForm.exact(2, [-4, 4, -6])
    tag = type_detect(f1, f2, f3, f4)
    assert tag.split == 0 and tag.omega_left == 0 and tag.omega_right == 0
    assert (tag.T - 4).coeffs == (0,) * 8 if hasattr(tag.T, "coeffs") else tag.T == 4
    assert "f1" in tag.describe()


# the order in which the reference search tries the twists (i, j) of a split
_OMEGA_ORDER = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))


def _reference_arrangement(forms):
    """The arrangement search as it was before the twists were hoisted and
    read off the linear relation: each w^k * sign recomputed, the untwisted
    member added first, all nine twists of a split tested in turn.  The
    k = 0 twist is the sign itself, the rational +-1, so the sides and T of
    rational input are rational."""
    kernel = forms[0].kernel
    omega = kernel.coerce(OMEGA)

    def twists(sign):
        return [sign] + [omega ** k * sign for k in (1, 2)]

    for split_index, ((a, b, sb), (c, d, sd)) in enumerate(classify._SPLITS):
        lefts = [forms[a] + forms[b].scale(w) for w in twists(sb)]
        rights = [forms[c] + forms[d].scale(w) for w in twists(sd)]
        for i, j in _OMEGA_ORDER:
            left, right = lefts[i], rights[j]
            if right.is_zero() or left.is_zero():
                continue
            if left.proportional_to(right, rel_tol=classify.TYPE_PROP_TOL):
                try:
                    return classify._coefficient_ratio(left, right, kernel), split_index, i, j
                except ArithmeticError:  # a formal ratio that does not divide
                    continue
    raise ArithmeticError("no type arrangement found")


def _type_detect_inputs():
    """Young and Hirschhorn families, exact, float and formal (ParamPoly
    coefficients), each also as (f1, w f2, f3, w^2 f4): the same cube sums,
    met at other powers of w."""
    rng = random.Random(41)
    params = [None]
    while len(params) < 7:
        n = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if abs(n) not in (0, 1):
            params += [n, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))]
    for family in (young_family, hirschhorn_family):
        for n in params:
            f1, f2, f3, f4 = family(n)
            w = f1.kernel.coerce(OMEGA)
            yield f1, f2, f3, f4
            yield f1, f2.scale(w), f3, f4.scale(w * w)


def _typed(v):
    if isinstance(v, tuple):  # the (left, right) pair of the patched ratio
        return [[(type(c), c) for c in f.coeffs] for f in v]
    return type(v), v


def test_type_detect_matches_the_unhoisted_search(monkeypatch):
    inputs = list(_type_detect_inputs())
    for forms in inputs:
        tag = type_detect(*forms)
        T, split, i, j = _reference_arrangement(forms)
        assert (_typed(tag.T), tag.split, tag.omega_left, tag.omega_right) == (_typed(T), split, i, j)
    # the proportional pair itself, formal parameters included
    monkeypatch.setattr(classify, "_coefficient_ratio", lambda left, right, kernel: (left, right))
    for forms in inputs:
        tag = type_detect(*forms)
        T, split, i, j = _reference_arrangement(forms)
        assert (_typed(tag.T), tag.split, tag.omega_left, tag.omega_right) == (_typed(T), split, i, j)


def test_linear_relation_of_exact_and_formal_members():
    # sum alpha_k f_k = 0 coefficient by coefficient, with alpha nonzero
    checked = 0
    for forms in _type_detect_inputs():
        if not forms[0].kernel.exact:
            continue
        alpha = classify._relation(forms, forms[0].kernel)
        assert any(alpha)
        for k in range(3):
            total = alpha[0] * forms[0].coeffs[k]
            for a, f in zip(alpha[1:], forms[1:]):
                total = total + a * f.coeffs[k]
            assert not total
        checked += 1
    assert checked == 16  # 2 families x (formal + 3 rational n) x (plain, twisted)


@pytest.mark.parametrize("family", [young_family, hirschhorn_family])
@pytest.mark.parametrize("n", [Fraction(3, 2), Fraction(-7, 5), Fraction(9, 4), None],
                         ids=["3/2", "-7/5", "9/4", "formal"])
def test_exact_arrangement_search_tests_no_proportionality(monkeypatch, family, n):
    # the linear relation names the arrangement: the only proportional_to
    # calls are the six checks for proportional members, and the forms built
    # are the two sides of each candidate, the returned arrangement's last
    props, scales = [], []
    prop, scale = BinaryForm.proportional_to, BinaryForm.scale

    def spy_prop(self, other, rel_tol):
        props.append(rel_tol)
        return prop(self, other, rel_tol)

    monkeypatch.setattr(BinaryForm, "proportional_to", spy_prop)
    monkeypatch.setattr(BinaryForm, "scale", lambda self, s: scales.append((self, s)) or scale(self, s))
    forms = family(n)
    tag = type_detect(*forms)
    assert props == [classify.DEGENERATE_REL] * 6
    (a, b, sb), (c, d, sd) = classify._SPLITS[tag.split]
    assert scales[-2:] == [(forms[b], OMEGA ** tag.omega_left * sb), (forms[d], OMEGA ** tag.omega_right * sd)]
    # a rational T always divides; a formal one may fail to, at one split here
    assert (len(scales) == 2) if n is not None else (len(scales) in (2, 4))


@pytest.mark.parametrize("scale", [1e-120, 1e120])
def test_type_detect_float_relation_far_from_unit_scale(scale):
    # the relation's minors are triple products of coefficients: at 1e-120
    # they would underflow to zero and at 1e120 overflow, unless scaled first
    forms = [f.to_float() for f in young_family(Fraction(3, 2))]
    tag = type_detect(*forms)
    scaled = type_detect(*[f.scale(scale) for f in forms])
    assert (scaled.split, scaled.omega_left, scaled.omega_right) == (tag.split, tag.omega_left, tag.omega_right)
    assert abs(scaled.T - tag.T) <= 1e-12 * abs(tag.T)


def _moved_pairs(seed, count):
    """The pairs of representations of rep_count's reports of `count` A and B
    sextics at rational t, moved by seeded real changes of condition up to
    10^3 and scale 10^-1 to 10."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        t = Fraction(rng.randint(-72, 72), rng.randint(1, 9))
        coeffs = [1, 0, t, 0, t, 0, 1] if k % 2 == 0 else [1, 0, 0, t, 0, 0, 1]
        cond, s = 10 ** rng.uniform(0, 3), 10 ** rng.uniform(-1, 1)
        u, v = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
        cu, su, cv, sv = math.cos(u), math.sin(u), math.cos(v), math.sin(v)
        s1, s2 = cond * s, s
        m = LinearChange(s1 * cu * cv - s2 * su * sv, -s1 * cu * sv - s2 * su * cv,
                         s1 * su * cv + s2 * cu * sv, -s1 * su * sv + s2 * cu * cv, FLOAT)
        report = rep_count(form_compose(BinaryForm.floating(6, coeffs), m))
        for r1, r2 in itertools.combinations(report.reps, 2):
            out.append((r1.f1, r1.f2, r2.f1, r2.f2))
    return out


def _reference_outcome(forms):
    """type_detect's checks, then the nine-way reference search: the
    (T, split, i, j) found, or the type of the exception raised."""
    try:
        classify._check_equal_cube_sums(*forms)
        for i, f in enumerate(forms):
            for g in forms[i + 1:]:
                if f.proportional_to(g, rel_tol=classify.DEGENERATE_REL):
                    raise ValueError("dishonest family: proportional members")
        return _reference_arrangement(forms)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def test_type_detect_float_outcomes_match_the_nine_way_search():
    # the nearest twists name the one candidate of a split that the nine-way
    # search could accept, refusals included
    pairs = _moved_pairs(1, 160)
    outcomes = []
    for forms in pairs:
        want = _reference_outcome(forms)
        try:
            tag = type_detect(*forms)
        except (ArithmeticError, ValueError) as exc:
            got = type(exc)
        else:
            got = (tag.T, tag.split, tag.omega_left, tag.omega_right)
        assert got == want
        outcomes.append(want)
    refused = [o for o in outcomes if isinstance(o, type)]
    assert len(pairs) >= 200 and ValueError in refused and ArithmeticError in refused


@pytest.mark.parametrize("family, relation", [
    (young_family, "f4 - f2 = T*(f1 - f3)"),
    (hirschhorn_family, "f1 - f3 = T*(f4 - f2)"),
])
def test_type_detect_over_a_formal_parameter(family, relation):
    # T = n^2 divides in one direction of each family's relation only, so
    # the search passes the other direction and takes a reversed split
    tag = type_detect(*family())
    assert tag.T == ParamPoly.variable("n") ** 2
    assert tag.describe() == relation


@pytest.mark.parametrize("n", [Fraction(3, 2), Fraction(-7, 5), Fraction(2), Fraction(-1, 9)],
                         ids=["3/2", "-7/5", "2", "-1/9"])
def test_rational_hirschhorn_type_is_the_reciprocal_of_the_formal_type_at_n(n):
    # the first split that holds at a rational n is f4 - f2 = T (f1 - f3),
    # T = n^-2 for Hirschhorn; over a formal n that T does not divide, and
    # the reversed split gives n^2, so the two answers are reciprocal at n.
    # Young's T is n^2 both ways.  A search that picks one split for both
    # kinds of input changes this pin on purpose
    formal = ParamPoly.variable("n") ** 2
    for family, want in ((young_family, formal.evaluate(n)), (hirschhorn_family, 1 / formal.evaluate(n))):
        assert type_detect(*family()).T == formal
        rational = type_detect(*family(n))
        assert rational.T == want and rational.describe() == "f4 - f2 = T*(f1 - f3)"


def _rational_type_inputs():
    """(forms, T) for Young and Hirschhorn members at 24 seeded rational n,
    and for the Young and Hirschhorn integer quadruples."""
    rng = random.Random(3301)
    out = []
    while len(out) < 48:
        n = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        if abs(n) not in (0, 1):
            # f4 - f2 = T (f1 - f3): n^2 for Young, n^-2 for Hirschhorn
            out += [(young_family(n), n ** 2), (hirschhorn_family(n), n ** -2)]
    y1, y2, y3, y4 = young_quadruple()
    return out + [((y1, y2, y4, -y3), Fraction(4)), (hirschhorn_quadruple(), Fraction(1, 4))]


def test_rational_type_detect_runs_no_cyclotomic_arithmetic(monkeypatch):
    # a rational relation is twisted by the rational +-1 only, so neither the
    # twist test nor the two sides reach a CycNum, and T is a Fraction
    def refuse(*args):
        raise AssertionError("CycNum arithmetic on rational input")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(CycNum, name, refuse)
    for forms, T in _rational_type_inputs():
        tag = type_detect(*forms)
        assert type(tag.T) is Fraction and tag.T == T
        assert (tag.omega_left, tag.omega_right) == (0, 0)


@pytest.mark.parametrize("floated", [(1, 2, 3), (0,)], ids=["exact-first", "float-first"])
def test_type_detect_lifts_exact_and_float_forms_to_float(floated):
    forms = young_family(Fraction(2))
    mixed = [f.to_float() if k in floated else f for k, f in enumerate(forms)]
    assert type_detect(*mixed) == type_detect(*[f.to_float() for f in forms])


def test_type_detect_rejects_unequal_sums():
    with pytest.raises(ValueError):
        type_detect(RAM1, RAM3, RAM4, RAM2)


def test_type_detect_rejects_proportional_members():
    g1, g2, g3, g4 = reference_family(1.4)
    with pytest.raises(ValueError):
        type_detect(g1, g1.scale(1.0), g3, g4)


# type_detect clears the denominators of rational coefficients before its
# checks and its relation; `fraction_reference.type_detect` runs them on the
# forms as given.  The tag (T's value and type, the split and the twists) or
# the failure (type and message) must be the same.

def _same_outcome(forms):
    try:
        want = reference.type_detect(*forms)
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            type_detect(*forms)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    tag = type_detect(*forms)
    assert (_typed(tag.T), tag.split, tag.omega_left, tag.omega_right) == \
        (_typed(want.T), want.split, want.omega_left, want.omega_right)
    assert repr(tag.T) == repr(want.T)


_RATIONAL = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 20))
_NONZERO = _RATIONAL.filter(bool)


@st.composite
def _rational_family(draw):
    """A Young, Hirschhorn or Sandor quadruple at a random rational
    parameter, scaled by a random rational and rearranged, and sometimes
    with one member perturbed."""
    kind = draw(st.sampled_from(("young", "hirschhorn", "sandor")))
    if kind == "sandor":
        # Sandor's quadruple is built on a rational equal sum of cubes
        quad = eb_forward(EBParams(draw(_RATIONAL), draw(_NONZERO), draw(_NONZERO)))
        ws = (quad.f1, quad.f2, quad.f3, quad.f4)
        assume(ws[0] != ws[2])
        forms = sandor_family(*ws)[:4]
    else:
        forms = (young_family if kind == "young" else hirschhorn_family)(draw(_NONZERO))
    # rearranged by the moves that keep f1^3 + f2^3 = f3^3 + f4^3: a swap
    # within either pair, of the two pairs, and (f1, f2, f3, f4) -> (-f3, f2, -f1, f4)
    scale = draw(_NONZERO)
    f1, f2, f3, f4 = [f.scale(scale) for f in forms]
    for move in draw(st.lists(st.integers(0, 3), max_size=4)):
        f1, f2, f3, f4 = ((f2, f1, f3, f4), (f1, f2, f4, f3), (f3, f4, f1, f2), (-f3, f2, -f1, f4))[move]
    forms = [f1, f2, f3, f4]
    if draw(st.booleans()):
        k, slot = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        coeffs = list(forms[k].coeffs)
        coeffs[slot] += draw(_NONZERO)
        forms[k] = BinaryForm.exact(2, coeffs)
    return forms


@settings(max_examples=150, deadline=None)
@given(_rational_family())
def test_type_detect_matches_the_fraction_reference(forms):
    _same_outcome(forms)


@pytest.mark.parametrize("forms", [
    young_family(), hirschhorn_family(),
    *[(f1, f2.scale(OMEGA), f3, f4.scale(OMEGA * OMEGA))
      for f1, f2, f3, f4 in (young_family(), young_family(Fraction(3, 2)), hirschhorn_family(Fraction(-7, 5)))],
    (young_family(Fraction(5, 3))[0].scale(OMEGA), *young_family(Fraction(5, 3))[1:]),
], ids=["young formal", "hirschhorn formal", "young formal twisted", "young 3/2 twisted",
        "hirschhorn -7/5 twisted", "young 5/3, one member times w"])
def test_type_detect_on_formal_and_cyclotomic_forms_matches_the_fraction_reference(forms):
    # a ParamPoly or CycNum coefficient leaves every form as it is
    _same_outcome(forms)


# ------------------------------------------------------------ diagonalize

def test_diagonalize_circle_and_hyperbola():
    f1 = fl2(1, 0, 1)
    f2 = fl2(0, 1, 0)
    m = diagonalize(f1, f2)
    for f in (f1, f2):
        image = form_compose(f, m)
        assert abs(complex(image.coeffs[1])) <= 1e-10 * image.max_magnitude()


def test_diagonalize_already_diagonal():
    m = diagonalize(fl2(1, 0, 0), fl2(0, 0, 1))
    assert abs(complex(m.alpha) - 1) < 1e-12 and abs(complex(m.delta) - 1) < 1e-12
    assert abs(complex(m.beta)) < 1e-12 and abs(complex(m.gamma)) < 1e-12


def test_diagonalize_change_inverts_back_to_the_input():
    f1 = fl2(1, 0, 1)
    m = diagonalize(f1, fl2(1, 1, 0))
    assert m.kernel is FLOAT
    assert form_compose(form_compose(f1, m), m.inverse()).equals(f1)


def test_diagonalize_common_factor_rejected():
    for f1, f2 in (
        (fl2(1, 0, 0), fl2(1, 1, 0)),    # x^2 and x(x+y)
        (fl2(1, 1, 0), fl2(1, -1, 0)),   # x(x+y) and x(x-y)
        (fl2(1, 3, 2), fl2(3, 2, -1)),   # (x+y)(x+2y) and (x+y)(3x-y)
    ):
        with pytest.raises(ValueError, match="share a factor"):
            diagonalize(f1, f2)


def test_diagonalize_random_coprime_pairs():
    rng = random.Random(77)
    done = 0
    while done < 10:
        f1 = fl2(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)))
        f2 = fl2(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)))
        try:
            m = diagonalize(f1, f2)
        except ValueError:
            continue
        for f in (f1, f2):
            image = form_compose(f, m)
            assert abs(complex(image.coeffs[1])) <= 1e-10 * image.max_magnitude()
        done += 1


# ------------------------------------------------------------ tame

def test_tame_gamma_two_matches_known_values():
    f1, f2, f3, f4, T = tame_complete(2.0)
    assert abs(T - 2 ** (2.0 / 3.0)) <= 1e-12
    r = complex(f1.coeffs[0])
    s = complex(f1.coeffs[2])
    assert abs(r + s - 2 ** (5.0 / 3.0)) <= 1e-12
    assert abs(r ** 3 + s ** 3 - 2) <= 1e-9
    assert rep_count(f1 ** 3 + f2 ** 3).N == 4  # the target is 2*A_15


def test_tame_sum_census_at_negative_parameter():
    gamma = cmath.sqrt(complex(-8.0 / 3.0))
    f1, f2, f3, f4, _ = tame_complete(gamma)
    report = rep_count(f1 ** 3 + f2 ** 3)
    assert report.N == 6  # the target is 2*A_-5


def test_tame_difference_square_relation():
    rng = random.Random(5)
    for _ in range(10):
        g = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
        f1, f2, _, _, _ = tame_complete(g)
        r = complex(f1.coeffs[0])
        s = complex(f1.coeffs[2])
        P = (8 + 6 * g * g) ** (1.0 / 3.0)
        assert abs((r - s) ** 2 - (-2 * g * g / P)) <= 1e-9 * max(1.0, abs(P) ** 2)


def test_tame_difference_square_relation_exact_scalars():
    # (r-s)^2 = P^2 - 4Q and -2 g^2 / P agree because P^3 - 4QP = -2 g^2
    for q in (Fraction(28, 3), Fraction(19, 6), Fraction(5, 1)):
        lhs = (8 + 6 * q) - 8 * (1 + q)  # P^3 - 4*Q*P with P^3 = 8 + 6q
        assert lhs == -2 * q


def test_tame_pair_and_target_are_the_generator_bit_for_bit():
    # f3, f4 are families.tame_mirror_pair's forms, and the target it builds
    # through sextic_a is the display 2(x^6 + t x^4 y^2 + t x^2 y^4 + y^6),
    # t = 3(1 + g^2), to the last bit and the sign of every zero
    rng = random.Random(11)
    gammas = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(20)]
    for g in gammas + [2.0, -0.5, 1j, complex(-0.0, 1.5)]:
        _, _, f3, f4, _ = tame_complete(g)
        left, right, target = tame_mirror_pair(g)
        assert (repr(f3), repr(f4)) == (repr(left), repr(right))
        g = complex(g)
        t = 3 * (1 + g * g)
        assert repr(target) == repr(BinaryForm.floating(6, [2, 0, 2 * t, 0, 2 * t, 0, 2]))


def test_wild_family_is_the_cleared_generator_over_one_minus_d6():
    rng = random.Random(13)
    for _ in range(24):
        d = cmath.rect(rng.uniform(0.3, 1.6), rng.uniform(-math.pi, math.pi))
        *members, third, T = wild_family(d)
        *cleared, s = wild_family_cleared(d)
        assert s == 1 - complex(d) ** 6 and T == complex(d) ** 2
        for got, want in zip(members + list(third), cleared + [mirror(f) for f in cleared[:2]]):
            want = [complex(c) / s for c in want.coeffs]
            assert relative_residual(got.coeffs, want) <= 1e-13


def test_tame_excluded_parameters():
    with pytest.raises(ValueError):
        tame_complete(0.0)
    with pytest.raises(ValueError):
        tame_complete(cmath.sqrt(complex(-4.0 / 3.0)))


# ------------------------------------------------------------ wild

def test_wild_family_three_representations():
    f1, f2, f3, f4, third, T = wild_family(2.0)
    assert abs(T - 4.0) <= 1e-12
    p = f1 ** 3 + f2 ** 3
    report = rep_count(p)
    assert report.N == 3
    t1, t2 = third
    # the third pair really is new: it differs from both displayed pairs
    assert not t1.proportional_to(f1, rel_tol=1e-6)
    assert not t1.proportional_to(f3, rel_tol=1e-6)


def test_wild_linear_relation_leading_coefficient():
    d = 1.5
    f1, f2, f3, f4, _, _ = wild_family(d)
    lead = complex(f1.coeffs[0]) + d * d * complex(f2.coeffs[0])
    assert abs(lead - (1 + d ** 3)) <= 1e-9


def test_wild_flip_identity():
    f1, f2, f3, f4, _, _ = wild_family(0.7 + 0.4j)
    lhs = f1 ** 3 - f4 ** 3
    rhs = f3 ** 3 - f2 ** 3
    diff = lhs - rhs
    assert diff.max_magnitude() <= 1e-9 * lhs.max_magnitude()


def test_wild_excluded_parameters():
    with pytest.raises(ValueError):
        wild_family(0.0)
    with pytest.raises(ValueError):
        wild_family(cmath.exp(1j * math.pi / 3.0))  # d^6 = 1


# ------------------------------------------------------- canonicalization

def test_canonicalize_reference_is_identity():
    lam = 1.7
    m = canonicalize_type(*reference_family(lam), lam)
    assert abs(complex(m.alpha) - 1) <= 1e-9
    assert abs(complex(m.delta) - 1) <= 1e-9
    assert abs(complex(m.beta)) <= 1e-9
    assert abs(complex(m.gamma)) <= 1e-9


def test_canonicalize_ramanujan_type_four():
    # R1^3 + R3^3 = R4^3 - R2^3 with R1 + R3 = 4(R4 - R2)
    m = canonicalize_type(RAM1, RAM3, RAM4, -RAM2, 2.0)
    ref = reference_family(2.0)
    images = [form_compose(f, m) for f in (RAM1, RAM3, RAM4, -RAM2)]
    for image, target in ((images[2], ref[2]), (images[3], ref[3])):
        gap = (image - target).max_magnitude()
        assert gap <= 1e-7 * target.max_magnitude()


def test_canonicalize_roundtrip_random_similarity():
    rng = random.Random(4242)
    for lam in safe_lambdas(5, 8):
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        m0 = LinearChange(*entries)
        if abs(m0.det()) < 0.2:
            continue
        family = [form_compose(f, m0) for f in reference_family(lam)]
        m = canonicalize_type(*family, lam)
        ref = reference_family(lam)
        for f, target in zip(family[2:], ref[2:]):
            image = form_compose(f, m)
            gap = (image - target).max_magnitude()
            assert gap <= 1e-7 * target.max_magnitude()


def test_canonicalize_rejects_wrong_arrangement():
    lam = 1.7
    g1, g2, g3, g4 = reference_family(lam)
    with pytest.raises(ValueError):
        canonicalize_type(g3, g4, g1, g2, lam)  # arrangement gives 1/T, not T


def test_canonicalize_rejects_degenerate_type():
    g = reference_family(1.0 + 0j)  # T = 1 violates T(T^3-1) != 0
    with pytest.raises(ValueError):
        canonicalize_type(*g, 1.0)


def _near_small_rational(z: complex, maxden: int = 60, tol: float = 1e-6) -> bool:
    if abs(z.imag) > tol:
        return False
    approx = Fraction(z.real).limit_denominator(maxden)
    return abs(z.real - float(approx)) <= tol


def test_type_two_families_carry_irrational_data():
    # the only constructible type-2 families here have non-rational members,
    # and canonicalizing them produces non-rational change coefficients
    gamma = math.sqrt(28.0 / 3.0)
    f1, f2, f3, f4, T = tame_complete(gamma)
    assert abs(T - 2.0) <= 1e-9
    member_coeffs = [complex(c) for f in (f1, f2, f3, f4) for c in f.coeffs]
    assert any(not _near_small_rational(c) for c in member_coeffs)
    lam = math.sqrt(2.0)
    m = canonicalize_type(f1, f2, f3, f4, lam)
    entries = [complex(v) for v in (m.alpha, m.beta, m.gamma, m.delta)]
    assert any(not _near_small_rational(v) for v in entries)
