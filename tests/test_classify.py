"""Type detection, diagonalization, tame/wild completion, canonicalization."""
import cmath
import math
import random
from fractions import Fraction

import pytest

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
from twocubes.exact import OMEGA, ParamPoly
from twocubes.families import hirschhorn_family, young_family
from twocubes.forms import FLOAT, BinaryForm, LinearChange, form_compose


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


def _reference_arrangement(forms):
    """The arrangement search as it was before the twists were hoisted:
    each w^k * sign recomputed, the untwisted member added first."""
    kernel = forms[0].kernel
    omega = kernel.coerce(OMEGA)
    for split_index, ((a, b, sb), (c, d, sd)) in enumerate(classify._SPLITS):
        lefts = [forms[a] + forms[b].scale(omega ** k * sb) for k in range(3)]
        rights = [forms[c] + forms[d].scale(omega ** k * sd) for k in range(3)]
        for i, j in classify._OMEGA_ORDER:
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


def test_type_detect_rejects_unequal_sums():
    with pytest.raises(ValueError):
        type_detect(RAM1, RAM3, RAM4, RAM2)


def test_type_detect_rejects_proportional_members():
    g1, g2, g3, g4 = reference_family(1.4)
    with pytest.raises(ValueError):
        type_detect(g1, g1.scale(1.0), g3, g4)


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
    with pytest.raises(ValueError):
        diagonalize(fl2(1, 0, 0), fl2(1, 1, 0))  # x^2 and x(x+y)


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
