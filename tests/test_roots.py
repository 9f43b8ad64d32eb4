import cmath
import math
import random
from fractions import Fraction

import pytest

from twocubes import roots as roots_module
from twocubes.decomp import rep_count
from twocubes.forms import FLOAT, NEGLIGIBLE_REL, BinaryForm, LinearChange, form_compose, relative_residual
from twocubes.roots import (
    RECONSTRUCT_TOL,
    ProjectiveRoot,
    _dyadic_poly,
    _exact_eval,
    linear_factors,
)


def fl(*coeffs):
    return BinaryForm.floating(len(coeffs) - 1, coeffs)


def roots_as_affine_set(roots):
    out = []
    for r in roots:
        for _ in range(r.multiplicity):
            out.append(None if r.is_infinite() else r.affine())
    return out


def test_sixth_roots_of_unity():
    _, roots = linear_factors(fl(1, 0, 0, 0, 0, 0, -1))
    assert sorted(r.multiplicity for r in roots) == [1] * 6
    vals = sorted(roots_as_affine_set(roots), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    expect = sorted((cmath.exp(2j * math.pi * k / 6) for k in range(6)),
                    key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    for a, b in zip(vals, expect):
        assert abs(a - b) < 1e-9


def test_root_at_infinity_and_zero():
    # xy(x^4 - y^4) has roots 0, infinity, 1, -1, i, -i
    _, roots = linear_factors(fl(0, 1, 0, 0, 0, -1, 0))
    assert len(roots) == 6
    assert sum(1 for r in roots if r.is_infinite()) == 1
    finite = [r.affine() for r in roots if not r.is_infinite()]
    for target in [0, 1, -1, 1j, -1j]:
        assert min(abs(z - target) for z in finite) < 1e-9


def test_triple_multiplicities():
    _, roots = linear_factors(fl(1, 0, 1) ** 3)
    assert sorted(r.multiplicity for r in roots) == [3, 3]
    for r in roots:
        assert abs(abs(r.affine()) - 1.0) < 1e-5


def test_double_roots_cluster():
    # (x^3 + y^3)^2
    _, roots = linear_factors(fl(1, 0, 0, 2, 0, 0, 1))
    assert sorted(r.multiplicity for r in roots) == [2, 2, 2]


def test_reconstruction_residual_on_random_sextics():
    rng = random.Random(11)
    worst = 0.0
    for trial in range(500):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)]
        p = BinaryForm.floating(6, coeffs)
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
    assert worst <= 1e-8


def test_reconstruction_residual_is_the_one_relative_residual():
    # the residual the factorization is accepted on is forms.relative_residual
    # of the rebuilt product against p, bit for bit
    rng = random.Random(34)
    for _ in range(200):
        p = BinaryForm.floating(6, [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(7)])
        _, roots = linear_factors(p)
        scale, residual = roots_module._reconstruction(p, roots)
        prod = BinaryForm.floating(0, [1.0])
        for r in roots:
            for _ in range(r.multiplicity):
                prod = prod * BinaryForm.floating(1, r.factor_coeffs())
        assert residual == relative_residual(prod.scale(scale).coeffs, p.coeffs)


def test_ordering_is_deterministic():
    p = fl(2, 1, -3, 0.5, 0, -1, 4)
    _, first = linear_factors(p)
    _, second = linear_factors(p)
    assert [(r.s, r.t, r.multiplicity) for r in first] == [(r.s, r.t, r.multiplicity) for r in second]


def test_normalization_contract():
    _, roots = linear_factors(fl(1, 0, 0, 0, 0, 0, -1))
    for r in roots:
        assert abs(math.hypot(abs(r.s), abs(r.t)) - 1.0) < 1e-12
        lead = r.s if abs(r.s) > 1e-12 else r.t
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0


def cross_ratio_multiset(roots: list[ProjectiveRoot]) -> list[complex]:
    """Cross-ratios of all ordered 4-tuples of distinct slots, each root in
    as many slots as its multiplicity: a projective invariant of the roots."""
    slots = [r for r in roots for _ in range(r.multiplicity)]
    n = len(slots)
    out = []

    def d(a: ProjectiveRoot, b: ProjectiveRoot) -> complex:
        return a.s * b.t - b.s * a.t

    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if len({i, j, k, l}) == 4:
                        den = d(slots[j], slots[k]) * d(slots[i], slots[l])
                        if abs(den) < NEGLIGIBLE_REL:
                            continue
                        out.append(d(slots[i], slots[k]) * d(slots[j], slots[l]) / den)
    return out


def test_cross_ratios_projectively_invariant():
    rng = random.Random(5)
    p = fl(1, 2, 0, -1, 3, 0, 1)
    base = sorted(cross_ratio_multiset(linear_factors(p)[1]), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    for _ in range(3):
        m = LinearChange(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            FLOAT,
        )
        if abs(m.det()) < 0.2:
            continue
        q = form_compose(p, m)
        moved = sorted(cross_ratio_multiset(linear_factors(q)[1]), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert abs(a - b) <= 1e-6 * (1 + abs(a))


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        linear_factors(BinaryForm.floating(6, [0] * 7))


def _fraction_value(coeffs, z):
    """sum a_k z^(n-k) over (real, imag) Fraction pairs a_k, in exact
    rationals, rounded once to a complex."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    power_r, power_i = Fraction(1), Fraction(0)
    re = im = Fraction(0)
    for cr, ci in reversed(coeffs):
        re += cr * power_r - ci * power_i
        im += cr * power_i + ci * power_r
        power_r, power_i = power_r * zr - power_i * zi, power_r * zi + power_i * zr
    return complex(float(re), float(im))


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


def test_exact_eval_is_the_rational_value_rounded_once():
    rng = random.Random(3)

    def part():
        # zero about one time in four, else a sign and a magnitude in [1e-30, 1e30]
        if rng.random() < 0.25:
            return 0.0
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, 30.0)

    for trial in range(300):
        n = 1 + trial % 6
        coeffs = [complex(part(), part()) for _ in range(n + 1)]
        if coeffs[0] == 0:
            coeffs[0] = 1 + 0j
        exact = [(Fraction(c.real), Fraction(c.imag)) for c in coeffs]
        deriv = [((n - k) * a, (n - k) * b) for k, (a, b) in enumerate(exact[:-1])]
        poly = _dyadic_poly(coeffs)
        for _ in range(4):
            z = complex(part(), part())
            p, dp = _exact_eval(poly, z)
            want_p, want_dp = _fraction_value(exact, z), _fraction_value(deriv, z)
            assert _bits(p) == _bits(want_p), (coeffs, z)
            assert _bits(dp) == _bits(want_dp), (coeffs, z)


def _clustered_sextics(seed: int, count: int):
    """Family A(t) = x^6 + t x^4 y^2 + t x^2 y^4 + y^6 and B(t) = x^6 + t x^3 y^3
    + y^6 at generic t, each moved by a real change R diag(sqrt k, 1/sqrt k) R
    with rotations at uniform angles and condition k in [10^1.5, 10^2.5]:
    the change squeezes their six simple roots into clusters."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        coeffs = [1, 0, 7, 0, 7, 0, 1] if i % 2 == 0 else [1, 0, 0, 5, 0, 0, 1]
        root_k = math.sqrt(10.0 ** rng.uniform(1.5, 2.5))
        u, v = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
        cu, su, cv, sv = math.cos(u), math.sin(u), math.cos(v), math.sin(v)
        m = LinearChange(
            root_k * cu * cv - su * sv / root_k, -root_k * cu * sv - su * cv / root_k,
            root_k * su * cv + cu * sv / root_k, -root_k * su * sv + cu * cv / root_k,
            FLOAT,
        )
        out.append(form_compose(BinaryForm.floating(6, coeffs), m))
    return out


def test_clustered_simple_roots_factor_in_one_solve(monkeypatch):
    # changes of condition ~30-300 leave the float solver wandering inside the
    # pseudozero set; the exact-residual polish of the one float solve must
    # separate the six roots
    solves = []
    _spy(monkeypatch, "_aberth_roots", solves)
    for p in _clustered_sextics(7, 24):
        solves.clear()
        _, roots = linear_factors(p)
        assert [r.multiplicity for r in roots] == [1] * 6
        assert roots_module._reconstruction(p, roots)[1] <= RECONSTRUCT_TOL
        assert solves == ["_aberth_roots"]


def _spy(monkeypatch, name, calls):
    real = getattr(roots_module, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(roots_module, name, spy)


@pytest.mark.parametrize("line", [(1, 1), (1, 2), (2, 1), (1, -3), (3, -5)],
                         ids=["x+y", "x+2y", "2x+y", "x-3y", "3x-5y"])
def test_sixth_power_of_a_line_climbs_the_cluster_ladder(monkeypatch, line):
    # a sixfold root scatters the solver output across a radius ~eps**(1/6),
    # which the tightest rung splits: only a coarser rung groups all six
    rungs = []
    real = roots_module._cluster

    def spy(solved, tol_scale):
        rungs.append(tol_scale)
        return real(solved, tol_scale)

    monkeypatch.setattr(roots_module, "_cluster", spy)
    report = rep_count(BinaryForm.exact(1, list(line)) ** 6)
    assert report.multiplicities == (6,) and report.N == 0
    assert rungs[-1] > roots_module._CLUSTER_LADDER[0]


def _wide_moduli_roots():
    """Six roots of moduli 1e-4 to 1e4, at scattered angles."""
    return [10.0 ** (-4 + 8 * k / 5) * cmath.exp(1j * (0.3 + k)) for k in range(6)]


def _monic_with_roots(zs):
    p = fl(1)
    for z in zs:
        p = p * fl(1, -z)
    return p


def test_wide_root_moduli_factor_in_one_solve(monkeypatch):
    # root moduli from 1e-4 to 1e4: each Newton-polygon edge starts its roots
    # on their own circle, so one float solve of a few sweeps factors the
    # sextic without an exact polish (starts on one circle for all six
    # moduli take ~40 sweeps).  The sweeps are counted by capping them: the
    # solve takes at most 8 when a cap of 8 changes none of its roots, and a
    # cap of 1 must change some, or the cap is not what ends the loop
    zs = _wide_moduli_roots()
    p = _monic_with_roots(zs)
    body = [complex(c) for c in p.coeffs]
    free = repr(roots_module._aberth_roots(body))
    monkeypatch.setattr(roots_module, "MAX_SWEEPS", 1)
    assert repr(roots_module._aberth_roots(body)) != free
    monkeypatch.setattr(roots_module, "MAX_SWEEPS", 8)
    assert repr(roots_module._aberth_roots(body)) == free
    calls = []
    _spy(monkeypatch, "_aberth_roots", calls)
    _spy(monkeypatch, "_exact_polish", calls)
    _, roots = linear_factors(p)
    assert [r.multiplicity for r in roots] == [1] * 6
    assert calls == ["_aberth_roots"]
    for z in zs:
        assert min(abs(r.affine() - z) for r in roots) <= 1e-9 * abs(z)


@pytest.mark.parametrize("coeffs", [
    (1e-300, 0, 0, 0, 0, 0, 1e300),                          # six roots of modulus 1e100
    (1e-150, 0, 0, 1, 0, 0, -1e150),                          # two circles near 1e50
    (1e-300, 1e-200, 1e-100, 1, 1e100, 1e200, 1e300),         # 1e100 * roots of unity
    (1e-300, 1, 0, 0, 0, 0, 1e300),                           # one root past the float range
], ids=["monomials", "two-circles", "graded", "past-range"])
def test_coefficients_spanning_the_float_range_factor(coeffs):
    p = fl(*coeffs)
    _, roots = linear_factors(p)
    assert sum(r.multiplicity for r in roots) == 6
    assert roots_module._reconstruction(p, roots)[1] <= RECONSTRUCT_TOL


def test_random_coefficient_exponents_factor():
    # coefficients 1e+-100 spread the roots past what one Horner pass can
    # evaluate in floats; the hull edges past a 1/eps gap in root modulus go
    # to zero or infinity instead
    rng = random.Random(17)
    for _ in range(200):
        p = fl(*[rng.choice((-1, 1)) * rng.uniform(1, 10) * 10.0 ** rng.randint(-100, 100)
                 for _ in range(7)])
        _, roots = linear_factors(p)
        assert roots_module._reconstruction(p, roots)[1] <= RECONSTRUCT_TOL


def _simple_root_sextics(seed: int, count: int):
    """Seeded sextics with six simple roots, `count` of each kind: A(t) and
    B(t) at generic real t, sums of cubes of two Gaussian quadratics, and
    Gaussian sextics."""
    rng = random.Random(seed)
    gauss = lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1))  # noqa: E731
    out = []
    for _ in range(count):
        t = rng.choice((-4.0, 4.5, 9.0)) + rng.uniform(-0.5, 0.5)  # away from A's and B's special t
        out.append(fl(1, 0, t, 0, t, 0, 1))
        out.append(fl(1, 0, 0, t, 0, 0, 1))
        out.append(fl(*[gauss() for _ in range(3)]) ** 3 + fl(*[gauss() for _ in range(3)]) ** 3)
        out.append(fl(*[gauss() for _ in range(7)]))
    return out


@pytest.mark.parametrize("e", [-3, -2, -1, 1, 2, 3])
def test_simple_roots_survive_rescaling(e):
    # x -> 10^e x multiplies the coefficient of x^(6-k) y^k by 10^(e (6-k));
    # the roots scale by 10^-e and must stay simple
    for p in _simple_root_sextics(23, 8):
        moved = BinaryForm.floating(6, [c * 10.0 ** (e * (6 - k)) for k, c in enumerate(p.coeffs)])
        assert [r.multiplicity for r in linear_factors(p)[1]] == [1] * 6
        assert [r.multiplicity for r in linear_factors(moved)[1]] == [1] * 6


# sextics of a seeded fuzz with coefficient exponents in +-300, on which p or
# p' overflows in the float sweep
OVERFLOW_SEXTICS = {
    "e293": (-5.14795823487262e+183, -61.05126658314379, 3.595990831969495e+252, 9.699778174728762e+181,
             -2.8438915240469985e+293, 4.5183144573632975e+229, 26664.507730732123),
    "e288": (-5.236570534092924e+25, -1.239764214367405e+81, 3.75026248777989e-50, -5.030693509456162e+95,
             8.237473600376446e+206, 4.512203748948965e-73, 2.2937161639743699e+288),
}


@pytest.mark.parametrize("coeffs", OVERFLOW_SEXTICS.values(), ids=OVERFLOW_SEXTICS.keys())
def test_overflowing_aberth_steps_are_not_applied(coeffs):
    # a NaN step reached the exact polish, which raised ValueError on
    # converting NaN to an integer ratio
    p = fl(*coeffs)
    try:
        scale, roots = linear_factors(p)
    except ArithmeticError:
        return
    assert all(cmath.isfinite(r.s) and cmath.isfinite(r.t) for r in roots)
    assert roots_module._reconstruction(p, roots)[1] <= RECONSTRUCT_TOL


# -- the Aberth sweeps against a reference loop ----------------------------

def _reference_step(zs, i, newton, events):
    """The Aberth correction of zs[i] from its Newton step, written as one
    call per iterate: the reference for the sweeps' inline step.  Appends
    "gap" and "denom" to `events` where a guard replaces a zero."""
    zi = zs[i]
    repulsion = 0j
    for j, zj in enumerate(zs):
        if j == i:
            continue
        gap = zi - zj
        if gap == 0:
            events.append("gap")
            gap = complex(roots_module.GAP_GUARD)
        repulsion += 1.0 / gap
    denom = 1.0 - newton * repulsion
    if denom == 0:
        events.append("denom")
        denom = complex(roots_module.GAP_GUARD)
    return newton / denom


def _reference_aberth(coeffs, events):
    """The float Aberth solve with a call per step, as roots.py wrote it before
    the sweep was inlined: its starts, stop rules and guards.  Appends
    "stall" to `events` where p' vanishes and "overflow" where a step is not
    finite."""
    rm = roots_module
    n = len(coeffs) - 1
    hull, radii = rm._newton_polygon(coeffs)
    zs = [cmath.rect(math.exp(min(max(r, -rm.LOG_RADIUS_CAP), rm.LOG_RADIUS_CAP)),
                     2.0 * math.pi * ((k + rm.START_TURN) / (j - i) + i / n))
          for (i, _), (j, _), r in zip(hull, hull[1:], radii) for k in range(j - i)]
    return _reference_sweeps(coeffs, zs, events, rm.MAX_SWEEPS)


def _reference_sweeps(coeffs, zs, events, limit):
    rm = roots_module
    n = len(coeffs) - 1
    lead, tail = coeffs[0], coeffs[1:]
    moduli = [abs(c) for c in coeffs]
    floor_rel = rm.PSEUDOZERO_REL * n
    for _ in range(limit):
        moved = 0.0
        at_floor = True
        for i in range(n):
            z = zs[i]
            p, dp = lead, 0j
            for c in tail:
                dp = dp * z + p
                p = p * z + c
            if at_floor:
                r = abs(z)
                bound = 0.0
                for m in moduli:
                    bound = bound * r + m
                at_floor = abs(p) <= floor_rel * bound
            if dp == 0:
                events.append("stall")
                zs[i] += complex(rm.STALL_NUDGE, rm.STALL_NUDGE)
                moved = math.inf
                continue
            step = _reference_step(zs, i, p / dp, events)
            size = abs(step)
            if not size < math.inf:
                events.append("overflow")
                moved, at_floor = math.inf, False
                continue
            zs[i] -= step
            moved = max(moved, size / (1.0 + abs(zs[i])))
        if moved <= rm.ABERTH_STEP_TOL or at_floor:
            break
    return zs


def _reference_polish(body, zs, events, limit):
    """The exact-residual sweeps with a call per step."""
    poly = _dyadic_poly(body)
    zs = list(zs)
    for _ in range(limit):
        moved = 0.0
        for i in range(len(zs)):
            p, dp = _exact_eval(poly, zs[i])
            if dp == 0:
                continue
            step = _reference_step(zs, i, p / dp, events)
            zs[i] -= step
            moved = max(moved, abs(step) / (1.0 + abs(zs[i])))
        if moved <= roots_module.ABERTH_STEP_TOL:
            break
    return zs


def _solved_bodies(monkeypatch, forms):
    """The polynomial `linear_factors` hands its float solve for each form."""
    bodies = []
    real = roots_module._aberth_roots

    def spy(coeffs, *rest):
        bodies.append(list(coeffs))
        return real(coeffs, *rest)

    monkeypatch.setattr(roots_module, "_aberth_roots", spy)
    for p in forms:
        try:
            linear_factors(p)
        except ArithmeticError:
            pass
    monkeypatch.undo()
    return bodies


def _census_style_sextics():
    """Seeded census sextics (A, B, sums of cubes, Gaussian), the same under
    rescaling and under changes of condition 30-300, the overflowing fuzz
    sextics, x^6 + y^6 at the smallest subnormal scale (p' underflows to 0,
    a stall) and the wide-moduli sextic."""
    forms = _simple_root_sextics(31, 6) + _clustered_sextics(37, 12)
    forms += [BinaryForm.floating(6, [c * 10.0 ** (e * (6 - k)) for k, c in enumerate(p.coeffs)])
              for e in (-3, 2) for p in _simple_root_sextics(41, 2)]
    forms += [fl(*coeffs) for coeffs in OVERFLOW_SEXTICS.values()]
    forms += [fl(5e-324, 0, 0, 0, 0, 0, 5e-324), _monic_with_roots(_wide_moduli_roots())]
    return forms


def test_aberth_sweeps_match_the_reference_loop(monkeypatch):
    # the inline sweep computes every float of the reference's, in its order:
    # the same iterates bit for bit (repr keeps signed zeros and NaNs), with
    # or without the caller's Newton polygon
    forms = _census_style_sextics()
    bodies = _solved_bodies(monkeypatch, forms)
    assert len(bodies) == len(forms)
    events = []
    for body in bodies:
        want = repr(_reference_aberth(list(body), events))
        assert repr(roots_module._aberth_roots(list(body))) == want
        polygon = roots_module._newton_polygon(body)
        assert repr(roots_module._aberth_roots(list(body), polygon)) == want
    # the stall and overflow branches were taken
    assert "stall" in events and "overflow" in events


def test_exact_polish_matches_the_reference_loop(monkeypatch):
    bodies = _solved_bodies(monkeypatch, _clustered_sextics(43, 6) + _simple_root_sextics(47, 2))
    for body in bodies:
        solved = roots_module._aberth_roots(body)
        assert repr(roots_module._exact_polish(body, solved)) == repr(_reference_polish(body, solved, [], roots_module.POLISH_SWEEPS))


@pytest.mark.parametrize("limit", [1, 16])
@pytest.mark.parametrize("coeffs, zs, event", [
    ((1, 0, 1), (1, 0), "denom"),                 # p/p' at 1 is the gap 1, so 1 - newton * repulsion == 0
    ((1, 0, 0, -1), (1e-30, 1e-30, 2), "gap"),    # two equal iterates, near 0 so that the guarded step shows
], ids=["zero-denominator", "zero-gap"])
def test_aberth_guards_match_the_reference_loop(coeffs, zs, event, limit):
    # the guards that stand GAP_GUARD in for a zero, in the float sweeps and
    # the exact-residual ones, from iterates chosen to need them
    body = [complex(c) for c in coeffs]
    start = [complex(z) for z in zs]
    events = []
    want = repr(_reference_sweeps(body, list(start), events, limit))
    assert event in events
    assert repr(roots_module._sweeps(body, list(start), None, limit)) == want
    events.clear()
    want = repr(_reference_polish(body, start, events, limit))
    assert event in events
    assert repr(roots_module._sweeps(body, list(start), _dyadic_poly(body), limit)) == want
