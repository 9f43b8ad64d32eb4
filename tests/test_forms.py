from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twocubes.exact import IMAG, OMEGA, ZETA8, ETA, CycNum
from twocubes.forms import (
    EXACT,
    FLOAT,
    BinaryForm,
    FloatKernel,
    LinearChange,
    form_compose,
    form_divexact,
    form_from_json,
    form_gcd,
    form_to_json,
    multiplicity_structure,
    norm2,
)

F = Fraction


def ex(*coeffs):
    return BinaryForm.exact(len(coeffs) - 1, [F(c) if isinstance(c, int) else c for c in coeffs])


def test_mul_difference_of_squares():
    f = ex(1, 0, 1)   # x^2 + y^2
    g = ex(1, 0, -1)  # x^2 - y^2
    assert (f * g).coeffs == (F(1), F(0), F(0), F(0), F(-1))


def test_cubic_sum_identity():
    # (x^2 + xy - y^2)^3 + (x^2 - xy - y^2)^3 = 2x^6 - 2y^6
    a = ex(1, 1, -1) ** 3
    b = ex(1, -1, -1) ** 3
    assert (a + b).equals(ex(2, 0, 0, 0, 0, 0, -2))


def test_pow_matches_repeated_products():
    for base in (ex(1, -2, 3), BinaryForm.floating(2, [1 + 2j, -0.5, 3j])):
        assert (base ** 0).coeffs == (base.kernel.one,)
        prod = base
        for n in range(1, 8):
            assert (base ** n).equals(prod)
            prod = prod * base
        # a cube is the one product base * base**2, bit for bit
        assert (base ** 3).coeffs == (base * (base * base)).coeffs


def test_kernel_scalar_protocol():
    assert EXACT.exact and not FLOAT.exact
    assert EXACT.inv(3) == F(1, 3) and isinstance(EXACT.inv(3), F)
    assert EXACT.inv(OMEGA) * OMEGA == CycNum.one()
    assert EXACT.div(F(1), F(4)) == F(1, 4) and FLOAT.div(1.0, 4.0) == 0.25
    assert EXACT.is_zero(OMEGA - OMEGA, 1.0) and not EXACT.is_zero(F(1, 10 ** 30))
    assert FLOAT.is_zero(1e-10) and not FLOAT.is_zero(1e-8)
    assert FLOAT.negligible(1e-13, 1.0) and not FLOAT.negligible(1e-11, 1.0)
    assert FLOAT.coerce(F(1, 2)) == 0.5 + 0j and FLOAT.coerce(OMEGA) == OMEGA.to_complex()
    assert LinearChange(1.0, 0.0, 0.0, 1e-20, FLOAT).det() == 1e-20
    with pytest.raises(ValueError, match="singular"):
        LinearChange(1.0, 0.0, 0.0, 1e-20, FLOAT).check_invertible()


def test_float_form_is_its_own_float_form_and_reprs_name_the_kernel():
    f = BinaryForm.floating(2, [1, 2j, 3])
    assert f.to_float() is f
    assert "0x" not in repr(f) and repr(f).endswith("kernel=FLOAT)")
    g = BinaryForm.exact(1, [1, F(1, 2)])
    assert repr(g).endswith("kernel=EXACT)") and g.to_float() == BinaryForm.floating(1, [1, 0.5])


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        ex(1, 0) + ex(1, 0, 0)


def test_zero_times_form_keeps_degree_sum():
    z = BinaryForm.zero(2)
    f = ex(1, 2, 3)
    assert (z * f).degree == 4
    assert (z * f).is_zero()


def test_compose_basic():
    f = ex(1, 0, 1)
    m = LinearChange(F(1), F(1), F(1), F(-1))
    assert form_compose(f, m).equals(ex(2, 0, 2))


def test_compose_scaling_law():
    # delta = alpha, beta = gamma = 0 scales a degree-d form by alpha^d
    f = ex(3, -1, 4, 1)
    m = LinearChange(F(2), F(0), F(0), F(2))
    assert form_compose(f, m).equals(f.scale(F(8)))


def test_compose_inverse_roundtrip():
    f = ex(1, -2, 0, 5, 1, 0, -3)
    m = LinearChange(F(2), F(1), F(-1), F(3))
    back = form_compose(form_compose(f, m), m.inverse())
    assert back.equals(f)


def test_compose_a15_halving():
    # x^6 + y^6 under (x+y, x-y) is twice the t=15 diagonal sextic
    a0 = ex(1, 0, 0, 0, 0, 0, 1)
    a15 = ex(1, 0, 15, 0, 15, 0, 1)
    m = LinearChange(F(1), F(1), F(1), F(-1))
    assert form_compose(a0, m).equals(a15.scale(F(2)))


def test_compose_bizarre_change_lands_on_xy_form():
    # sixth-power form with t = 5*sqrt(-2) maps onto the xy(x^4-y^4) orbit
    from twocubes.exact import SQRT2

    t = 5 * IMAG * SQRT2
    b = BinaryForm.exact(6, [CycNum.one(), CycNum.zero(), CycNum.zero(), t, CycNum.zero(), CycNum.zero(), CycNum.one()])
    m = LinearChange(ZETA8**2 * ETA, ZETA8, CycNum.one(), ZETA8**3 * ETA)
    q2 = BinaryForm.exact(6, [F(0), F(1), F(0), F(0), F(0), F(-1), F(0)])
    lhs = form_compose(b, m)
    rhs = q2.scale(54 * ZETA8**3 * ETA**3)
    assert lhs.equals(rhs)


def test_compose_associativity_float():
    f = BinaryForm.floating(4, [0.3 - 1j, 2.0, -0.5j, 1.1, 0.25])
    m = LinearChange(1.0 + 0.5j, -0.3, 0.2j, 1.5, FLOAT)
    n = LinearChange(0.4, 1.0, -1.2, 0.7 + 0.1j, FLOAT)
    once = form_compose(f, m.then(n))
    twice = form_compose(form_compose(f, m), n)
    scale = max(once.max_magnitude(), twice.max_magnitude())
    assert all(abs(a - b) <= 1e-10 * scale for a, b in zip(once.coeffs, twice.coeffs))


def test_gcd_shared_linear_factor():
    f = ex(1, 0, -1)      # (x-y)(x+y)
    g = ex(1, 2, 1)       # (x+y)^2
    d = form_gcd(f, g)
    assert d.degree == 1
    assert d.proportional_to(ex(1, 1))


def test_gcd_coprime():
    assert form_gcd(ex(1, 0, 0), ex(0, 0, 1)).degree == 0


def test_gcd_with_y_factors():
    f = ex(0, 1, 0, 0)    # x^2 y
    g = ex(0, 0, 1, 0)    # x y^2
    d = form_gcd(f, g)
    assert d.degree == 2
    assert d.proportional_to(ex(0, 1, 0))


def test_divexact():
    f = ex(1, 2, 1)
    q = form_divexact(f, ex(1, 1))
    assert q.equals(ex(1, 1))
    with pytest.raises(ValueError):
        form_divexact(ex(1, 0, 1), ex(1, 1))


def test_multiplicity_structure_exact():
    assert multiplicity_structure(ex(1, 0, 1) ** 3) == [3, 3]
    assert multiplicity_structure(ex(0, 1, 0, 0, 0, -1, 0)) == [1, 1, 1, 1, 1, 1]
    a_minus1 = ex(1, 0, -1, 0, -1, 0, 1)
    assert multiplicity_structure(a_minus1) == [2, 2, 1, 1]


def test_multiplicity_structure_pure_y_power():
    assert multiplicity_structure(ex(0, 0, 0, 1)) == [3]


def test_multiplicity_structure_float_agrees():
    for coeffs in [(1, 0, 1), (1, 0, -1, 0, -1, 0, 1), (0, 1, 0, 0, 0, -1, 0)]:
        f = ex(*coeffs)
        assert multiplicity_structure(f.to_float()) == multiplicity_structure(f)


def test_float_equality_relative():
    f = BinaryForm.floating(2, [1e6, 0, 1])
    g = BinaryForm.floating(2, [1e6 + 1e-4, 0, 1])
    assert f.equals(g)
    h = BinaryForm.floating(2, [1e6 + 1, 0, 1])
    assert not f.equals(h)


def test_norm2_is_overflow_and_underflow_safe():
    assert norm2([3, 4j]) == 5.0
    assert norm2([]) == 0.0
    assert norm2([3e200, 4e200j]) == pytest.approx(5e200)
    assert norm2([3e-200j, 4e-200]) == pytest.approx(5e-200)


def test_proportionality():
    assert ex(1, 2, 3).proportional_to(ex(2, 4, 6))
    assert not ex(1, 2, 3).proportional_to(ex(2, 4, 7))


def test_singular_change_rejected():
    with pytest.raises(ValueError):
        form_compose(ex(1, 0, 1), LinearChange(F(1), F(2), F(2), F(4)))


def test_json_roundtrip_exact():
    f = BinaryForm.exact(2, [F(3, 2), OMEGA, F(-1)])
    j = form_to_json(f)
    g = form_from_json(j)
    assert g.equals(f)


def test_json_roundtrip_float():
    f = BinaryForm.floating(2, [1.5 + 2j, 0, -3.25])
    j = form_to_json(f)
    g = form_from_json(j)
    assert isinstance(g.kernel, FloatKernel)
    assert g.equals(f)


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
       st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3))
def test_gcd_divides_both(fc, gc):
    f, g = ex(*fc), ex(*gc)
    if f.is_zero() or g.is_zero():
        return
    d = form_gcd(f, g)
    for h in (f, g):
        q = form_divexact(h, d)
        assert (q * d).proportional_to(h)
