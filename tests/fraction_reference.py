"""The curve map and exact type detection as they computed before their
denominators were cleared: every intermediate value a `Fraction` (or the
scalar the call was lifted to), reduced at each step.  The tests hold
`ecurve.eb_forward`, `eb_inverse`, `curve_third_rep` and
`classify.type_detect` to these, value, type and exception alike.
"""
from fractions import Fraction

from twocubes import classify
from twocubes.classify import DEGENERATE_REL, TYPE_PROP_TOL, TypeTag
from twocubes.ecurve import EBParams, EBQuadruple, _check_identity, _lifted
from twocubes.forms import BinaryForm, lift


def eb_forward(params: EBParams) -> EBQuadruple:
    (a, b, mu), kernel = _lifted([params.a, params.b, params.mu])
    q = a * a + 3 * (b * b)
    f1 = mu * (1 - (a - 3 * b) * q)
    f2 = mu * ((a + 3 * b) * q - 1)
    f3 = mu * ((a + 3 * b) - q * q)
    f4 = mu * (q * q - (a - 3 * b))
    left = f1 ** 3 + f2 ** 3
    _check_identity(kernel, left - (f3 ** 3 + f4 ** 3), (f1, f2, f3, f4), "equal-sum")
    return EBQuadruple(f1, f2, f3, f4, left, kernel.is_zero(left, (f1, f2), 3))


def eb_inverse(f1, f2, f3, f4) -> EBParams:
    values = [f1, f2, f3, f4]
    if any(isinstance(v, BinaryForm) for v in values):
        if not all(isinstance(v, BinaryForm) for v in values):
            raise TypeError("mixed form and scalar quadruple")
    (f1, f2, f3, f4), kernel = _lifted(values)

    half = Fraction(1, 2)
    g1, g2, g3, g4 = (f1 + f2) * half, (f2 - f1) * half, (f3 + f4) * half, (f4 - f3) * half
    den = g1 * g1 + 3 * (g2 * g2)
    num_a = g1 * g3 + 3 * (g2 * g4)
    num_b = g1 * g4 - g3 * g2

    if kernel.is_zero(den, (g1, g2, g3, g4), 2):
        raise ValueError("parameter denominator g1^2 + 3*g2^2 vanishes")
    a, b = num_a / den, num_b / den

    q = a * a + 3 * (b * b)
    c = a * q - 1
    d = 3 * (b * q)
    c_zero = kernel.is_zero(c, (a, b, 1.0), 3)
    d_zero = kernel.is_zero(d, (a, b), 3)
    if c_zero and d_zero:
        raise ValueError("quadruple is not honest: both pairs share their cubes")
    mu = g1 / d if not d_zero else g2 / c
    return EBParams(a, b, mu)


def curve_third_rep(params: EBParams):
    (a, b, mu), kernel = _lifted([params.a, params.b, params.mu])
    q = a * a + 3 * (b * b)
    h1 = mu * (1 + 2 * (a * q))
    h2 = mu * (2 * a + q * q)
    quad = eb_forward(params)
    diff = (h1 ** 3 - h2 ** 3) - (quad.f1 ** 3 - quad.f4 ** 3)
    _check_identity(kernel, diff, (h1, h2, quad.f1, quad.f4), "third-representation")
    return h1, h2


def type_detect(f1, f2, f3, f4) -> TypeTag:
    """The checks, the relation and the arrangement search, all on the
    lifted forms as given."""
    if any(f.degree != 2 for f in (f1, f2, f3, f4)):
        raise ValueError("four quadratic forms required")
    coeffs, kernel = lift([c for f in (f1, f2, f3, f4) for c in f.coeffs])
    forms = tuple([BinaryForm(2, tuple(coeffs[k:k + 3]), kernel) for k in range(0, 12, 3)])
    classify._check_equal_cube_sums(*forms)
    for i, a in enumerate(forms):
        for b in forms[i + 1:]:
            if a.proportional_to(b, rel_tol=DEGENERATE_REL):
                raise ValueError("dishonest family: proportional members")
    alpha = classify._relation(forms, kernel)
    twists = classify._TWISTS[kernel]
    for split_index, ((a, b, sb), (c, d, sd)) in enumerate(classify._SPLITS):
        i = classify._twist(alpha[a], alpha[b], twists[sb], kernel)
        j = classify._twist(alpha[c], alpha[d], twists[sd], kernel)
        if i is None or j is None:
            continue
        left = forms[b].scale(twists[sb][i]) + forms[a]
        right = forms[d].scale(twists[sd][j]) + forms[c]
        if not kernel.exact and not left.proportional_to(right, rel_tol=TYPE_PROP_TOL):
            continue
        try:
            T = classify._coefficient_ratio(left, right, kernel)
        except ArithmeticError:
            continue
        return TypeTag(T, split_index, i, j)
    raise ArithmeticError("no type arrangement found; honest equal sums always admit one")
