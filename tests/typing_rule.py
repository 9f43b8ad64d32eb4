"""The one rule by which `exact` types the coefficients it returns from a
layout: by value, whatever the ring products that reached the slot.  It
returns its verdict, so that the calling test asserts it, also under -O."""
import math
from fractions import Fraction

from twocubes.exact import CycNum
from twocubes.forms import EXACT


def _typed_by_value(c) -> bool:
    if not c:
        return c is EXACT.zero
    if type(c) is CycNum:
        canonical = CycNum(c.coeffs)
        return any(c.num[1:]) and (c.num, c.den) == (canonical.num, canonical.den)
    return type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1


def off_rule(coeffs) -> list:
    """The coefficients that break the rule: `EXACT.zero` itself for 0, a
    reduced Fraction for a rational, and otherwise a CycNum in the
    gcd-normalized storage of its value."""
    return [c for c in coeffs if not _typed_by_value(c)]
