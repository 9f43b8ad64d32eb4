"""Sums of cubes that only the tests build from the package's families."""
from twocubes.families import ramanujan_quadruple
from twocubes.forms import BinaryForm


def cube_sum_difference(left, right) -> BinaryForm:
    """Sum of cubes of the left forms minus sum of cubes of the right forms."""
    acc = None
    for f in left:
        acc = f ** 3 if acc is None else acc + f ** 3
    for f in right:
        acc = acc - f ** 3
    return acc


def q1_sextic() -> BinaryForm:
    """x^6 + y^6."""
    return BinaryForm.exact(6, [1, 0, 0, 0, 0, 0, 1])


def flip_sums() -> tuple[BinaryForm, BinaryForm, BinaryForm]:
    """The sums of the three rearrangements of the integer quadruple.

    With (r1, r2, r3, r4) = ramanujan_quadruple():
    first  = r3^3 + r4^3 = r1^3 - r2^3   (has a third representation),
    second = r1^3 - r4^3 = r3^3 + r2^3   (has a third representation),
    third  = r1^3 - r3^3 = r2^3 + r4^3   (has exactly two).
    """
    r1, r2, r3, r4 = ramanujan_quadruple()
    return (r3 ** 3 + r4 ** 3, r1 ** 3 - r4 ** 3, r1 ** 3 - r3 ** 3)
