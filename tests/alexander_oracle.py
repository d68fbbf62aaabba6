"""Slow oracles of the library's Alexander polynomial and determinant.

`alexander_by_interpolation` evaluates the Fox minor at c consecutive
integers for a c-crossing code and interpolates exactly over `Fraction`
(Newton divided differences); the library reads the polynomial off one
determinant at a power of two instead.  `whole_code_det` eliminates the
minor of a whole code at t = -1, where the library multiplies the
summands' |Delta(-1)|.
"""

from fractions import Fraction

from vassiliev.gausscodes import GaussCode, _alexander_matrix, _int_det


def alexander_by_interpolation(code: GaussCode) -> tuple:
    """Delta normalised as the library's: lowest power first, no factor
    +-t^m and Delta(1) = 1.  The code must be a realizable knot's."""
    n = max(len(code), 1)
    xs = range(-(n // 2), n - n // 2)
    # Newton divided differences, then the Newton form expanded
    dd = [Fraction(_int_det(_alexander_matrix(code, x))) for x in xs]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    poly = [dd[-1]]
    for k in range(len(xs) - 2, -1, -1):
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= xs[k] * poly[i + 1]
        poly[0] += dd[k]
    nonzero = [i for i, a in enumerate(poly) if a]
    delta = poly[nonzero[0]:nonzero[-1] + 1]
    unit = sum(delta)
    assert unit in (1, -1) and all(a.denominator == 1 for a in delta)
    return tuple(int(a * unit) for a in delta)


def whole_code_det(code: GaussCode) -> int:
    """|Delta(-1)| by one elimination of the whole code's minor."""
    return abs(_int_det(_alexander_matrix(code, -1)))
