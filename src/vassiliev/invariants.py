"""Low-order invariants of Gauss codes, by polynomial-time formulas.

Both orders share one counter of based k-arrow subconfigurations,
`_arrow_features`, and one fitting routine, `fit_arrow_formula`; the
pattern weights it found are frozen constants, locked by golden tests.

* `a2_gauss` - the order-2 Gauss-diagram formula: a signed count of
  linked crossing pairs at the base point (Polyak-Viro).
  `a2_alexander` - the z^2 coefficient of the Conway polynomial, read
  off `gausscodes.alexander_polynomial` (exact determinants).
  `invariant_a2` requires the two to agree on every code.  The Conway
  skein recursion, exponential in the crossing number, is kept in the
  tests as a third, independent oracle.

* `invariant_v3` - the order-3 Gauss-diagram formula: five triple-arrow
  patterns at weight 1/2 (Goussarov-Polyak-Viro), with no crossing cap.
  It is normalised so that its weight system takes value 1 on the chord
  diagram 123123 (the dual-basis normalisation); on that scale the right
  trefoil has v3 = 1/2.  The Jones-polynomial state sum it was fitted
  against is exponential in the crossing number and lives in the tests
  as its oracle.

`a2_alexander` and `invariant_v3` are additive, so they evaluate a
visible connected sum summand by summand.  Each summand is simplified
once, and every evaluator's value on it is kept in the one table
`_PARTS`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import ConsistencyError
from .gausscodes import GaussCode, alexander_polynomial, simplify
from .linalg import RelationSpan


def split_summands(code: GaussCode):
    """Split a visible connected sum (concatenated blocks) into factors.

    Scanning from the base point, every prefix whose crossings are fully
    paired closes off a summand.  Valid because the low-order invariants
    are additive over connected sums.
    """
    ps = code.passages
    if not ps:
        return [code]
    parts = []
    open_ = set()
    start = 0
    for i, p in enumerate(ps):
        if p.crossing in open_:
            open_.remove(p.crossing)
        else:
            open_.add(p.crossing)
        if not open_ and i < len(ps) - 1:
            parts.append(GaussCode(ps[start:i + 1]))
            start = i + 1
    parts.append(GaussCode(ps[start:]))
    return parts


# summand canonical key -> (the summand simplified once, {evaluator: value})
_PARTS = {}


def _sum_over_summands(code: GaussCode, evaluate) -> Fraction:
    """Sum of `evaluate` over the visible summands of an additive invariant.

    All invariants share one table, `_PARTS`, keyed by the rotation- and
    relabel-invariant code key: each summand is shrunk once with a small
    deterministic move budget, and each evaluator's value on the shrunk
    copy is stored under the evaluator once it returns (a raise stores
    nothing).  `evaluate` must be a module-level function: a lambda is a
    new key on every call and would never hit the table.
    """
    total = Fraction(0)
    for part in split_summands(code):
        key = part.canonical_key()
        entry = _PARTS.get(key)
        if entry is None:
            entry = _PARTS[key] = (simplify(part, budget=400), {})
        small, values = entry
        got = values.get(evaluate)
        if got is None:
            got = values[evaluate] = evaluate(small)
        total += got
    return total


def _a2_of_delta(small: GaussCode) -> Fraction:
    delta = alexander_polynomial(small)
    mid = len(delta) // 2
    return Fraction(sum((k - mid) ** 2 * c for k, c in enumerate(delta)), 2)


def a2_alexander(code: GaussCode) -> Fraction:
    """z^2 coefficient of the Conway polynomial, read off the Alexander
    polynomial: with Delta = sum c_k t^k symmetric about k = 0,
    a2 = (1/2) sum k^2 c_k.

    Visible connected sums are evaluated factor by factor (a2 is
    additive), each factor reduced by Reidemeister moves first.
    """
    return _sum_over_summands(code, _a2_of_delta)


# ---------------------------------------------------------------------------
# based arrow-pattern counting (Gauss-diagram formulas of order 2 and 3)
# ---------------------------------------------------------------------------

def _arrow_features(code: GaussCode, k: int):
    """Signed counts of based k-arrow subconfigurations, one per pattern.

    Pattern key: (word, flags).  The word lists the 2k passages of the k
    crossings in code order, each crossing named by the order of its first
    passage (so it starts 0, 1, ...); `flags` holds each crossing's over
    flag at that first passage.  A subconfiguration counts with the
    product of its crossing signs.
    """
    ps = code.passages
    ends = {}
    for i, p in enumerate(ps):
        ends.setdefault(p.crossing, []).append(i)
    # position << 3 | label sorts by position and keeps the label (k <= 8)
    arrows = [(i << 3, j << 3, ps[i].over, ps[i].sign)
              for i, j in sorted(ends.values())]
    feats = {}
    for combo in combinations(arrows, k):
        marks, flags, w = [], [], 1
        for n, (i, j, over, sign) in enumerate(combo):
            marks += (i | n, j | n)
            flags.append(over)
            w *= sign
        marks.sort()
        key = (tuple([m & 7 for m in marks]), tuple(flags))
        feats[key] = feats.get(key, 0) + w
    return feats


# Fitted by `fit_arrow_formula` against independent evaluators over a
# battery of knots, then frozen (see tests/test_invariants.py).
A2_PATTERN_WEIGHTS = {
    ((0, 1, 0, 1), (True, False)): Fraction(1),
}
V3_PATTERN_WEIGHTS = {
    ((0, 1, 0, 2, 1, 2), (True, False, True)): Fraction(1, 2),
    ((0, 1, 2, 0, 1, 2), (False, True, False)): Fraction(1, 2),
    ((0, 1, 2, 0, 1, 2), (True, False, True)): Fraction(1, 2),
    ((0, 1, 2, 0, 2, 1), (True, False, True)): Fraction(1, 2),
    ((0, 1, 2, 1, 0, 2), (False, True, False)): Fraction(1, 2),
}


def evaluate_arrow_formula(weights, code: GaussCode, k: int) -> Fraction:
    """Weighted signed k-arrow count at the base point.  For the frozen
    weights Goussarov-Polyak-Viro make it base-point independent on
    realizable codes."""
    feats = _arrow_features(code, k)
    return sum((w * feats.get(key, 0) for key, w in weights.items()),
               Fraction(0))


def a2_gauss(code: GaussCode) -> Fraction:
    """Order-2 invariant by counting linked pairs (over-then-under first
    passages) at the base point (Polyak-Viro)."""
    return evaluate_arrow_formula(A2_PATTERN_WEIGHTS, code, 2)


def invariant_a2(code: GaussCode) -> Fraction:
    """a2 computed two independent ways; they must agree exactly."""
    fast = a2_gauss(code)
    oracle = a2_alexander(code)
    if fast != oracle:
        raise ConsistencyError(
            f"a2 evaluators disagree: counting {fast}, Alexander {oracle}")
    return fast


def _v3_arrows(small: GaussCode) -> Fraction:
    return evaluate_arrow_formula(V3_PATTERN_WEIGHTS, small, 3)


def invariant_v3(code: GaussCode) -> Fraction:
    """v3 on the dual-basis scale, by the triple-arrow formula.

    Visible connected sums are evaluated factor by factor (v3 is
    additive), each on the factor as simplified for the summand table:
    C(c, 3) triples on the small copy are far fewer than on the raw one.
    """
    return _sum_over_summands(code, _v3_arrows)


# ---------------------------------------------------------------------------
# calibration harness (used by the tests to justify the frozen weights)
# ---------------------------------------------------------------------------

def fit_arrow_formula(batch, k: int):
    """Solve for k-arrow pattern weights reproducing the (code, value) pairs.

    Each code gives the row `features - value * e_value` over the basis
    `keys + ["value"]`; the system is inconsistent exactly when the value
    column is a pivot.  Free weights are 0.  Used in tests to re-derive
    A2_PATTERN_WEIGHTS (k = 2) and V3_PATTERN_WEIGHTS (k = 3).
    """
    rows = [(_arrow_features(code, k), Fraction(value))
            for code, value in batch]
    keys = sorted({key for feats, _ in rows for key in feats})
    span = RelationSpan(keys + ["value"])
    value_col = len(keys)
    span.add_all({**{span.index[key]: v for key, v in feats.items()},
                  value_col: -value} for feats, value in rows)
    if value_col in span.pivots:
        raise ConsistencyError(f"{k}-arrow pattern system is inconsistent")
    return {keys[c]: Fraction(-row[value_col], row[c])
            for c, row in sorted(span.pivots.items()) if row.get(value_col)}
