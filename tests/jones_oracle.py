"""The Jones polynomial by Kauffman state sum: the test oracle for v3.

The state sum runs over all 2^c smoothings of a c-crossing diagram, so
it is exponential in the crossing number; the library evaluates v3 by a
triple-arrow Gauss-diagram formula instead, and the tests compare the
two.  `v3_jones` reads v3 off the h^3 coefficient of V(e^h), scaled so
that the weight on the chord diagram 123123 is 1.

That scale, and the a2 weight on 1212, are read off alternating sums
over the crossing switches of the trefoil shadow (`_shadow_alternating_sum`).
"""

from fractions import Fraction
from functools import lru_cache

from vassiliev.errors import ConsistencyError, DiagramError
from vassiliev.gausscodes import GaussCode, simplify
from vassiliev.invariants import _sum_over_summands, a2_alexander


def _trefoil_shadow(switch):
    """The all-positive 3-crossing code with a subset of crossings switched."""
    base = GaussCode.from_text("O1+,U2+,O3+,U1+,O2+,U3+")
    return base.switched(switch)


def _shadow_alternating_sum(f, crossings) -> Fraction:
    """Sum of (-1)^|S| f(shadow with S switched) over subsets S of crossings."""
    total = Fraction(0)
    for mask in range(1 << len(crossings)):
        switch = {cid for k, cid in enumerate(crossings) if mask >> k & 1}
        total += (-1) ** len(switch) * f(_trefoil_shadow(switch))
    return total


def a2_weight_calibration() -> Fraction:
    """Raw weight of the crossing diagram 1212 under a2 (should be 1)."""
    return _shadow_alternating_sum(a2_alexander, (1, 2))


def kauffman_bracket(code: GaussCode) -> dict:
    """Bracket polynomial in A as {exponent: coefficient}."""
    ps = code.passages
    m = len(ps)
    if m == 0:
        return {0: 1}
    if m > 36:
        raise DiagramError("state sum guarded to 18 crossings")
    crossings = code.crossings
    at = {}
    for i, p in enumerate(ps):
        at.setdefault(p.crossing, []).append(i)

    def loops(choice):
        parent = list(range(m))  # arcs: arc i runs from passage i to i+1

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        for cid, oriented in choice.items():
            i, j = at[cid]
            if oriented:
                union((i - 1) % m, j)
                union((j - 1) % m, i)
            else:
                union((i - 1) % m, (j - 1) % m)
                union(i, j)
        return len({find(x) for x in range(m)})

    out = {}
    for mask in range(1 << len(crossings)):
        apow = 0
        choice = {}
        for k, cid in enumerate(crossings):
            pick_a = bool(mask >> k & 1)
            # A-smoothing of a positive crossing is the oriented one
            # (this bracket satisfies <positive kink> = -A^3 <unknot>)
            oriented = pick_a if ps[at[cid][0]].sign > 0 else not pick_a
            choice[cid] = oriented
            apow += 1 if pick_a else -1
        nloops = loops(choice)
        # delta^(loops-1) with delta = -A^2 - A^-2
        for dexp, dcoef in _delta_power(nloops - 1).items():
            e = apow + dexp
            out[e] = out.get(e, 0) + dcoef
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=64)
def _delta_power(k: int):
    poly = {0: 1}
    for _ in range(k):
        new = {}
        for e, c in poly.items():
            new[e + 2] = new.get(e + 2, 0) - c
            new[e - 2] = new.get(e - 2, 0) - c
        poly = new
    return poly


def writhe(code: GaussCode) -> int:
    return sum(p.sign for p in code.passages) // 2


def jones_polynomial(code: GaussCode) -> dict:
    """Jones polynomial as {power of t: coefficient} (integer powers)."""
    br = kauffman_bracket(code)
    w = writhe(code)
    out = {}
    for e, c in br.items():
        e2 = e - 3 * w
        coef = c * (-1) ** (3 * w % 2)
        if e2 % 4:
            raise ConsistencyError("bracket exponent not divisible by 4")
        t = -e2 // 4
        out[t] = out.get(t, 0) + coef
    return {k: v for k, v in out.items() if v}


def jones_h_coefficient(jones: dict, m: int) -> Fraction:
    """Coefficient of h^m in V(e^h) = sum c_k e^{kh}."""
    total = Fraction(0)
    fact = 1
    for i in range(1, m + 1):
        fact *= i
    for k, c in jones.items():
        total += Fraction(c * k ** m, fact)
    return total


@lru_cache(maxsize=1)
def _v3_dual_scale() -> Fraction:
    """Normalise the order-3 extraction against the chord diagram 123123.

    The alternating sum of the raw invariant over the 8 resolutions of the
    triple-point immersion respecting 123123 is the raw weight of that
    diagram; dividing by it pins the weight to exactly 1 (the dual-basis
    normalisation used everywhere else).
    """
    total = _shadow_alternating_sum(_v3_raw, (1, 2, 3))
    if total == 0:
        raise ConsistencyError("order-3 calibration degenerated to zero")
    return 1 / total


def _v3_raw(code: GaussCode) -> Fraction:
    return jones_h_coefficient(jones_polynomial(code), 3) / 6


def v3_jones(code: GaussCode) -> Fraction:
    """Order-3 invariant from the Jones expansion (dual-basis scale)."""
    return _v3_raw(code) * _v3_dual_scale()


def _v3_small(part: GaussCode) -> Fraction:
    small = simplify(part, budget=400)
    if len(small) > 18:
        raise DiagramError("code too large for the order-3 evaluator")
    return v3_jones(small)


def v3_state_sum(code: GaussCode) -> Fraction:
    """v3 by the state sum, factor by factor, each summand simplified
    here (budget 400) from the summand as given.

    The value is stored in the library's summand table under `_v3_small`,
    apart from the formula's, so the two v3 evaluators never read each
    other, and the oracle reads none of the table's reductions.
    """
    return _sum_over_summands(code, _v3_small, "code")
