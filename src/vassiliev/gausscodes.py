"""Extended Gauss codes for knot diagrams.

A code is the cyclic sequence of crossing passages along the knot; each
crossing is visited once over and once under, and both visits carry the
crossing sign.  Text form: comma-separated tokens like ``O12+`` / ``U7-``.

Planarity is decidable from the code alone: each crossing fixes the
counterclockwise rotation of its four edge ends (depending on the sign),
and the code is realizable if and only if the resulting rotation system
has genus zero.  `simplify` runs Reidemeister I/II greedily plus a
breadth-first search over triangle (III) moves within a configurable
state budget; reaching the empty code certifies the unknot, anything
else is inconclusive and callers fall back to the determinant
`alexander_det` (= |Alexander polynomial at -1|) as a necessary condition.

`alexander_polynomial` gives the whole normalised Alexander polynomial,
interpolated exactly from determinants at integer points.  Both read the
one Fox-calculus matrix `_alexander_matrix`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .diagrams import _relabelled_rotation, least_sequence
from .errors import ConsistencyError, DiagramError

DEFAULT_BUDGET = 10000
BUDGET_ENV = "VASSILIEV_SIMPLIFY_BUDGET"


@dataclass(frozen=True)
class Passage:
    crossing: int
    over: bool
    sign: int

    def token(self) -> str:
        return f"{'O' if self.over else 'U'}{self.crossing}{'+' if self.sign > 0 else '-'}"


_TOKEN = re.compile(r"^([OU])(\d+)([+-])$")


@dataclass(frozen=True)
class GaussCode:
    passages: tuple

    def __post_init__(self):
        seen = {}
        for p in self.passages:
            seen.setdefault(p.crossing, []).append(p)
        for cid, ps in seen.items():
            if len(ps) != 2:
                raise DiagramError(f"crossing {cid} appears {len(ps)} times")
            a, b = ps
            if a.over == b.over:
                raise DiagramError(f"crossing {cid} lacks an over/under pair")
            if a.sign != b.sign:
                raise DiagramError(f"crossing {cid} has inconsistent signs")

    # -- construction / formatting ---------------------------------------

    @staticmethod
    def from_text(text: str) -> "GaussCode":
        text = text.strip()
        if not text:
            return GaussCode(())
        out = []
        for tok in text.split(","):
            m = _TOKEN.match(tok.strip())
            if not m:
                raise DiagramError(f"bad Gauss code token {tok!r}")
            out.append(Passage(int(m.group(2)), m.group(1) == "O",
                               1 if m.group(3) == "+" else -1))
        return GaussCode(tuple(out))

    def to_text(self) -> str:
        return ",".join(p.token() for p in self.passages)

    def __len__(self):
        return len(self.passages) // 2

    @property
    def crossings(self):
        return sorted({p.crossing for p in self.passages})

    def sign_of(self, cid: int) -> int:
        for p in self.passages:
            if p.crossing == cid:
                return p.sign
        raise DiagramError(f"no crossing {cid}")

    # -- moves on the code -------------------------------------------------

    def switched(self, ids) -> "GaussCode":
        """Switch the named crossings: swap over/under, flip the sign."""
        ids = set(ids)
        out = []
        for p in self.passages:
            if p.crossing in ids:
                out.append(Passage(p.crossing, not p.over, -p.sign))
            else:
                out.append(p)
        return GaussCode(tuple(out))

    def mirrored(self) -> "GaussCode":
        return self.switched({p.crossing for p in self.passages})

    def relabelled(self, offset: int) -> "GaussCode":
        return GaussCode(tuple(
            Passage(p.crossing + offset, p.over, p.sign) for p in self.passages))

    def canonical_key(self):
        """Rotation- and relabel-invariant identity of the code."""
        ps = self.passages
        names = [p.crossing for p in ps]
        tails = [(p.over, p.sign) for p in ps]
        # every start's first symbol is (1, over, sign): only the least can win
        low = min(tails, default=None)
        starts = [r for r, tail in enumerate(tails) if tail == low]
        best, _ = least_sequence(starts, lambda r: (
            (lab, *tail) for lab, tail in
            zip(_relabelled_rotation(names, r), tails[r:] + tails[:r])))
        return best or ()

    # -- planarity ---------------------------------------------------------

    def genus(self) -> int:
        if not self.passages:  # a crossingless circle has no rotation system
            return 0
        V = len({p.crossing for p in self.passages})
        euler = V - len(self.passages) + len(_faces(self))
        if euler % 2:
            raise DiagramError("rotation system produced an odd Euler number")
        return (2 - euler) // 2

    def is_realizable(self) -> bool:
        return self.genus() == 0


# ---------------------------------------------------------------------------
# Reidemeister moves
# ---------------------------------------------------------------------------

def _remove_positions(ps, positions):
    keep = [p for i, p in enumerate(ps) if i not in positions]
    return GaussCode(tuple(keep))


def reidemeister_one(code: GaussCode):
    """All codes obtained by removing a kink (adjacent equal crossings)."""
    ps = code.passages
    m = len(ps)
    out = []
    for i in range(m):
        j = (i + 1) % m
        if ps[i].crossing == ps[j].crossing:
            out.append(_remove_positions(ps, {i, j}))
    return out


def reidemeister_two(code: GaussCode):
    """All codes obtained by cancelling a bigon (adjacent over-over pair
    matched by the same pair adjacent under-under elsewhere).  `simplify`
    takes only the first, from `_first_r2`; this is its test oracle."""
    ps = code.passages
    m = len(ps)
    out = []
    for i in range(m):
        j = (i + 1) % m
        a, b = ps[i], ps[j]
        if a.crossing == b.crossing:
            continue
        if not (a.over and b.over):
            continue
        for k in range(m):
            l = (k + 1) % m
            c, d = ps[k], ps[l]
            if {c.crossing, d.crossing} != {a.crossing, b.crossing}:
                continue
            if c.over or d.over:
                continue
            if a.sign * b.sign != -1:
                continue
            out.append(_remove_positions(ps, {i, j, k, l}))
    return out


def _faces(code: GaussCode):
    """Faces of the rotation system induced by the crossing signs.

    Each face is the list of code arcs along its boundary; arc i runs from
    passage i to passage i+1.  Edge ends are (crossing, kind), kind in
    {o_in, o_out, u_in, u_out}, in counterclockwise order
    + : o_out, u_out, o_in, u_in ;  - : o_out, u_in, o_in, u_out.
    """
    ps = code.passages
    m = len(ps)
    signs = {p.crossing: p.sign for p in ps}
    rot = {}
    for cid, sign in signs.items():
        if sign > 0:
            order = [(cid, "o_out"), (cid, "u_out"), (cid, "o_in"), (cid, "u_in")]
        else:
            order = [(cid, "o_out"), (cid, "u_in"), (cid, "o_in"), (cid, "u_out")]
        for i, d in enumerate(order):
            rot[d] = order[(i + 1) % 4]
    # edge involution: consecutive passages give an edge out -> in, which
    # is code arc i; each end maps to (other end, i)
    alpha = {}
    for i, p in enumerate(ps):
        q = ps[(i + 1) % m]
        a = (p.crossing, "o_out" if p.over else "u_out")
        b = (q.crossing, "o_in" if q.over else "u_in")
        alpha[a] = (b, i)
        alpha[b] = (a, i)
    faces = []
    seen = set()
    for start in rot:
        if start in seen:
            continue
        arcs = []
        d = start
        while True:
            seen.add(d)
            d, arc = alpha[d]
            arcs.append(arc)
            d = rot[d]
            if d == start:
                break
        faces.append(arcs)
    return faces


def reidemeister_three(code: GaussCode):
    """All codes obtained by sliding across a triangular face."""
    ps = code.passages
    m = len(ps)
    out = []
    for arcs in _faces(code):
        if len(arcs) != 3 or len(set(arcs)) != 3:
            continue
        arcs = sorted(arcs)
        positions = set()
        for i in arcs:
            positions.add(i)
            positions.add((i + 1) % m)
        if len(positions) != 6:
            continue
        # one strand must be uniformly over (or under) at its two passages
        strands = []
        for i in arcs:
            a, b = ps[i], ps[(i + 1) % m]
            strands.append((a.over, b.over))
        if not any(x == y for x, y in strands):
            continue
        new = list(ps)
        for i in arcs:
            j = (i + 1) % m
            new[i], new[j] = new[j], new[i]
        out.append(GaussCode(tuple(new)))
    return out


def _first_r2(code: GaussCode):
    """`reidemeister_two(code)[0]`, or None, from one index of the
    adjacent under-under pairs instead of a scan of every position pair."""
    ps = code.passages
    m = len(ps)
    unders = {}  # each crossing has one under-passage: one k per pair
    for k in range(m):
        c, d = ps[k], ps[(k + 1) % m]
        if not (c.over or d.over):
            unders[frozenset((c.crossing, d.crossing))] = k
    for i in range(m):
        a, b = ps[i], ps[(i + 1) % m]
        if a.over and b.over and a.sign * b.sign == -1:
            k = unders.get(frozenset((a.crossing, b.crossing)))
            if k is not None:
                return _remove_positions(ps, {i, (i + 1) % m, k, (k + 1) % m})
    return None


def _first_r1(code: GaussCode):
    """`reidemeister_one(code)[0]`, its test oracle, or None: the first kink."""
    ps = code.passages
    m = len(ps)
    for i in range(m):
        if ps[i].crossing == ps[(i + 1) % m].crossing:
            return _remove_positions(ps, {i, (i + 1) % m})
    return None


def _greedy_reduce(code: GaussCode) -> GaussCode:
    while True:
        move = _first_r1(code)
        if move is None:
            move = _first_r2(code)
        if move is None:
            return code
        code = move


def simplify_budget() -> int:
    """The default R3 state budget: $VASSILIEV_SIMPLIFY_BUDGET if set."""
    text = os.environ.get(BUDGET_ENV, str(DEFAULT_BUDGET))
    try:
        return int(text)
    except ValueError:
        raise DiagramError(
            f"{BUDGET_ENV}={text!r} is not an integer") from None


def simplify(code: GaussCode, budget=None) -> GaussCode:
    """Shortest code reachable by R1/R2 (greedy) and budgeted R3 search.

    The empty output certifies the unknot.  Deterministic: states are
    explored in (length, canonical key) order.
    """
    if budget is None:
        budget = simplify_budget()
    if not code.is_realizable():
        raise DiagramError("code is not realizable as a planar diagram")
    start = _greedy_reduce(code)
    if not start.passages:
        return start
    best = start
    best_key = (len(start.passages), start.canonical_key())
    seen = {best_key[1]}
    # `seen` makes every key on the heap unique, so codes are never compared
    heap = [(*best_key, start)]
    states = 0
    while heap and states < budget:
        _, _, cur = heappop(heap)
        states += 1
        for nxt in reidemeister_three(cur):
            red = _greedy_reduce(nxt)
            key = red.canonical_key()
            if key in seen:
                continue
            seen.add(key)
            if not red.passages:
                return red
            cand = (len(red.passages), key)
            if cand < best_key:
                best, best_key = red, cand
            heappush(heap, (*cand, red))
    return best


def _alexander_matrix(code: GaussCode, t: int):
    """Fox-calculus Alexander matrix at the integer t, last row and column
    deleted (any first minor gives the polynomial up to a unit).

    Arc k runs from the k-th under-passage to the next; the arc through
    the base point is the last one.  The row of a crossing is
    (1-t)*over + t*in - out if it is positive and
    (t-1)*over + in - t*out if it is negative.
    """
    ps = code.passages
    c = len(ps) // 2
    over, unders = {}, []
    arc = c - 1
    for p in ps:
        if p.over:
            over[p.crossing] = arc
        else:
            unders.append((p.crossing, p.sign, arc))
            arc = len(unders) - 1
    rows = []
    for out, (cid, sign, into) in enumerate(unders[:-1]):
        row = [0] * c
        w_over, w_in, w_out = (1 - t, t, -1) if sign > 0 else (t - 1, 1, -t)
        row[over[cid]] += w_over
        row[into] += w_in
        row[out] += w_out
        rows.append(row[:-1])
    return rows


def alexander_det(code: GaussCode) -> int:
    """|Alexander polynomial at -1| (the knot determinant); unknot gives 1."""
    return abs(_int_det(_alexander_matrix(code, -1)))


def alexander_polynomial(code: GaussCode) -> tuple:
    """Alexander polynomial as its coefficients, lowest power first,
    normalised to have no factor +-t^m and Delta(1) = 1.

    The minor's determinant has degree at most c - 1 for c arcs, so its
    values at c consecutive integers fix it exactly.  A knot's polynomial is
    palindromic; anything else raises ConsistencyError.
    """
    if not code.is_realizable():
        raise DiagramError("Alexander polynomial needs a realizable code")
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
    delta = poly[nonzero[0]:nonzero[-1] + 1] if nonzero else []
    unit = sum(delta)
    if unit not in (1, -1) or any(a.denominator != 1 for a in delta):
        raise ConsistencyError(f"Alexander polynomial {delta} is not a knot's")
    delta = tuple(int(a * unit) for a in delta)
    if delta != delta[::-1]:
        raise ConsistencyError(
            f"Alexander polynomial {delta} is not palindromic")
    return delta


def _int_det(mat) -> int:
    n = len(mat)
    if n == 0:
        return 1
    mat = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def connected_sum(a: GaussCode, b: GaussCode) -> GaussCode:
    """Concatenation with disjoint crossing labels."""
    if not a.passages:
        return b
    if not b.passages:
        return a
    offset = max(a.crossings) if a.crossings else 0
    return GaussCode(a.passages + b.relabelled(offset).passages)


# standard small knots, used as goldens throughout the tests
RIGHT_TREFOIL = GaussCode.from_text("O1+,U2+,O3+,U1+,O2+,U3+")
LEFT_TREFOIL = RIGHT_TREFOIL.mirrored()
FIGURE_EIGHT = GaussCode.from_text("O1+,U2+,O3-,U4-,O2+,U1+,O4-,U3-")
