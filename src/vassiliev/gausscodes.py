"""Extended Gauss codes for knot diagrams.

A code is the cyclic sequence of crossing passages along the knot; each
crossing is visited once over and once under, and both visits carry the
crossing sign.  Text form: comma-separated tokens like ``O12+`` / ``U7-``.

Planarity is decidable from the code alone: each crossing fixes the
counterclockwise rotation of its four edge ends (depending on the sign),
and the code is realizable if and only if the resulting rotation system
has genus zero.  `simplify` runs Reidemeister I/II greedily plus a
best-first search over triangle (III) moves, in (length, canonical key)
order, within a configurable state budget; a state whose exact passages
were met already is skipped before its key is computed.  Reaching the
empty code certifies the unknot, anything else is inconclusive and
callers fall back to the determinant `alexander_det` (= |Alexander
polynomial at -1|) as a necessary condition.

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
from itertools import compress, count
from operator import eq
from typing import NamedTuple

from .errors import ConsistencyError, DiagramError

DEFAULT_BUDGET = 10000
BUDGET_ENV = "VASSILIEV_SIMPLIFY_BUDGET"


class Passage(NamedTuple):
    """One visit to a crossing.  A tuple, so codes hash at C speed."""

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
        """Rotation- and relabel-invariant identity of the code: the least,
        over every rotation, of the (label, over, sign) tuple whose labels
        1, 2, ... follow first occurrence.  It is built only for the
        rotation `_least_read` picks."""
        ps = self.passages
        if not ps:
            return ()
        _, r = _least_read(ps)
        names, overs, signs = zip(*(ps[r:] + ps[:r]))
        labels = dict(zip(dict.fromkeys(names), count(1)))
        return tuple(zip(map(labels.__getitem__, names), overs, signs))

    # -- planarity ---------------------------------------------------------

    def genus(self) -> int:
        if not self.passages:  # a crossingless circle has no rotation system
            return 0
        V = len({p.crossing for p in self.passages})
        euler = V - len(self.passages) + _face_count(self)
        if euler % 2:
            raise DiagramError("rotation system produced an odd Euler number")
        return (2 - euler) // 2

    def is_realizable(self) -> bool:
        return self.genus() == 0


def _least_read(ps):
    """(read, r): the least rotation read of the passages `ps`, and the
    first start r that reads it.

    Within one rotation a label orders as the position where its crossing
    first comes.  So a rotation is read as the ints 4 * first position +
    2 * over + (sign > 0), which order as its canonical-key tuple; only
    the rotations whose first tail is least can win.
    """
    m = len(ps)
    names, overs, signs = zip(*ps)
    tails = [2 * o + (s > 0) for o, s in zip(overs, signs)]
    low = min(tails)
    starts = [r for r, t in enumerate(tails) if t == low]
    ring, tails = names * 2, tails * 2
    # a short prefix settles most starts; the rest are read in full
    for w in (min(8, m), m):
        reads = []
        for r in starts:
            first = {}
            reads.append(tuple([4 * first.setdefault(c, k) + t for k, c, t
                                in zip(range(w), ring[r:r + w], tails[r:r + w])]))
        least = min(reads)
        starts = [r for r, read in zip(starts, reads) if read == least]
    return least, starts[0]


# ---------------------------------------------------------------------------
# Reidemeister moves
# ---------------------------------------------------------------------------

def _moved(passages) -> GaussCode:
    """A GaussCode built without `__post_init__`'s checks.  Only the
    Reidemeister moves call it: a move on a valid code gives a valid code."""
    code = object.__new__(GaussCode)
    object.__setattr__(code, "passages", passages)
    return code


def _remove_positions(ps, positions):
    return _moved(tuple([p for i, p in enumerate(ps) if i not in positions]))


# edge-end offsets by a passage's tail 2 * over + (sign > 0): the end it
# leaves by, the end it enters by, and the end after each counterclockwise
_OUT, _OUT_NEXT = (3, 1, 0, 0), (0, 2, 1, 1)
_IN, _IN_NEXT = (1, 3, 2, 2), (2, 0, 3, 3)


def _face_steps(code: GaussCode):
    """(step, arc): the faces of the rotation system induced by the
    crossing signs, as one permutation of the edge ends.

    The crossings are numbered 0, 1, ... in order of first passage, and
    end j of crossing c, counted counterclockwise from its over-out end,
    is 4c + j.  Counterclockwise the ends of a positive crossing are o_out,
    u_out, o_in, u_in and of a negative one o_out, u_in, o_in, u_out.  Code
    arc i runs from passage i out to passage i+1 in.  A face's boundary
    leaves end e along arc[e] and, at the crossing it reaches, turns on
    counterclockwise to the face's next end step[e].
    """
    ps = code.passages
    m = len(ps)
    first_end = dict(zip(dict.fromkeys(p.crossing for p in ps), count(0, 4)))
    base = [first_end[p.crossing] for p in ps]
    tails = [2 * p.over + (p.sign > 0) for p in ps]
    step = [0] * (2 * m)
    arc = step[:]
    for i in range(m):
        j = i + 1 if i + 1 < m else 0
        a = base[i] + _OUT[tails[i]]
        b = base[j] + _IN[tails[j]]
        step[a] = base[j] + _IN_NEXT[tails[j]]
        step[b] = base[i] + _OUT_NEXT[tails[i]]
        arc[a] = arc[b] = i
    return step, arc


def _face_count(code: GaussCode) -> int:
    """The number of faces: the cycles of `_face_steps`' step."""
    step, _ = _face_steps(code)
    seen = [False] * len(step)
    faces = 0
    for start in range(len(step)):
        if not seen[start]:
            faces += 1
            d = start
            while not seen[d]:
                seen[d] = True
                d = step[d]
    return faces


def _triangles(code: GaussCode):
    """The arcs of each triangular face, in the order of the faces' least
    ends: the ends e with step^3 e = e, least among their three."""
    step, arc = _face_steps(code)
    two = list(map(step.__getitem__, step))
    out = []
    for e in compress(count(), map(eq, map(step.__getitem__, two), count())):
        if e < step[e] and e < two[e]:   # not a monogon, the least end
            out.append((arc[e], arc[step[e]], arc[two[e]]))
    return out


def reidemeister_three(code: GaussCode):
    """All codes obtained by sliding across a triangular face."""
    ps = code.passages
    m = len(ps)
    out = []
    for arcs in _triangles(code):
        i, j, k = sorted(arcs)
        # three arcs with six distinct ends: no two share a passage
        if j - i < 2 or k - j < 2 or k - i > m - 2:
            continue
        ends = [(x, (x + 1) % m) for x in (i, j, k)]
        # one strand must be uniformly over (or under) at its two passages
        if all(ps[x].over != ps[y].over for x, y in ends):
            continue
        new = list(ps)
        for x, y in ends:
            new[x], new[y] = ps[y], ps[x]
        out.append(_moved(tuple(new)))
    return out


def _first_r2(code: GaussCode):
    """The first Reidemeister II move, or None, from the positions of the
    under-passages instead of a scan of every position pair: a bigon's two
    unders are the under-passages of its two over-crossings, adjacent.
    Its test oracle lists every move (`tests/moves_oracle.py`)."""
    ps = code.passages
    m = len(ps)
    under = None
    for i, (a, b) in enumerate(zip(ps, ps[1:] + ps[:1])):
        if a.over and b.over and a.sign != b.sign:
            if under is None:
                under = {p.crossing: k for k, p in enumerate(ps) if not p.over}
            k, l = under[a.crossing], under[b.crossing]
            if (l - k) % m == 1 or (k - l) % m == 1:
                return _remove_positions(ps, {i, (i + 1) % m, k, l})
    return None


def _first_r1(code: GaussCode):
    """The first kink removed, or None.  Its test oracle lists every
    Reidemeister I move (`tests/moves_oracle.py`)."""
    ps = code.passages
    names = [p.crossing for p in ps]
    for i in compress(count(), map(eq, names, names[1:] + names[:1])):
        return _remove_positions(ps, {i, (i + 1) % len(ps)})
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
        budget = int(text)
    except ValueError:
        raise DiagramError(
            f"{BUDGET_ENV}={text!r} is not an integer") from None
    if budget < 0:
        raise DiagramError(f"{BUDGET_ENV}={text!r} is negative")
    return budget


def simplify(code: GaussCode, budget=None) -> GaussCode:
    """Shortest code reachable by R1/R2 (greedy) and budgeted R3 search.

    The empty output certifies the unknot.  Deterministic: a best-first
    search that explores states in (length, canonical key) order.  Each
    R3 move is reduced greedily; a result whose exact passages were met
    already is dropped before its key is computed, since its key is met
    too.  The greedy reduction takes the first R1, else the first R2,
    move (`_first_r1` / `_first_r2`); the tests check each against every
    move listed by `tests/moves_oracle.py`.
    """
    if budget is None:
        budget = simplify_budget()
    if not code.is_realizable():
        raise DiagramError("code is not realizable as a planar diagram")
    start = _greedy_reduce(code)
    if not start.passages:
        return start
    best = start
    # a state's key is its least read, which orders as its canonical key
    best_key = (len(start.passages), _least_read(start.passages)[0])
    seen = {best_key[1]}
    # the exact passages of every reduced state: a repeat (most often the
    # move back to the parent) has its key in `seen`, so it is dropped,
    # before its greedy reduction too if it was reduced already
    met = {start.passages}
    # `seen` makes every key on the heap unique, so codes are never compared
    heap = [(*best_key, start)]
    states = 0
    while heap and states < budget:
        _, _, cur = heappop(heap)
        states += 1
        for nxt in reidemeister_three(cur):
            if nxt.passages in met:
                continue
            red = _greedy_reduce(nxt)
            if not red.passages:
                return red
            if red is not nxt and red.passages in met:
                continue
            met.add(red.passages)
            key = _least_read(red.passages)[0]
            if key in seen:
                continue
            seen.add(key)
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
