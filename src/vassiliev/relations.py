"""Local relations among diagrams: 4T, STU, IHX, antisymmetry.

Sign conventions are frozen here once and for all:

* STU resolution.  Let v be an internal vertex whose slot cyclic order is
  (stem, h1, h2), with the stem edge ending on external vertex x.  The
  resolution deletes v and x and replaces x by two adjacent external
  vertices (early, late) in counterclockwise order.  Then

      diagram  =  [h2 -> early, h1 -> late]  -  [h1 -> early, h2 -> late]

  i.e. the "parallel" reattachment minus the "crossed" one.

* 4T.  For a fixed chord with endpoints P, Q and a moving endpoint x of
  another chord,

      D(x before P) - D(x after P) + D(x before Q) - D(x after Q) = 0,

  which is the alternating template obtained by resolving a tripod at two
  different legs.  (Equivalently + - - + in the order before-P, after-P,
  after-Q, before-Q.)

* IHX.  For an internal edge e between vertices v (slots e, a, b) and w
  (slots e, c, d), I - H + X = 0 where H rewires the legs to v'(e, d, a),
  w'(e, b, c) and X to v'(e, c, a), w'(e, b, d).  This choice is pinned by
  the requirement that stu_expand(I - H + X) lies in the 4T span; a golden
  test freezes it.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import (
    CCD,
    CHORD_ENUM_GUARD,
    DiagramSum,
    _from_pairing,
    _least_rotation,
    _matchings,
    _remember,
    _word_from_matching,
    enumerate_chord_diagrams,
    is_split,
)
from .errors import DiagramError
from .linalg import RelationSpan, _normalize


# ---------------------------------------------------------------------------
# STU
# ---------------------------------------------------------------------------

def stu_resolutions(ccd: CCD, p: int):
    """Resolve the internal vertex attached to external vertex p.

    Returns (parallel, crossed); the diagram equals parallel - crossed.
    """
    base = ccd.pairing()
    tgt = base.get(("x", p))
    if tgt is None or tgt[0] != "v":
        raise DiagramError(f"no internal vertex at external vertex {p}")
    _, v, stem = tgt

    def reattach(first, second):
        # far end of the h2 edge -> first ; far end of the h1 edge -> second
        pairing = dict(base)
        far1 = pairing[("v", v, (stem + 2) % 3)]
        far2 = pairing[("v", v, (stem + 1) % 3)]
        for end in (("v", v, 0), ("v", v, 1), ("v", v, 2), ("x", p)):
            del pairing[end]
        if far1[0] == "v" and far1[1] == v:
            # a loop at v (h1 joined to h2) becomes a chord first-second
            far1, far2 = ("x", second), ("x", first)
        for far, new in ((far1, first), (far2, second)):
            pairing[far] = ("x", new)
            pairing[("x", new)] = far
        return _from_pairing(pairing)

    # the early point keeps key p, the late one goes between p and p + 1
    parallel = reattach(p, p + 0.5)
    crossed = reattach(p + 0.5, p)
    return parallel, crossed


_STU_MEMO = {}   # canonical class key -> STU expansion of its canonical CCD


def stu_expand(c: CCD) -> DiagramSum:
    """Chord-diagram representative of c, resolving internal vertices by STU.

    Deterministic: the canonical form is taken first and the internal
    vertex adjacent to the lowest-numbered external vertex is resolved at
    each step.  Well defined modulo 4T.  Each class is expanded once while
    it stays in `_STU_MEMO`, which is bounded like the canonical memos.
    """
    canon, sign, null = c.canonical()
    if null:
        return DiagramSum()
    key = c.key()
    got = _STU_MEMO.get(key)
    if got is None:
        got = _stu_expand_canonical(canon)
        _remember(_STU_MEMO, {key: got})
    return got.scaled(sign)


def _stu_expand_canonical(canon: CCD) -> DiagramSum:
    if canon.is_chord_diagram():
        return DiagramSum([(canon.to_chord_diagram(), 1)])
    p = _lowest_resolvable(canon)
    parallel, crossed = stu_resolutions(canon, p)
    return stu_expand(parallel) - stu_expand(crossed)


def _lowest_resolvable(ccd: CCD) -> int:
    ends = [t[1] for slots in ccd.vertices for t in slots if t[0] == "x"]
    if not ends:
        raise DiagramError("no internal vertex adjacent to the circle")
    return min(ends)


# ---------------------------------------------------------------------------
# 4T
# ---------------------------------------------------------------------------

def four_t_relations(n: int):
    """All 4T relations of order n, as int rows over the enumeration order.

    A combo is fixed by a moving endpoint x and a fixed chord.  Read from
    the moving chord's other endpoint and relabelled in first-occurrence
    order, the circle without x is the label 1 followed by a matching of
    the other 2n - 2 points labelled 2..n; rotating and relabelling keep
    the "+before / -after" pattern at both fixed endpoints.  So the combos
    are those of every such matching and each of its chords, each met
    once, and inserting x (a second 1) anywhere leaves a first-occurrence
    word for `_least_rotation`.  The four terms sum to a sparse
    {column: int} row over `enumerate_chord_diagrams(n)`, which also
    seeds the memo.  Each row is normalised (gcd 1, positive lead) and
    kept once; a combo whose terms cancel gives none.  The rows come
    sorted by their sorted items.
    """
    if n < 2:
        raise DiagramError("4T relations need order >= 2")
    index = {d.word: i for i, d in enumerate(enumerate_chord_diagrams(n))}
    rows = set()
    for m in _matchings(list(range(2 * n - 2))):
        config = (1,) + tuple(w + 1 for w in _word_from_matching(m, 2 * n - 2))
        for a, b in m:
            # the fixed chord's endpoints P, Q sit at a + 1 and b + 1
            row = {}
            for pos, sgn in ((a + 1, 1), (a + 2, -1), (b + 1, 1), (b + 2, -1)):
                col = index[_least_rotation(config[:pos] + (1,) + config[pos:])]
                row[col] = row.get(col, 0) + sgn
            row = _normalize({c: v for c, v in row.items() if v})
            if row:
                rows.add(tuple(sorted(row.items())))
    return [dict(r) for r in sorted(rows)]


# ---------------------------------------------------------------------------
# IHX
# ---------------------------------------------------------------------------

def _rewire(ccd: CCD, v, w, v_legs, w_legs):
    """Rebuild with v joined to v_legs and w to w_legs (cyclic (edge, *, *)).

    Legs are given as the original slot references ("v", vertex, slot) of
    the four non-edge half-edges at v and w.
    """
    pairing = ccd.pairing()
    far = {leg: pairing[leg] for leg in v_legs + w_legs}
    legs = set(v_legs + w_legs)
    new_slot = {}
    for k, leg in enumerate(v_legs):
        new_slot[leg] = ("v", v, k + 1)
    for k, leg in enumerate(w_legs):
        new_slot[leg] = ("v", w, k + 1)
    for end in list(pairing):
        if end[0] == "v" and end[1] in (v, w):
            pairing.pop(end, None)
    pairing[("v", v, 0)] = ("v", w, 0)
    pairing[("v", w, 0)] = ("v", v, 0)
    for leg in legs:
        f = far[leg]
        mine = new_slot[leg]
        if f in legs:
            pairing[mine] = new_slot[f]
        else:
            pairing[mine] = f
            pairing[f] = mine
    return _from_pairing(pairing)


def ihx_pieces(c: CCD, edge):
    """(I, H, X) as raw CCDs for the internal-internal edge given as a slot
    ref (i, s); the relation is I - H + X."""
    i, s = edge
    tgt = c.vertices[i][s]
    if tgt[0] != "v":
        raise DiagramError("edge must join two internal vertices")
    j, t = tgt[1], tgt[2]
    if j == i:
        raise DiagramError("IHX needs two distinct endpoints")
    a = ("v", i, (s + 1) % 3)
    b = ("v", i, (s + 2) % 3)
    cc = ("v", j, (t + 1) % 3)
    d = ("v", j, (t + 2) % 3)
    ident = _rewire(c, i, j, (a, b), (cc, d))
    h = _rewire(c, i, j, (d, a), (b, cc))
    x = _rewire(c, i, j, (cc, a), (b, d))
    return ident, h, x


# ---------------------------------------------------------------------------
# split diagrams
# ---------------------------------------------------------------------------

def split_diagram_span(n: int):
    """All canonical split chord diagrams of order n, in enumeration order."""
    return [d for d in enumerate_chord_diagrams(n) if is_split(d)]


@lru_cache(maxsize=CHORD_ENUM_GUARD)
def quotient_spans(n: int):
    """(four_t, primitive): the order-n spans of 4T and of 4T + split.

    The first presents the graded piece of the Vassiliev invariants mod
    4T, the second its primitive part.  Both are built once per order and
    shared, so they are read-only; `copy()` one to add rows.  Orders
    outside 2..CHORD_ENUM_GUARD raise, so at most that many are cached.
    """
    four_t = RelationSpan.over_order(n, four_t_relations(n))
    primitive = four_t.copy()
    for d in split_diagram_span(n):
        primitive.add(DiagramSum([(d, 1)]))
    four_t.read_only = primitive.read_only = True
    return four_t, primitive
