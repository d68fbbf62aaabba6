"""Chord diagrams and trivalent diagrams with an oriented external circle.

A chord diagram of order n is an oriented circle with 2n marked points
paired by n chords.  We encode it as a word of length 2n in which each
chord label appears exactly twice, read counterclockwise from a base
point; the canonical form is the lexicographically minimal word over all
rotations and relabelings.  Rotations are quotiented, reflections are not
(the circle is oriented).

The trivalent generalisation (`CCD`) carries an oriented external circle
plus internal trivalent vertices, each with a cyclic ordering of its
three incident edge ends.  Reversing the cyclic order at one internal
vertex is the antisymmetry move and costs a sign.  `CCD.canonical`
chooses each vertex's orientation when its traversal first meets it; the
search over every flip mask is its test oracle (`tests/ccd_oracle.py`).
Each distinct CCD is searched once while it stays in the bounded memo.
`CCD(...)` and `CCD.build` check every field; the surgeries and the
canonical relabelling make valid diagrams from valid ones unchecked.

`DiagramSum` is a formal linear combination with integer coefficients,
used for all relation arithmetic downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DiagramError, ResourceGuardError

CHORD_ENUM_GUARD = 7


# ---------------------------------------------------------------------------
# chord diagrams
# ---------------------------------------------------------------------------

def _relabelled_rotation(seq, r):
    """`seq` read from position r round the circle, each symbol replaced by
    1, 2, ... in order of first occurrence."""
    seen = {}
    for s in seq[r:] + seq[:r]:
        yield seen.setdefault(s, len(seen) + 1)


_CANONICAL_MEMO_CAP = 200000   # entries of one memo; one orbit must fit
_CANONICAL_MEMO = {}           # first-occurrence word -> canonical word


def _remember(memo, entries):
    """Store `entries` in `memo`, clearing it first when they would take it
    past _CANONICAL_MEMO_CAP: the one bound of every diagram memo."""
    if len(memo) + len(entries) > _CANONICAL_MEMO_CAP:
        memo.clear()
    memo.update(entries)


def _least_rotation(key):
    """The least relabelled rotation of the first-occurrence word `key`.

    This is the one memo of canonical chord words.  A miss stores the
    whole rotation orbit, each rotation relabelled in first-occurrence
    order, so every other word of the diagram hits.
    """
    best = _CANONICAL_MEMO.get(key)
    if best is None:
        orbit = [tuple(_relabelled_rotation(key, r)) for r in range(len(key))]
        best = min(orbit)
        _remember(_CANONICAL_MEMO, dict.fromkeys(orbit, best))
    return best


@dataclass(frozen=True)
class ChordDiagram:
    """A chord diagram stored by its canonical word."""

    word: tuple

    @staticmethod
    def from_word(seq) -> "ChordDiagram":
        seq = tuple(seq)
        if not seq or len(seq) % 2:
            raise DiagramError("word length must be a positive even number")
        counts = {}
        for s in seq:
            counts[s] = counts.get(s, 0) + 1
        if any(c != 2 for c in counts.values()):
            raise DiagramError("every chord label must appear exactly twice")
        return ChordDiagram(
            _least_rotation(tuple(_relabelled_rotation(seq, 0))))

    @staticmethod
    def from_text(text: str) -> "ChordDiagram":
        return ChordDiagram.from_word(int(ch) for ch in text.strip())

    @property
    def n(self) -> int:
        return len(self.word) // 2

    def as_text(self) -> str:
        return "".join(str(c) for c in self.word)

    def chords(self):
        """Chord endpoints as position pairs (a, b), a < b."""
        first = {}
        out = []
        for pos, lab in enumerate(self.word):
            if lab in first:
                out.append((first[lab], pos))
            else:
                first[lab] = pos
        return out

    def __str__(self):
        return self.as_text()


def _matchings(points):
    """All perfect matchings of an even-size list of points."""
    if not points:
        yield []
        return
    first = points[0]
    for k in range(1, len(points)):
        rest = points[1:k] + points[k + 1:]
        for m in _matchings(rest):
            yield [(first, points[k])] + m


def _word_from_matching(m, size):
    """The word of matching m.  `_matchings` lists the pairs by their first
    point, so the labels come in first-occurrence order."""
    word = [0] * size
    for lab, (a, b) in enumerate(m, start=1):
        word[a] = lab
        word[b] = lab
    return tuple(word)


@lru_cache(maxsize=CHORD_ENUM_GUARD)
def enumerate_chord_diagrams(n: int):
    """All canonical chord diagrams of order n (guarded, n <= 7), as a
    tuple sorted by word: the basis order of every order-n span.

    Each perfect matching's word is built in first-occurrence order, so it
    goes straight to `_least_rotation`; only the first word of each
    rotation class computes its orbit, and afterwards the memo holds every
    first-occurrence word of order n.  Cached per order; a guard error is
    not cached.
    """
    if not 1 <= n <= CHORD_ENUM_GUARD:
        raise ResourceGuardError(
            f"chord diagram enumeration supports 1 <= n <= {CHORD_ENUM_GUARD}"
        )
    words = {_least_rotation(_word_from_matching(m, 2 * n))
             for m in _matchings(list(range(2 * n)))}
    return tuple(ChordDiagram(w) for w in sorted(words))


def is_split(d: ChordDiagram) -> bool:
    """True iff some pair of complementary arcs separates the chords.

    The order-1 diagram is declared split by convention: it carries no
    primitive information above order one.
    """
    if d.n == 1:
        return True
    return _arc_separates(d.word)


def _arc_separates(owner) -> bool:
    """Does some arc of the circle, short of the whole, hold only whole
    components?  `owner[p]` names the component at circle position p.

    Each arc i..j is grown one position at a time while counting the
    components it has entered but not yet swallowed.
    """
    size = len(owner)
    total = {}
    for c in owner:
        total[c] = total.get(c, 0) + 1
    for i in range(size):
        seen = {}
        partial = 0
        for j in range(i, size - 1):
            c = owner[j]
            k = seen.get(c, 0) + 1
            seen[c] = k
            partial += (k == 1) - (k == total[c])
            if not partial:
                return True
    return False


# ---------------------------------------------------------------------------
# CCDs (trivalent diagrams on the circle)
# ---------------------------------------------------------------------------

# Internal vertex slots are numbered 0,1,2 in the vertex's counterclockwise
# cyclic order.  A target is ("x", p) for external vertex p, or ("v", j, s)
# for slot s of internal vertex j.


@dataclass(frozen=True)
class CCD:
    """Trivalent diagram: external circle of `ext` vertices + internal ones.

    `vertices[i]` is the 3-tuple of targets of internal vertex i in its
    counterclockwise slot order.  Every external vertex has exactly one
    incident edge.  Total vertex count 2n with n = order.  `chords` holds
    the external-external edges as sorted pairs.
    """

    ext: int
    vertices: tuple
    chords: tuple = ()

    def __post_init__(self):
        if self.ext < 1:
            raise DiagramError("a CCD needs at least one external vertex")
        if (self.ext + len(self.vertices)) % 2:
            raise DiagramError("total vertex count must be even")
        ext_seen = {}
        for i, slots in enumerate(self.vertices):
            if len(slots) != 3:
                raise DiagramError("internal vertices are trivalent")
            for s, tgt in enumerate(slots):
                if tgt[0] == "x":
                    p = tgt[1]
                    if not 0 <= p < self.ext:
                        raise DiagramError("external index out of range")
                    ext_seen.setdefault(p, []).append((i, s))
                else:
                    _, j, t = tgt
                    if not (0 <= j < len(self.vertices) and 0 <= t < 3):
                        raise DiagramError("internal reference out of range")
                    if self.vertices[j][t] != ("v", i, s):
                        raise DiagramError("edge incidence is not reciprocal")
        # externals paired among themselves (chords) take up the rest
        chord_ends = [p for p in range(self.ext) if p not in ext_seen]
        if len(chord_ends) % 2:
            raise DiagramError("unmatched external vertex")
        if (any(len(c) != 2 for c in self.chords)
                or sorted(p for c in self.chords for p in c) != chord_ends):
            raise DiagramError("chords must pair up the free external vertices")
        for p, refs in ext_seen.items():
            if len(refs) != 1:
                raise DiagramError(f"external vertex {p} has degree != 1")

    # -- construction helpers -------------------------------------------

    @staticmethod
    def build(ext, vertex_targets, chords=()):
        """Build a CCD; `chords` lists external-external edges (p, q)."""
        return CCD(ext, tuple(tuple(v) for v in vertex_targets),
                   tuple(tuple(sorted(c)) for c in chords))

    @property
    def chord_pairs(self):
        """External-external edges (sorted pairs)."""
        return self.chords

    def pairing(self):
        """Symmetric half-edge pairing; ends are ("x", p) or ("v", i, s)."""
        pairing = {}
        for i, slots in enumerate(self.vertices):
            for s, tgt in enumerate(slots):
                pairing[("v", i, s)] = tgt
                if tgt[0] == "x":
                    pairing[tgt] = ("v", i, s)
        for a, b in self.chord_pairs:
            pairing[("x", a)] = ("x", b)
            pairing[("x", b)] = ("x", a)
        return pairing

    @property
    def order(self) -> int:
        return (self.ext + len(self.vertices)) // 2

    def is_chord_diagram(self) -> bool:
        return not self.vertices

    def to_chord_diagram(self) -> ChordDiagram:
        if self.vertices:
            raise DiagramError("diagram still has internal vertices")
        word = [0] * self.ext
        for lab, (a, b) in enumerate(self.chord_pairs, start=1):
            word[a] = lab
            word[b] = lab
        return ChordDiagram.from_word(word)

    # -- canonical form ---------------------------------------------------

    def canonical(self):
        """(canonical CCD, sign, as_null): the relabelling by a traversal
        with the least certificate over all starts and vertex flips.

        A traversal reads the circle from its start and, breadth first, the
        two other slots of each internal vertex met, in cyclic order or, if
        flipped, the reverse.  A flip changes nothing read before its vertex
        is met, so the search chooses it there (the search over every flip
        mask is its test oracle): one state per start reads a symbol at a
        time, a state meeting a new vertex forks into both orientations, and
        only states reading the least symbol go on.  `sign` is the parity of
        the survivor with the least (flip mask, r); `as_null` flags an
        orientation-reversing automorphism, survivors of both parities.

        The answer is kept on the CCD and in `_CCD_MEMO`, keyed by `_code`,
        so an equal CCD built again is not searched again.  The memo shares
        one canonical CCD per class and is bounded by `_remember`.
        """
        if getattr(self, "_canon", None) is None:
            code = _code(self.ext, self.vertices, self.chords)
            object.__setattr__(self, "_canon", _CCD_MEMO.get(code)
                               or _canonical_search(code))
        return self._canon

    def key(self):
        """Hashable identity of the canonical class (ignoring sign)."""
        canon, _, _ = self.canonical()
        return (canon.ext, canon.vertices, canon.chord_pairs)


def _trusted(ext, vertices, chords) -> CCD:
    """A CCD built without `__post_init__`'s checks.  Only the surgeries
    (through `_from_pairing`) and the canonical relabelling call it: each
    builds a valid diagram from a valid one."""
    ccd = object.__new__(CCD)
    vars(ccd).update(ext=ext, vertices=vertices, chords=chords)
    return ccd


def _from_pairing(pairing) -> CCD:
    """The CCD of a symmetric half-edge pairing made from a valid CCD's.

    External positions and internal vertex ids are renumbered from 0
    in sorted order, so a surgery names a new point between p and p+1
    as p + 0.5 and deletes a vertex by dropping its ends.
    """
    pos = {p: k for k, p in enumerate(
        sorted(end[1] for end in pairing if end[0] == "x"))}
    ids = {j: k for k, j in enumerate(
        sorted({end[1] for end in pairing if end[0] == "v"}))}
    table = [[None] * 3 for _ in ids]
    chords = []
    for end, tgt in pairing.items():
        if end[0] == "x":
            if tgt[0] == "x" and end[1] < tgt[1]:
                chords.append((pos[end[1]], pos[tgt[1]]))
        elif tgt[0] == "x":
            table[ids[end[1]]][end[2]] = ("x", pos[tgt[1]])
        else:
            table[ids[end[1]]][end[2]] = ("v", ids[tgt[1]], tgt[2])
    return _trusted(len(pos), tuple(map(tuple, table)), tuple(sorted(chords)))


_CCD_MEMO = {}   # `_code` of a CCD -> (canonical CCD, sign, as_null)


def _code(ext, vertices, chords):
    """A CCD's fields as one tuple of ints: ext, the internal vertex count,
    each slot's target (external p as p, slot s of vertex j as
    ext + 3j + s), then the chord ends."""
    return (ext, len(vertices),
            *[t[1] if t[0] == "x" else ext + 3 * t[1] + t[2]
              for slots in vertices for t in slots],
            *[p for c in chords for p in c])


def _canonical_search(code):
    """`CCD.canonical` of the CCD with this `_code`, searched; the answer
    and the canonical CCD's own go into `_CCD_MEMO`."""
    E, I = code[0], code[1]
    # ends as ints, as in `_code`; symbols in certificate order: external
    # q - r, E + 3 label + slot
    partner = list(range(E + 3 * I))
    for end, t in enumerate(code[2:2 + 3 * I], start=E):
        partner[end] = t
        if t < E:
            partner[t] = end
    chord_ends = code[2 + 3 * I:]
    for a, b in zip(chord_ends[::2], chord_ends[1::2]):
        partner[a], partner[b] = b, a
    NEW = E + 3 * I        # the symbol of a vertex met for the first time
    # a state: (flip mask, r, ends queued, per vertex (label, entry slot,
    # sense)); sense is -1 on a flipped vertex, whose slots read backwards
    states = [(0, r, (), (None,) * I) for r in range(E)]
    p = head = met = 0
    while head < 2 * met or p < E:
        syms, reads = [], []
        for _, r, queue, info in states:
            t = queue[head] if head < 2 * met else partner[(r + p) % E]
            j, s = divmod(t - E, 3)
            if t < E:
                syms.append((t - r) % E)
            elif info[j] is None:
                syms.append(NEW)
            else:
                lab, entry, sense = info[j]
                syms.append(E + 3 * lab + (s - entry) * sense % 3)
            reads.append(t)
        least = min(syms)
        head, p = (head + 1, p) if head < 2 * met else (head, p + 1)
        kept = [(st, t) for st, t, sym in zip(states, reads, syms)
                if sym == least]
        states = [st for st, _ in kept]
        if least == NEW:
            states = []
            for (mask, r, queue, info), t in kept:
                j, s = divmod(t - E, 3)
                for sense in (1, -1):
                    states.append((mask | (sense < 0) << j, r, queue + (
                        partner[t - s + (s + sense) % 3],
                        partner[t - s + (s + 2 * sense) % 3]),
                        info[:j] + ((met, s, sense),) + info[j + 1:]))
            met += 1
    if met != I:
        raise DiagramError("CCD graph is disconnected")
    mask, r, _, info = min(states)   # (mask, r) is unique to a state
    null = len({m.bit_count() % 2 for m, _, _, _ in states}) == 2

    # relabel by the winner: external p -> p - r, vertex j -> its label,
    # each slot -> its offset from the entry slot in the chosen orientation
    def relabel(t):
        if t < E:
            return ("x", (t - r) % E)
        lab, entry, sense = info[(t - E) // 3]
        return ("v", lab, ((t - E) % 3 - entry) * sense % 3)

    table = [None] * I
    for j, (lab, entry, sense) in enumerate(info):
        ends = [relabel(partner[E + 3 * j + s]) for s in range(3)]
        table[lab] = tuple(ends[(entry + sense * k) % 3] for k in range(3))
    chords = tuple(sorted(tuple(sorted(((a - r) % E, (b - r) % E)))
                          for a, b in zip(chord_ends[::2], chord_ends[1::2])))
    canon_code = _code(E, table, chords)
    known = _CCD_MEMO.get(canon_code)
    if known is None:
        known = (_trusted(E, tuple(table), chords), 1, null)
        object.__setattr__(known[0], "_canon", known)   # a fixed point
    result = (known[0], -1, null) if mask.bit_count() % 2 else known
    _remember(_CCD_MEMO, {code: result, canon_code: known})
    return result


# ---------------------------------------------------------------------------
# formal sums
# ---------------------------------------------------------------------------

def _integral(coeff) -> int:
    """`coeff` as an int: an int, or a Fraction with denominator 1."""
    if isinstance(coeff, (int, Fraction)) and coeff.denominator == 1:
        return int(coeff)
    raise DiagramError(f"diagram sum coefficients are integers, not {coeff!r}")


class DiagramSum:
    """Formal integer combination of canonical diagrams of equal order.

    Every sum the library builds is integral, so `add` and `scaled` take
    an int or a Fraction with denominator 1, and raise DiagramError on
    anything else."""

    __slots__ = ("terms", "order")

    def __init__(self, terms=None):
        self.terms = {}
        self.order = None
        if terms:
            for d, c in (terms.items() if isinstance(terms, dict) else terms):
                self.add(d, c)

    def add(self, diagram, coeff):
        coeff = _integral(coeff)
        if coeff == 0:
            return self
        if isinstance(diagram, CCD):
            if diagram.is_chord_diagram():
                diagram = diagram.to_chord_diagram()
            else:
                canon, sign, null = diagram.canonical()
                if null:
                    return self
                diagram, coeff = canon, coeff * sign
        elif not isinstance(diagram, ChordDiagram):
            raise DiagramError("DiagramSum holds ChordDiagram or CCD terms")
        order = diagram.n if isinstance(diagram, ChordDiagram) else diagram.order
        if self.order is None:
            self.order = order
        elif self.order != order:
            raise DiagramError("mixed orders in one DiagramSum")
        new = self.terms.get(diagram, 0) + coeff
        if new == 0:
            self.terms.pop(diagram, None)
            if not self.terms:
                self.order = None
        else:
            self.terms[diagram] = new
        return self

    def _plus(self, other, k):
        """self + k * other, merged term by term: both hold canonical terms."""
        if self.terms and other.terms and self.order != other.order:
            raise DiagramError("mixed orders in one DiagramSum")
        out = DiagramSum()
        terms = out.terms = dict(self.terms)
        for d, c in other.terms.items():
            new = terms.get(d, 0) + k * c
            if new:
                terms[d] = new
            else:
                del terms[d]
        out.order = (self.order or other.order) if terms else None
        return out

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scaled(self, k):
        k = _integral(k)
        out = DiagramSum()
        if k and self.terms:
            out.terms = {d: c * k for d, c in self.terms.items()}
            out.order = self.order
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def items_sorted(self):
        def keyf(item):
            d, _ = item
            if isinstance(d, ChordDiagram):
                return (0, d.word)
            return (1, d.ext, d.vertices, d.chord_pairs)
        return sorted(self.terms.items(), key=keyf)

    def __eq__(self, other):
        return isinstance(other, DiagramSum) and self.terms == other.terms

    def __repr__(self):
        bits = []
        for d, c in self.items_sorted():
            name = d.as_text() if isinstance(d, ChordDiagram) else f"ccd<{d.order}>"
            bits.append(f"{c}*{name}")
        return " + ".join(bits) if bits else "0"
