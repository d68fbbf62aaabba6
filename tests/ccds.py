"""Builders of CCDs for the tests: the checked builders from a half-edge
pairing and from a chord diagram, the connectivity test, the enumeration
and the seeded sample of small orders, the chord-of-length-two insertion,
the IHX combination and the JSON encoding of a canonical form.

The library reduces trees to n-gons without enumerating CCDs; the tests
use these corpora to check `CCD.canonical`, STU expansion and the
placement independence of a chord of length two.  The enumeration is
guarded, since the half-edge matching space grows factorially.
"""

import random

from vassiliev.diagrams import (CCD, ChordDiagram, DiagramSum, _arc_separates,
                                _from_pairing)
from vassiliev.errors import DiagramError, ResourceGuardError
from vassiliev.relations import ihx_pieces

CCD_ENUM_GUARD = 5


def from_pairing(pairing) -> CCD:
    """The CCD of a symmetric half-edge pairing, with every check of
    `CCD(...)`; the library's surgeries build it unchecked."""
    c = _from_pairing(pairing)
    return CCD(c.ext, c.vertices, c.chords)


def from_chord_diagram(d: ChordDiagram) -> CCD:
    return CCD.build(2 * d.n, (), d.chords())


def is_connected_ccd(c: CCD) -> bool:
    """Not split: no pair of complementary external arcs isolates components.

    A component is either a chord or a connected piece of the internal
    graph together with the external vertices it touches.
    """
    E = c.ext
    owner = [None] * E
    for a, b in c.chord_pairs:
        owner[a] = owner[b] = ("chord", a)
    parent = list(range(len(c.vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, slots in enumerate(c.vertices):
        for tgt in slots:
            if tgt[0] == "v":
                a, b = find(i), find(tgt[1])
                if a != b:
                    parent[a] = b
    for i, slots in enumerate(c.vertices):
        for tgt in slots:
            if tgt[0] == "x":
                owner[tgt[1]] = ("tree", find(i))
    if E == 1 or len(set(owner)) <= 1:
        return True
    return not _arc_separates(owner)


def _connected_canonical(pairs):
    """(canonical CCD, as_null) of the CCD a half-edge matching builds, or
    None when the matching builds no CCD, a split one, or one with a
    component off the circle (`canonical` raises on that)."""
    pairing = dict(pairs)
    pairing.update((b, a) for a, b in pairs)
    try:
        ccd = from_pairing(pairing)
        if not is_connected_ccd(ccd):
            return None
        canon, _, null = ccd.canonical()
    except DiagramError:
        return None
    return canon, null


def _matchings_canonically_labelled(E, I):
    """Matchings of the E + 3I half-edge ends, one per vertex relabeling.

    Internal vertices are forced to appear in first-touch order with their
    first-touched slot being slot 0, which removes the relabeling and
    slot-rotation redundancy from the search without losing any class.
    """
    ends = [("x", p) for p in range(E)]
    for j in range(I):
        ends.extend((("v", j, s) for s in range(3)))

    def rec(unpaired, touched, acc):
        if not unpaired:
            yield list(acc)
            return
        first = unpaired[0]
        if first[0] == "v" and first[1] not in touched:
            touched = touched | {first[1]}
        for c in unpaired[1:]:
            if c[0] == "v" and c[1] not in touched:
                fresh = min(j for j in range(I) if j not in touched)
                if c[1] != fresh or c[2] != 0:
                    continue
                new_touched = touched | {c[1]}
            else:
                new_touched = touched
            rest = [e for e in unpaired[1:] if e != c]
            acc.append((first, c))
            yield from rec(rest, new_touched, acc)
            acc.pop()

    yield from rec(ends, set(), [])


def _sorted_ccds(ccds):
    return sorted(ccds, key=lambda c: (len(c.vertices), c.ext, c.vertices,
                                       c.chord_pairs))


def sample_connected_ccds(n: int, count: int, seed: int = 0):
    """Deterministic sample of distinct connected CCDs of order n.

    Random half-edge matchings filtered for validity and connectedness;
    used where full enumeration would be factorially large.
    """
    rnd = random.Random(seed)
    out = {}
    tries = 0
    while len(out) < count and tries < 20000 * count:
        tries += 1
        I = rnd.randrange(0, 2 * n)
        ends = [("x", p) for p in range(2 * n - I)]
        for j in range(I):
            ends.extend((("v", j, s) for s in range(3)))
        rnd.shuffle(ends)
        found = _connected_canonical(
            [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)])
        if found is not None and not found[1]:
            out.setdefault(found[0].key(), found[0])
    if len(out) < count:
        raise ResourceGuardError("sampling budget exhausted")
    return _sorted_ccds(out.values())[:count]


def enumerate_connected_ccds(n: int):
    """All connected CCDs of order n up to isomorphism (and antisymmetry).

    Connected means not split in the sense of `is_connected_ccd`.  The
    guard keeps the half-edge matching space at desk scale.
    """
    if not 1 <= n <= CCD_ENUM_GUARD:
        raise ResourceGuardError(
            f"connected CCD enumeration supports 1 <= n <= {CCD_ENUM_GUARD}")
    out = {}
    for I in range(0, 2 * n):
        for m in _matchings_canonically_labelled(2 * n - I, I):
            found = _connected_canonical(m)
            if found is not None:
                out.setdefault(found[0].key(), found[0])
    return _sorted_ccds(out.values())


def add_chord_length_two(c: CCD, pos: int) -> CCD:
    """Insert a chord sandwiching exactly the external vertex at `pos`."""
    if not is_connected_ccd(c):
        raise DiagramError("chord-of-length-two insertion needs a connected CCD")
    if not 0 <= pos < c.ext:
        raise DiagramError("position out of range")
    pairing = c.pairing()
    pairing[("x", pos - 0.5)] = ("x", pos + 0.5)
    pairing[("x", pos + 0.5)] = ("x", pos - 0.5)
    return from_pairing(pairing)


def ihx_relation(c: CCD, edge) -> DiagramSum:
    """I - H + X for the internal-internal edge given as a slot ref (i, s)."""
    ident, h, x = ihx_pieces(c, edge)
    return DiagramSum([(ident, 1), (h, -1), (x, 1)])


def ccd_json(c: CCD):
    """Serialisable encoding of the canonical form of c (bit-exact)."""
    canon, _, _ = c.canonical()
    edges = []
    seen = set()
    for i, slots in enumerate(canon.vertices):
        for s, tgt in enumerate(slots):
            a = ["v", i, s]
            b = list(tgt)
            k = tuple(sorted((tuple(a), tuple(b))))
            if k not in seen:
                seen.add(k)
                edges.append(sorted((a, b)))
    for a, b in canon.chord_pairs:
        edges.append([["x", a], ["x", b]])
    return {
        "order": canon.order,
        "external": list(range(canon.ext)),
        "vertices": [[list(t) for t in slots] for slots in canon.vertices],
        "edges": sorted(edges),
    }
