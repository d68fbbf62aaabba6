"""Test oracles for `enumerate_chord_diagrams`: a Burnside count that
never canonicalises a word, and the enumeration as it was first written,
one `ChordDiagram.from_word` per perfect matching.
"""

from vassiliev.diagrams import ChordDiagram, _matchings, _word_from_matching
from vassiliev.errors import DiagramError


def count_chord_diagrams_burnside(n: int) -> int:
    """Chord diagrams of order n by Burnside over the rotation group C_{2n}.

    Counts the matchings of 2n circle points fixed by each rotation by
    brute force, without touching the canonical-form code path.
    """
    size = 2 * n
    matchings = [frozenset(frozenset(p) for p in m)
                 for m in _matchings(list(range(size)))]
    total = 0
    for r in range(size):
        rot = lambda p: frozenset(frozenset((x + r) % size for x in pair)
                                  for pair in p)
        total += sum(1 for m in matchings if rot(m) == m)
    if total % size:
        raise DiagramError("Burnside sum must be divisible by the group order")
    return total // size


def enumerate_via_from_word(n: int) -> frozenset:
    """Every perfect matching's word through `ChordDiagram.from_word`, which
    checks and relabels each one before canonicalising it."""
    return frozenset(ChordDiagram.from_word(_word_from_matching(m, 2 * n))
                     for m in _matchings(list(range(2 * n))))
