import json
import random
from copy import deepcopy
from hashlib import sha256
from itertools import permutations

import pytest
from fractions import Fraction

from vassiliev.diagrams import (
    CCD,
    ChordDiagram,
    DiagramSum,
    enumerate_chord_diagrams,
)
from vassiliev import diagrams, relations
from vassiliev.errors import ConsistencyError, DiagramError
from vassiliev.ngons import one_branch_tree
from vassiliev.relations import (
    four_t_relations,
    split_diagram_span,
    quotient_spans,
    stu_expand,
    stu_resolutions,
)
from vassiliev.linalg import RelationSpan, _int_row, _normalize

from ccds import enumerate_connected_ccds, from_chord_diagram, ihx_relation


def theta():
    """The complete 2-gon: double edge between two pendant vertices."""
    return CCD.build(2, [
        (("x", 0), ("v", 1, 2), ("v", 1, 1)),
        (("x", 1), ("v", 0, 2), ("v", 0, 1)),
    ])


def expand_sum(combo: DiagramSum) -> DiagramSum:
    out = DiagramSum()
    for d, c in combo.terms.items():
        if isinstance(d, ChordDiagram):
            out.add(d, c)
        else:
            for dd, cc in stu_expand(d).terms.items():
                out.add(dd, c * cc)
    return out


def span_4t(n) -> RelationSpan:
    return RelationSpan.over_order(n, four_t_relations(n))


def hand_built_spans(n):
    """Oracle for `quotient_spans`: both spans built row by row."""
    rels = four_t_relations(n)
    primitive = RelationSpan.over_order(n, rels)
    for d in split_diagram_span(n):
        primitive.add(DiagramSum([(d, 1)]))
    return RelationSpan.over_order(n, rels), primitive


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quotient_spans_match_hand_built(n):
    for cached, oracle in zip(quotient_spans(n), hand_built_spans(n)):
        assert cached.basis == oracle.basis
        assert cached.pivots == oracle.pivots
        assert cached.rank == oracle.rank
        assert cached.quotient_dim() == oracle.quotient_dim()
        assert cached.rows == oracle.rows


def test_quotient_spans_are_shared_and_read_only():
    four_t, primitive = quotient_spans(3)
    assert quotient_spans(3)[0] is four_t
    row = DiagramSum([(ChordDiagram.from_text("112233"), 1)])
    for span in (four_t, primitive):
        rank = span.rank
        with pytest.raises(ConsistencyError):
            span.add(row)
        with pytest.raises(ConsistencyError):
            span.add_all([row])
        assert span.rank == rank
    grown = four_t.copy()
    grown.add(row)
    assert grown.rank == four_t.rank + 1
    assert four_t.rank == 2 and len(four_t.rows) == len(four_t_relations(3))


def test_growing_a_copy_leaves_the_cached_span_unchanged():
    four_t = quotient_spans(5)[0]
    before = deepcopy((four_t.pivots, four_t.rows))
    grown = four_t.copy().add_all(
        [DiagramSum([(d, 1)]) for d in split_diagram_span(5)])
    assert grown.pivots == quotient_spans(5)[1].pivots
    assert (four_t.pivots, four_t.rows) == before


# (basis, 4T rank, dim mod 4T, primitive dim, sha256 of the primitive
# dual basis as the benchmark digests it), captured before the pivot rows
# were kept fully reduced
PINNED_CHORD_OUTPUTS = {
    2: (2, 0, 2, 1, "87f956b14f46f955f2ff68f006324eea"
                    "69aa7ee4467df42a9c27c25dd3ee7ee1"),
    3: (5, 2, 3, 1, "8c7651959e54769f74f3157a38f43765"
                    "05c821ca1a16bff11ed7ca5a728415d3"),
    4: (18, 12, 6, 2, "7ac22a82fbf4f9c3811a447fa721b9a9"
                      "75f9ba8868f6d2f318fadf9376c7bb1e"),
    5: (105, 95, 10, 3, "954d51f9e22f14e057e809f0194e3bcf"
                        "0a54e3cb01f65c7c4bd49e5fc78387ab"),
    6: (902, 883, 19, 5, "153e183602c5db18b14a8766eb703cf8"
                         "157789c7994556150c112187727efc9c"),
}


@pytest.mark.parametrize("n", sorted(PINNED_CHORD_OUTPUTS))
def test_chord_outputs_are_pinned(n):
    four_t, primitive = quotient_spans(n)
    dual = [sorted((d.as_text(), str(v)) for d, v in w.values.items())
            for w in primitive.dual_basis()]
    digest = sha256(json.dumps(dual, sort_keys=True).encode()).hexdigest()
    assert (len(four_t.basis), four_t.rank, four_t.quotient_dim(),
            primitive.quotient_dim(), digest) == PINNED_CHORD_OUTPUTS[n]


def test_milnor_moore_dimensions():
    """The chord algebra mod 4T is a polynomial algebra on its primitives
    (Milnor-Moore), so dim_mod_4t(n) is the x^n coefficient of
    prod_k (1 - x^k)^(-p_k), with p_1 = 1 (the isolated chord) and p_k
    the primitive dimension: the 4T span checked against the 4T + split
    span."""
    top = 6
    p = [0, 1] + [quotient_spans(k)[1].quotient_dim()
                  for k in range(2, top + 1)]
    assert p[2:] == [1, 1, 2, 3, 5]
    series = [1] + [0] * top
    for k in range(1, top + 1):
        for _ in range(p[k]):   # times 1 / (1 - x^k)
            for n in range(k, top + 1):
                series[n] += series[n - k]
    dims = [len(enumerate_chord_diagrams(1))] + [
        quotient_spans(n)[0].quotient_dim() for n in range(2, top + 1)]
    assert series[1:] == dims == [1, 2, 3, 6, 10, 19]


def test_stu_memo_stays_under_its_cap(monkeypatch):
    trees = [one_branch_tree(s) for s in permutations(range(1, 6))]
    want = [stu_expand(t) for t in trees]
    monkeypatch.setattr(relations, "_STU_MEMO", {})
    monkeypatch.setattr(diagrams, "_CANONICAL_MEMO_CAP", 25)
    for t, expansion in zip(trees, want):
        assert stu_expand(t) == expansion
        assert len(relations._STU_MEMO) <= 25


def test_stu_golden_two_gon():
    # frozen convention: the 2-gon expands to 2*("1122" - "1212");
    # its weight under any primitive functional is -2 times the value
    # on the crossing diagram
    s = stu_expand(theta())
    assert s.terms == {
        ChordDiagram.from_text("1122"): Fraction(2),
        ChordDiagram.from_text("1212"): Fraction(-2),
    }


def test_stu_expand_chord_diagram_is_identity():
    d = ChordDiagram.from_text("1212")
    c = from_chord_diagram(d)
    assert stu_expand(c).terms == {d: Fraction(1)}


def test_stu_expand_order2_tree_is_a_difference():
    from vassiliev.ngons import one_branch_tree

    s = stu_expand(one_branch_tree((1, 2)))
    assert sorted(s.terms.values()) == [Fraction(-1), Fraction(1)]


def test_stu_resolution_count():
    par, cro = stu_resolutions(theta(), 0)
    assert len(par.vertices) == 1 and len(cro.vertices) == 1
    assert par.ext == 3 and cro.ext == 3


def four_t_relations_exhaustive(n):
    """Oracle for `four_t_relations`: every (diagram, moving endpoint,
    fixed chord) triple builds its combo through `DiagramSum`, which is
    then read as a normalised int row over the enumeration order."""
    span = RelationSpan.over_order(n)
    rows = set()
    for d in enumerate_chord_diagrams(n):
        word = d.word
        labels = sorted(set(word))
        for moving in labels:
            for x in [i for i, w in enumerate(word) if w == moving]:
                reduced = word[:x] + word[x + 1:]
                for fixed in labels:
                    if fixed == moving:
                        continue
                    p, q = (i for i, w in enumerate(reduced) if w == fixed)
                    combo = DiagramSum()
                    for pos, sgn in ((p, 1), (p + 1, -1), (q, 1), (q + 1, -1)):
                        combo.add(ChordDiagram.from_word(
                            reduced[:pos] + (moving,) + reduced[pos:]), sgn)
                    row = _normalize(_int_row(span.vector_of(combo)))
                    if row:
                        rows.add(tuple(sorted(row.items())))
    return [dict(r) for r in sorted(rows)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_four_t_matches_exhaustive_oracle(n):
    got, want = four_t_relations(n), four_t_relations_exhaustive(n)
    assert got == want
    assert all(type(v) is int for row in got for v in row.values())


def test_four_t_order2_collapses():
    assert four_t_relations(2) == []


def test_four_t_rank_and_dims():
    # dim(A_n over Q) for n = 2..5 is 2, 3, 6, 10
    dims = []
    for n in (2, 3, 4, 5):
        span = span_4t(n)
        dims.append(span.quotient_dim())
    assert dims == [2, 3, 6, 10]
    assert span_4t(3).rank == 2


def test_four_t_support_small():
    for rel in four_t_relations(3) + four_t_relations(4):
        assert 1 <= len(rel) <= 4


def test_split_span():
    assert [d.as_text() for d in split_diagram_span(2)] == ["1122"]
    assert [d.as_text() for d in split_diagram_span(1)] == ["11"]
    assert len(split_diagram_span(3)) == 3


def stu_expand_with_order(c: CCD, chooser) -> DiagramSum:
    """Well-definedness oracle: STU expansion in an arbitrary resolution
    order; `chooser(ccd, candidates)` picks an external vertex."""
    if c.is_chord_diagram():
        return DiagramSum([(c.to_chord_diagram(), 1)])
    candidates = [p for p in range(c.ext) if c.pairing()[("x", p)][0] == "v"]
    p = chooser(c, candidates)
    parallel, crossed = stu_resolutions(c, p)
    return (stu_expand_with_order(parallel, chooser)
            - stu_expand_with_order(crossed, chooser))


def test_stu_well_defined_mod_4t():
    rnd = random.Random(12)
    span = span_4t(3)

    def chooser(ccd, candidates):
        return rnd.choice(candidates)

    for c in enumerate_connected_ccds(3):
        if c.is_chord_diagram():
            continue
        for _ in range(3):
            alt = stu_expand_with_order(c, chooser)
            diff = stu_expand(c) - alt
            assert span.member(diff)


def _flip_vertex(c: CCD, v: int) -> CCD:
    """Reverse the cyclic order at internal vertex v (slots 1 and 2 swap)."""
    swap = {1: 2, 2: 1, 0: 0}
    table = []
    for i, slots in enumerate(c.vertices):
        row = []
        for s in range(3):
            src = swap[s] if i == v else s
            tgt = slots[src]
            if tgt[0] == "v" and tgt[1] == v:
                tgt = ("v", v, swap[tgt[2]])
            row.append(tgt)
        table.append(tuple(row))
    return CCD.build(c.ext, table, c.chord_pairs)


def test_antisymmetry_mod_4t():
    span = span_4t(3)
    checked = 0
    for c in enumerate_connected_ccds(3):
        if c.is_chord_diagram():
            continue
        flipped = _flip_vertex(c, 0)
        assert span.member(stu_expand(c) + stu_expand(flipped))
        checked += 1
    assert checked >= 5
    # on the 2-gon the flip negates the expansion on the nose
    assert (stu_expand(theta()) + stu_expand(_flip_vertex(theta(), 0))).is_zero()


def test_ihx_lands_in_4t_span():
    span = span_4t(3)
    checked = 0
    for c in enumerate_connected_ccds(3):
        for i, slots in enumerate(c.vertices):
            for s, tgt in enumerate(slots):
                if tgt[0] == "v" and tgt[1] != i:
                    combo = ihx_relation(c, (i, s))
                    assert span.member(expand_sum(combo))
                    checked += 1
    assert checked >= 20


def test_ihx_rejects_external_edge():
    c = from_chord_diagram(ChordDiagram.from_text("1212"))
    with pytest.raises((DiagramError, IndexError)):
        ihx_relation(c, (0, 0))
