from itertools import permutations

import pytest

from vassiliev.diagrams import CCD, is_connected_ccd
from vassiliev.errors import DiagramError
from vassiliev.ngons import (
    add_chord_length_two,
    canonical_representative,
    complete_ngon,
    fuse_adjacent_legs,
    ngon_representatives,
    one_branch_tree,
    reduce_tree_to_ngons,
    tree_ccd,
)
from vassiliev.relations import quotient_spans, stu_expand


def relation_span(n):
    return quotient_spans(n)[1].copy()


def test_one_branch_tree_shapes():
    t2 = one_branch_tree([1, 2])
    assert t2.ext == 3 and t2.internal_count == 1
    t3 = one_branch_tree([2, 3, 1])
    assert t3.ext == 4 and t3.internal_count == 2
    assert is_connected_ccd(t3)
    for p in permutations((1, 2, 3)):
        assert is_connected_ccd(one_branch_tree(p))
    with pytest.raises(DiagramError):
        one_branch_tree([1, 1, 2])


def test_complete_ngon_shapes():
    g = complete_ngon([2, 3, 1])
    assert g.ext == 3 and g.internal_count == 3
    assert is_connected_ccd(g)


def test_fuse_identity_is_inverse_stu():
    # the fused diagram must STU-resolve back to (diagram - swapped)
    span = relation_span(3)
    t = tree_ccd((0, 2, 1, 3))
    fused, swapped = fuse_adjacent_legs(t, 1)
    lhs = stu_expand(t)
    rhs = stu_expand(fused) + stu_expand(swapped)
    assert span.member(lhs - rhs)


def test_canonical_representative_fibers():
    # the representative map is constant on fibers and idempotent
    for n in (3, 4):
        for p in permutations(range(1, n + 1)):
            rep = canonical_representative(p)
            assert rep[0] == 1
            assert canonical_representative(rep) == rep
            # same complete n-gon as an oriented diagram
            assert complete_ngon(p).rigid_key() == complete_ngon(rep).rigid_key()
    # distinct representatives have distinct oriented diagrams
    for n in (3, 4, 5):
        keys = {complete_ngon(r).rigid_key(): r for r in ngon_representatives(n)}
        assert len(keys) == len(ngon_representatives(n))


def test_representative_counts():
    assert len(ngon_representatives(2)) == 1
    assert len(ngon_representatives(3)) == 2
    assert len(ngon_representatives(4)) == 3
    assert len(ngon_representatives(5)) == 8


def test_gon_classes_match_bound_sequence():
    # after antisymmetry the distinct n-gon classes realise the counting
    # bound: 1, 2, 4 for n = 3, 4, 5
    from vassiliev.bounds import xtilde_count
    for n in (3, 4, 5):
        keys = {complete_ngon(r).key() for r in ngon_representatives(n)}
        assert len(keys) == xtilde_count(n)


def test_reduction_full_s3_s4():
    for n in (3, 4):
        span = relation_span(n)
        for p in permutations(range(1, n + 1)):
            combo = reduce_tree_to_ngons(p)
            target = stu_expand(one_branch_tree(p))
            for g, c in combo.terms.items():
                assert c.denominator == 1  # integral combination
                target = target - stu_expand(g).scaled(c)
            assert span.member(target)


def test_reduction_rejects_small_orders():
    with pytest.raises(DiagramError):
        reduce_tree_to_ngons([1, 2])


def test_reduction_trace_records_moves():
    trace = []
    reduce_tree_to_ngons((2, 3, 1), trace=trace)
    assert trace, "expected at least one rewrite step"
    rules = {step["rule"] for step in trace}
    assert rules <= {"STU", "IHX", "AS"}
    for step in trace:
        assert {"rule", "location", "sign", "resulting-terms"} <= set(step)


def test_ngon_spans_order_basis():
    # complete n-gons + split diagrams + 4T exhaust the order-n basis
    for n in (3, 4, 5):
        span = relation_span(n)
        for rep in ngon_representatives(n):
            span.add(stu_expand(complete_ngon(rep)))
        assert span.rank == len(span.basis)


def test_tree_diagrams_span_order_basis():
    # split diagrams + one-branch trees also exhaust the basis
    for n in (3, 4, 5):
        span = relation_span(n)
        for p in permutations(range(1, n + 1)):
            span.add(stu_expand(one_branch_tree(p)))
            if span.rank == len(span.basis):
                break
        assert span.rank == len(span.basis)


def test_add_chord_length_two_shape():
    g = complete_ngon([1, 2, 3])
    bigger = add_chord_length_two(g, 1)
    assert bigger.order == g.order + 1
    assert bigger.ext == g.ext + 2
    assert len(bigger.chord_pairs) == len(g.chord_pairs) + 1
    split = CCD.from_chord_diagram(
        __import__("vassiliev.diagrams", fromlist=["ChordDiagram"])
        .ChordDiagram.from_text("1122"))
    with pytest.raises(DiagramError):
        add_chord_length_two(split, 0)


def test_add_chord_placement_independence_order3():
    # inserting the short chord at different positions agrees modulo
    # 4T + split at the next order
    span4 = relation_span(4)
    g = complete_ngon([1, 2, 3])
    images = [stu_expand(add_chord_length_two(g, pos)) for pos in range(g.ext)]
    for other in images[1:]:
        assert span4.member(images[0] - other)
