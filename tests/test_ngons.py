from fractions import Fraction
from itertools import permutations

import pytest

from vassiliev.diagrams import CCD, ChordDiagram, DiagramSum
from vassiliev.errors import DiagramError
from vassiliev.ngons import (
    canonical_representative,
    complete_ngon,
    fuse_adjacent_legs,
    ngon_coefficients,
    ngon_representatives,
    one_branch_tree,
    reduce_tree_to_ngons,
    tree_ccd,
)
from vassiliev.relations import (ihx_pieces, quotient_spans, stu_expand,
                                 stu_resolutions)

from ccd_oracle import rigid_key
from ccds import add_chord_length_two, from_chord_diagram, is_connected_ccd


def relation_span(n):
    return quotient_spans(n)[1].copy()


def test_one_branch_tree_shapes():
    t2 = one_branch_tree([1, 2])
    assert t2.ext == 3 and len(t2.vertices) == 1
    t3 = one_branch_tree([2, 3, 1])
    assert t3.ext == 4 and len(t3.vertices) == 2
    assert is_connected_ccd(t3)
    for p in permutations((1, 2, 3)):
        assert is_connected_ccd(one_branch_tree(p))
    with pytest.raises(DiagramError):
        one_branch_tree([1, 1, 2])


def test_complete_ngon_shapes():
    g = complete_ngon([2, 3, 1])
    assert g.ext == 3 and len(g.vertices) == 3
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
            assert rigid_key(complete_ngon(p)) == rigid_key(complete_ngon(rep))
    # distinct representatives have distinct oriented diagrams
    for n in (3, 4, 5):
        keys = {rigid_key(complete_ngon(r)): r for r in ngon_representatives(n)}
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


def test_ngon_coefficients_rebuild_the_combination():
    combos = [DiagramSum([(complete_ngon(rep), 3)])
              for n in (3, 4, 5) for rep in ngon_representatives(n)]
    combos += [reduce_tree_to_ngons(p) for p in permutations(range(1, 5))]
    for combo in combos:
        read = ngon_coefficients(combo)
        assert len(read) == len(combo.terms)
        assert all(type(c) is int for _, c in read)
        assert DiagramSum([(complete_ngon(r), c) for r, c in read]) == combo
    assert ngon_coefficients(DiagramSum()) == []
    # the half coefficient is refused by the sum itself, the other two
    # terms by the reader
    for bad in ((complete_ngon((1, 2, 3)), Fraction(1, 2)),
                (one_branch_tree((2, 4, 1, 3)), 1),
                (ChordDiagram.from_text("1212"), 1)):
        with pytest.raises(DiagramError):
            ngon_coefficients(DiagramSum([bad]))


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
    split = from_chord_diagram(ChordDiagram.from_text("1122"))
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


TREE = tree_ccd((0, 2, 4, 1, 3))
GON = complete_ngon((1, 3, 2, 4))
TADPOLE = CCD.build(1, [(("x", 0), ("v", 0, 2), ("v", 0, 1))])


# Raw outputs, vertex numbering included: `reduce` traces print these ids.
@pytest.mark.parametrize("surgery, ccd, arg, expected", [
    (stu_resolutions, TREE, 1, [
        (6, ((("x", 0), ("x", 3), ("v", 1, 0)),
             (("v", 0, 2), ("x", 5), ("x", 1))), ((2, 4),)),
        (6, ((("x", 0), ("x", 3), ("v", 1, 0)),
             (("v", 0, 2), ("x", 5), ("x", 2))), ((1, 4),))]),
    (stu_resolutions, GON, 2, [
        (5, ((("x", 0), ("x", 2), ("v", 2, 1)),
             (("x", 1), ("v", 2, 2), ("x", 3)),
             (("x", 4), ("v", 0, 2), ("v", 1, 1))), ()),
        (5, ((("x", 0), ("x", 3), ("v", 2, 1)),
             (("x", 1), ("v", 2, 2), ("x", 2)),
             (("x", 4), ("v", 0, 2), ("v", 1, 1))), ())]),
    (stu_resolutions, TADPOLE, 0, [(2, (), ((0, 1),)), (2, (), ((0, 1),))]),
    (fuse_adjacent_legs, TREE, 1, [
        (4, ((("x", 0), ("v", 3, 1), ("v", 1, 0)),
             (("v", 0, 2), ("x", 3), ("v", 2, 0)),
             (("v", 1, 2), ("v", 3, 2), ("x", 2)),
             (("x", 1), ("v", 0, 1), ("v", 2, 1))), ()),
        (5, ((("x", 0), ("x", 1), ("v", 1, 0)),
             (("v", 0, 2), ("x", 4), ("v", 2, 0)),
             (("v", 1, 2), ("x", 2), ("x", 3))), ())]),
    (fuse_adjacent_legs, TREE, 4, [
        (4, ((("v", 3, 1), ("x", 1), ("v", 1, 0)),
             (("v", 0, 2), ("v", 3, 2), ("v", 2, 0)),
             (("v", 1, 2), ("x", 0), ("x", 2)),
             (("x", 3), ("v", 0, 0), ("v", 1, 1))), ()),
        (5, ((("x", 4), ("x", 2), ("v", 1, 0)),
             (("v", 0, 2), ("x", 0), ("v", 2, 0)),
             (("v", 1, 2), ("x", 1), ("x", 3))), ())]),
    (ihx_pieces, GON, (0, 1), [
        (4, ((("v", 1, 0), ("v", 3, 1), ("x", 0)),
             (("v", 0, 0), ("x", 2), ("v", 2, 2)),
             (("x", 1), ("v", 3, 2), ("v", 1, 2)),
             (("x", 3), ("v", 0, 1), ("v", 2, 1))), ()),
        (4, ((("v", 1, 0), ("v", 2, 2), ("v", 3, 1)),
             (("v", 0, 0), ("x", 0), ("x", 2)),
             (("x", 1), ("v", 3, 2), ("v", 0, 1)),
             (("x", 3), ("v", 0, 2), ("v", 2, 1))), ()),
        (4, ((("v", 1, 0), ("x", 2), ("v", 3, 1)),
             (("v", 0, 0), ("x", 0), ("v", 2, 2)),
             (("x", 1), ("v", 3, 2), ("v", 1, 2)),
             (("x", 3), ("v", 0, 2), ("v", 2, 1))), ())]),
    (add_chord_length_two, TREE, 0, [
        (7, ((("x", 1), ("x", 4), ("v", 1, 0)),
             (("v", 0, 2), ("x", 6), ("v", 2, 0)),
             (("v", 1, 2), ("x", 3), ("x", 5))), ((0, 2),))]),
    (add_chord_length_two, GON, 3, [
        (6, ((("x", 0), ("v", 1, 2), ("v", 3, 1)),
             (("x", 2), ("v", 2, 2), ("v", 0, 1)),
             (("x", 1), ("v", 3, 2), ("v", 1, 1)),
             (("x", 4), ("v", 0, 2), ("v", 2, 1))), ((3, 5),))]),
])
def test_surgery_outputs_pinned(surgery, ccd, arg, expected):
    out = surgery(ccd, arg)
    out = out if isinstance(out, tuple) else (out,)
    assert [(c.ext, c.vertices, c.chord_pairs) for c in out] == expected


@pytest.mark.parametrize("ccd, expected", [
    (TREE, ((5, ((("x", 0), ("x", 2), ("v", 1, 0)),
                 (("v", 0, 2), ("x", 3), ("v", 2, 0)),
                 (("v", 1, 2), ("x", 1), ("x", 4))), ()), 1, False)),
    (tree_ccd((0, 1, 2, 4, 3)),
     ((5, ((("x", 0), ("x", 1), ("v", 1, 0)),
           (("v", 0, 2), ("x", 2), ("v", 2, 0)),
           (("v", 1, 2), ("x", 3), ("x", 4))), ()), -1, False)),
    (GON, ((4, ((("x", 0), ("v", 1, 0), ("v", 2, 0)),
                (("v", 0, 1), ("x", 1), ("v", 3, 0)),
                (("v", 0, 2), ("x", 2), ("v", 3, 1)),
                (("v", 1, 2), ("v", 2, 2), ("x", 3))), ()), 1, False)),
    (fuse_adjacent_legs(TREE, 1)[0],
     ((4, ((("x", 0), ("v", 1, 0), ("v", 2, 0)),
           (("v", 0, 1), ("x", 1), ("v", 3, 0)),
           (("v", 0, 2), ("x", 3), ("v", 3, 1)),
           (("v", 1, 2), ("v", 2, 2), ("x", 2))), ()), 1, False)),
])
def test_canonical_forms_pinned(ccd, expected):
    canon, sign, null = ccd.canonical()
    assert ((canon.ext, canon.vertices, canon.chord_pairs), sign, null) == expected
