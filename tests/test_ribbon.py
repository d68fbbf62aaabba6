import random
from fractions import Fraction

import pytest

from vassiliev.diagrams import ChordDiagram, DiagramSum
from vassiliev.errors import DiagramError
from vassiliev.gausscodes import connected_sum, simplify
from vassiliev.invariants import _v3_arrows, invariant_a2, invariant_v3
from vassiliev.ngons import complete_ngon
from vassiliev.relations import quotient_spans, stu_expand
from vassiliev.ribbon import (
    FormalKnot,
    all_switchings_trivial,
    formal_vn_inverse,
    ohyama_diagrams,
    realize_weights,
    ribbon_gauss_code,
    ribbon_inverse_code,
    verify_ohyama_identity,
)

from ribbon_oracle import code_scheme_diagrams, scheme_from_json, sign_of
from skein_oracle import a2_skein


def dual_weight(n, anchor):
    (w,) = quotient_spans(n)[1].dual_basis()
    return w.normalized_at(ChordDiagram.from_text(anchor))


def test_code_wellformed_and_planar():
    for sigma in ((1, 2), (1, 2, 3), (1, 3, 2), (1, 2, 3, 4)):
        code, scheme = ribbon_gauss_code(sigma)
        assert code.is_realizable()
        assert len(scheme.sets) == len(sigma)
        ids = scheme.all_ids()
        assert len(ids) == 2 * len(sigma)


def test_requires_canonical_sigma():
    with pytest.raises(DiagramError):
        ribbon_gauss_code((2, 1))


def test_scheme_serialisation():
    _, scheme = ribbon_gauss_code((1, 2))
    again = scheme_from_json(scheme.to_json())
    assert again == scheme


def test_ohyama_diagram_family_shape():
    diags = ohyama_diagrams((1, 2))
    assert [s for s, _ in diags] == [1, -1, -1, 1]
    assert all(d.n == 2 for _, d in diags)
    diags3 = ohyama_diagrams((1, 2, 3))
    assert len(diags3) == 8
    assert diags3[0][0] == 1  # the all-first-choices term is positive
    assert all(d.n == 3 for _, d in diags3)


def test_code_diagrams_match_formula():
    for sigma in ((1, 2), (1, 2, 3), (1, 3, 2)):
        code, scheme = ribbon_gauss_code(sigma)
        formula = sorted((s, d.as_text()) for s, d in ohyama_diagrams(sigma))
        from_code = sorted((s, d.as_text())
                           for s, d in code_scheme_diagrams(code, scheme))
        assert formula == from_code


def test_identity_small_orders():
    assert verify_ohyama_identity((1, 2))
    assert verify_ohyama_identity((1, 2, 3))
    assert verify_ohyama_identity((1, 3, 2))


def test_two_gon_value():
    # a2 of the order-2 member equals the a2 weight of the expanded 2-gon
    code, _ = ribbon_gauss_code((1, 2))
    w = dual_weight(2, "1212")
    assert invariant_a2(code) == w(stu_expand(complete_ngon((1, 2)))) == -2


def test_order3_members_have_trivial_a2_and_matching_v3():
    w3 = dual_weight(3, "123123")
    for sigma in ((1, 2, 3), (1, 3, 2)):
        code, _ = ribbon_gauss_code(sigma)
        assert invariant_a2(code) == 0
        assert invariant_v3(code) == w3(stu_expand(complete_ngon(sigma)))


def test_v3_vanishes_on_members_of_orders_4_and_5():
    # a member's invariants below its own order vanish, its inverse's too
    for sigma in ((1, 2, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3),
                  (1, 2, 3, 4, 5), (1, 3, 5, 2, 4)):
        for make in (ribbon_gauss_code, ribbon_inverse_code):
            assert invariant_v3(make(sigma)[0]) == 0, (sigma, make.__name__)


def test_v3_on_every_single_switch_of_an_order_4_member():
    # no crossing cap: the formula on each simplified summand agrees with
    # the formula on the raw code, a Reidemeister-invariance check
    code, _ = ribbon_gauss_code((1, 3, 2, 4))
    switched = [code.switched({c}) for c in code.crossings]
    assert len(switched) == 27
    for s in switched:
        assert invariant_v3(s) == _v3_arrows(s), s.to_text()


def test_inverse_negates_values():
    base, _ = ribbon_gauss_code((1, 2))
    inv, _ = ribbon_inverse_code((1, 2))
    assert a2_skein(inv) == -a2_skein(base)
    for sigma in ((1, 2, 3), (1, 3, 2)):
        k, _ = ribbon_gauss_code(sigma)
        ki, _ = ribbon_inverse_code(sigma)
        assert invariant_v3(ki) == -invariant_v3(k)
        assert invariant_a2(ki) == 0


def test_triviality_orbits():
    for sigma in ((1, 2), (1, 2, 3), (1, 3, 2)):
        for maker in (ribbon_gauss_code, ribbon_inverse_code):
            code, scheme = maker(sigma)
            assert all_switchings_trivial(code, scheme)


def test_triviality_sampled_order4():
    # sampled switchings at order 4; the determinant fallback must never
    # report a nontrivial knot even where the move search is inconclusive
    from vassiliev.gausscodes import alexander_det
    rnd = random.Random(20)
    code, scheme = ribbon_gauss_code((1, 2, 4, 3))
    n = len(scheme.sets)
    picks = {(0,), (3,), (1, 2), (0, 1, 2, 3)}
    while len(picks) < 7:
        size = rnd.randint(1, n)
        picks.add(tuple(sorted(rnd.sample(range(n), size))))
    for sel in sorted(picks):
        switched = code.switched(scheme.all_ids(sel))
        reduced = simplify(switched)
        if reduced.passages:
            assert alexander_det(reduced) == 1, sel  # inconclusive, not refuted
        else:
            assert not reduced.passages


def test_additivity_under_connected_sum():
    rnd = random.Random(7)
    library = []
    for sigma in ((1, 2), (1, 2, 3), (1, 3, 2)):
        library.append(ribbon_gauss_code(sigma)[0])
        library.append(ribbon_inverse_code(sigma)[0])
    for _ in range(100):
        a, b = rnd.choice(library), rnd.choice(library)
        s = connected_sum(a, b)
        assert invariant_a2(s) == invariant_a2(a) + invariant_a2(b)
        assert invariant_v3(s) == invariant_v3(a) + invariant_v3(b)


def test_realize_weights_and_formal_inverse():
    # the two order-3 gons are antisymmetry-negatives of each other, so
    # the formal sum merges them; the weight profile must be preserved
    combo = DiagramSum()
    combo.add(complete_ngon((1, 2, 3)), 2)
    combo.add(complete_ngon((1, 3, 2)), -1)
    k = realize_weights(combo)
    w3 = dual_weight(3, "123123")
    expected = (2 * w3(stu_expand(complete_ngon((1, 2, 3))))
                - w3(stu_expand(complete_ngon((1, 3, 2)))))
    assert k.order_profile(w3) == expected
    inv = formal_vn_inverse(k, 3)
    assert inv.order_profile(w3) == -expected
    assert realize_weights(DiagramSum()) == FormalKnot(())
    single = DiagramSum()
    single.add(complete_ngon((1, 2, 3)), -3)
    assert realize_weights(single).factors == (((1, 2, 3), -1, 3),)
    with pytest.raises(DiagramError):
        bad = DiagramSum()
        bad.add(complete_ngon((1, 2, 3)), Fraction(1, 2))
        realize_weights(bad)


def test_formal_inverse_matches_code_invariants():
    # realize a single order-2 generator and check the actual codes cancel
    k = FormalKnot.from_factors([((1, 2), 1, 1)])
    inv = formal_vn_inverse(k, 2)
    code = connected_sum(k.as_code(), inv.as_code())
    assert invariant_a2(code) == 0
    k3 = FormalKnot.from_factors([((1, 2, 3), 1, 1)])
    inv3 = formal_vn_inverse(k3, 3)
    code3 = connected_sum(k3.as_code(), inv3.as_code())
    assert invariant_v3(code3) == 0 and invariant_a2(code3) == 0


def test_scheme_pairs_are_signed_clasps():
    for sigma in ((1, 2), (1, 2, 3)):
        code, scheme = ribbon_gauss_code(sigma)
        for c1, c2 in scheme.sets:
            assert sign_of(code, c1) == 1
            assert sign_of(code, c2) == -1
