from itertools import permutations

import pytest

from vassiliev.errors import DiagramError
from vassiliev.gausscodes import (
    FIGURE_EIGHT,
    LEFT_TREFOIL,
    RIGHT_TREFOIL,
    GaussCode,
    Passage,
    _first_r1,
    _first_r2,
    alexander_det,
    alexander_polynomial,
    connected_sum,
    reidemeister_one,
    reidemeister_three,
    reidemeister_two,
    simplify,
)
from vassiliev.ribbon import ribbon_gauss_code, ribbon_inverse_code


def test_parse_and_format_roundtrip():
    text = "O1+,U2+,O3+,U1+,O2+,U3+"
    code = GaussCode.from_text(text)
    assert code.to_text() == text
    assert len(code) == 3
    assert GaussCode.from_text("").to_text() == ""


def test_wellformedness_enforced():
    with pytest.raises(DiagramError):
        GaussCode.from_text("O1+,O1+")  # two overs
    with pytest.raises(DiagramError):
        GaussCode.from_text("O1+,U1-")  # inconsistent sign
    with pytest.raises(DiagramError):
        GaussCode.from_text("O1+,U2+,O2+")  # crossing seen once


def test_realizability():
    assert RIGHT_TREFOIL.is_realizable()
    assert FIGURE_EIGHT.is_realizable()
    virtual = GaussCode.from_text("O1+,U2+,U1+,O2+")
    assert virtual.genus() == 1
    assert not virtual.is_realizable()


def test_determinants():
    assert alexander_det(RIGHT_TREFOIL) == 3
    assert alexander_det(LEFT_TREFOIL) == 3
    assert alexander_det(FIGURE_EIGHT) == 5
    assert alexander_det(GaussCode.from_text("")) == 1
    assert alexander_det(GaussCode.from_text("O1+,U1+")) == 1
    sq = connected_sum(RIGHT_TREFOIL, LEFT_TREFOIL)
    assert alexander_det(sq) == 9


def test_alexander_polynomial_goldens():
    granny = connected_sum(RIGHT_TREFOIL, RIGHT_TREFOIL)
    for code, delta in [(RIGHT_TREFOIL, (1, -1, 1)),
                        (LEFT_TREFOIL, (1, -1, 1)),
                        (FIGURE_EIGHT, (-1, 3, -1)),
                        (granny, (1, -2, 3, -2, 1)),
                        (GaussCode.from_text(""), (1,)),
                        (GaussCode.from_text("O1+,U1+"), (1,))]:
        assert alexander_polynomial(code) == delta
        assert alexander_det(code) == abs(sum(
            c * (-1) ** k for k, c in enumerate(delta)))
    with pytest.raises(DiagramError):
        alexander_polynomial(GaussCode.from_text("O1+,U2+,U1+,O2+"))


def test_r1_removes_kinks():
    kink = GaussCode.from_text("O1+,U1+")
    assert reidemeister_one(kink)
    assert simplify(kink).to_text() == ""


def test_r2_pattern():
    # push one strand over another and cancel it again
    code = GaussCode.from_text("O1+,O2-,U2-,U1+")
    assert code.is_realizable()
    assert reidemeister_two(code)
    assert simplify(code).to_text() == ""


def _move_corpus():
    """Goldens, ribbon members and inverses, and every single switch of each."""
    codes = [RIGHT_TREFOIL, LEFT_TREFOIL, FIGURE_EIGHT, GaussCode(()),
             GaussCode.from_text("O1+,U1+"),
             GaussCode.from_text("U4-,O1+,U2+,O3+,U1+,O2+,U3+,O4-"),
             connected_sum(FIGURE_EIGHT, GaussCode.from_text("O1+,U1+")),
             GaussCode.from_text("O1+,O2-,U2-,U1+"),
             connected_sum(RIGHT_TREFOIL, FIGURE_EIGHT)]
    codes += [make(sigma)[0] for sigma in ((1, 2), (1, 2, 3), (1, 3, 2))
              for make in (ribbon_gauss_code, ribbon_inverse_code)]
    return codes + [code.switched({c}) for code in codes
                    for c in code.crossings]


def _assert_first_of_all(first, every):
    moved = 0
    for code in _move_corpus():
        moves = every(code)
        assert first(code) == (moves[0] if moves else None), code.to_text()
        moved += bool(moves)
    assert moved > 0


def test_first_r1_is_the_first_of_all_r1_moves():
    _assert_first_of_all(_first_r1, reidemeister_one)


def test_first_r2_is_the_first_of_all_r2_moves():
    _assert_first_of_all(_first_r2, reidemeister_two)


def test_r3_preserves_knot():
    for t in reidemeister_three(FIGURE_EIGHT):
        assert t.is_realizable()
        assert alexander_det(t) == 5


def test_simplify_certifies_unknots():
    for base in (RIGHT_TREFOIL, FIGURE_EIGHT):
        for c in base.crossings:
            assert not simplify(base.switched({c})).passages


def test_simplify_keeps_knotted_codes():
    out = simplify(RIGHT_TREFOIL)
    assert len(out) == 3
    assert alexander_det(out) == 3


def test_switch_flips_over_and_sign():
    code = RIGHT_TREFOIL.switched({1})
    p = [p for p in code.passages if p.crossing == 1]
    assert {x.over for x in p} == {True, False}
    assert all(x.sign == -1 for x in p)
    assert code.switched({1}).to_text() == RIGHT_TREFOIL.to_text()


def test_connected_sum_identity():
    empty = GaussCode.from_text("")
    assert connected_sum(RIGHT_TREFOIL, empty).to_text() == RIGHT_TREFOIL.to_text()
    assert connected_sum(empty, RIGHT_TREFOIL).to_text() == RIGHT_TREFOIL.to_text()
    s = connected_sum(RIGHT_TREFOIL, FIGURE_EIGHT)
    assert len(s) == 7
    assert s.is_realizable()


def brute_force_key(code):
    """Oracle for `canonical_key`: every rotation relabelled in full."""
    ps = code.passages
    m = len(ps)
    keys = []
    for r in range(m):
        rel = {}
        keys.append(tuple((rel.setdefault(p.crossing, len(rel) + 1),
                           p.over, p.sign)
                          for p in ps[r:] + ps[:r]))
    return min(keys, default=())


def test_canonical_key_rotation_invariant():
    ribbon = [make(sigma)[0] for n in (2, 3, 4)
              for sigma in ((1,) + p for p in permutations(range(2, n + 1)))
              for make in (ribbon_gauss_code, ribbon_inverse_code)]
    cases = [(code, range(0, 2 * len(code), 3))
             for code in [RIGHT_TREFOIL, FIGURE_EIGHT, GaussCode.from_text("")]
             + ribbon]
    # every single switch too, at one rotation each to keep the test fast
    cases += [(code.switched({c}), [c]) for code in ribbon
              for c in code.crossings]
    for code, rotations in cases:
        ps = code.passages
        ids = sorted({p.crossing for p in ps})
        rename = dict(zip(ids, reversed(ids)))
        for r in rotations:
            moved = GaussCode(tuple(Passage(rename[p.crossing], p.over, p.sign)
                                    for p in ps[r:] + ps[:r]))
            assert moved.canonical_key() == brute_force_key(moved)
            assert moved.canonical_key() == code.canonical_key()


@pytest.mark.parametrize("code, genus, r3", [
    pytest.param(RIGHT_TREFOIL, 0, 0, id="right-trefoil"),
    pytest.param(FIGURE_EIGHT, 0, 0, id="figure-eight"),
    pytest.param(GaussCode.from_text("O1-,O2-,U1-,U2-"), 1, 0, id="virtual-2"),
    pytest.param(GaussCode.from_text("O1+,U2-,O3+,U1+,O2-,U3+"), 1, 0,
                 id="virtual-3"),
    pytest.param(ribbon_gauss_code((1, 2))[0], 0, 2, id="ribbon-12"),
    pytest.param(ribbon_inverse_code((1, 2))[0], 0, 3, id="inverse-12"),
    pytest.param(ribbon_gauss_code((1, 2, 3))[0], 0, 3, id="ribbon-123"),
    pytest.param(ribbon_gauss_code((1, 3, 2))[0], 0, 7, id="ribbon-132"),
])
def test_rotation_faces_pinned(code, genus, r3):
    # genus and the R3 move count both read the one rotation system
    assert code.genus() == genus
    assert len(reidemeister_three(code)) == r3
