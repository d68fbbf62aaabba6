import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from vassiliev import diagrams, gausscodes
from vassiliev.errors import DiagramError
from vassiliev.gausscodes import (
    FIGURE_EIGHT,
    LEFT_TREFOIL,
    RIGHT_TREFOIL,
    GaussCode,
    Passage,
    _face_count,
    _first_r1,
    _first_r2,
    _least_read,
    _triangles,
    alexander_det,
    alexander_polynomial,
    connected_sum,
    reidemeister_three,
    simplify,
    simplify_budget,
    split_summands,
)
from vassiliev.ribbon import ribbon_gauss_code, ribbon_inverse_code

from alexander_oracle import alexander_by_interpolation, whole_code_det
from braids import random_closures, random_sums
from moves_oracle import reidemeister_one, reidemeister_two


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
    with pytest.raises(DiagramError):
        GaussCode.from_text("O1+,U1+,O1+")  # crossing seen three times


def test_simplify_budget_must_be_a_non_negative_int(monkeypatch):
    monkeypatch.setenv("VASSILIEV_SIMPLIFY_BUDGET", "0")
    assert simplify_budget() == 0
    for bad in ("-5", "abc"):
        monkeypatch.setenv("VASSILIEV_SIMPLIFY_BUDGET", bad)
        with pytest.raises(DiagramError):
            simplify_budget()


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


def _members_of_orders_2_to_7():
    return [ribbon_gauss_code(sigma)[0] for sigma in (
        (1, 2), (1, 2, 3), (1, 3, 2), (1, 2, 3, 4), (1, 2, 3, 4, 5),
        (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 7))]


def test_alexander_polynomial_equals_the_interpolation_oracle():
    # one determinant at t = 2^(2c+2) against c determinants interpolated
    codes = random_closures(7, 300, 14) + _members_of_orders_2_to_7()
    assert len(codes) == 307
    for code in codes:
        assert alexander_polynomial(code) == alexander_by_interpolation(
            code), code.to_text()


def _sums():
    member = ribbon_gauss_code((1, 2))[0]
    return random_sums(8) + [connected_sum(member, c)
                             for c in random_closures(8, 5, 12)]


def test_determinant_is_the_whole_code_determinant():
    granny = connected_sum(RIGHT_TREFOIL, RIGHT_TREFOIL)
    square = connected_sum(RIGHT_TREFOIL, LEFT_TREFOIL)
    assert alexander_det(granny) == whole_code_det(granny) == 9
    assert alexander_det(square) == whole_code_det(square) == 9
    for code in _sums():
        assert len(split_summands(code)) >= 2
        assert alexander_det(code) == whole_code_det(code), code.to_text()


def test_determinant_of_a_non_realizable_code_raises():
    virtual = GaussCode.from_text("O1+,U2+,U1+,O2+")
    with pytest.raises(DiagramError):
        alexander_det(virtual)
    with pytest.raises(DiagramError):
        alexander_det(connected_sum(RIGHT_TREFOIL, virtual))


def test_summand_table_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(gausscodes, "_PARTS", {})
    monkeypatch.setattr(diagrams, "_CANONICAL_MEMO_CAP", 5)
    sums = _sums()
    for code in sums:
        # a cleared table still gives the same determinant
        assert alexander_det(code) == whole_code_det(code)
        assert len(gausscodes._PARTS) <= 5


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


def _order_4_switches():
    members = [make((1,) + p)[0] for p in permutations((2, 3, 4))
               for make in (ribbon_gauss_code, ribbon_inverse_code)]
    return [code.switched({c}) for code in members for c in code.crossings]


def test_every_move_result_passes_the_public_checks():
    # moves build their results unchecked; each must be a valid code
    moved = 0
    for code in _move_corpus() + _order_4_switches():
        for result in [_first_r1(code), _first_r2(code), *reidemeister_one(code),
                       *reidemeister_two(code), *reidemeister_three(code)]:
            if result is not None:
                assert type(result.passages) is tuple
                assert GaussCode(result.passages) == result, code.to_text()
                moved += 1
    assert moved > 1000


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


@st.composite
def any_codes(draw, n=None):
    """A valid code on n (default 0-12) crossings: a random pairing of the
    positions, distinct labels, and a random over/under order and sign per
    crossing.  Kinks and codes that are not realizable come up too."""
    if n is None:
        n = draw(st.integers(0, 12))
    ends = draw(st.permutations(range(2 * n)))
    labels = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n,
                           unique=True))
    ps = [None] * (2 * n)
    for c, label in enumerate(labels):
        over = draw(st.booleans())
        sign = draw(st.sampled_from((1, -1)))
        ps[ends[2 * c]] = Passage(label, over, sign)
        ps[ends[2 * c + 1]] = Passage(label, not over, sign)
    return GaussCode(tuple(ps))


@settings(max_examples=300, deadline=None)
@given(any_codes(), st.data())
def test_canonical_key_is_the_least_relabelled_rotation(code, data):
    key = code.canonical_key()
    assert key == brute_force_key(code)
    ps = code.passages
    r = data.draw(st.integers(0, max(len(ps) - 1, 0)))
    ids = sorted({p.crossing for p in ps})
    rename = dict(zip(ids, data.draw(st.permutations(range(100, 100 + len(ids))))))
    moved = GaussCode(tuple(Passage(rename[p.crossing], p.over, p.sign)
                            for p in ps[r:] + ps[:r]))
    assert moved.canonical_key() == key


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_least_read_orders_as_the_canonical_key(data):
    # `simplify` orders and dedups its states by the read, not the key
    n = data.draw(st.integers(1, 12))
    a = data.draw(any_codes(n))
    c = data.draw(st.sampled_from(a.crossings))
    for b in (data.draw(any_codes(n)), a.switched({c})):
        ra, rb = _least_read(a.passages)[0], _least_read(b.passages)[0]
        ka, kb = a.canonical_key(), b.canonical_key()
        assert (ra < rb, ra == rb) == (ka < kb, ka == kb)
    read, r = _least_read(a.passages)
    ps = a.passages
    assert _least_read(ps[r:] + ps[:r]) == (read, 0)


def labelled_faces(code):
    """Oracle for `_face_steps`: the faces walked over edge ends named
    (crossing, kind), in the order of their first end, crossing by crossing
    in order of first passage and counterclockwise from o_out."""
    ps = code.passages
    m = len(ps)
    signs = {p.crossing: p.sign for p in ps}
    rot = {}
    for cid, sign in signs.items():
        kinds = ("o_out", "u_out", "o_in", "u_in") if sign > 0 else (
            "o_out", "u_in", "o_in", "u_out")
        for i, kind in enumerate(kinds):
            rot[cid, kind] = (cid, kinds[(i + 1) % 4])
    alpha = {}
    for i, p in enumerate(ps):
        q = ps[(i + 1) % m]
        a = (p.crossing, "o_out" if p.over else "u_out")
        b = (q.crossing, "o_in" if q.over else "u_in")
        alpha[a], alpha[b] = (b, i), (a, i)
    faces, seen = [], set()
    for start in rot:
        arcs, d = [], start
        while d not in seen:
            seen.add(d)
            d, arc = alpha[d]
            arcs.append(arc)
            d = rot[d]
        if arcs:
            faces.append(arcs)
    return faces


def labelled_r3(code):
    """Oracle for `reidemeister_three`: the passages of each R3 move, from
    the triangles among `labelled_faces`."""
    ps = code.passages
    m = len(ps)
    out = []
    for arcs in labelled_faces(code):
        if len(arcs) != 3 or len(set(arcs)) != 3:
            continue
        ends = [(i, (i + 1) % m) for i in sorted(arcs)]
        if len({x for end in ends for x in end}) != 6:
            continue
        if not any(ps[i].over == ps[j].over for i, j in ends):
            continue
        new = list(ps)
        for i, j in ends:
            new[i], new[j] = new[j], new[i]
        out.append(tuple(new))
    return out


def _assert_faces_match(code):
    faces = labelled_faces(code)
    assert _face_count(code) == len(faces)
    assert _triangles(code) == [tuple(f) for f in faces if len(f) == 3]
    assert [c.passages for c in reidemeister_three(code)] == labelled_r3(code)


@settings(max_examples=200, deadline=None)
@given(any_codes())
def test_faces_match_the_labelled_walk(code):
    _assert_faces_match(code)


def test_faces_match_the_labelled_walk_on_the_move_corpus():
    for code in _move_corpus():
        _assert_faces_match(code)


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


# the twelve knot_switches bench candidates: (sigma, first clasp mirrored,
# crossings switched)
SWITCH_CANDIDATES = [
    ((1, 2), False, (2,)), ((1, 2, 3), False, (6, 9)),
    ((1, 2, 3), True, (10,)), ((1, 3, 2), True, (12, 18)),
    ((1, 3, 2), True, (11,)), ((1, 3, 2), False, (18,)),
    ((1, 2, 3), False, (1, 5, 11)), ((1, 2, 3), True, (17,)),
    ((1, 3, 2), False, (9, 13)), ((1, 3, 2), True, (15,)),
    ((1, 3, 2), False, (1, 5, 10)), ((1, 2, 3), False, (1, 11)),
]


def _pinned_codes(budget):
    """Members (1,2), (1,2,3), (1,3,2) and their inverses, every single
    switch of each, and the bench candidates.  At the default budget the
    single switches of (1,3,2) are left out: their searches take seconds."""
    codes = []
    for sigma in ((1, 2), (1, 2, 3), (1, 3, 2)):
        for mirrored in (False, True):
            member = ribbon_gauss_code(sigma, mirrored_first_clasp=mirrored)[0]
            codes.append(member)
            if budget is not None or sigma != (1, 3, 2):
                codes += [member.switched({c}) for c in member.crossings]
    return codes + [
        ribbon_gauss_code(sigma, mirrored_first_clasp=mirrored)[0].switched(ids)
        for sigma, mirrored, ids in SWITCH_CANDIDATES]


@pytest.mark.parametrize("budget, count, digest", [
    pytest.param(None, 78, "2010d6de339965f0d3f3950b8a750113"
                 "a1b14591f691f43dc041d77b84400b1a", id="default-budget"),
    pytest.param(400, 120, "23d7bbb50a52aef846e767d8edac9588"
                 "d64a56eee682e48d1932249948a7b7be", id="budget-400"),
])
def test_simplify_outputs_pinned(monkeypatch, budget, count, digest):
    # sha256 of the outputs, one a line, taken before the R3 search was sped up
    monkeypatch.delenv("VASSILIEV_SIMPLIFY_BUDGET", raising=False)
    codes = _pinned_codes(budget)
    assert len(codes) == count
    text = "".join(simplify(c, budget=budget).to_text() + "\n" for c in codes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_simplify_keys_each_met_state_once(monkeypatch):
    # exact repeats, most often the move back to the parent, skip the key:
    # the search keyed 621 states before they were skipped
    monkeypatch.delenv("VASSILIEV_SIMPLIFY_BUDGET", raising=False)
    calls = []
    read = gausscodes._least_read
    monkeypatch.setattr(gausscodes, "_least_read",
                        lambda ps: calls.append(1) or read(ps))
    code = ribbon_gauss_code((1, 3, 2))[0].switched({1, 5, 10})
    assert len(simplify(code)) == 13
    assert len(calls) <= 150
