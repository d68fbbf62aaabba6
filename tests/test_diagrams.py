import copy
import dataclasses
import functools
import pickle
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from vassiliev import diagrams, relations
from vassiliev.diagrams import (
    CCD,
    ChordDiagram,
    DiagramSum,
    _least_rotation,
    _matchings,
    _word_from_matching,
    enumerate_chord_diagrams,
    is_split,
)
from vassiliev.errors import DiagramError, ResourceGuardError
from vassiliev.ngons import complete_ngon, one_branch_tree, reduce_tree_to_ngons
from vassiliev.relations import stu_expand

from ccd_oracle import exhaustive_canonical, rigid_key, traversal
from ccds import (ccd_json, enumerate_connected_ccds, from_chord_diagram,
                  from_pairing, is_connected_ccd, sample_connected_ccds)
from chord_oracle import count_chord_diagrams_burnside, enumerate_via_from_word
from sequences import least_sequence


def test_canonical_examples():
    assert ChordDiagram.from_text("1122").as_text() == "1122"
    assert ChordDiagram.from_text("2121").as_text() == "1212"
    assert (ChordDiagram.from_text("122133").word
            == ChordDiagram.from_text("221331").word)


@st.composite
def periodic_sequences(draw):
    """Short int sequences made of a repeated block, so rotations tie."""
    block = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    return tuple(block * draw(st.integers(1, 3)))


@given(periodic_sequences())
def test_least_sequence_matches_brute_force_min(seq):
    rotations = [seq[r:] + seq[:r] for r in range(len(seq))]
    best, winners = least_sequence(range(len(seq)),
                                   lambda r: iter(rotations[r]))
    assert best == min(rotations)
    assert winners == [r for r in range(len(seq)) if rotations[r] == best]


def test_least_sequence_stops_at_the_first_larger_symbol():
    def symbols(s):
        yield s
        if s:
            raise AssertionError("a losing candidate was read on")
        yield 0

    assert least_sequence([0, 1], symbols) == ((0, 0), [0])


def _relabel_first_occurrence(seq):
    seen = {}
    out = []
    for s in seq:
        if s not in seen:
            seen[s] = len(seen) + 1
        out.append(seen[s])
    return tuple(out)


def least_relabelled_rotation(word):
    return min(_relabel_first_occurrence(word[i:] + word[:i])
               for i in range(len(word)))


def permuted_words(max_n):
    """Every matching's word with its labels as built, reversed and
    shuffled, so most are far from first-occurrence order."""
    rnd = random.Random(7)
    for n in range(1, max_n + 1):
        for m in _matchings(list(range(2 * n))):
            word = _word_from_matching(m, 2 * n)
            labels = list(range(1, n + 1))
            rnd.shuffle(labels)
            yield word
            yield tuple(n + 1 - s for s in word)
            yield tuple(labels[s - 1] for s in word)


def test_canonical_word_is_the_least_relabelled_rotation():
    for word in permuted_words(5):
        diagrams._CANONICAL_MEMO.clear()
        canonical = ChordDiagram.from_word(word).word
        assert canonical == least_relabelled_rotation(word)
        # the memo now holds the orbit; a rotation of the word hits it
        assert ChordDiagram.from_word(word[1:] + word[:1]).word == canonical


def test_canonical_memo_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(diagrams, "_CANONICAL_MEMO", {})
    monkeypatch.setattr(diagrams, "_CANONICAL_MEMO_CAP", 25)
    for word in permuted_words(5):
        assert (ChordDiagram.from_word(word).word
                == least_relabelled_rotation(word))
        assert len(diagrams._CANONICAL_MEMO) <= 25


def test_malformed_words_rejected():
    with pytest.raises(DiagramError):
        ChordDiagram.from_text("1123")
    with pytest.raises(DiagramError):
        ChordDiagram.from_text("112")


@st.composite
def random_words(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    word = [lab for lab in range(1, n + 1) for _ in range(2)]
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(word)
    return tuple(word)


@settings(max_examples=150, deadline=None)
@given(random_words(), st.integers(min_value=0, max_value=9))
def test_canonical_form_invariance(word, rot):
    d = ChordDiagram.from_word(word)
    assert ChordDiagram.from_word(d.word) == d  # idempotent
    r = rot % len(word)
    rotated = ChordDiagram.from_word(word[r:] + word[:r])
    assert rotated == d


def test_enumeration_counts():
    # 1, 2, 5, 18, 105 diagrams for n = 1..5 (matchings modulo rotation)
    sizes = [len(enumerate_chord_diagrams(n)) for n in range(1, 6)]
    assert sizes == [1, 2, 5, 18, 105]
    for n in range(1, 6):
        assert count_chord_diagrams_burnside(n) == sizes[n - 1]
    with pytest.raises(ResourceGuardError):
        enumerate_chord_diagrams(8)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_both_oracles(n):
    got = enumerate_chord_diagrams(n)
    words = [d.word for d in got]
    assert words == sorted(set(words))
    assert set(got) == enumerate_via_from_word(n)
    assert len(got) == count_chord_diagrams_burnside(n)


def test_enumerated_words_are_least_rotations(monkeypatch):
    monkeypatch.setattr(diagrams, "_CANONICAL_MEMO", {})
    for n in range(1, 7):
        for d in enumerate_chord_diagrams(n):
            assert _least_rotation(d.word) == d.word
            assert least_relabelled_rotation(d.word) == d.word


def test_is_split_basics():
    assert is_split(ChordDiagram.from_text("1122"))
    assert not is_split(ChordDiagram.from_text("1212"))
    assert is_split(ChordDiagram.from_text("112233"))
    assert is_split(ChordDiagram.from_text("11"))  # order-1 convention
    # of the five order-3 diagrams only the three with an isolated chord
    # are split; "123123" and the chain "121323" are not separable
    split3 = [d for d in enumerate_chord_diagrams(3) if is_split(d)]
    assert len(split3) == 3
    assert not is_split(ChordDiagram.from_text("121323"))


def _naive_is_split(d):
    if d.n == 1:
        return True
    size = 2 * d.n
    ch = d.chords()
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            arc = {(i + k) % size for k in range((j - i) % size)}
            if not arc or len(arc) == size:
                continue
            if all((a in arc) == (b in arc) for a, b in ch):
                has_in = any(a in arc for a, _ in ch)
                has_out = any(a not in arc for a, _ in ch)
                if has_in and has_out:
                    return True
    return False


@settings(max_examples=100, deadline=None)
@given(random_words())
def test_is_split_matches_naive_scan(word):
    d = ChordDiagram.from_word(word)
    assert is_split(d) == _naive_is_split(d)


def _theta_ccd():
    # two internal vertices joined by a double edge, one pendant each
    verts = [
        (("x", 0), ("v", 1, 2), ("v", 1, 1)),
        (("x", 1), ("v", 0, 2), ("v", 0, 1)),
    ]
    return CCD.build(2, verts)


def test_ccd_canonical_idempotent_and_signs():
    c = _theta_ccd()
    canon, sign = c.canonical()[:2]
    canon2, sign2 = canon.canonical()[:2]
    assert canon2 == canon and sign2 == 1
    # flipping one vertex orientation flips the sign
    flipped = CCD.build(2, [
        (("x", 0), ("v", 1, 1), ("v", 1, 2)),
        (("x", 1), ("v", 0, 1), ("v", 0, 2)),
    ])
    # flipping both vertices gives sign (+1) relative to itself
    canon3, sign3 = flipped.canonical()[:2]
    assert canon3 == canon
    assert sign3 == 1


@pytest.mark.parametrize("ccd", [
    CCD.build(4, (), [(0, 2), (1, 3)]),
    CCD.build(5, [(("x", 0), ("x", 2), ("x", 1))], [(4, 3)]),
])
def test_ccd_replace_copy_pickle_keep_chords(ccd):
    for clone in (dataclasses.replace(ccd), copy.copy(ccd),
                  copy.deepcopy(ccd), pickle.loads(pickle.dumps(ccd))):
        assert clone.chord_pairs == ccd.chord_pairs
        assert clone == ccd and hash(clone) == hash(ccd)
        assert clone.key() == ccd.key()


@pytest.mark.parametrize("ext, vertices, chords", [
    (4, (), [(0, 1)]),
    (2, (), [(0, 0), (1, 1)]),
    (4, (), [(0, 1, 2), (3,)]),
    (5, [(("x", 0), ("x", 2), ("x", 1))], [(0, 3)]),
])
def test_ccd_rejects_chords_that_miss_the_free_ends(ext, vertices, chords):
    with pytest.raises(DiagramError):
        CCD.build(ext, vertices, chords)


def test_ccd_roundtrip_random_rotations():
    rnd = random.Random(7)
    for n in (3, 4):
        for d in enumerate_chord_diagrams(n):
            r = rnd.randrange(2 * n)
            labels = rnd.sample(range(1, n + 1), n)
            word = [labels[w - 1] for w in d.word[r:] + d.word[:r]]
            chords = [tuple(p for p, w in enumerate(word) if w == lab)
                      for lab in range(1, n + 1)]
            canon, sign, null = CCD.build(2 * n, (), chords).canonical()
            assert sign == 1 and not null
            assert canon == from_chord_diagram(d).canonical()[0]
            assert canon.to_chord_diagram() == d


def _scrambled(c, rnd):
    """c rotated, its vertices renumbered, their slots turned and some of
    them flipped; returns the copy and the sign of its flips."""
    E, I = c.ext, len(c.vertices)
    r = rnd.randrange(E)
    ids = rnd.sample(range(I), I)
    turn = [rnd.randrange(3) for _ in range(I)]
    flip = [rnd.randrange(2) for _ in range(I)]

    def move(end):
        if end[0] == "x":
            return ("x", (end[1] + r) % E)
        _, j, s = end
        s = (s + turn[j]) % 3
        return ("v", ids[j], -s % 3 if flip[j] else s)

    pairing = {move(end): move(tgt) for end, tgt in c.pairing().items()}
    return from_pairing(pairing), (-1) ** sum(flip)


def _fresh(c):
    """A copy of c without its cached canonical form."""
    return CCD(c.ext, c.vertices, c.chords)


def _searched(c):
    """c's canonical form found by a search: a fresh copy, canonicalised
    with the memo emptied, so no memo hit can stand in for the search."""
    diagrams._CCD_MEMO.clear()
    return _fresh(c).canonical()


@functools.lru_cache(maxsize=1)
def _connected_ccds():
    """The connected CCDs of order <= 4 and 40 sampled ones of order 5."""
    return tuple([c for n in range(1, 5) for c in enumerate_connected_ccds(n)]
                 + sample_connected_ccds(5, 40))


def test_canonical_form_is_the_min_certificate_and_a_fixed_point():
    rnd = random.Random(11)
    for c in _connected_ccds():
        moved, flip_sign = _scrambled(c, rnd)
        canon, sign, null = _searched(moved)
        assert canon == c
        assert _searched(canon)[:2] == (canon, 1)
        I = len(c.vertices)
        pairing = moved.pairing()
        best = min(tuple(traversal(
                       moved, pairing, r, [(m >> i) & 1 for i in range(I)], {}))
                   for m in range(1 << I) for r in range(moved.ext))
        assert tuple(traversal(canon, canon.pairing(), 0, [0] * I, {})) == best
        if not null:
            assert sign == flip_sign


@functools.lru_cache(maxsize=1)
def _oracle_corpus():
    """`_connected_ccds()`, every complete n-gon for n = 3..6, and every
    CCD that `reduce_tree_to_ngons` canonicalises over the 120 order-5
    trees; the tests search fresh copies, free of any cached form."""
    ccds = list(_connected_ccds())
    ccds += [complete_ngon(p) for n in range(3, 7)
             for p in permutations(range(1, n + 1))]
    search = CCD.canonical

    def spy(self):
        ccds.append(self)
        return search(self)

    CCD.canonical = spy
    try:
        for sigma in permutations(range(1, 6)):
            reduce_tree_to_ngons(sigma)
    finally:
        CCD.canonical = search
    return list(dict.fromkeys(ccds))


def test_canonical_equals_the_exhaustive_oracle():
    corpus = _oracle_corpus()
    nulls = 0
    for c in corpus:
        want = exhaustive_canonical(_fresh(c))
        assert _searched(c) == want
        nulls += want[2]
    assert nulls and len(corpus) > 1000


def test_canonical_seeds_its_fixed_point():
    for c in _oracle_corpus():
        canon, _, null = _searched(c)
        assert canon.canonical() == (canon, 1, null)
        assert _searched(canon) == (canon, 1, null)


def test_canonical_memo_hit_equals_a_fresh_search():
    for c in _oracle_corpus():
        stored = _fresh(c).canonical()
        hit = _fresh(c).canonical()
        assert hit is diagrams._CCD_MEMO[
            diagrams._code(c.ext, c.vertices, c.chords)]
        assert hit is stored
        # the memo shares one canonical CCD per class
        assert _fresh(hit[0]).canonical()[0] is hit[0]
        assert _searched(c) == hit


def test_ccd_memo_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(diagrams, "_CCD_MEMO", {})
    monkeypatch.setattr(diagrams, "_CANONICAL_MEMO_CAP", 25)
    rnd = random.Random(5)
    for c in _connected_ccds():
        for _ in range(2):
            moved, flip_sign = _scrambled(c, rnd)
            canon, sign, null = moved.canonical()
            assert canon == c and (null or sign == flip_sign)
            assert len(diagrams._CCD_MEMO) <= 25


def test_trusted_builds_pass_every_check(monkeypatch):
    """Every CCD the surgeries and the canonical relabelling build
    unchecked equals `CCD.build` of its fields, which checks them, and
    lists its chords in order, as every builder of the library does."""
    built = []
    trusted = diagrams._trusted

    def spy(ext, vertices, chords):
        built.append(trusted(ext, vertices, chords))
        return built[-1]

    monkeypatch.setattr(diagrams, "_trusted", spy)
    monkeypatch.setattr(diagrams, "_CCD_MEMO", {})
    monkeypatch.setattr(relations, "_STU_MEMO", {})
    rnd = random.Random(3)
    for c in _connected_ccds()[:-40]:   # every connected CCD of order <= 4
        _scrambled(c, rnd)[0].canonical()
        stu_expand(c)
    for sigma in permutations(range(1, 6)):
        for g in reduce_tree_to_ngons(sigma).terms:
            stu_expand(g)
        stu_expand(one_branch_tree(sigma))
    assert len(built) > 2000
    for c in built:
        checked = CCD.build(c.ext, c.vertices, c.chords)
        assert (checked.ext, checked.vertices, checked.chords) == (
            c.ext, c.vertices, c.chords)
        assert c.chords == tuple(sorted(c.chords))


def test_canonical_rejects_a_component_off_the_circle():
    # a theta graph on two internal vertices beside a chord: the traversal
    # from the circle never reaches it
    c = CCD.build(2, [[("v", 1, 0), ("v", 1, 2), ("v", 1, 1)],
                      [("v", 0, 0), ("v", 0, 2), ("v", 0, 1)]], [(0, 1)])
    with pytest.raises(DiagramError, match="CCD graph is disconnected"):
        c.canonical()
    with pytest.raises(DiagramError, match="CCD graph is disconnected"):
        rigid_key(c)


def test_is_connected_ccd():
    assert is_connected_ccd(_theta_ccd())
    two_chords = from_chord_diagram(ChordDiagram.from_text("1122"))
    assert not is_connected_ccd(two_chords)
    crossing = from_chord_diagram(ChordDiagram.from_text("1212"))
    assert is_connected_ccd(crossing)


def _ccd_components(c):
    """Circle position sets of the chords and of the internal pieces."""
    comps = [set(pair) for pair in c.chord_pairs]
    todo = set(range(len(c.vertices)))
    while todo:
        stack = [todo.pop()]
        points = set()
        while stack:
            for tgt in c.vertices[stack.pop()]:
                if tgt[0] == "x":
                    points.add(tgt[1])
                elif tgt[1] in todo:
                    todo.discard(tgt[1])
                    stack.append(tgt[1])
        comps.append(points)
    return comps


def _naive_is_connected_ccd(c):
    size = c.ext
    comps = _ccd_components(c)
    if size == 1 or len(comps) <= 1:
        return True
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            arc = {(i + k) % size for k in range((j - i) % size)}
            if all(comp <= arc or not comp & arc for comp in comps):
                has_in = any(comp <= arc for comp in comps)
                has_out = any(not comp & arc for comp in comps)
                if has_in and has_out:
                    return False
    return True


def _juxtaposed(a, b, r):
    """a and b side by side on one circle, rotated by r: a split CCD."""
    E = a.ext + b.ext

    def move(tgt, dx, dv):
        if tgt[0] == "x":
            return ("x", (tgt[1] + dx + r) % E)
        return ("v", tgt[1] + dv, tgt[2])

    verts = [tuple(move(t, 0, 0) for t in slots) for slots in a.vertices]
    verts += [tuple(move(t, a.ext, len(a.vertices)) for t in slots)
              for slots in b.vertices]
    chords = [((p + r) % E, (q + r) % E) for p, q in a.chord_pairs]
    chords += [((p + a.ext + r) % E, (q + a.ext + r) % E)
               for p, q in b.chord_pairs]
    return CCD.build(E, verts, chords)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=99),
       st.integers(min_value=0, max_value=15))
def test_is_connected_ccd_matches_naive_scan(n, seed, r):
    a, b = sample_connected_ccds(n, 2, seed=seed)
    split = _juxtaposed(a, b, r)
    assert not _naive_is_connected_ccd(split)
    for c in (a, b, split):
        assert is_connected_ccd(c) == _naive_is_connected_ccd(c)


def test_diagram_sum_holds_ints():
    d = ChordDiagram.from_text("1212")
    for bad in (Fraction(1, 2), 0.5, "1"):
        with pytest.raises(DiagramError):
            DiagramSum([(d, bad)])
        with pytest.raises(DiagramError):
            DiagramSum([(d, 1)]).scaled(bad)
    s = DiagramSum([(d, Fraction(3))])
    assert type(s.terms[d]) is int and s.terms[d] == 3
    assert type(s.scaled(Fraction(-2)).terms[d]) is int


def test_diagram_sum_arithmetic():
    a = ChordDiagram.from_text("1122")
    b = ChordDiagram.from_text("1212")
    s = DiagramSum([(a, 1), (b, 2)])
    t = DiagramSum([(a, -1)])
    u = s + t
    assert u.terms == {b: 2}
    assert (u - u).is_zero()
    with pytest.raises(DiagramError):
        DiagramSum([(a, 1), (ChordDiagram.from_text("112233"), 1)])


def test_ccd_json_serialisation_is_canonical():
    import json

    a = _theta_ccd()
    # same diagram entered with the two external labels swapped (a rotation)
    b = CCD.build(2, [
        (("x", 1), ("v", 1, 2), ("v", 1, 1)),
        (("x", 0), ("v", 0, 2), ("v", 0, 1)),
    ])
    ja, jb = ccd_json(a), ccd_json(b)
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)
    assert ja["order"] == 2 and len(ja["vertices"]) == 2


def test_connected_ccd_enumeration_small():
    ones = enumerate_connected_ccds(1)
    # order 1: single chord and the tadpole-with-loop diagram
    assert len(ones) >= 1
    twos = enumerate_connected_ccds(2)
    keys = {c.key() for c in twos}
    assert len(keys) == len(twos)
    assert any(c.is_chord_diagram() for c in twos)  # the crossing diagram
    theta_key = _theta_ccd().key()
    assert theta_key in keys
