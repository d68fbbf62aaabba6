import random
from copy import deepcopy
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from vassiliev.diagrams import ChordDiagram, DiagramSum
from vassiliev.errors import DiagramError
from vassiliev import linalg
from vassiliev.linalg import RelationSpan, WeightSystem, _eliminate
from vassiliev.relations import four_t_relations, quotient_spans

from gfp_oracle import is_primitive, rank_mod_p

PRIMES = (2147483647, 2305843009213693951)  # both > 2^31


def full_span(n):
    return quotient_spans(n)[1]


def test_rank_empty_and_duplicates():
    span = RelationSpan.over_order(2)
    assert span.rank == 0
    assert span.quotient_dim() == 2
    row = {0: Fraction(1), 1: Fraction(-2)}
    span.add(row).add(row).add(dict(row))
    assert span.rank == 1


def test_member_basics():
    span = RelationSpan.over_order(3, four_t_relations(3))
    assert span.member({})
    for rel in four_t_relations(3):
        assert span.member(rel)
    nonsplit = ChordDiagram.from_text("123123")
    assert not span.member(DiagramSum([(nonsplit, 1)]))


def test_member_dimension_mismatch():
    span = RelationSpan.over_order(2)
    with pytest.raises(DiagramError):
        span.member({5: 1})


def test_inexact_entries_rejected():
    span = RelationSpan.over_order(2)
    for bad in (0.5, "1/2"):
        with pytest.raises(DiagramError):
            span.add({0: bad})
        with pytest.raises(DiagramError):
            span.member({0: 1, 1: bad})
    # all or nothing: the good row before the bad one is not kept either
    with pytest.raises(DiagramError):
        span.add_all([{0: 1}, {1: 0.5}])
    assert span.rank == 0 and span.rows == []


def test_quotient_dims_small():
    assert full_span(3).quotient_dim() == 1
    assert full_span(4).quotient_dim() == 2


def test_dual_basis_annihilates_and_counts():
    for n in (2, 3, 4):
        span = full_span(n)
        duals = span.dual_basis()
        assert len(duals) == span.quotient_dim()
        for w in duals:
            assert w.annihilates(span)
            assert is_primitive(w)


def test_dual_basis_order2():
    span = full_span(2)
    (w,) = span.dual_basis()
    w = w.normalized_at(ChordDiagram.from_text("1212"))
    assert w(ChordDiagram.from_text("1212")) == 1
    assert w(ChordDiagram.from_text("1122")) == 0


def test_full_rank_span_has_empty_dual():
    span = RelationSpan.over_order(2)
    span.add({0: 1})
    span.add({1: 1})
    assert span.dual_basis() == []


def test_mod_p_agreement():
    rnd = random.Random(5)
    for n in (3, 4):
        span = full_span(n)
        for p in PRIMES:
            assert rank_mod_p(span.rows, p) == span.rank
    # random integer matrices
    for trial in range(20):
        cols = rnd.randint(1, 8)
        span = RelationSpan(tuple(range(cols)))
        for _ in range(rnd.randint(1, 10)):
            row = {c: rnd.randint(-9, 9) for c in range(cols)
                   if rnd.random() < 0.6}
            span.add({c: v for c, v in row.items() if v})
        for p in PRIMES:
            assert rank_mod_p(span.rows, p) == span.rank


def reduced_echelon(rows):
    """Oracle for `RelationSpan.pivots`: Gauss-Jordan over `Fraction` on
    the rows as given, each result row scaled to primitive integers with a
    positive lead and keyed by its lead column."""
    done = {}
    for row in rows:
        vec = {c: Fraction(v) for c, v in row.items() if v}
        for c, piv in done.items():
            f = vec.get(c)
            if f:
                for k, v in piv.items():
                    vec[k] = vec.get(k, 0) - f * v
                vec = {k: v for k, v in vec.items() if v}
        if not vec:
            continue
        lead = min(vec)
        vec = {k: v / vec[lead] for k, v in vec.items()}
        for c, piv in done.items():
            f = piv.get(lead)
            if f:
                for k, v in vec.items():
                    piv[k] = piv.get(k, 0) - f * v
                done[c] = {k: v for k, v in piv.items() if v}
        done[lead] = vec
    out = {}
    for c, vec in done.items():
        den = lcm(*(v.denominator for v in vec.values()))
        ints = {k: int(v * den) for k, v in vec.items()}
        g = gcd(*ints.values())
        out[c] = {k: v // g for k, v in ints.items()}
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                         min_size=4, max_size=4), min_size=1, max_size=6))
def test_rank_matches_dense_oracle(rows):
    span = RelationSpan(tuple(range(4)))
    sparse = [{i: v for i, v in enumerate(r) if v} for r in rows]
    for r in sparse:
        span.add(r)
    assert span.rank == len(reduced_echelon(sparse))
    assert span.quotient_dim() + span.rank == 4


# -- oracles for the fully reduced pivots and the integer annihilation check


def annihilates_by_fractions(w, span):
    """Oracle for `WeightSystem.annihilates`: a `Fraction` sum per row,
    looking each column's diagram up in the values."""
    for row in span.rows:
        total = Fraction(0)
        for col, v in row.items():
            total += v * w.values.get(span.basis[col], Fraction(0))
        if total != 0:
            return False
    return True


small_rows = st.lists(st.dictionaries(st.integers(0, 6),
                                      st.integers(-5, 5).filter(bool),
                                      max_size=7), max_size=9)


@settings(max_examples=80, deadline=None)
@given(small_rows, small_rows, st.randoms(use_true_random=False))
def test_pivots_match_reduced_echelon_oracle(rows, queries, rnd):
    oracle = reduced_echelon(rows)
    one_by_one = RelationSpan(tuple(range(7)))
    for k, r in enumerate(rows):
        one_by_one.add(r)
        assert one_by_one.pivots == reduced_echelon(rows[:k + 1])
    shuffled = rnd.sample(rows, len(rows))
    at_once = RelationSpan(tuple(range(7))).add_all(rows)
    assert at_once.pivots == oracle and at_once.rows == rows
    assert RelationSpan(tuple(range(7))).add_all(shuffled).pivots == oracle
    # a copy grown from a prefix leaves the prefix span's rows alone
    half = RelationSpan(tuple(range(7))).add_all(shuffled[:len(rows) // 2])
    before = deepcopy(half.pivots)
    assert half.copy().add_all(shuffled[len(rows) // 2:]).pivots == oracle
    assert half.pivots == before
    for q in rows + queries:
        assert at_once.member(q) == (len(reduced_echelon(rows + [q]))
                                     == len(oracle))


def test_add_all_inserts_highest_lowest_column_first(monkeypatch):
    seen = []

    def spy(vec, pivots):
        seen.append(min(vec))
        return _eliminate(vec, pivots)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    rows = [{0: 1, 3: 2}, {2: 1, 1: 1}, {}, {4: -1}, {1: 3}, {3: 1, 4: 1}]
    span = RelationSpan(tuple(range(5))).add_all(rows)
    assert seen == [4, 3, 1, 1, 0]
    assert span.pivots == reduced_echelon(rows)


def perturbed(w, diagram, delta):
    values = dict(w.values)
    values[diagram] = values.get(diagram, 0) + delta
    return WeightSystem(w.order, values)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_annihilates_matches_fraction_oracle(n):
    rnd = random.Random(n)
    answers = []
    for span in quotient_spans(n):
        for w in span.dual_basis():
            assert w.annihilates(span) is True
            assert annihilates_by_fractions(w, span)
            cols = rnd.sample(range(len(span.basis)), min(4, len(span.basis)))
            for col in cols:
                for delta in (1, Fraction(-2, 3)):
                    bent = perturbed(w, span.basis[col], delta)
                    answers.append(bent.annihilates(span))
                    assert answers[-1] == annihilates_by_fractions(bent, span)
    assert False in answers
