import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vassiliev.diagrams import ChordDiagram, DiagramSum
from vassiliev.errors import DiagramError
from vassiliev.linalg import RelationSpan, WeightSystem, _eliminate, _normalize
from vassiliev.relations import four_t_relations, quotient_spans

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
            assert w.is_primitive()


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
            assert span.rank_mod_p(p) == span.rank
    # random integer matrices
    for trial in range(20):
        cols = rnd.randint(1, 8)
        span = RelationSpan(tuple(range(cols)))
        for _ in range(rnd.randint(1, 10)):
            row = {c: rnd.randint(-9, 9) for c in range(cols)
                   if rnd.random() < 0.6}
            span.add({c: v for c, v in row.items() if v})
        for p in PRIMES:
            assert span.rank_mod_p(p) == span.rank


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                         min_size=4, max_size=4), min_size=1, max_size=6))
def test_rank_matches_dense_oracle(rows):
    span = RelationSpan(tuple(range(4)))
    for r in rows:
        span.add({i: v for i, v in enumerate(r) if v})
    # dense Gaussian elimination over Fraction as the oracle
    mat = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(4):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / pr[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], pr)]
        rank += 1
    assert span.rank == rank
    assert span.quotient_dim() + span.rank == 4


# -- oracles for the in-place elimination and the integer annihilation check


def eliminate_by_union(vec, pivots):
    """Oracle for `_eliminate`: each step builds a new row over the union
    of the working row's and the pivot row's columns."""
    vec = dict(vec)
    while vec:
        c = min(vec)
        piv = pivots.get(c)
        if piv is None:
            return vec, c
        a, b = piv[c], vec[c]
        new = {}
        for col in set(vec) | set(piv):
            val = a * vec.get(col, 0) - b * piv.get(col, 0)
            if val:
                new[col] = val
        vec = new
    return {}, None


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
@given(small_rows, small_rows)
def test_elimination_matches_union_oracle(rows, queries):
    span = RelationSpan(tuple(range(7)))
    pivots = {}
    for r in rows:
        span.add(r)
        red, col = eliminate_by_union(r, pivots)
        if col is not None:
            pivots[col] = _normalize(red)
    assert span.pivots == pivots
    assert span.rank == len(pivots)
    for q in rows + queries:
        assert _eliminate(q, pivots) == eliminate_by_union(q, pivots)
        assert span.member(q) == (eliminate_by_union(q, pivots)[1] is None)


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
