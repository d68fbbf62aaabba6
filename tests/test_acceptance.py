"""Acceptance suite: one test per criterion, one printed line each.

Criterion 4's order-6 computation (`test_criterion_04b_order6_dimension`)
always runs; it takes a few seconds.
"""

import random
import time
from itertools import permutations
from math import factorial

from vassiliev.bounds import (
    brute_force_xtilde,
    comparison_rows,
    divisors,
    primitive_bound,
    xtilde_count,
)
from vassiliev.diagrams import ChordDiagram
from vassiliev.gausscodes import connected_sum
from vassiliev.invariants import (
    a2_alexander,
    a2_gauss,
    invariant_a2,
    invariant_v3,
)
from vassiliev.linalg import RelationSpan
from vassiliev.ngons import (
    complete_ngon,
    ngon_representatives,
    one_branch_tree,
    reduce_tree_to_ngons,
)
from vassiliev.relations import quotient_spans, stu_expand
from vassiliev.ribbon import (
    all_switchings_trivial,
    ribbon_gauss_code,
    ribbon_inverse_code,
    verify_ohyama_identity,
)

from bounds_oracle import brute_force_class_count, brute_force_x_size
from ccds import (add_chord_length_two, enumerate_connected_ccds,
                  sample_connected_ccds)
from gfp_oracle import is_primitive, rank_mod_p
from skein_oracle import a2_skein

PUBLISHED_BOUNDS = [1, 2, 4, 14, 54, 332, 2246]
PRIMES = (2147483647, 2305843009213693951)

def relation_span(n) -> RelationSpan:
    return quotient_spans(n)[1]


def report(num, text, ok, extra=""):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}"
          + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_bound_sequence_via_cli():
    from vassiliev.cli import main
    import io
    import contextlib

    t0 = time.time()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(["bounds", "--n-max", "9"])
    elapsed = time.time() - t0
    lines = [l for l in buf.getvalue().splitlines()
             if l and not l.startswith("#") and not l.startswith("n,")]
    got = [int(l.split(",")[2]) for l in lines]
    ok = status == 0 and got == PUBLISHED_BOUNDS and elapsed < 1.0
    report(1, "bounds --n-max 9 emits 1,2,4,14,54,332,2246", ok,
           f"{elapsed:.2f}s")


def test_criterion_02_triple_agreement():
    t0 = time.time()
    ok = all(
        primitive_bound(n) == xtilde_count(n) == brute_force_xtilde(n)
        for n in range(3, 10))
    ok = ok and brute_force_class_count(9) == factorial(8) // 2 == 20160
    elapsed = time.time() - t0
    report(2, "closed form = Burnside = brute force for n in 3..9",
           ok and elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_03_fixed_class_counts():
    ok = True
    for n in range(3, 10):
        for d in divisors(n):
            if brute_force_x_size(n, d) != \
                    __import__("vassiliev.bounds", fromlist=["x_size"]).x_size(n, d):
                ok = False
    report(3, "per-divisor fixed-class formula matches brute force, n in 3..9", ok)


def test_criterion_04_actual_primitive_dimensions():
    t0 = time.time()
    dims = {n: relation_span(n).quotient_dim() for n in (3, 4, 5)}
    elapsed = time.time() - t0
    ok = dims == {3: 1, 4: 2, 5: 3} and elapsed < 60
    report(4, "primitive dimensions via 4T+split are 1, 2, 3 at n = 3, 4, 5",
           ok, f"{elapsed:.1f}s")


def test_criterion_04b_order6_dimension():
    t0 = time.time()
    span = quotient_spans(6)[1]
    dim = span.quotient_dim()
    report(4, "order-6 primitive dimension equals 5", dim == 5,
           f"{time.time()-t0:.0f}s")


def test_criterion_05_ngons_span():
    ok = True
    for n in (3, 4, 5):
        span = quotient_spans(n)[1].copy()
        for rep in ngon_representatives(n):
            span.add(stu_expand(complete_ngon(rep)))
        ok = ok and span.rank == len(span.basis)
    report(5, "4T + split + expanded n-gons has full rank, n in {3,4,5}", ok)


def test_criterion_05b_order6_ngons_span():
    t0 = time.time()
    span = quotient_spans(6)[1].copy()
    reps = ngon_representatives(6)
    for rep in reps:
        span.add(stu_expand(complete_ngon(rep)))
    ok = len(reps) == 24 and span.rank == len(span.basis)
    report(5, "4T + split + the 24 expanded 6-gons has full rank", ok,
           f"{time.time()-t0:.1f}s")


def test_criterion_06_reduction_soundness():
    t0 = time.time()
    ok = True
    for n in (3, 4):
        span = relation_span(n)
        for p in permutations(range(1, n + 1)):
            combo = reduce_tree_to_ngons(p)
            target = stu_expand(one_branch_tree(p))
            for g, c in combo.terms.items():
                ok = ok and c.denominator == 1
                target = target - stu_expand(g).scaled(c)
            ok = ok and span.member(target)
    rnd = random.Random(1405)
    sample = rnd.sample(list(permutations(range(1, 6))), 50)
    span5 = relation_span(5)
    for p in sample:
        combo = reduce_tree_to_ngons(p)
        target = stu_expand(one_branch_tree(p))
        for g, c in combo.terms.items():
            ok = ok and c.denominator == 1
            target = target - stu_expand(g).scaled(c)
        ok = ok and span5.member(target)
    report(6, "tree reduction sound for S_3, S_4 and 50 random S_5",
           ok, f"{time.time()-t0:.1f}s")


def test_criterion_07_placement_independence():
    t0 = time.time()
    ok = True
    for c in enumerate_connected_ccds(3):
        span = relation_span(4)
        images = [stu_expand(add_chord_length_two(c, pos))
                  for pos in range(c.ext)]
        for other in images[1:]:
            ok = ok and span.member(images[0] - other)
    span5 = relation_span(5)
    for c in sample_connected_ccds(4, 20, seed=140):
        images = [stu_expand(add_chord_length_two(c, pos))
                  for pos in range(c.ext)]
        for other in images[1:]:
            ok = ok and span5.member(images[0] - other)
    report(7, "chord-of-length-two placement independent mod 4T+split",
           ok, f"{time.time()-t0:.1f}s")


def test_criterion_08_scheme_identity():
    ok = verify_ohyama_identity((1, 2))
    for rep in ngon_representatives(3):
        ok = ok and verify_ohyama_identity(rep)
    for rep in ngon_representatives(4):
        ok = ok and verify_ohyama_identity(rep)
    report(8, "signed scheme diagrams equal the expanded n-gon mod 4T, n = 2..4", ok)


def _dual_weight(n, anchor):
    span = relation_span(n)
    (w,) = span.dual_basis()
    return w.normalized_at(ChordDiagram.from_text(anchor))


def test_criterion_09_family_invariants():
    t0 = time.time()
    w2 = _dual_weight(2, "1212")
    w3 = _dual_weight(3, "123123")
    code2, _ = ribbon_gauss_code((1, 2))
    ok = invariant_a2(code2) == w2(stu_expand(complete_ngon((1, 2)))) == -2
    inv2, _ = ribbon_inverse_code((1, 2))
    ok = ok and a2_skein(inv2) == 2
    for sigma in ngon_representatives(3):
        code, _ = ribbon_gauss_code(sigma)
        inv, _ = ribbon_inverse_code(sigma)
        expect = w3(stu_expand(complete_ngon(sigma)))
        ok = ok and invariant_a2(code) == 0
        ok = ok and invariant_v3(code) == expect
        ok = ok and invariant_v3(inv) == -expect
        ok = ok and invariant_a2(inv) == 0
    report(9, "family values match the n-gon weights; inverses negate",
           ok, f"{time.time()-t0:.1f}s")


def test_criterion_10_triviality():
    t0 = time.time()
    ok = True
    for sigma in ((1, 2),) + tuple(ngon_representatives(3)):
        for maker in (ribbon_gauss_code, ribbon_inverse_code):
            code, scheme = maker(sigma)
            ok = ok and all_switchings_trivial(code, scheme)
    report(10, "every nonzero scheme switching certifies the unknot, n in {2,3}",
           ok, f"{time.time()-t0:.1f}s")


def test_criterion_11_comparison_report():
    rows = {r["n"]: r for r in comparison_rows(16)}
    ok = rows[6]["total_bound"] == 18 and not rows[6]["holds"]
    ok = ok and rows[7]["total_bound"] == 61 and not rows[7]["holds"]
    ok = ok and rows[8]["total_bound"] == 358
    ok = ok and all(rows[n]["holds"] for n in range(8, 17))
    report(11, "composite bound vs (n-2)!/2: holds for 8..16; 6 and 7 reported as violations", ok)


def test_criterion_12_consistency_checks():
    t0 = time.time()
    ok = True
    # dual functionals annihilate every relation exactly
    for n in (2, 3, 4, 5):
        span = relation_span(n)
        for w in span.dual_basis():
            ok = ok and w.annihilates(span) and is_primitive(w)
    # the a2 evaluators and the skein oracle agree on every generated code
    corpus = []
    for sigma in ((1, 2),) + tuple(ngon_representatives(3)):
        code, scheme = ribbon_gauss_code(sigma)
        corpus.append(code)
        corpus.append(ribbon_inverse_code(sigma)[0])
        corpus.append(code.switched(scheme.all_ids([0])))
    corpus.append(connected_sum(corpus[0], corpus[1]))
    for code in corpus:
        ok = ok and a2_gauss(code) == a2_alexander(code) == a2_skein(code)
    # rational and mod-p ranks agree
    for n in (3, 4, 5):
        span = relation_span(n)
        for p in PRIMES:
            ok = ok and rank_mod_p(span.rows, p) == span.rank
    report(12, "dual bases annihilate; a2 evaluators agree; mod-p ranks match",
           ok, f"{time.time()-t0:.1f}s")
