import random
from fractions import Fraction

import pytest

from vassiliev import invariants
from vassiliev.errors import ConsistencyError, DiagramError
from vassiliev.gausscodes import (
    FIGURE_EIGHT,
    LEFT_TREFOIL,
    RIGHT_TREFOIL,
    GaussCode,
    Passage,
    alexander_det,
    alexander_polynomial,
    connected_sum,
    simplify,
)
from vassiliev.invariants import (
    _a2_of_delta,
    _v3_arrows,
    a2_alexander,
    a2_gauss,
    evaluate_arrow_formula,
    fit_arrow_formula,
    invariant_a2,
    invariant_v3,
    A2_PATTERN_WEIGHTS,
    V3_PATTERN_WEIGHTS,
)
from vassiliev.ribbon import ribbon_gauss_code, ribbon_inverse_code

from braids import braid_closure, random_closures
from jones_oracle import (
    _shadow_alternating_sum,
    _v3_small,
    a2_weight_calibration,
    jones_h_coefficient,
    jones_polynomial,
    kauffman_bracket,
    v3_jones,
    v3_state_sum,
)
from skein_oracle import _a2_of_conway, a2_skein, conway_polynomial

GOLDEN_A2 = {
    "unknot": (GaussCode.from_text(""), 0),
    "3_1": (RIGHT_TREFOIL, 1),
    "m3_1": (LEFT_TREFOIL, 1),
    "4_1": (FIGURE_EIGHT, -1),
    "square": (connected_sum(RIGHT_TREFOIL, LEFT_TREFOIL), 2),
    "granny": (connected_sum(RIGHT_TREFOIL, RIGHT_TREFOIL), 2),
    "4_1#4_1": (connected_sum(FIGURE_EIGHT, FIGURE_EIGHT), -2),
}


def test_conway_basics():
    assert conway_polynomial(RIGHT_TREFOIL) == {0: 1, 2: 1}
    assert conway_polynomial(FIGURE_EIGHT) == {0: 1, 2: -1}
    assert conway_polynomial(GaussCode.from_text("")) == {0: 1}


def test_a2_goldens_both_ways():
    for name, (code, value) in GOLDEN_A2.items():
        assert a2_skein(code) == value, name
        assert a2_gauss(code) == value, name
        assert a2_alexander(code) == value, name
        assert invariant_a2(code) == value, name


def _delta_from_conway(conway):
    """Delta(t) = nabla(t^(1/2) - t^(-1/2)), using z^2 = t - 2 + 1/t."""
    top = max(conway) // 2
    delta = [0] * (2 * top + 1)
    power = [1]  # (z^2)^j, coefficients of t^-j .. t^j
    for j in range(top + 1):
        for i, c in enumerate(power):
            delta[top - j + i] += conway.get(2 * j, 0) * c
        power = [sum(power[i - d] * w for d, w in enumerate((1, -2, 1))
                     if 0 <= i - d < len(power))
                 for i in range(len(power) + 2)]
    return tuple(delta)


def _members():
    return [make(sigma)[0] for sigma in ((1, 2), (1, 2, 3), (1, 3, 2))
            for make in (ribbon_gauss_code, ribbon_inverse_code)]


def test_alexander_polynomial_matches_the_skein():
    # the skein runs on simplified copies; Delta reads the raw codes
    codes = [code for code, _ in GOLDEN_A2.values()] + _members()
    for code in codes:
        conway = conway_polynomial(simplify(code, budget=400))
        assert alexander_polynomial(code) == _delta_from_conway(conway)
        assert a2_alexander(code) == a2_skein(code)


def test_alexander_a2_and_determinant_on_single_switches():
    # raw codes of up to 21 crossings, none simplified, and member (1,3,2)
    # with crossings 6 and 13 switched, where the skein took 42 s
    codes = [code.switched({c}) for code in _members() for c in code.crossings]
    assert len(codes) == 102
    codes.append(ribbon_gauss_code((1, 3, 2))[0].switched({6, 13}))
    for code in codes:
        delta = alexander_polynomial(code)
        assert alexander_det(code) == abs(sum(
            c * (-1) ** k for k, c in enumerate(delta)))
        assert _a2_of_delta(code) == a2_gauss(code)


def test_a2_even_parity_on_ribbon_like_sums():
    # a2 is congruent to the Arf invariant mod 2: even for our ribbon sums
    assert a2_skein(GOLDEN_A2["square"][0]) % 2 == 0
    assert a2_skein(GOLDEN_A2["4_1#4_1"][0]) % 2 == 0


def _random_reidemeister_image(rnd, base):
    """Grow a code by random kink insertions, keeping it realizable."""
    code = base
    for _ in range(rnd.randint(1, 4)):
        ps = list(code.passages)
        cid = (max((p.crossing for p in ps), default=0)) + 1
        pos = rnd.randrange(len(ps) + 1)
        sign = rnd.choice((1, -1))
        over_first = rnd.choice((True, False))
        ps[pos:pos] = [Passage(cid, over_first, sign),
                       Passage(cid, not over_first, sign)]
        cand = GaussCode(tuple(ps))
        if cand.is_realizable():
            code = cand
    return code


def test_a2_gauss_invariant_under_kinks():
    rnd = random.Random(11)
    for name, (code, value) in GOLDEN_A2.items():
        for _ in range(3):
            image = _random_reidemeister_image(rnd, code)
            assert a2_gauss(image) == value, name


def test_pair_formula_refit_validates_on_holdout():
    # the calibration system stays consistent, the frozen weights solve
    # it, and any refit solution reproduces a2 on codes it never saw
    rnd = random.Random(3)
    batch = []
    for name, (code, value) in GOLDEN_A2.items():
        batch.append((code, value))
        batch.append((_random_reidemeister_image(rnd, code), value))
    sol = fit_arrow_formula(batch, 2)
    holdout = [
        (connected_sum(FIGURE_EIGHT, RIGHT_TREFOIL), 0),
        (connected_sum(GOLDEN_A2["granny"][0], FIGURE_EIGHT), 1),
        (_random_reidemeister_image(rnd, LEFT_TREFOIL), 1),
    ] + [(code, a2_alexander(code)) for code in random_closures(5, 40, 10)]
    for code, value in holdout:
        assert evaluate_arrow_formula(sol, code, 2) == value
        assert evaluate_arrow_formula(A2_PATTERN_WEIGHTS, code, 2) == value


def _rotations(code):
    """The code read from each of its base points (the empty code once)."""
    ps = code.passages
    return [GaussCode(ps[r:] + ps[:r]) for r in range(max(len(ps), 1))]


def _base_point_average(weights, code):
    """Oracle: the based pair count averaged over all base points."""
    rotations = _rotations(code)
    total = sum(evaluate_arrow_formula(weights, c, 2) for c in rotations)
    return total / len(rotations)


def _a2_corpus():
    rnd = random.Random(7)
    codes = [code for code, _ in GOLDEN_A2.values()]
    for sigma in ((1, 2), (1, 2, 3), (1, 3, 2)):
        for maker in (ribbon_gauss_code, ribbon_inverse_code):
            code, scheme = maker(sigma)
            codes.append(code)
            codes += [code.switched(pair) for pair in scheme.sets]
    return codes + [_random_reidemeister_image(rnd, c) for c in list(codes)]


def test_a2_gauss_is_base_point_independent():
    # the based count equals the base-point average and is the same at
    # every base point, as the Polyak-Viro formula requires
    for code in _a2_corpus():
        ps = code.passages
        value = a2_gauss(code)
        assert value == _base_point_average(A2_PATTERN_WEIGHTS, code)
        for r in range(len(ps)):
            assert a2_gauss(GaussCode(ps[r:] + ps[:r])) == value, r


def test_pair_formula_fit_rejects_inconsistent_values():
    with pytest.raises(ConsistencyError):
        fit_arrow_formula([(RIGHT_TREFOIL, 1), (RIGHT_TREFOIL, 2)], 2)


def test_jones_goldens():
    v = jones_polynomial(RIGHT_TREFOIL)
    assert sorted(v.items()) in ([(-4, -1), (-3, 1), (-1, 1)],
                                 [(1, 1), (3, 1), (4, -1)])
    mirror = jones_polynomial(LEFT_TREFOIL)
    assert {(-k): c for k, c in v.items()} == mirror
    assert jones_h_coefficient(v, 0) == 1
    assert jones_h_coefficient(v, 1) == 0
    assert jones_h_coefficient(v, 2) == -3 * a2_skein(RIGHT_TREFOIL)


def test_bracket_kink_identity():
    kink = GaussCode.from_text("O1+,U1+")
    assert kauffman_bracket(kink) == {3: -1}


def test_calibrations():
    assert a2_weight_calibration() == 1
    # the dual normalisation puts the trefoil at one half
    assert abs(v3_jones(RIGHT_TREFOIL)) == Fraction(1, 2)
    assert v3_jones(LEFT_TREFOIL) == -v3_jones(RIGHT_TREFOIL)
    assert v3_jones(FIGURE_EIGHT) == 0


def test_a2_and_v3_simplify_each_summand_once(monkeypatch):
    monkeypatch.setattr(invariants, "_PARTS", {})
    simplified = []

    def spy(code, budget):
        simplified.append(code)
        return simplify(code, budget=budget)

    monkeypatch.setattr(invariants, "simplify", spy)
    code = connected_sum(RIGHT_TREFOIL, FIGURE_EIGHT)
    assert invariant_a2(code) == 0
    assert invariant_v3(code) == v3_jones(RIGHT_TREFOIL)
    assert len(simplified) == 2
    assert {c.canonical_key() for c in simplified} == {
        RIGHT_TREFOIL.canonical_key(), FIGURE_EIGHT.canonical_key()}


def _refuses(small):
    raise DiagramError("refused")


def test_a_raising_evaluator_stores_nothing(monkeypatch):
    monkeypatch.setattr(invariants, "_PARTS", {})
    assert a2_alexander(RIGHT_TREFOIL) == 1
    for _ in range(2):
        with pytest.raises(DiagramError):
            invariants._sum_over_summands(RIGHT_TREFOIL, _refuses)
    [(_, values)] = invariants._PARTS.values()
    assert values == {invariants._a2_of_delta: 1}
    assert a2_alexander(RIGHT_TREFOIL) == 1


def test_skein_and_alexander_agree_from_an_empty_table(monkeypatch):
    monkeypatch.setattr(invariants, "_PARTS", {})
    for name, (code, value) in GOLDEN_A2.items():
        assert a2_skein(code) == a2_alexander(code) == value, name
    # each evaluator keeps its own value: the oracle never reads Delta's
    for _, values in invariants._PARTS.values():
        assert set(values) == {_a2_of_conway, invariants._a2_of_delta}


def test_v3_additive_and_mirror_odd():
    granny = connected_sum(RIGHT_TREFOIL, RIGHT_TREFOIL)
    square = connected_sum(RIGHT_TREFOIL, LEFT_TREFOIL)
    assert invariant_v3(granny) == 2 * v3_jones(RIGHT_TREFOIL)
    assert invariant_v3(square) == 0
    assert invariant_v3(GaussCode.from_text("")) == 0


def test_braid_closures():
    # sigma_1^3 closes to the right trefoil; links are refused
    trefoil = braid_closure((1, 1, 1), 2)
    assert trefoil.canonical_key() == RIGHT_TREFOIL.canonical_key()
    assert braid_closure((1, 1), 2) is None
    assert braid_closure((1, -1, 2), 4) is None
    assert all(code.is_realizable() for code in random_closures(6, 20, 12))


def test_v3_formula_matches_the_state_sum(monkeypatch):
    # goldens through the summand table, held-out closed braids (never in
    # the refit corpus) raw; the state sum is the independent oracle
    monkeypatch.setattr(invariants, "_PARTS", {})
    for name, (code, _) in GOLDEN_A2.items():
        assert invariant_v3(code) == v3_state_sum(code), name
    # each evaluator keeps its own value: the oracle never reads the formula's
    for _, values in invariants._PARTS.values():
        assert set(values) == {_v3_small, _v3_arrows}
    held_out = random_closures(2, 200, 10)
    for code in held_out:
        assert _v3_arrows(code) == v3_jones(code), code.to_text()


def test_v3_formula_is_base_point_independent():
    codes = ([code for code, _ in GOLDEN_A2.values()] + _members()
             + random_closures(3, 40, 12))
    for code in codes:
        value = _v3_arrows(code)
        for r, rotated in enumerate(_rotations(code)):
            assert _v3_arrows(rotated) == value, (code.to_text(), r)


def test_v3_formula_is_mirror_odd_and_additive():
    codes = random_closures(4, 30, 10)
    for a, b in zip(codes, codes[1:]):
        assert _v3_arrows(a.mirrored()) == -_v3_arrows(a)
        both = connected_sum(a, b)
        assert (_v3_arrows(both) == invariant_v3(both)
                == _v3_arrows(a) + _v3_arrows(b))


def test_v3_refit_rederives_the_frozen_weights():
    # a row per base point of each code brings in the based patterns'
    # rotation identities; codes of at most 12 crossings keep the state
    # sum cheap
    codes = [code for code, _ in GOLDEN_A2.values()]
    codes += random_closures(1, 30, 12)
    assert max(len(code) for code in codes) <= 12
    batch = [(rotated, value) for code in codes
             for value in [v3_jones(code)] for rotated in _rotations(code)]
    assert fit_arrow_formula(batch, 3) == V3_PATTERN_WEIGHTS


def test_v3_weight_on_123123_is_one():
    assert _shadow_alternating_sum(_v3_arrows, (1, 2, 3)) == 1


def test_dual_evaluation_consistent_on_battery():
    for name, (code, _) in GOLDEN_A2.items():
        invariant_a2(code)  # raises ConsistencyError on any disagreement
