from fractions import Fraction
from math import factorial

import pytest

from vassiliev.bounds import (
    _class_key,
    _conjugate_by_shift,
    _cycles,
    bound_report,
    brute_force_xtilde,
    comparison_rows,
    divisors,
    euler_phi,
    primitive_bound,
    total_bound,
    x_size,
    xtilde_count,
)
from vassiliev.errors import ResourceGuardError

from bounds_oracle import brute_force_class_count, brute_force_x_size

PUBLISHED = {3: 1, 4: 2, 5: 4, 6: 14, 7: 54, 8: 332, 9: 2246}


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4
    with pytest.raises(ValueError):
        euler_phi(0)


def test_x_size_examples():
    assert x_size(4, 4) == 3
    assert x_size(4, 2) == 3
    assert x_size(6, 2) == 3
    with pytest.raises(ValueError):
        x_size(6, 4)


def test_bound_sequence():
    for n, v in PUBLISHED.items():
        assert xtilde_count(n) == v
        assert primitive_bound(n) == v


def test_triple_agreement():
    for n in range(3, 10):
        assert primitive_bound(n) == xtilde_count(n) == brute_force_xtilde(n)


def brute_force_xtilde_by_min_keys(n):
    """Oracle for brute_force_xtilde: the least class key over each
    n-cycle's conjugation orbit, counted over every n-cycle."""
    return len({min(_class_key(_conjugate_by_shift(p, m)) for m in range(n))
                for p in _cycles(n)})


def test_orbit_marking_matches_min_orbit_keys():
    for n in range(3, 9):
        assert brute_force_xtilde(n) == brute_force_xtilde_by_min_keys(n)


def test_class_count():
    assert brute_force_class_count(5) == 12  # (5-1)!/2
    assert brute_force_class_count(9) == 20160


def test_fixed_class_oracle():
    for n in range(3, 8):
        for d in divisors(n):
            assert x_size(n, d) == brute_force_x_size(n, d), (n, d)


def test_brute_guard():
    with pytest.raises(ResourceGuardError):
        brute_force_xtilde(10)


def partitions_min2(n, smallest=2):
    """Partitions of n into parts >= smallest, nondecreasing tuples."""
    if n == 0:
        return [()]
    return [(part,) + rest for part in range(smallest, n + 1)
            for rest in partitions_min2(n - part, part)]


def total_bound_by_partitions(n):
    """Oracle for total_bound: the product of the primitive bounds
    (p_2 = 1) summed over every partition of n into parts >= 2."""
    total = 0
    for parts in partitions_min2(n):
        prod = 1
        for k in parts:
            prod *= 1 if k == 2 else primitive_bound(k)
        total += prod
    return total


def test_total_bound_matches_partition_oracle():
    for n in range(2, 31):
        assert total_bound(n) == total_bound_by_partitions(n), n


def test_total_bounds():
    assert total_bound(4) == 3
    assert total_bound(6) == 18
    assert total_bound(7) == 61
    assert total_bound(8) == 358


def test_comparison_rows():
    rows = {r["n"]: r for r in comparison_rows(16)}
    assert not rows[6]["holds"] and rows[6]["total_bound"] == 18
    assert not rows[7]["holds"] and rows[7]["total_bound"] == 61
    for n in range(8, 17):
        assert rows[n]["holds"]
    assert rows[12]["tail_holds_for_primitive"]
    for n in range(6, 17):
        assert rows[n]["partition_sum"] <= 2 * factorial(n - 4)


def test_bound_report_fields():
    rep = bound_report(6)
    assert rep.primitive_bound == rep.xtilde == 14
    assert rep.total_bound == 18
    assert rep.factorial_ceiling == Fraction(12)
    assert not rep.cor53_holds
    assert rep.per_divisor[6] == 60  # (6-1)!/2


def test_bound_asymptotics_sane():
    for n in range(10, 21):
        ratio = Fraction(primitive_bound(n), factorial(n - 2))
        assert 0 < ratio <= 1


def test_bound_vs_actual_primitive_dims():
    # the bound dominates the exactly computed dimensions 1, 2, 3
    from vassiliev.relations import quotient_spans
    actual = {}
    for n in (3, 4, 5):
        actual[n] = quotient_spans(n)[1].quotient_dim()
    assert actual == {3: 1, 4: 2, 5: 3}
    for n in (3, 4, 5):
        assert primitive_bound(n) >= actual[n]
