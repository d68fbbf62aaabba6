"""Upper bounds for the number of independent primitive invariants per
order, by counting complete n-gons up to rotation and reversal.

The count is the number of orbits of n-cycles in the symmetric group
under inversion and under conjugation by the standard cycle t = (1 ... n),
computed three independent ways: a per-divisor fixed-class formula fed
into Burnside's lemma, a closed form, and plain orbit enumeration.  All
arithmetic is exact.

Composite bounds (all invariants, not just primitive ones) follow by
summing products of the primitive bounds over integer partitions with
parts >= 2.  The report compares everything against (n-2)!/2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .errors import ConsistencyError, ResourceGuardError

BRUTE_GUARD = 9
BOUND_TABLE_GUARD = 40


def euler_phi(k: int) -> int:
    """Euler's totient."""
    if k < 1:
        raise ValueError("phi is defined for positive integers")
    out = k
    m = k
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def x_size(n: int, d: int) -> int:
    """Number of inversion-classes of n-cycles fixed by t^d.

    For d = n this is all of them, (n-1)!/2.  For proper divisors the
    count is (d-1)! (n/d)^(d-1) phi(n/d) / 2, plus d! 2^(d-1) / 2 extra
    classes when d = n/2 (the reversal-fixed ones).
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide {n}")
    if d == n:
        num = factorial(n - 1)
        if num % 2:
            raise ConsistencyError("(n-1)! must be even for n >= 3")
        return num // 2
    q = n // d
    base = factorial(d - 1) * q ** (d - 1)
    total = base * euler_phi(q)
    if 2 * d == n:
        total += base * d
    if total % 2:
        raise ConsistencyError("fixed-class count must be even before halving")
    return total // 2


def xtilde_count(n: int) -> int:
    """Burnside average of the fixed-class counts over the rotation group.

    The multiplicity of the divisor d among gcd(m, n) for 0 < m < n is
    phi(n/d); m = 0 contributes the full (n-1)!/2 once.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    total = x_size(n, n)  # m = 0
    for d in divisors(n):
        if d == n:
            continue
        total += euler_phi(n // d) * x_size(n, d)
    if total % n:
        raise ConsistencyError(
            f"Burnside total {total} not divisible by {n}: formula bug")
    return total // n


def primitive_bound(n: int) -> int:
    """Closed-form upper bound for the primitive dimension at order n."""
    if n < 3:
        raise ValueError("n >= 3 required")
    total = Fraction(0)
    for d in divisors(n):
        q = n // d
        total += Fraction(factorial(d) * q ** d * euler_phi(q) ** 2)
    total /= 2 * n * n
    if n % 2 == 0:
        total += Fraction(factorial(n // 2) * 2 ** (n // 2), 4 * n)
    if total.denominator != 1:
        raise ConsistencyError(f"closed form gave non-integer {total}")
    value = int(total)
    if value != xtilde_count(n):
        raise ConsistencyError("closed form disagrees with Burnside count")
    return value


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------

def _cycles(n):
    """All n-cycles as permutation tuples (images of 1..n)."""
    out = []
    for rest in permutations(range(1, n)):
        seq = (n,) + rest  # cycle written from n
        perm = [0] * n
        for i in range(n):
            perm[seq[i] - 1] = seq[(i + 1) % n]
        out.append(tuple(perm))
    return out


def _inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def _conjugate_by_shift(p, m):
    """t^m p t^-m with t = (1 2 ... n)."""
    n = len(p)

    def shift(v):
        return (v - 1 + m) % n + 1

    def unshift(v):
        return (v - 1 - m) % n + 1

    return tuple(shift(p[unshift(i + 1) - 1]) for i in range(n))


def _class_key(p):
    return min(p, _inverse(p))


def brute_force_xtilde(n: int) -> int:
    """Orbit count of inversion-classes of n-cycles under conjugation by t:
    each orbit is counted at its first n-cycle, which marks its classes."""
    if not 3 <= n <= BRUTE_GUARD:
        raise ResourceGuardError(f"brute force supports 3 <= n <= {BRUTE_GUARD}")
    done = set()
    orbits = 0
    for p in _cycles(n):
        if _class_key(p) not in done:
            orbits += 1
            done.update(_class_key(_conjugate_by_shift(p, m)) for m in range(n))
    return orbits


# ---------------------------------------------------------------------------
# composite bounds and the report
# ---------------------------------------------------------------------------

def total_bound(n: int) -> int:
    """Bound for the full space at order n: sum of products of primitive
    bounds over all partitions of n into parts >= 2.

    One pass of the partition recurrence: t[m] collects the partitions of
    m into the parts seen so far, and part k (bound p_k, with p_2 = 1)
    adds p_k t[m - k] to every t[m].
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    t = [1] + [0] * n
    for k in range(2, n + 1):
        p = 1 if k == 2 else primitive_bound(k)
        for m in range(k, n + 1):
            t[m] += p * t[m - k]
    return t[n]


def half_factorial(n: int) -> Fraction:
    return Fraction(factorial(n - 2), 2)


def tail_estimate_rhs(n: int) -> Fraction:
    """(n-2)!/2 + (1/n - 3/8)(n-3)!: the displayed tail estimate."""
    return half_factorial(n) + (Fraction(1, n) - Fraction(3, 8)) * factorial(n - 3)


def partition_sum_upper(n: int) -> int:
    """S = sum over r>=2 and partitions n-2r into r parts >= 0 of the
    products of factorials; the displayed estimate bounds it by 2(n-4)!."""
    total = 0
    for r in range(2, n // 2 + 1):
        target = n - 2 * r
        for parts in _partitions_upto(target, r):
            prod = 1
            for v in parts:
                prod *= factorial(v)
            total += prod
    return total


@lru_cache(maxsize=None)
def _partitions_upto(total: int, r: int, smallest: int = 0):
    if r == 0:
        return ((),) if total == 0 else ()
    out = []
    for v in range(smallest, total + 1):
        for rest in _partitions_upto(total - v, r - 1, v):
            out.append((v,) + rest)
    return tuple(out)


@dataclass
class BoundReport:
    n: int
    primitive_bound: int
    xtilde: int
    per_divisor: dict
    total_bound: int
    factorial_ceiling: Fraction
    cor53_holds: bool = field(init=False)

    def __post_init__(self):
        if self.primitive_bound != self.xtilde:
            raise ConsistencyError("bound components disagree")
        self.cor53_holds = self.total_bound <= self.factorial_ceiling


def bound_report(n: int) -> BoundReport:
    return BoundReport(
        n=n,
        primitive_bound=primitive_bound(n),
        xtilde=xtilde_count(n),
        per_divisor={d: x_size(n, d) for d in divisors(n)},
        total_bound=total_bound(n),
        factorial_ceiling=half_factorial(n),
    )


def bound_table(n_max: int):
    """BoundReport rows for 3 <= n <= n_max."""
    if n_max < 3:
        raise ValueError("n_max >= 3 required")
    if n_max > BOUND_TABLE_GUARD:
        raise ResourceGuardError(
            f"bound table supports n_max <= {BOUND_TABLE_GUARD}")
    return [bound_report(n) for n in range(3, n_max + 1)]


def comparison_rows(n_max: int):
    """Rows comparing the composite bound with (n-2)!/2 for n in [6, n_max].

    Purely a report: the inequality fails under direct evaluation at n = 6
    (18 > 12) and n = 7 (61 > 60); those rows are emitted as computed.
    Also evaluates the displayed tail estimate and partition-sum bound.
    """
    if not 6 <= n_max <= 20:
        raise ValueError("supported range is 6 <= n_max <= 20")
    rows = []
    for n in range(6, n_max + 1):
        tb = total_bound(n)
        hf = half_factorial(n)
        rows.append({
            "n": n,
            "total_bound": tb,
            "half_factorial": hf,
            "holds": tb <= hf,
            "tail_rhs": tail_estimate_rhs(n),
            "tail_holds_for_primitive": primitive_bound(n) <= tail_estimate_rhs(n),
            "partition_sum": partition_sum_upper(n),
            "partition_sum_within_2_a4": (
                n >= 6 and partition_sum_upper(n) <= 2 * factorial(n - 4)),
        })
    return rows
