"""Brute-force oracles for `bounds`: the fixed-class counts `x_size` and
the class count (n-1)!/2, both by enumerating the n-cycles."""

from vassiliev.bounds import (BRUTE_GUARD, _class_key, _conjugate_by_shift,
                              _cycles, _inverse)
from vassiliev.errors import ResourceGuardError


def brute_force_x_size(n: int, d: int) -> int:
    """Oracle for x_size: count inversion-classes fixed by t^d directly."""
    if not 3 <= n <= BRUTE_GUARD:
        raise ResourceGuardError(f"brute force supports 3 <= n <= {BRUTE_GUARD}")
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide {n}")
    fixed = set()
    for p in _cycles(n):
        key = _class_key(p)
        if key in fixed:
            continue
        c = _conjugate_by_shift(p, d)
        if c == p or c == _inverse(p):
            fixed.add(key)
    return len(fixed)


def brute_force_class_count(n: int) -> int:
    """|X_n| = (n-1)!/2 by enumeration (sanity for the oracle itself)."""
    if not 3 <= n <= BRUTE_GUARD:
        raise ResourceGuardError(f"brute force supports 3 <= n <= {BRUTE_GUARD}")
    return len({_class_key(p) for p in _cycles(n)})
