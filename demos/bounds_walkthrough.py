"""How many independent primitive invariants can each order carry?

The upper bound comes from counting complete n-gons: attachment patterns
are n-cycles in the symmetric group, considered up to inversion and up to
conjugation by the standard cycle (rotating the picture).  This script
walks through the count three ways and then assembles the composite
bounds for the full (non-primitive) spaces.

Run:  python3 demos/bounds_walkthrough.py
"""

from math import factorial

from vassiliev.bounds import (
    brute_force_xtilde,
    comparison_rows,
    divisors,
    primitive_bound,
    x_size,
    xtilde_count,
)

print("Counting the orbits of n-cycles (inversion + rotation)")
print("=" * 60)
for n in range(3, 10):
    print(f"\norder n = {n}")
    print(f"  inversion classes |X_n| = (n-1)!/2 = {factorial(n - 1) // 2}")
    for d in divisors(n):
        print(f"  classes fixed by rotation^({d}): {x_size(n, d)}")
    burnside = xtilde_count(n)
    closed = primitive_bound(n)
    brute = brute_force_xtilde(n)
    print(f"  Burnside average  = {burnside}")
    print(f"  closed form       = {closed}")
    print(f"  brute-force count = {brute}")
    assert burnside == closed == brute

print("\nThe sequence 1, 2, 4, 14, 54, 332, 2246 bounds the primitive")
print("dimension at orders 3..9; the true values are 1, 2, 3, 5, 8, 12, 18,")
print("so the bound is attained only at orders 3 and 4.")

print("\nComposite bounds (all invariants, products over partitions)")
print("=" * 60)
print(f"{'n':>3} {'total bound':>12} {'(n-2)!/2':>12}  within?")
for row in comparison_rows(16):
    print(f"{row['n']:>3} {row['total_bound']:>12} "
          f"{str(row['half_factorial']):>12}  {row['holds']}")
print("\nNote the two small-order violations (18 > 12 and 61 > 60): the")
print("factorial ceiling only wins once the dominant term takes over.")
