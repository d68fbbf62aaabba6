"""Rewriting one-branch trees into complete n-gons, step by step.

One-branch tree diagrams generate everything (together with split
diagrams); the reduction below rewrites any tree as an integral
combination of complete n-gons using adjacent-leg fusions (inverse STU),
antisymmetry swaps, and cycle growth by IHX, and then certifies the
result by exact span membership.

Run:  python3 demos/ngon_reduction_walkthrough.py
"""

from vassiliev.ngons import (
    complete_ngon,
    ngon_coefficients,
    ngon_representatives,
    one_branch_tree,
    reduce_tree_to_ngons,
)
from vassiliev.relations import quotient_spans, stu_expand

n = 4
sigma = (2, 4, 1, 3)
print(f"reducing the one-branch tree of {sigma}")
trace = []
combo = reduce_tree_to_ngons(sigma, trace=trace)

print("\nrewrite steps:")
for step in trace:
    print(f"  [{step['rule']:>3}] {step['location']}"
          + (f"  -> {step['resulting-terms']}" if step["resulting-terms"] else ""))

print("\nresulting integral n-gon combination:")
for rep, c in ngon_coefficients(combo):
    print(f"  {c:+d} * f{rep}")

print("\ncertifying: expanded tree minus expanded combination lies in the")
print("span of the 4T relations and split diagrams ...")
span = quotient_spans(n)[1].copy()
target = stu_expand(one_branch_tree(sigma))
for g, c in combo.terms.items():
    target = target - stu_expand(g).scaled(c)
print("member of the span:", span.member(target))

print("\nand indeed the n-gons exhaust the whole order:")
for rep in ngon_representatives(n):
    span.add(stu_expand(complete_ngon(rep)))
print(f"rank {span.rank} over a basis of {len(span.basis)} diagrams")
