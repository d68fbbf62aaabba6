"""Exact dimensions of the diagram quotients, order by order.

Chord diagrams modulo the four-term relation form the receptacle for
order-n invariants; quotienting additionally by split diagrams isolates
the primitive (connected-sum-additive) part.  Everything here is sparse
exact-rational linear algebra: no floats, no tolerance.

Run:  python3 demos/dimensions_walkthrough.py
"""

from vassiliev.diagrams import ChordDiagram, enumerate_chord_diagrams
from vassiliev.relations import quotient_spans

print("order | #diagrams | rank 4T | dim mod 4T | +split | primitive dim")
print("-" * 66)
for n in range(2, 6):
    diagrams = enumerate_chord_diagrams(n)
    four_t, primitive = quotient_spans(n)
    print(f"{n:>5} | {len(diagrams):>9} | {four_t.rank:>7} |"
          f" {four_t.quotient_dim():>10} | {primitive.rank:>6} |"
          f" {primitive.quotient_dim():>13}")

print()
print("The primitive dimensions 1, 2, 3 at orders 3, 4, 5 are exact;")
print("the counting bound from the n-gon machinery gives 1, 2, 4 there.")

print()
print("Weight systems: the annihilator of the relations.")
(w,) = quotient_spans(3)[1].dual_basis()
w = w.normalized_at(ChordDiagram.from_text("123123"))
print(f"order-3 primitive functional, normalised at 123123:")
for d in enumerate_chord_diagrams(3):
    print(f"  {d.as_text()}: {w(d)}")
