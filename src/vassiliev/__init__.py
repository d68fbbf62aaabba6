"""Exact-arithmetic workbench for finite-type knot invariants.

Submodules:

- ``diagrams``    chord diagrams, trivalent circle diagrams, formal sums
- ``relations``   4T / STU / IHX relation machinery
- ``linalg``      exact rational sparse linear algebra over diagram bases
- ``ngons``       one-branch trees, complete n-gons, tree-to-n-gon reduction
- ``bounds``      cycle-counting dimension bounds (Burnside machinery)
- ``gausscodes``  Gauss codes, Reidemeister simplification, realizability
- ``invariants``  a2 and v3 by Gauss-diagram formulas (a2 checked two ways)
- ``ribbon``      the ribbon knot family indexed by cyclic permutations
- ``cli``         command-line front end
"""

__version__ = "0.1.0"
