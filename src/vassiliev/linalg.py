"""Exact sparse linear algebra over diagram bases.

Rows come in as sparse rows {column: int or Fraction}, cleared of
denominators (`four_t_relations` builds its 4T rows as int rows over the
enumeration order), or as `DiagramSum`s, whose integer coefficients are
read over the basis as they are.  They are kept as integer sparse
vectors (content normalised by gcd);
reduction is fraction-free, so no floating point enters any result.  The
pivot rows are fully reduced: each holds its own lowest column, its
pivot, and no other pivot column.  So `pivots` is the reduced row echelon
form of the row space, each row scaled to primitive integers with a
positive lead, and it does not depend on the order the rows came in.
`add_all` inserts a batch highest lowest-column first, which keeps the
rows sparse while they are built (a few thousand rows over at most ~10^3
basis diagrams at the sizes that occur here).

A `RelationSpan` is the row space of a set of relations over an ordered
diagram basis; quotient dimensions, membership queries and the dual basis
of annihilating functionals (weight systems) are all exact, the last read
straight off the pivot rows.  The shared 4T and 4T + split spans come
from `relations.quotient_spans`; they are read-only, and `copy()` gives a
writable span to extend.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .diagrams import ChordDiagram, DiagramSum
from .errors import ConsistencyError, DiagramError


def _normalize(row):
    """Divide an int sparse row by the gcd of its entries; fix leading sign."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    lead = row[min(row)]
    s = -1 if lead < 0 else 1
    return {c: s * v // g for c, v in row.items()}


def _int_row(vec):
    """Clear denominators of a {col: Fraction|int} vector."""
    den = 1
    try:
        for v in vec.values():
            den = lcm(den, v.denominator)
    except AttributeError:
        raise DiagramError("vector entries must be int or Fraction") from None
    return {c: v.numerator * (den // v.denominator)
            for c, v in vec.items() if v}


def _combine(vec, piv, c):
    """a * vec - b * piv, with a / b = piv[c] / vec[c] in lowest terms, so
    column c cancels; `vec` is changed in place and returned."""
    a, b = piv[c], vec[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for col in vec:
            vec[col] *= a
    for col, v in piv.items():
        val = vec.get(col, 0) - b * v
        if val:
            vec[col] = val
        else:
            del vec[col]
    return vec


def _eliminate(vec, pivots):
    """Fraction-free reduction of an int row against fully reduced pivot
    rows; the result holds no pivot column.

    A step against one pivot row brings in no other pivot column, so one
    step per pivot column the row holds is enough.
    """
    vec = dict(vec)
    for c in [c for c in vec if c in pivots]:
        _combine(vec, pivots[c], c)
    return vec


class RelationSpan:
    """Row space of relation vectors over an ordered diagram basis."""

    def __init__(self, basis):
        self.basis = tuple(basis)
        self.index = {d: i for i, d in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise DiagramError("basis has repeated diagrams")
        self.pivots = {}      # pivot column -> fully reduced int row
        self.rows = []        # original rows, as inserted (int sparse)
        self.read_only = False

    @staticmethod
    def over_order(n, rows=()):
        from .diagrams import enumerate_chord_diagrams
        return RelationSpan(enumerate_chord_diagrams(n)).add_all(rows)

    def vector_of(self, combo: DiagramSum):
        """The int row of `combo`: its terms are distinct and nonzero."""
        vec = {}
        for d, c in combo.terms.items():
            i = self.index.get(d)
            if i is None:
                raise DiagramError(f"diagram {d} not in basis")
            vec[i] = c
        return vec

    def add(self, row):
        """Insert a relation; accepts a DiagramSum or a sparse vector."""
        return self.add_all([row])

    def add_all(self, rows):
        """Insert relations (DiagramSums or sparse vectors); all or nothing.

        Every row is converted before any is inserted, so a bad row leaves
        the span as it was.  `rows` keeps the caller's order; the pivots
        take the nonzero rows highest lowest-column first.
        """
        if self.read_only:
            raise ConsistencyError("shared span is read-only; add to a copy()")
        vecs = [self.vector_of(r) if isinstance(r, DiagramSum) else _int_row(r)
                for r in rows]
        self.rows.extend(vecs)
        pivots = self.pivots
        for vec in sorted(filter(None, vecs), key=min, reverse=True):
            vec = _eliminate(vec, pivots)
            if not vec:
                continue
            new = _normalize(vec)
            c = min(new)
            # clear the new pivot column from the older rows; a row is
            # replaced, never changed, since copies share rows
            for p in [p for p, row in pivots.items() if c in row]:
                pivots[p] = _normalize(_combine(dict(pivots[p]), new, c))
            pivots[c] = new
        return self

    def copy(self) -> "RelationSpan":
        """A writable span with the same basis and rows.

        The copy shares the row dicts; inserting replaces a pivot row by a
        new dict and never changes one in place, so the original (often a
        read-only cached span) is untouched.
        """
        out = RelationSpan.__new__(RelationSpan)
        out.basis, out.index = self.basis, self.index
        out.pivots = dict(self.pivots)
        out.rows = list(self.rows)
        out.read_only = False
        return out

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def member(self, vec) -> bool:
        """Exact membership of a vector (or DiagramSum) in the row space."""
        if isinstance(vec, DiagramSum):
            return not _eliminate(self.vector_of(vec), self.pivots)
        if any(c not in range(len(self.basis)) for c in vec):
            raise DiagramError("vector indexed outside the basis")
        return not _eliminate(_int_row(vec), self.pivots)

    def quotient_dim(self) -> int:
        return len(self.basis) - self.rank

    # -- dual functionals ------------------------------------------------

    def dual_basis(self):
        """Weight systems spanning the annihilator of the row space.

        One per free column f: 1 at f and -row[f] / row[c] at each pivot
        column c, read off the fully reduced pivot rows.
        """
        values = {f: {self.basis[f]: Fraction(1)}
                  for f in range(len(self.basis)) if f not in self.pivots}
        for c, row in sorted(self.pivots.items()):
            for f, v in row.items():
                if f != c:
                    values[f][self.basis[c]] = Fraction(-v, row[c])
        order = self._basis_order()
        return [WeightSystem(order, vals) for vals in values.values()]

    def _basis_order(self):
        d = self.basis[0]
        return d.n if isinstance(d, ChordDiagram) else d.order


class WeightSystem:
    """Linear functional on order-n diagrams, given by its basis values."""

    def __init__(self, order, values):
        self.order = order
        self.values = {d: Fraction(v) for d, v in values.items()}

    def __call__(self, arg):
        if isinstance(arg, ChordDiagram):
            return self.values.get(arg, Fraction(0))
        if isinstance(arg, DiagramSum):
            total = Fraction(0)
            for d, c in arg.terms.items():
                total += c * self.values.get(d, Fraction(0))
            return total
        raise DiagramError("weight systems evaluate diagrams or sums")

    def annihilates(self, span: RelationSpan) -> bool:
        """Vanishes on every inserted row of `span`.

        The values are scaled to integers once and indexed by column, so
        each row is one integer sum.
        """
        den = 1
        for v in self.values.values():
            den = lcm(den, v.denominator)
        by_col = [0] * len(span.basis)
        for d, v in self.values.items():
            col = span.index.get(d)
            if col is not None:
                by_col[col] = v.numerator * (den // v.denominator)
        return all(sum(v * by_col[col] for col, v in row.items()) == 0
                   for row in span.rows)

    def normalized_at(self, diagram):
        """This functional scaled to take the value 1 on `diagram`."""
        cur = self(diagram)
        if cur == 0:
            raise DiagramError("cannot normalise at a zero of the functional")
        f = 1 / cur
        return WeightSystem(self.order,
                            {d: v * f for d, v in self.values.items()})
