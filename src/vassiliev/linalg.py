"""Exact sparse linear algebra over diagram bases.

Rows are kept as integer sparse vectors (content normalised by gcd);
reduction is fraction-free, so no floating point enters any result.  The
echelon form uses lowest-column pivoting with rows reduced on insertion,
which is deterministic and keeps fill-in low at the sizes that occur here
(a few thousand rows over at most ~10^3 basis diagrams).

A `RelationSpan` is the row space of a set of relations over an ordered
diagram basis; quotient dimensions, membership queries and the dual basis
of annihilating functionals (weight systems) are all exact.  The shared
4T and 4T + split spans come from `relations.quotient_spans`; they are
read-only, and `copy()` gives a writable span to extend.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .diagrams import ChordDiagram, DiagramSum, is_split
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


def _eliminate(vec, pivots):
    """Fraction-free reduction of an int row against pivot rows.

    Each step replaces the working copy by a * vec - b * pivot, in place
    and over the pivot row's entries only; a is the pivot's lead entry.
    """
    vec = dict(vec)
    while vec:
        c = min(vec)
        piv = pivots.get(c)
        if piv is None:
            return vec, c
        a = piv[c]
        b = vec[c]
        if a != 1:
            for col in vec:
                vec[col] *= a
        for col, v in piv.items():
            val = vec.get(col, 0) - b * v
            if val:
                vec[col] = val
            else:
                del vec[col]
    return {}, None


class RelationSpan:
    """Row space of relation vectors over an ordered diagram basis."""

    def __init__(self, basis):
        self.basis = tuple(basis)
        self.index = {d: i for i, d in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise DiagramError("basis has repeated diagrams")
        self.pivots = {}      # pivot column -> normalized int row
        self.rows = []        # original rows, as inserted (int sparse)
        self.read_only = False

    @staticmethod
    def over_order(n, rows=()):
        from .diagrams import enumerate_chord_diagrams
        basis = sorted(enumerate_chord_diagrams(n), key=lambda d: d.word)
        span = RelationSpan(basis)
        for r in rows:
            span.add(r)
        return span

    def vector_of(self, combo: DiagramSum):
        vec = {}
        for d, c in combo.terms.items():
            i = self.index.get(d)
            if i is None:
                raise DiagramError(f"diagram {d} not in basis")
            vec[i] = vec.get(i, 0) + c
        return {c: v for c, v in vec.items() if v != 0}

    def add(self, row):
        """Insert a relation; accepts a DiagramSum or a sparse vector."""
        if self.read_only:
            raise ConsistencyError("shared span is read-only; add to a copy()")
        if isinstance(row, DiagramSum):
            row = self.vector_of(row)
        vec = _int_row(row)
        self.rows.append(vec)
        red, col = _eliminate(vec, self.pivots)
        if col is not None:
            self.pivots[col] = _normalize(red)
        return self

    def copy(self) -> "RelationSpan":
        """A writable span with the same basis and rows.

        Rows are never changed in place, so the copy shares them.
        """
        out = RelationSpan.__new__(RelationSpan)
        out.basis, out.index = self.basis, self.index
        out.pivots = dict(self.pivots)
        out.rows = list(self.rows)
        out.read_only = False
        return out

    def add_all(self, rows):
        for r in rows:
            self.add(r)
        return self

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def member(self, vec) -> bool:
        """Exact membership of a vector (or DiagramSum) in the row space."""
        if isinstance(vec, DiagramSum):
            if vec.is_zero():
                return True
            vec = self.vector_of(vec)
        if any(c not in range(len(self.basis)) for c in vec):
            raise DiagramError("vector indexed outside the basis")
        red, col = _eliminate(_int_row(vec), self.pivots)
        return col is None

    def quotient_dim(self) -> int:
        return len(self.basis) - self.rank

    # -- dual functionals ------------------------------------------------

    def _rref(self):
        """Reduced row echelon form of the pivot rows, over Fraction."""
        rows = {c: {k: Fraction(v) for k, v in r.items()}
                for c, r in self.pivots.items()}
        for c in sorted(rows, reverse=True):
            r = rows[c]
            lead = r[c]
            r = {k: v / lead for k, v in r.items()}
            rows[c] = r
            for c2, r2 in rows.items():
                if c2 == c or c not in r2:
                    continue
                f = r2[c]
                new = {k: v for k, v in r2.items()}
                for k, v in r.items():
                    nv = new.get(k, Fraction(0)) - f * v
                    if nv == 0:
                        new.pop(k, None)
                    else:
                        new[k] = nv
                rows[c2] = new
        return rows

    def dual_basis(self):
        """Weight systems spanning the annihilator of the row space."""
        rref = self._rref()
        pivot_cols = set(rref)
        free_cols = [i for i in range(len(self.basis)) if i not in pivot_cols]
        out = []
        for f in free_cols:
            values = {self.basis[f]: Fraction(1)}
            for c, row in rref.items():
                coeff = row.get(f)
                if coeff:
                    values[self.basis[c]] = -coeff
            out.append(WeightSystem(self._basis_order(), values))
        return out

    def _basis_order(self):
        d = self.basis[0]
        return d.n if isinstance(d, ChordDiagram) else d.order

    # -- diagnostics ------------------------------------------------------

    def rank_mod_p(self, p: int) -> int:
        """Rank over GF(p); cross-check only, not on the trusted path."""
        pivots = {}
        for row in self.rows:
            vec = {c: v % p for c, v in row.items() if v % p}
            while vec:
                c = min(vec)
                piv = pivots.get(c)
                if piv is None:
                    inv = pow(vec[c], p - 2, p)
                    pivots[c] = {k: (v * inv) % p for k, v in vec.items()}
                    break
                f = vec[c]
                new = {}
                for col in set(vec) | set(piv):
                    val = (vec.get(col, 0) - f * piv.get(col, 0)) % p
                    if val:
                        new[col] = val
                vec = new
        return len(pivots)


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

    def is_primitive(self) -> bool:
        """Vanishes on every split diagram of its order."""
        return all(self(d) == 0
                   for d in self.values if is_split(d))

    def normalized_at(self, diagram, value=1):
        cur = self(diagram)
        if cur == 0:
            raise DiagramError("cannot normalise at a zero of the functional")
        f = Fraction(value) / cur
        return WeightSystem(self.order,
                            {d: v * f for d, v in self.values.items()})
