"""A family of ribbon knots indexed by cyclic permutations, as Gauss codes.

Layout.  The diagram lives on an annulus (a periodic strip) glued to a
disk along the line y = 0.  The circle carries 2n marked points
x(k,1), x(k,2) for stations k = 1..n.  Inside the disk, straight chords
wire the marked points according to the permutation: chord i runs from
x(b_i - 1, 2) to x(b_{i+1} - 1, 1) with b_i the preimage of i, indices
cyclic, and earlier-drawn chords pass over later ones (a layered, hence
unknotted, pattern when the clasps are switched off).

Outside, each station k sends up a band (arc A_k) whose tip clasps the
next band's neck: the tip's inbound lane passes over both neck strands of
station k+1 (the scheme pair T_{k+1}: one positive then one negative
crossing), u-turns, and returns underneath (two non-scheme crossings).
The construction is Brunnian: switching both crossings of any nonempty
subset of scheme pairs lets the corresponding tips retract and the whole
diagram collapses to the layered unknot.

Everything is assembled from axis-aligned segments with integer
coordinates (chords live on a convex arc below the line), so all
crossings, orders and signs are exact; planarity of the result is
asserted through the rotation-system genus check.  For the identity
permutation the construction parallels Kanenobu's classical ribbon knot
examples (a documentation anchor, not a tested equality; the order-2
member indeed carries the a2 value -2 of a figure-eight connected sum).

The signed-diagram identity.  Smashing one scheme crossing per station
produces exactly the chord diagram family C(i_1, ..., i_n) read off the
marked circle with three sites per station, and the alternating sum over
the 2^n choices matches the STU expansion of the complete n-gon modulo
4T; `verify_ohyama_identity` checks this exactly, which is what pins the
values of the low-order invariants on the family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .diagrams import ChordDiagram, DiagramSum
from .errors import ConsistencyError, DiagramError, ResourceGuardError
from .gausscodes import GaussCode, Passage, connected_sum, simplify
from .ngons import (NGON_ENUM_GUARD, check_perm, complete_ngon,
                    ngon_coefficients)
from .relations import quotient_spans, stu_expand

PERIOD = 20


@dataclass(frozen=True)
class CrossingScheme:
    """Disjoint ordered crossing pairs T_1, ..., T_n."""

    sets: tuple

    def __post_init__(self):
        seen = set()
        for pair in self.sets:
            if len(pair) != 2:
                raise DiagramError("scheme sets hold exactly two crossings")
            for cid in pair:
                if cid in seen:
                    raise DiagramError("scheme sets must be disjoint")
                seen.add(cid)

    def all_ids(self, selection=None):
        if selection is None:
            selection = range(len(self.sets))
        out = set()
        for i in selection:
            out.update(self.sets[i])
        return out

    def to_json(self) -> str:
        return json.dumps({"T": [list(p) for p in self.sets]})


# ---------------------------------------------------------------------------
# geometric assembler
# ---------------------------------------------------------------------------

def _boundary_x(station, which, n):
    """Strip x-coordinate of the marked point x(station, which)."""
    k = (station - 1) % n
    return PERIOD * k + (4 if which == 1 else 10)


def _arc_segments(k, n, mirrored):
    """Axis-aligned segments of arc A_k with layer tags.

    The tip visits station k+1; `mirrored` swaps the tip lanes' layers
    (used at one station to build the inverse family member).
    """
    X = PERIOD * ((k - 1) % n)
    T = X + PERIOD
    lane_in_layer, lane_back_layer = (10, 30) if mirrored else (30, 10)
    return [
        ("neck_in", X + 4, 0, X + 4, 10, 20),
        ("road_out", X + 4, 10, T - 6, 10, 15),
        ("dive", T - 6, 10, T - 6, 4, 15),
        ("lane_in", T - 6, 4, T + 12, 4, lane_in_layer),
        ("u_turn", T + 12, 4, T + 12, 2, lane_in_layer),
        ("lane_back", T + 12, 2, T - 7, 2, lane_back_layer),
        ("ascend", T - 7, 2, T - 7, 12, 25),
        ("road_back", T - 7, 12, X + 10, 12, 40),
        ("neck_out", X + 10, 12, X + 10, 0, 20),
    ]


def _seg_dir(x1, y1, x2, y2):
    if y1 == y2:
        return (1, 0) if x2 > x1 else (-1, 0)
    return (0, 1) if y2 > y1 else (0, -1)


def _strip_crossings(arcs, L):
    """All intersections among axis-aligned arc segments on the strip."""
    horiz = []
    vert = []
    for arc_id, segs in arcs.items():
        for idx, (name, x1, y1, x2, y2, layer) in enumerate(segs):
            rec = (arc_id, idx, name, x1, y1, x2, y2, layer)
            if y1 == y2:
                horiz.append(rec)
            else:
                vert.append(rec)
    crossings = []
    for h in horiz:
        _, _, _, hx1, hy, hx2, _, _ = h
        a, b = sorted((hx1, hx2))
        for v in vert:
            _, _, _, vx, vy1, _, vy2, _ = v
            c, d = sorted((vy1, vy2))
            if not c < h[4] < d:
                continue
            for shift in (-L, 0, L):
                x = vx + shift
                if a < x < b:
                    crossings.append((h, v, x % L, hy))
    return crossings


def _chord_point(x, L):
    """Convex position below the line for a boundary coordinate."""
    return (Fraction(x), Fraction(-1) - (Fraction(x) - Fraction(L, 2)) ** 2)


def _segment_intersection(p1, p2, p3, p4):
    """Exact intersection parameter of segments p1p2 and p3p4, or None."""
    (x1, y1), (x2, y2) = p1, p2
    (x3, y3), (x4, y4) = p3, p4
    d1 = (x2 - x1, y2 - y1)
    d2 = (x4 - x3, y4 - y3)
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return None
    t = ((x3 - x1) * d2[1] - (y3 - y1) * d2[0]) / den
    u = ((x3 - x1) * d1[1] - (y3 - y1) * d1[0]) / den
    if 0 < t < 1 and 0 < u < 1:
        return t, u
    return None


def _family_layout(sigma):
    """(n, b, before) for a canonical permutation (sigma(1) = 1, n >= 2):
    b[v] = sigma^{-1}(v), and before[v] = b[v] - 1 as a station 1..n,
    the station preceding b[v] cyclically (index 0 of both is unused)."""
    sigma = check_perm(sigma)
    n = len(sigma)
    if n < 2:
        raise DiagramError("the family starts at order 2")
    if sigma[0] != 1:
        raise DiagramError("a canonical representative (sigma(1) = 1) is required")
    b = [0] * (n + 1)
    for i, v in enumerate(sigma, start=1):
        b[v] = i
    return n, b, [0] + [(b[v] - 2) % n + 1 for v in range(1, n + 1)]


def ribbon_gauss_code(sigma, mirrored_first_clasp=False):
    """(GaussCode, CrossingScheme) of the ribbon knot for a canonical
    permutation (sigma(1) = 1, n >= 2)."""
    n, _, before = _family_layout(sigma)
    L = PERIOD * n

    # ----- pieces in traversal order ------------------------------------
    # chord i runs x(b_i - 1, 2) -> x(b_{i+1} - 1, 1); arc A_k follows the
    # chord that ends at x(k, 1).
    chords = [(i, before[i], before[i % n + 1]) for i in range(1, n + 1)]

    arcs = {}
    mirrored_arc = n if mirrored_first_clasp else None
    for k in range(1, n + 1):
        arcs[k] = _arc_segments(k, n, mirrored=(k == mirrored_arc))

    # ----- crossings ------------------------------------------------------
    events = {}  # piece -> list of (position along piece, crossing ref)
    crossing_info = {}

    def add_event(piece, dist, ref):
        events.setdefault(piece, []).append((dist, ref))

    for h, v, x, y in _strip_crossings(arcs, L):
        ha, hi, hname, hx1, hy, hx2, _, hlayer = h
        va, vi, vname, vx, vy1, _, vy2, vlayer = v
        if hlayer == vlayer:
            raise ConsistencyError("layer tie in the strip layout")
        ref = ("strip", x, y)
        over_h = hlayer > vlayer
        hdir = _seg_dir(hx1, hy, hx2, hy)
        vdir = _seg_dir(vx, vy1, vx, vy2)
        over_dir, under_dir = (hdir, vdir) if over_h else (vdir, hdir)
        sign = over_dir[0] * under_dir[1] - over_dir[1] * under_dir[0]
        crossing_info[ref] = {"sign": sign, "h_over": over_h,
                              "names": (hname, vname), "arcs": (ha, va)}
        # distance along each segment (strip x distances respect the wrap)
        hx_shifted = x if min(hx1, hx2) <= x <= max(hx1, hx2) else (
            x + L if x + L <= max(hx1, hx2) else x - L)
        add_event(("arc", ha, hi), abs(hx_shifted - hx1), ref)
        add_event(("arc", va, vi), abs(y - vy1), ref)

    pts = {}
    for i, src, dst in chords:
        pts[i] = (_chord_point(_boundary_x(src, 2, n), L),
                  _chord_point(_boundary_x(dst, 1, n), L))
    for i, srci, dsti in chords:
        for j, srcj, dstj in chords:
            if i >= j:
                continue
            hit = _segment_intersection(pts[i][0], pts[i][1],
                                        pts[j][0], pts[j][1])
            if hit is None:
                continue
            t, u = hit
            ref = ("disk", i, j)
            # earlier chords are drawn first and stay on top
            di = (pts[i][1][0] - pts[i][0][0], pts[i][1][1] - pts[i][0][1])
            dj = (pts[j][1][0] - pts[j][0][0], pts[j][1][1] - pts[j][0][1])
            sign = di[0] * dj[1] - di[1] * dj[0]  # over = chord i
            crossing_info[ref] = {"sign": 1 if sign > 0 else -1,
                                  "over_chord": i, "names": ("chord", "chord"),
                                  "arcs": (i, j)}
            add_event(("chord", i), t, ref)
            add_event(("chord", j), u, ref)

    # ----- traversal ------------------------------------------------------
    passages = []
    ids = {}

    def visit(ref, over):
        cid = ids.setdefault(ref, len(ids) + 1)
        info = crossing_info[ref]
        passages.append(Passage(cid, over, 1 if info["sign"] > 0 else -1))

    for i, _, arc in chords:   # A_arc follows the chord that ends at arc
        for t, ref in sorted(events.get(("chord", i), [])):
            visit(ref, over=(crossing_info[ref]["over_chord"] == i))
        segs = arcs[arc]
        for idx in range(len(segs)):
            is_h = segs[idx][2] == segs[idx][4]
            for d, ref in sorted(events.get(("arc", arc, idx), [])):
                info = crossing_info[ref]
                if info["names"] == ("chord", "chord"):
                    raise ConsistencyError("chord crossing on an arc")
                over = info["h_over"] if is_h else not info["h_over"]
                visit(ref, over)

    code = GaussCode(tuple(passages))
    if not code.is_realizable():
        raise ConsistencyError("assembled diagram is not planar")

    scheme = []
    for k in range(1, n + 1):
        Xk = PERIOD * (k - 1)
        c1 = ids.get(("strip", (Xk + 4) % L, 4))
        c2 = ids.get(("strip", (Xk + 10) % L, 4))
        if c1 is None or c2 is None:
            raise ConsistencyError("scheme crossings missing from the layout")
        scheme.append((c1, c2))
    return code, CrossingScheme(tuple(scheme))


def ribbon_inverse_code(sigma):
    """The family member with the first clasp mirrored: all invariant
    values up to the order flip sign."""
    return ribbon_gauss_code(sigma, mirrored_first_clasp=True)


# ---------------------------------------------------------------------------
# the signed chord-diagram family of a scheme
# ---------------------------------------------------------------------------

def ohyama_diagrams(sigma):
    """The 2^n signed diagrams C(i_1,...,i_n) of the scheme circle.

    Sites on the circle, per station in the order the knot visits them:
    z_1 of scheme j, the double passage y_{j+1}, then z_2 of scheme j.
    The chord of scheme j joins y_j with the chosen z site; the sign is
    the product of +1 for first choices and -1 for second choices.  There
    are 2^n of them, so n is guarded like the n-gon enumeration.  The test
    oracle reads them off the actual code (`tests/ribbon_oracle.py`).
    """
    n, b, before = _family_layout(sigma)
    if n > NGON_ENUM_GUARD:
        raise ResourceGuardError(
            f"signed scheme diagrams support n <= {NGON_ENUM_GUARD}")
    sites = []
    for i in range(1, n + 1):
        j = before[i]
        sites.append(("z", 1, j))
        sites.append(("y", b[i]))
        sites.append(("z", 2, j))
    out = []
    for choice in product((1, 2), repeat=n):
        used = {}
        for j in range(1, n + 1):
            used[("y", j)] = j
            used[("z", choice[j - 1], j)] = j
        word = [used[s] for s in sites if s in used]
        sign = (-1) ** sum(1 for c in choice if c == 2)
        out.append((sign, ChordDiagram.from_word(word)))
    return out


def scheme_state_sum(sigma) -> DiagramSum:
    total = DiagramSum()
    for sign, d in ohyama_diagrams(sigma):
        total.add(d, sign)
    return total


def verify_ohyama_identity(sigma) -> bool:
    """Signed scheme diagrams minus the expanded n-gon lies in the 4T span."""
    sigma = check_perm(sigma)
    n = len(sigma)
    if n not in (2, 3, 4):
        raise ResourceGuardError("identity check guarded to orders 2..4")
    diff = scheme_state_sum(sigma) - stu_expand(complete_ngon(sigma))
    return quotient_spans(n)[0].member(diff)


# ---------------------------------------------------------------------------
# formal connected sums of family members
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalKnot:
    """Multiset of family generators: (sigma, exponent, multiplicity)."""

    factors: tuple

    def __post_init__(self):
        for sigma, eps, mult in self.factors:
            check_perm(sigma)
            if eps not in (1, -1) or mult < 1:
                raise DiagramError("factors are (sigma, +-1, positive count)")

    @staticmethod
    def from_factors(factors):
        merged = {}
        for sigma, eps, mult in factors:
            key = (tuple(sigma), eps)
            merged[key] = merged.get(key, 0) + mult
        out = tuple(sorted((s, e, m) for (s, e), m in merged.items() if m))
        return FormalKnot(out)

    def inverse(self) -> "FormalKnot":
        return FormalKnot.from_factors(
            (s, -e, m) for s, e, m in self.factors)

    def order_profile(self, weight) -> Fraction:
        """Additive evaluation of an order-m weight system on the factors.

        A factor of order different from the functional's order
        contributes nothing (members have trivial lower invariants and
        the profile is the symbolic model of Props. 2.1/2.2 style
        evaluation).
        """
        total = Fraction(0)
        for sigma, eps, mult in self.factors:
            if len(sigma) != weight.order:
                continue
            total += eps * mult * weight(stu_expand(complete_ngon(sigma)))
        return total

    def as_code(self) -> GaussCode:
        """Actual Gauss code: connected sum of the realized factors."""
        code = GaussCode(())
        for sigma, eps, mult in self.factors:
            member = (ribbon_gauss_code(sigma)[0] if eps > 0
                      else ribbon_inverse_code(sigma)[0])
            for _ in range(mult):
                code = connected_sum(code, member)
        return code


def realize_weights(combo: DiagramSum) -> FormalKnot:
    """Formal family sum whose top-order weights match the n-gon combo.

    The formal sum stores canonical diagram classes, which identifies an
    n-gon with its orientation-reverse up to sign; the realization picks
    one canonical representative per class, so mutually inverse
    permutations may merge.  The weight profile is unchanged.
    """
    return FormalKnot.from_factors((rep, 1 if c > 0 else -1, abs(c))
                                   for rep, c in ngon_coefficients(combo))


def formal_vn_inverse(k: FormalKnot, n: int) -> FormalKnot:
    """A family sum cancelling every primitive weight of order <= n.

    Flipping every factor's exponent negates each order profile exactly;
    the cancellation is verified against the computed dual bases.
    """
    if n > 4:
        raise ResourceGuardError("symbolic verification guarded to order 4")
    for sigma, _, _ in k.factors:
        if len(sigma) > n:
            raise DiagramError("factor order exceeds the requested range")
    inv = k.inverse()
    for m in range(2, n + 1):
        for w in quotient_spans(m)[1].dual_basis():
            if k.order_profile(w) + inv.order_profile(w) != 0:
                raise ConsistencyError("inverse failed to cancel a weight")
    return inv


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------

def scheme_switch_is_trivial(code: GaussCode, scheme: CrossingScheme,
                             selection) -> bool:
    """Does switching the selected scheme sets yield a certified unknot?"""
    switched = code.switched(scheme.all_ids(selection))
    return not simplify(switched).passages


def all_switchings_trivial(code, scheme) -> bool:
    n = len(scheme.sets)
    for mask in range(1, 1 << n):
        sel = [i for i in range(n) if mask >> i & 1]
        if not scheme_switch_is_trivial(code, scheme, sel):
            return False
    return True
