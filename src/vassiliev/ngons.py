"""One-branch tree diagrams, complete n-gons, and the reduction that
rewrites any one-branch tree as an integral combination of complete n-gons
modulo four-term relations and split diagrams (over the rationals).

Conventions frozen here:

* The standard n-tree is the caterpillar u_0 - u_1 - ... - u_{n-2}; u_0
  carries branches 0 and 1, the middle vertex u_k carries branch k+1, and
  u_{n-2} carries branches n-1 and n.  Slot cyclic orders follow the
  listing order above.

* The complete n-gon of a permutation s has internal cycle w_0 ... w_{n-1}
  (counterclockwise) with pendant edge i+1 at external position s(i+1)-1;
  the cyclic order at w_i is (pendant, next cycle edge, previous).

* The reduction follows the two-step induction on |s(n-1) - s(n-2)|:
  adjacent-leg fusions (inverse STU reads  D = fused + swapped), an
  antisymmetry swap of the last two branches when the n-th branch blocks
  the fusion, and cycle growth by IHX for incomplete gons.  One-branch
  trees whose last three branch ends are consecutive on the circle are
  dropped: they vanish modulo split diagrams and 4T over the rationals
  (chord-of-length-two placement independence, checked in the tests with
  `tests/ccds.py`), and the reduction checks every dropped tree against
  the 4T+split span on the fly.

`ngon_coefficients` reads a reduction's result, or any combination of
complete n-gons, as (representative, integer coefficient) pairs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .diagrams import CCD, DiagramSum, _from_pairing
from .errors import ConsistencyError, DiagramError, ResourceGuardError
from .relations import ihx_pieces, quotient_spans, stu_expand

NGON_ENUM_GUARD = 8


def check_perm(sigma):
    sigma = tuple(int(v) for v in sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise DiagramError(f"{sigma} is not a permutation of 1..{n}")
    return sigma


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def tree_ccd(attachments):
    """Caterpillar tree CCD with branch i at external position attachments[i].

    attachments[0] is the position of branch 0; positions live on a circle
    with len(attachments) marked points.
    """
    att = tuple(attachments)
    n = len(att) - 1
    if n < 2:
        raise DiagramError("one-branch trees need order >= 2")
    if sorted(att) != list(range(n + 1)):
        raise DiagramError("attachment positions must be a permutation of 0..n")
    ext = n + 1
    if n == 2:
        verts = [(("x", att[0]), ("x", att[1]), ("x", att[2]))]
        return CCD.build(ext, verts)
    verts = []
    # u_0: (branch0, branch1, path to u_1)
    verts.append((("x", att[0]), ("x", att[1]), ("v", 1, 0)))
    for k in range(1, n - 2):
        verts.append((("v", k - 1, 2), ("x", att[k + 1]), ("v", k + 1, 0)))
    # u_{n-2}: (path from u_{n-3}, branch n-1, branch n)
    verts.append((("v", n - 3, 2), ("x", att[n - 1]), ("x", att[n])))
    return CCD.build(ext, verts)


def one_branch_tree(sigma) -> CCD:
    """The one-branch tree diagram of the permutation (branch 0 at 0)."""
    sigma = check_perm(sigma)
    return tree_ccd((0,) + sigma)


def complete_ngon(sigma) -> CCD:
    """The complete n-gon f(sigma): internal n-cycle with pendant edges."""
    sigma = check_perm(sigma)
    n = len(sigma)
    if n < 2:
        raise DiagramError("complete n-gons need order >= 2")
    verts = []
    for i in range(n):
        verts.append((
            ("x", sigma[i] - 1),
            ("v", (i + 1) % n, 2),
            ("v", (i - 1) % n, 1),
        ))
    return CCD.build(n, verts)


# ---------------------------------------------------------------------------
# canonical representatives of the n-gon family
# ---------------------------------------------------------------------------

def _fiber(sigma):
    """All permutations with the same complete n-gon as sigma."""
    n = len(sigma)
    out = set()
    for r in range(n):
        rotated = tuple(sigma[(i + r) % n] for i in range(n))
        for m in range(n):
            out.add(tuple((v - 1 + m) % n + 1 for v in rotated))
    return out


def canonical_representative(sigma):
    """The minimal permutation whose complete n-gon matches sigma's."""
    sigma = check_perm(sigma)
    return min(_fiber(sigma))


@lru_cache(maxsize=None)
def ngon_representatives(n: int):
    """Sorted canonical representatives, one per complete n-gon."""
    if n < 2:
        raise DiagramError("n >= 2 required")
    if n > NGON_ENUM_GUARD:
        raise ResourceGuardError(
            f"n-gon enumeration supports n <= {NGON_ENUM_GUARD}")
    reps = {canonical_representative(p) for p in permutations(range(1, n + 1))}
    return tuple(sorted(reps))


@lru_cache(maxsize=None)
def _ngon_class_table(n: int):
    """Map canonical-class key -> (representative, sign of its n-gon)."""
    table = {}
    for rep in ngon_representatives(n):
        ccd = complete_ngon(rep)
        _, sign, null = ccd.canonical()
        table.setdefault(ccd.key(), (rep, sign, null))
    return table


def ngon_coefficients(combo: DiagramSum):
    """(representative, int coefficient) for each term of a combination of
    complete n-gons, in `items_sorted` order, signed to the
    representative's own n-gon.  Null gons are skipped; a term that is not
    a complete n-gon raises DiagramError.
    """
    if combo.is_zero():
        return []
    table = _ngon_class_table(combo.order)
    out = []
    for diagram, coeff in combo.items_sorted():
        if not isinstance(diagram, CCD) or diagram.key() not in table:
            raise DiagramError(
                "combo must be supported on complete n-gon diagrams")
        _, sign, null = diagram.canonical()
        if null:
            continue
        rep, rep_sign, _ = table[diagram.key()]
        out.append((rep, coeff * sign * rep_sign))
    return out


# ---------------------------------------------------------------------------
# surgeries
# ---------------------------------------------------------------------------

def fuse_adjacent_legs(ccd: CCD, p: int):
    """Inverse STU at the adjacent external positions (p, p+1 cyclically).

    Returns (fused, swapped):  ccd == fused + swapped  under the frozen STU
    convention (the fused diagram resolves back to "ccd minus swapped").
    """
    q = (p + 1) % ccd.ext
    pairing = ccd.pairing()
    far1, far2 = pairing[("x", p)], pairing[("x", q)]   # early, late legs
    if far1[0] != "v" or far2[0] != "v":
        raise DiagramError("fusion needs internal legs at both positions")
    # the two positions merge into one external vertex, which keeps key p
    del pairing[("x", q)]
    v_new = len(ccd.vertices)
    # cyclic order (stem, h1, h2) with h2 -> early leg, h1 -> late leg
    for s, end in enumerate((("x", p), far2, far1)):
        pairing[("v", v_new, s)] = end
        pairing[end] = ("v", v_new, s)
    fused = _from_pairing(pairing)

    swapped = _swap_external_targets(ccd, p, q)
    return fused, swapped


def _swap_external_targets(ccd: CCD, p: int, q: int) -> CCD:
    pairing = ccd.pairing()
    fp, fq = pairing[("x", p)], pairing[("x", q)]
    pairing[("x", p)] = fq
    pairing[fq] = ("x", p)
    pairing[("x", q)] = fp
    pairing[fp] = ("x", q)
    return _from_pairing(pairing)


# ---------------------------------------------------------------------------
# internal cycle structure of a gon term
# ---------------------------------------------------------------------------

def _internal_cycle(ccd: CCD):
    """Vertex set of the unique internal cycle (strip leaves repeatedly)."""
    adj = [[t[1] for t in slots if t[0] == "v"] for slots in ccd.vertices]
    alive = set(range(len(adj)))
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if sum(u in alive for u in adj[v]) <= 1:
                alive.discard(v)
                changed = True
    return alive


def _cycle_growth_edge(ccd: CCD, core):
    """Deterministic (vertex, slot) of an edge from the cycle to outside."""
    for i in sorted(core):
        for s, tgt in enumerate(ccd.vertices[i]):
            if tgt[0] == "v" and tgt[1] not in core:
                return (i, s)
    raise ConsistencyError("incomplete gon has no outward internal edge")


# ---------------------------------------------------------------------------
# the reduction
# ---------------------------------------------------------------------------

def reduce_tree_to_ngons(sigma, trace=None):
    """Integral combination of complete n-gons matching the one-branch tree
    modulo 4T relations and split diagrams (over the rationals).

    Returns a DiagramSum over canonical complete n-gon CCDs with integer
    coefficients.  Every tree dropped as trivial is checked against the
    4T+split span (a defensive exactness assertion).
    `trace`, if given, is a list collecting rewrite steps as dicts.
    """
    sigma = check_perm(sigma)
    n = len(sigma)
    if n < 3:
        raise DiagramError("the reduction needs order > 2")
    circle = n + 1

    def log(rule, location, sign, terms):
        if trace is not None:
            trace.append({"rule": rule, "location": location,
                          "sign": sign, "resulting-terms": terms})

    result = DiagramSum()
    table = _ngon_class_table(n)
    tree_work = [(1, sigma)]
    gon_work = []

    while tree_work:
        coeff, att = tree_work.pop()
        pn2, pn1, pn = att[n - 3], att[n - 2], att[n - 1]
        k = abs(pn1 - pn2)
        branch_at = {0: 0}  # position -> branch, branch 0 pinned at 0
        for i, p in enumerate(att):
            branch_at[p] = i + 1
        if k == 1:
            lo = min(pn1, pn2)
            dist = (lo - pn) % circle
            if dist == 1 and pn1 < pn2:
                # mirrored consecutive tail (n, n-1, n-2): one more fusion of
                # branches n-1 and n-2 reaches the vanishing configuration
                fused, _ = fuse_adjacent_legs(tree_ccd((0,) + att), pn1)
                gon_work.append((coeff, fused))
                new_att = list(att)
                new_att[n - 2], new_att[n - 3] = pn2, pn1
                tree_work.append((coeff, tuple(new_att)))
                log("STU", f"swap tail pair {n - 2},{n - 1} at {pn1}", 1,
                    [f"gon({coeff})", f"tree{tuple(new_att)}({coeff})"])
                continue
            if dist == 1:
                expanded = stu_expand(tree_ccd((0,) + att))
                if not quotient_spans(n)[1].member(expanded):
                    raise ConsistencyError(
                        f"dropped tree {att} is not in the 4T+split span")
                log("STU", f"drop consecutive-tail tree {att}", 1, [])
                continue
            partner_pos = (pn + 1) % circle
            early = pn
            fused, _ = fuse_adjacent_legs(tree_ccd((0,) + att), early)
            gon_work.append((coeff, fused))
            j = branch_at[partner_pos]
            new_att = list(att)
            if j == 0:
                # branch n moves to position 0; renormalise the rotation
                new_positions = [None] * (n + 1)
                new_positions[0] = pn  # branch 0 takes the old position of n
                for i in range(1, n):
                    new_positions[i] = att[i - 1]
                new_positions[n] = 0
                shift = new_positions[0]
                new_att = tuple((new_positions[i] - shift) % circle
                                for i in range(1, n + 1))
            else:
                new_att[n - 1] = partner_pos
                new_att[j - 1] = pn
                new_att = tuple(new_att)
            tree_work.append((coeff, new_att))
            log("STU", f"walk branch {n} from {pn} to {partner_pos}", 1,
                [f"gon({coeff})", f"tree{new_att}({coeff})"])
        else:
            dirn = 1 if pn2 > pn1 else -1
            partner_pos = pn1 + dirn
            if branch_at[partner_pos] == n:
                new_att = list(att)
                new_att[n - 2], new_att[n - 1] = att[n - 1], att[n - 2]
                tree_work.append((-coeff, tuple(new_att)))
                log("AS", f"swap branches {n - 1},{n}", -1,
                    [f"tree{tuple(new_att)}({-coeff})"])
                continue
            j = branch_at[partner_pos]
            early = min(pn1, partner_pos)
            fused, _ = fuse_adjacent_legs(tree_ccd((0,) + att), early)
            gon_work.append((coeff, fused))
            new_att = list(att)
            new_att[n - 2] = partner_pos
            new_att[j - 1] = pn1
            tree_work.append((coeff, tuple(new_att)))
            log("STU", f"move branch {n - 1} from {pn1} to {partner_pos}", 1,
                [f"gon({coeff})", f"tree{tuple(new_att)}({coeff})"])

    while gon_work:
        coeff, gon = gon_work.pop()
        core = _internal_cycle(gon)
        if not core:
            raise ConsistencyError("gon term lost its internal cycle")
        if len(core) == len(gon.vertices):
            _, s, null = gon.canonical()
            if null:
                log("AS", "null complete gon dropped", 1, [])
                continue
            entry = table.get(gon.key())
            if entry is None:
                raise ConsistencyError("complete gon not matched to the family")
            rep, s_rep, rep_null = entry
            if rep_null:
                log("AS", "2-torsion gon dropped over the rationals", 1, [])
                continue
            # gon is in rep's class; DiagramSum.add applies its sign s
            result.add(gon, coeff)
            log("STU", f"complete gon matched to {rep}", s * s_rep,
                [f"f{rep}({coeff * s * s_rep})"])
        else:
            edge = _cycle_growth_edge(gon, core)
            ident, h, x = ihx_pieces(gon, edge)
            gon_work.append((coeff, h))
            gon_work.append((-coeff, x))
            log("IHX", f"grow cycle of length {len(core)} at {edge}", 1,
                [f"gon({coeff})", f"gon({-coeff})"])

    return result
