"""The Conway polynomial by skein recursion: the test oracle for a2.

The recursion switches crossings towards a descending diagram and
smooths them with a z factor; it is exponential in the crossing number,
so the library evaluates a2 through the Alexander polynomial instead and
the tests compare both against this.
"""

from fractions import Fraction

from vassiliev.errors import DiagramError
from vassiliev.gausscodes import GaussCode, Passage, simplify
from vassiliev.invariants import _sum_over_summands

from sequences import least_sequence


def _poly_add(a, b, scale=1, shift=0):
    out = dict(a)
    for k, v in b.items():
        out[k + shift] = out.get(k + shift, 0) + scale * v
    return {k: v for k, v in out.items() if v}


def _link_key(link):
    comps = []
    for comp in link:
        raw = tuple((q.crossing, q.over, q.sign) for q in comp)
        best, _ = least_sequence(range(len(raw)), lambda r: raw[r:] + raw[:r])
        comps.append(best or ())
    comps.sort()
    # relabel crossings by first appearance for name independence
    rel = {}
    out = []
    for comp in comps:
        row = []
        for cid, over, sign in comp:
            lab = rel.setdefault(cid, len(rel) + 1)
            row.append((lab, over, sign))
        out.append(tuple(row))
    return tuple(out)


def _first_violation(link):
    visited = set()
    for ci, comp in enumerate(link):
        for pi, p in enumerate(comp):
            if p.crossing in visited:
                continue
            visited.add(p.crossing)
            if not p.over:
                return ci, pi
    return None


def _switch(link, cid):
    return tuple(
        tuple(Passage(p.crossing, not p.over, -p.sign) if p.crossing == cid
              else p for p in comp)
        for comp in link)


def _smooth(link, cid):
    """Oriented smoothing: split one component or merge two."""
    locs = []
    for ci, comp in enumerate(link):
        for pi, p in enumerate(comp):
            if p.crossing == cid:
                locs.append((ci, pi))
    (c1, i), (c2, j) = locs
    if c1 == c2:
        comp = link[c1]
        if i > j:
            i, j = j, i
        a = comp[i + 1:j]
        b = comp[j + 1:] + comp[:i]
        rest = [c for ci, c in enumerate(link) if ci != c1]
        return tuple(rest + [a, b])
    A, B = link[c1], link[c2]
    merged = A[:i] + B[j + 1:] + B[:j] + A[i + 1:]
    rest = [c for ci, c in enumerate(link) if ci not in (c1, c2)]
    return tuple(rest + [merged])


_CONWAY_MEMO = {}


def _conway_link(link):
    key = _link_key(link)
    got = _CONWAY_MEMO.get(key)
    if got is not None:
        return got
    viol = _first_violation(link)
    if viol is None:
        result = {0: 1} if len(link) == 1 else {}
    else:
        ci, pi = viol
        p = link[ci][pi]
        switched = _switch(link, p.crossing)
        smoothed = _smooth(link, p.crossing)
        if p.sign > 0:
            result = _poly_add(_conway_link(switched),
                               _conway_link(smoothed), scale=1, shift=1)
        else:
            result = _poly_add(_conway_link(switched),
                               _conway_link(smoothed), scale=-1, shift=1)
    _CONWAY_MEMO[key] = result
    return result


def conway_polynomial(code: GaussCode) -> dict:
    """Conway polynomial as {degree: coefficient}."""
    if not code.is_realizable():
        raise DiagramError("Conway polynomial needs a realizable code")
    if not code.passages:
        return {0: 1}
    return dict(_conway_link((tuple(code.passages),)))


def _a2_of_conway(part: GaussCode) -> Fraction:
    return Fraction(conway_polynomial(simplify(part, budget=400)).get(2, 0))


def a2_skein(code: GaussCode) -> Fraction:
    """z^2 coefficient of the Conway polynomial.

    Visible connected sums are evaluated factor by factor (a2 is
    additive); each factor is simplified here (budget 400) from the
    summand as given, since the skein recursion on a raw clasp diagram
    branches far too much.  The factor's value is stored in the library's
    summand table under `_a2_of_conway`, apart from the Alexander
    evaluator's value, so the two a2 evaluators are still compared and
    never read each other, and the oracle reads none of the table's
    reductions.
    """
    return _sum_over_summands(code, _a2_of_conway, "code")
