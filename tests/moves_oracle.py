"""Test oracles for `simplify`'s first-move scans: every Reidemeister I
and II move of a code, listed by a scan of every position (pair).
`gausscodes._first_r1` / `_first_r2` must return the first of each list."""

from vassiliev.gausscodes import GaussCode, _remove_positions


def reidemeister_one(code: GaussCode):
    """All codes obtained by removing a kink (adjacent equal crossings)."""
    ps = code.passages
    m = len(ps)
    out = []
    for i in range(m):
        j = (i + 1) % m
        if ps[i].crossing == ps[j].crossing:
            out.append(_remove_positions(ps, {i, j}))
    return out


def reidemeister_two(code: GaussCode):
    """All codes obtained by cancelling a bigon (adjacent over-over pair
    matched by the same pair adjacent under-under elsewhere)."""
    ps = code.passages
    m = len(ps)
    out = []
    for i in range(m):
        j = (i + 1) % m
        a, b = ps[i], ps[j]
        if a.crossing == b.crossing:
            continue
        if not (a.over and b.over):
            continue
        for k in range(m):
            l = (k + 1) % m
            c, d = ps[k], ps[l]
            if {c.crossing, d.crossing} != {a.crossing, b.crossing}:
                continue
            if c.over or d.over:
                continue
            if a.sign * b.sign != -1:
                continue
            out.append(_remove_positions(ps, {i, j, k, l}))
    return out
