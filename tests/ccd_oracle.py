"""Test oracles for `CCD.canonical`: the exhaustive search over every
flip mask and every start, and the rigid (no flips) key.

Each traversal is a whole certificate read from scratch, so these are
the independent slow path that the lazy-orientation search in
`CCD.canonical` is checked against.
"""

from vassiliev.errors import DiagramError

from ccds import from_pairing
from sequences import least_sequence

_FLIP_EFF = {0: 0, 2: 1, 1: 2}      # effective position of abs slot, flipped
_FLIP_ABS = (0, 2, 1)               # abs slot at effective position, flipped


def traversal(c, pairing, r, flips, label):
    """Yield the certificate of the traversal of `c` that starts at
    external point r, with internal vertex j flipped when flips[j].

    The circle is read from r; each internal vertex met is queued and
    its two other slots are read in effective order.  `label` is
    filled with j -> (label, entry slot) as vertices are met.
    """
    E = c.ext
    queue = []

    def symbol(end):
        if end[0] == "x":
            return (0, (end[1] - r) % E)
        _, j, s = end
        e = _FLIP_EFF[s] if flips[j] else s
        if j in label:
            lab, entry = label[j]
            return (1, lab, (e - entry) % 3)
        label[j] = (len(label), e)
        queue.append(j)
        return (2, len(label) - 1)

    for p in range(E):
        yield symbol(pairing[("x", (p + r) % E)])
        while queue:
            j = queue.pop(0)
            entry = label[j][1]
            for k in (1, 2):
                e = (entry + k) % 3
                yield symbol(pairing[("v", j, _FLIP_ABS[e] if flips[j]
                                      else e)])
    if len(label) != len(c.vertices):
        raise DiagramError("CCD graph is disconnected")


def exhaustive_canonical(c):
    """(canonical CCD, sign, as_null) by the least certificate over all
    2^I flip masks times E starts, in mask-major order; the sign is that
    of the first winner, and as_null flags winners of both parities."""
    E, I = c.ext, len(c.vertices)
    pairing = c.pairing()
    starts = [(tuple((mask >> i) & 1 for i in range(I)), r)
              for mask in range(1 << I) for r in range(E)]
    _, winners = least_sequence(
        starts, lambda s: traversal(c, pairing, s[1], s[0], {}))
    parities = {sum(flips) % 2 for flips, _ in winners}
    flips, r = winners[0]
    label = {}
    for _ in traversal(c, pairing, r, flips, label):
        pass

    def relabel(end):
        if end[0] == "x":
            return ("x", (end[1] - r) % E)
        _, j, s = end
        lab, entry = label[j]
        eff = _FLIP_EFF[s] if flips[j] else s
        return ("v", lab, (eff - entry) % 3)

    canon = from_pairing({relabel(end): relabel(tgt)
                          for end, tgt in pairing.items()})
    return canon, -1 if sum(flips) % 2 else 1, len(parities) == 2


def rigid_key(c):
    """Isomorphism key of `c` that respects vertex orientations (no flips)."""
    pairing = c.pairing()
    flips = (0,) * len(c.vertices)
    return least_sequence(range(c.ext), lambda r: traversal(
        c, pairing, r, flips, {}))[0]
