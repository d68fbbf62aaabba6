"""The early-abort least-sequence loop shared by the test oracles.

It reads each candidate sequence only until it loses, so an oracle can
feed it lazily generated certificates.
"""


def least_sequence(starts, symbols):
    """(best, winners): the lexicographically least of the equal-length
    sequences `symbols(s)` over `starts`, as a tuple, and every start, in
    order, whose sequence equals it.

    A candidate is read only until its first symbol above the best so far;
    one below it is read to the end and becomes the new best.
    """
    best = None
    winners = []
    for s in starts:
        it = iter(symbols(s))
        if best is None:
            best, winners = tuple(it), [s]
            continue
        for k, sym in enumerate(it):
            if sym != best[k]:
                if sym < best[k]:
                    best, winners = best[:k] + (sym,) + tuple(it), [s]
                break
        else:
            winners.append(s)
    return best, winners
