"""Closed braids as Gauss codes: the corpus builder of the formula tests.

A braid word on k strands is a sequence of letters +i / -i (1 <= i < k);
letter number n, counted from 1, is crossing n, where the strands at
positions i and i + 1 swap.  Strands run downwards.  A +i crossing is
positive and its strand moving from position i + 1 to i passes over; a
-i crossing is negative and its strand moving from i to i + 1 passes
over.  On this convention the closure of (1, 1, 1) is the right trefoil.
"""

import random

from vassiliev.gausscodes import GaussCode, Passage


def braid_closure(word, strands):
    """The closure of `word` as a GaussCode, or None unless it is a knot."""
    at = list(range(strands))  # at[p]: the strand now at position p
    passages = [[] for _ in range(strands)]
    for cid, letter in enumerate(word, 1):
        p, sign = abs(letter) - 1, 1 if letter > 0 else -1
        left, right = at[p], at[p + 1]
        passages[left].append(Passage(cid, sign < 0, sign))
        passages[right].append(Passage(cid, sign > 0, sign))
        at[p], at[p + 1] = right, left
    # the strand ending at bottom position p goes on as strand p on top
    after = {s: p for p, s in enumerate(at)}
    order = [0]
    while after[order[-1]] != 0:
        order.append(after[order[-1]])
    if len(order) != strands:
        return None
    return GaussCode(tuple(p for s in order for p in passages[s]))


def random_closures(seed, count, max_letters):
    """Closures of `count` random words of 3..max_letters letters on 2..4
    strands; a word whose closure is a link is redrawn."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        k = rnd.randint(2, 4)
        word = [rnd.choice((1, -1)) * rnd.randint(1, k - 1)
                for _ in range(rnd.randint(3, max_letters))]
        code = braid_closure(word, k)
        if code is not None:
            out.append(code)
    return out
