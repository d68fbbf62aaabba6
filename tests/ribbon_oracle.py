"""Test oracle for `ribbon.ohyama_diagrams`: the signed scheme diagrams
read off an actual family code instead of the layout formula; and the
readers of a crossing's sign and of a scheme's JSON that the tests use."""

import json
from itertools import product

from vassiliev.diagrams import ChordDiagram
from vassiliev.errors import DiagramError
from vassiliev.gausscodes import GaussCode
from vassiliev.ribbon import CrossingScheme


def sign_of(code: GaussCode, cid: int) -> int:
    for p in code.passages:
        if p.crossing == cid:
            return p.sign
    raise DiagramError(f"no crossing {cid}")


def scheme_from_json(text: str) -> CrossingScheme:
    data = json.loads(text)
    return CrossingScheme(tuple(tuple(p) for p in data["T"]))


def code_scheme_diagrams(code: GaussCode, scheme: CrossingScheme):
    """Signed diagrams read off the code by smashing one crossing per set.

    Independent of the formula in `ohyama_diagrams`: positions come from
    the actual passages, signs from the actual crossing signs after the
    preceding switches.
    """
    n = len(scheme.sets)
    out = []
    for choice in product((1, 2), repeat=n):
        word = []
        sign = 1
        smashed = []
        for j, pair in enumerate(scheme.sets):
            pick = pair[choice[j] - 1]
            smashed.append(pick)
            # epsilon: the sign of the smashed crossing in the state where
            # the earlier crossings of its own set are already switched
            # (which leaves this crossing's sign untouched)
            sign *= sign_of(code, pick)
        want = set(smashed)
        labels = {cid: k + 1 for k, cid in enumerate(smashed)}
        for p in code.passages:
            if p.crossing in want:
                word.append(labels[p.crossing])
        out.append((sign, ChordDiagram.from_word(word)))
    return out
