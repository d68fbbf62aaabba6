"""Capture `goldens.json`: the exact outputs every benchmark item checks.

    python3 bench/capture.py

Run it only at a commit whose outputs are known to be right; a later run
overwrites the goldens that the benchmark compares against.  Items run
with tracing off and the results are stored by item id:

- `chord_dims`, `ngon_reduction`: every item (their id sets do not
  depend on the seed);
- `knot_sums`: every ordered pair of the factor pool;
- `knot_switches`: the candidate pool that `switch_plan` picks from,
  with the capture-time cost of each candidate (used only to pick
  knots at evenly spaced cost ranks).

A candidate whose item takes longer than SWITCH_CAP_S is left out of the
pool and recorded under `switch_excluded`: those knots reach the
unguarded exponential evaluators (see `bench/spec.json`, known defects).
"""

from __future__ import annotations

import json
import random
import signal
import sys
from itertools import combinations

from tracer import Tracer, clock
from workloads import (BUILDERS, GOLDENS, RIBBON_FACTORS, factor_pool,
                       knot_switches, load_vassiliev, normalize)

SWITCH_SAMPLE = 60     # double and triple switch sets drawn per size
SWITCH_CAP_S = 3.0


class _Overtime(Exception):
    pass


def _alarm(signum, frame):
    raise _Overtime


def answers(items):
    out = {}
    for item_id, fn in items:
        out[item_id] = normalize(fn())
        print(item_id, file=sys.stderr)
    return out


def switch_candidates(pool):
    """All single switches, plus seeded double and triple switch sets,
    keeping the first candidate of each canonical knot code."""
    rnd = random.Random(0)
    cands = [(m, (c,)) for m in RIBBON_FACTORS for c in pool[m].crossings]
    for size in (2, 3):
        sets = sorted({(m, s) for m in RIBBON_FACTORS
                       for s in combinations(pool[m].crossings, size)})
        cands += rnd.sample(sets, SWITCH_SAMPLE)
    seen, out = set(), []
    for m, s in cands:
        key = pool[m].switched(s).canonical_key()
        if key not in seen:
            seen.add(key)
            out.append((m, s))
    return out


def capture_switches(tr):
    pool, _ = factor_pool(tr)
    kept, excluded, golden = [], [], {}
    signal.signal(signal.SIGALRM, _alarm)
    for m, s in switch_candidates(pool):
        (item_id, fn), = knot_switches(0, tr, plan=[(m, s)])[:1]
        t = clock()
        signal.setitimer(signal.ITIMER_REAL, SWITCH_CAP_S)
        try:
            got = normalize(fn())
        except _Overtime:
            excluded.append(item_id)
            print(item_id, "over cap", file=sys.stderr)
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        cost = (clock() - t) * 1e3
        golden[item_id] = got
        kept.append({"id": item_id, "member": m, "switch": list(s),
                     "cost_ms": round(cost, 1)})
        print(item_id, round(cost), file=sys.stderr)
    golden.update(answers(knot_switches(0, tr, plan=[])))
    return golden, kept, excluded


def main():
    load_vassiliev()
    tr = Tracer(False, "capture")
    out = {
        "chord_dims": answers(BUILDERS["chord_dims"](0, tr)),
        "ngon_reduction": answers(BUILDERS["ngon_reduction"](0, tr)),
    }
    pool, _ = factor_pool(tr)
    pairs = [(a, b) for a in pool for b in pool]
    out["knot_sums"] = answers(BUILDERS["knot_sums"](0, tr, pairs=pairs))
    out["knot_switches"], out["switch_pool"], out["switch_excluded"] = (
        capture_switches(tr))
    GOLDENS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
