"""One pass of one benchmark workload, in a fresh interpreter.

    python3 bench/workloads.py --workload NAME --seed N --trace 0|1 \
        --impl src|pinned --t0 T [--lockstep]

`bench/run.py` starts this file once per pass, so every pass begins with
cold module memos and `lru_cache`s, as a command-line user does.
`--impl src` loads the package under test from `src`; `--impl pinned`
loads the frozen copy in `bench/pinned`, the speed reference.  `--t0`
is the CLOCK_MONOTONIC reading taken just before the process was
started; set-up time runs from it to the moment the seeded inputs are
built.  The pass prints one JSON object on its last stdout line.  With
`--lockstep` it first prints its set-up time, then pauses at the end of
every step (see `Lockstep`) and goes on when a line arrives on stdin.

Every item returns its exact outputs as JSON-ready data, which is
compared with `goldens.json`.  A mismatch or an exception, including
`ConsistencyError` from an evaluator disagreement, fails that item only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
from itertools import permutations
from pathlib import Path

from tracer import Tracer, clock

HERE = Path(__file__).resolve().parent
# where each implementation's `vassiliev` package lives
IMPLS = {"src": HERE.parent / "src", "pinned": HERE / "pinned"}
GOLDENS = HERE / "goldens.json"

# knot factor pool: name -> (sigma, mirrored first clasp) for ribbon
# members; the trefoils and the figure-eight come from gausscodes
RIBBON_FACTORS = {
    "r12": ((1, 2), False), "r12i": ((1, 2), True),
    "r123": ((1, 2, 3), False), "r123i": ((1, 2, 3), True),
    "r132": ((1, 3, 2), False), "r132i": ((1, 3, 2), True),
}
# factors grouped by crossing number (3, 4, 12, 18, 21); a knot_sums
# slot names two groups and the seed picks the factor from each
SUM_GROUPS = (("RT", "LT"), ("F8",), ("r12", "r12i"), ("r123", "r123i"),
              ("r132", "r132i"))
SUM_COPIES = 2
SWITCH_KNOTS = 12
SLICE_S = 0.005        # CPU time a lockstep pass runs before handing over
BOUND_N_MAX = 30
BRUTE_N = 8


def load_vassiliev(impl="src"):
    """Import the package from `IMPLS[impl]`, never from elsewhere."""
    src = IMPLS[impl]
    sys.path.insert(0, str(src))
    try:
        import vassiliev
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import vassiliev from {src}: {exc}")
    if Path(vassiliev.__file__).resolve().parent != src / "vassiliev":
        raise SystemExit(f"bench: vassiliev imported from {vassiliev.__file__},"
                         f" not from {src}")
    import vassiliev.bounds
    import vassiliev.cli
    import vassiliev.diagrams
    import vassiliev.gausscodes
    import vassiliev.invariants
    import vassiliev.linalg
    import vassiliev.ngons
    import vassiliev.relations
    import vassiliev.ribbon  # noqa: F401


def normalize(answer):
    """Exact outputs as the JSON value stored in the goldens."""
    return json.loads(json.dumps(answer, sort_keys=True))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def run_cli(tr, argv):
    from vassiliev.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tr.call("cli.main", main, argv)
    text = out.getvalue()
    tr.count("cli.main.calls")
    tr.count("cli.stdout_bytes", len(text.encode()))
    return {"rc": rc, "stdout": text}


# ---------------------------------------------------------------------------
# chord_dims: enumeration -> 4T -> elimination -> dual basis, orders 2..6
# ---------------------------------------------------------------------------

def primitive_span(n, tr):
    """The order-n span of the 4T relations, then of the split diagrams,
    with its exact outputs along the way."""
    from vassiliev.diagrams import DiagramSum
    from vassiliev.linalg import RelationSpan
    from vassiliev.relations import four_t_relations, split_diagram_span

    def add_rows(rows):
        tr.call("linalg.add", span.add_all, rows)
        tr.count("linalg.rows_added", len(rows))

    rels = tr.call("relations.four_t_relations", four_t_relations, n)
    tr.count("relations.four_t_relations.rows", len(rels))
    span = RelationSpan.over_order(n)
    add_rows(rels)
    out = {"four_t_rows": len(rels), "basis": len(span.basis),
           "rank_4t": span.rank, "dim_mod_4t": span.quotient_dim()}
    split = tr.call("relations.split_diagram_span", split_diagram_span, n)
    add_rows([DiagramSum([(d, 1)]) for d in split])
    tr.count("linalg.rank", span.rank)
    tr.count("linalg.pivot_entries", sum(len(r) for r in span.pivots.values()))
    out.update({"split": [d.as_text() for d in split], "rank": span.rank,
                "primitive_dim": span.quotient_dim()})
    return span, out


def dims_order(n, tr):
    """The pipeline of one order: enumeration, the 4T+split span, and the
    dual basis, each functional checked against the span."""
    from vassiliev.diagrams import enumerate_chord_diagrams

    ds = tr.call("diagrams.enumerate_chord_diagrams",
                 enumerate_chord_diagrams, n)
    tr.count("diagrams.chord_diagrams.count", len(ds))
    span, out = primitive_span(n, tr)
    dual = tr.call("linalg.dual_basis", span.dual_basis)
    out.update({
        "diagrams": len(ds),
        "dual_basis": len(dual),
        "dual_basis_sha256": digest(
            [sorted((d.as_text(), str(v)) for d, v in w.values.items())
             for w in dual]),
        "annihilates": [tr.call("linalg.annihilates", w.annihilates, span)
                        for w in dual],
    })
    return out


def chord_dims(seed, tr):
    """Two items: the dimension table of orders 2..6, and `dims --n 5`.

    The table is one item because order 6 is nine tenths of it: as
    separate items, the median item would be the half-second order-5
    pipeline, which machine noise moves by a fifth from run to run.
    The seed is not used here; it only sets the hash seed of the pass.
    """
    argv = ["--no-header", "dims", "--n", "5"]
    return [("dims:2-6", lambda: {n: dims_order(n, tr) for n in range(2, 7)}),
            ("cli:" + " ".join(argv), lambda: run_cli(tr, argv))]


# ---------------------------------------------------------------------------
# ngon_reduction: tree -> n-gons, verified by STU and span membership
# ---------------------------------------------------------------------------

def ngon_reduction(seed, tr):
    """All 120 order-5 one-branch trees in seed order, then the extras."""
    from vassiliev.bounds import bound_table, brute_force_xtilde, xtilde_count
    from vassiliev.ngons import (ngon_representatives, one_branch_tree,
                                 reduce_tree_to_ngons)
    from vassiliev.relations import stu_expand
    from vassiliev.ribbon import verify_ohyama_identity

    trees = list(permutations(range(1, 6)))
    random.Random(seed).shuffle(trees)
    st = {}

    def span():
        st["span"], out = primitive_span(5, tr)
        return {"rank": out["rank"], "primitive_dim": out["primitive_dim"]}

    def expand(c):
        out = tr.call("relations.stu_expand", stu_expand, c)
        tr.count("relations.stu_expand.calls")
        tr.count("relations.stu_expand.terms", len(out.terms))
        return out

    def reduce_(sigma):
        def item():
            trace = []
            combo = tr.call("ngons.reduce_tree_to_ngons", reduce_tree_to_ngons,
                            sigma, trace=trace)
            tr.count("ngons.trace_steps", len(trace))
            tr.count("ngons.gon_terms", len(combo.terms))
            gons = []
            for d, c in combo.items_sorted():
                canon, sign, _ = tr.call("diagrams.canonical", d.canonical)
                tr.count("diagrams.canonical.calls")
                gons.append([[canon.ext, canon.vertices, canon.chord_pairs],
                             str(c * sign)])
            target = expand(one_branch_tree(sigma))
            for g, c in combo.terms.items():
                target = target - expand(g).scaled(c)
            member = tr.call("linalg.member", st["span"].member, target)
            tr.count("linalg.member.calls")
            return {"ngons": gons, "trace_steps": len(trace), "member": member}
        return item

    items = [("span:5", span)]
    items += [("tree:" + ",".join(map(str, s)), reduce_(s)) for s in trees]
    for n in (3, 4):
        for rep in ngon_representatives(n):
            items.append(("ohyama:" + ",".join(map(str, rep)),
                          lambda rep=rep: tr.call(
                              "ribbon.verify_ohyama_identity",
                              verify_ohyama_identity, rep)))

    def bounds():
        rows = tr.call("bounds.bound_table", bound_table, BOUND_N_MAX)
        return [[r.n, r.xtilde, r.total_bound, r.cor53_holds] for r in rows]

    def brute():
        got = tr.call("bounds.brute_force_xtilde", brute_force_xtilde, BRUTE_N)
        return {"brute": got, "agrees": got == xtilde_count(BRUTE_N)}

    items += [(f"bounds:{BOUND_N_MAX}", bounds), (f"brute:{BRUTE_N}", brute)]
    argv = ["--no-header", "reduce", "--sigma", "2,4,1,3,5", "--verify"]
    items.append(("cli:" + " ".join(argv), lambda: run_cli(tr, argv)))
    return items


# ---------------------------------------------------------------------------
# knot workloads
# ---------------------------------------------------------------------------

def factor_pool(tr):
    """Gauss codes of the knot factors, and the ribbon members' schemes."""
    from vassiliev.gausscodes import FIGURE_EIGHT, LEFT_TREFOIL, RIGHT_TREFOIL
    from vassiliev.ribbon import ribbon_gauss_code

    pool = {"RT": RIGHT_TREFOIL, "LT": LEFT_TREFOIL, "F8": FIGURE_EIGHT}
    schemes = {}
    for name, (sigma, mirrored) in RIBBON_FACTORS.items():
        pool[name], schemes[name] = tr.call(
            "ribbon.ribbon_gauss_code", ribbon_gauss_code, sigma,
            mirrored_first_clasp=mirrored)
    return pool, schemes


def knot_answer(tr, code):
    from vassiliev.gausscodes import alexander_det
    from vassiliev.invariants import invariant_a2, invariant_v3

    a2 = tr.call("invariants.invariant_a2", invariant_a2, code)
    tr.count("invariants.crossings", len(code))
    v3 = tr.call("invariants.invariant_v3", invariant_v3, code)
    det = tr.call("gausscodes.alexander_det", alexander_det, code)
    return {"a2": str(a2), "v3": str(v3), "det": det}


def count_summands(tr, code, seen):
    """Summand-reuse counters; an input property, so only when tracing."""
    if not tr.enabled:
        return
    from vassiliev.invariants import split_summands

    for part in split_summands(code):
        key = part.canonical_key()
        tr.count("invariants.summands")
        tr.count("invariants.summands_reused", key in seen)
        seen.add(key)


def sum_plan(seed):
    """Two-term sums: every pair of crossing groups, SUM_COPIES times.

    Each slot's crossing numbers are fixed and the slots run in a fixed
    order, so every seed does the same amount of O(c^4) pair counting.
    The first uses of a group take each of its members once, so every
    factor's cold memo miss lands on the same slots whatever the seed.
    The seed picks the order of those first uses, which member fills each
    later use (members used equally often), and the summand order.
    """
    rnd = random.Random(seed)
    slots = [(g, h) for _ in range(SUM_COPIES)
             for i, g in enumerate(SUM_GROUPS) for h in SUM_GROUPS[i:]]
    fill = {}
    for g in SUM_GROUPS:
        uses = sum((a == g) + (b == g) for a, b in slots)
        first, rest = list(g), [g[k % len(g)] for k in range(uses - len(g))]
        rnd.shuffle(first)
        rnd.shuffle(rest)
        fill[g] = iter(first + rest)
    pairs = []
    for g, h in slots:
        pair = [next(fill[g]), next(fill[h])]
        rnd.shuffle(pair)
        pairs.append(tuple(pair))
    return pairs


def knot_sums(seed, tr, pairs=None):
    """Seeded connected sums of two factors, checked for additivity."""
    from vassiliev.gausscodes import connected_sum
    from vassiliev.invariants import invariant_a2, invariant_v3

    pool, _ = factor_pool(tr)
    pairs = sum_plan(seed) if pairs is None else pairs
    seen = set()

    def sum_item(a, b):
        s = connected_sum(pool[a], pool[b])

        def item():
            count_summands(tr, s, seen)
            realizable = tr.call("gausscodes.is_realizable", s.is_realizable)
            out = knot_answer(tr, s)
            fa = [tr.call("invariants.invariant_a2", invariant_a2, pool[f])
                  for f in (a, b)]
            fv = [tr.call("invariants.invariant_v3", invariant_v3, pool[f])
                  for f in (a, b)]
            out["realizable"] = realizable
            out["additive"] = (out["a2"] == str(sum(fa))
                               and out["v3"] == str(sum(fv)))
            return out
        return item

    items = [(f"sum:{a}#{b}", sum_item(a, b)) for a, b in pairs]
    argv = ["--no-header", "ribbon", "verify", "--sigma", "1,3,2"]
    items.append(("cli:" + " ".join(argv), lambda: run_cli(tr, argv)))
    return items


def switch_plan(pool):
    """SWITCH_KNOTS candidates at evenly spaced ranks of capture-time cost.

    `pool` lists the captured candidates with the cost of each; taking
    them at fixed cost ranks gives every pass the same mix of cheap and
    expensive knots.  The order is fixed too: the knots share Conway-skein
    memo entries, so a seeded order would move that work between items.
    """
    ranked = sorted(pool, key=lambda c: (c["cost_ms"], c["id"]))
    k = SWITCH_KNOTS
    picks = [ranked[(2 * i + 1) * len(ranked) // (2 * k)] for i in range(k)]
    return [(c["member"], tuple(c["switch"])) for c in picks]


def knot_switches(seed, tr, plan=None):
    """Distinct knots: ribbon members with 1-3 crossings switched.

    The seed is not used here; it only sets the hash seed of the pass.
    Relabelling the crossings by seed changed the work done, because the
    Conway-skein memo key takes its minimal rotation before it relabels,
    so equal sub-links under other labels miss the memo.
    """
    from vassiliev.gausscodes import simplify
    from vassiliev.ribbon import all_switchings_trivial

    pool, schemes = factor_pool(tr)
    if plan is None:
        plan = switch_plan(json.loads(GOLDENS.read_text())["switch_pool"])
    seen = set()

    def switch_item(member, switch):
        k = pool[member].switched(switch)

        def item():
            count_summands(tr, k, seen)
            small = tr.call("gausscodes.simplify", simplify, k)
            tr.count("gausscodes.simplify.calls")
            tr.count("gausscodes.simplify.certified", not small.passages)
            tr.count("gausscodes.simplify.crossings_in", len(k))
            tr.count("gausscodes.simplify.crossings_out", len(small))
            out = knot_answer(tr, k)
            out["simplified"] = len(small)
            return out
        return item

    items = [(f"switch:{m}:" + ",".join(map(str, s)), switch_item(m, s))
             for m, s in plan]
    for name in RIBBON_FACTORS:
        items.append((f"switchings:{name}", lambda name=name: tr.call(
            "ribbon.all_switchings_trivial", all_switchings_trivial,
            pool[name], schemes[name])))
    return items


BUILDERS = {"chord_dims": chord_dims, "ngon_reduction": ngon_reduction,
            "knot_sums": knot_sums, "knot_switches": knot_switches}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def busy_clock(tr):
    """`clock()` less the lockstep waits so far.  SIGPROF is held off
    while it reads, so a hand-over cannot fall between the two reads."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
    try:
        return clock() - tr.paused
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def run_items(items, tr, goldens):
    """Run items in order; returns [id, ms, ok] rows and failure reasons.

    An item's time leaves out lockstep waits; each item ends a step."""
    rows, failures = [], []
    for item_id, fn in items:
        t = busy_clock(tr)
        with tr.item(item_id):
            try:
                got = normalize(fn())
            except Exception as exc:  # every failure is counted, none aborts
                got, reason = None, f"{type(exc).__name__}: {exc}"
            else:
                reason = None if got == goldens.get(item_id) else "mismatch"
        rows.append([item_id, (busy_clock(tr) - t) * 1e3, reason is None])
        if reason is not None:
            failures.append([item_id, reason])
        tr.step()
    return rows, failures


def derived_counts(counts):
    """Ratios named in BENCHMARK.json, from their counted parts."""
    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    out = dict(counts)
    out["linalg.useful_row_ratio"] = ratio("linalg.rank", "linalg.rows_added")
    out["gausscodes.simplify.certified_ratio"] = ratio(
        "gausscodes.simplify.certified", "gausscodes.simplify.calls")
    out["invariants.summand_reuse_ratio"] = ratio(
        "invariants.summands_reused", "invariants.summands")
    return out


class Lockstep:
    """The child's side of a lockstep pair (see `bench/run.py`).

    At the end of every item, and every SLICE_S seconds of CPU time
    within one, the pass reports on stdout and waits for a line on stdin:
    the other pass of the pair runs meanwhile.  Raw file descriptors are
    used because a slice can end while the item has stdout redirected.
    A closed stdin ends the pass; that is how a set-up-only pass stops.
    """

    def __init__(self, tr):
        self.tr = tr
        self.busy = False
        tr.pause = self.hand_over
        signal.signal(signal.SIGPROF, lambda signum, frame: (
            None if self.busy else tr.step()))

    def hand_over(self, message):
        self.busy = True
        t = clock()
        os.write(1, (json.dumps(message) + "\n").encode())
        if not os.read(0, 1):
            sys.exit(0)
        self.tr.paused += clock() - t
        self.busy = False

    @staticmethod
    def slices(on):
        signal.setitimer(signal.ITIMER_PROF, SLICE_S if on else 0, SLICE_S)


def run_pass(workload, seed, trace, t0, impl="src", lockstep=False):
    load_vassiliev(impl)
    goldens = json.loads(GOLDENS.read_text())[workload]
    tr = Tracer(trace, workload)
    items = BUILDERS[workload](seed, tr)
    setup = time.monotonic() - t0
    if lockstep:
        lock = Lockstep(tr)
        lock.hand_over({"setup_s": setup})
        lock.slices(True)
    start = busy_clock(tr)
    rows, failures = run_items(items, tr, goldens)
    wall = busy_clock(tr) - start
    if lockstep:
        lock.slices(False)
    out = {
        "setup_s": setup,
        "wall_s": wall,
        "items": rows,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": trace,
    }
    if trace:
        out["counts"] = derived_counts(tr.counts)
        out["self_s"] = tr.self_times()
        out["spans"] = tr.records()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=BUILDERS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--impl", choices=IMPLS, default="src")
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--lockstep", action="store_true",
                    help="pause at every step until a line arrives on stdin")
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace), t0,
                              args.impl, args.lockstep)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
