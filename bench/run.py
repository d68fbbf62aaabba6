"""Benchmark of the vassiliev workbench: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop from one
client: passes of the workload run one after another, each in a fresh
child process (`bench/workloads.py`), so every pass pays the cold
module memos a command-line user pays.  Before timing, one set-up-only
pass of each package writes its bytecode and warms the file cache.

With `--trace 0` the passes come in lockstep pairs: one of the package
in `src`, one of the frozen copy in `bench/pinned`, set up one after
the other, then run in turns of one item or `workloads.SLICE_S` of CPU
time (see `workloads.Lockstep`).  Only one of the two runs at a time,
both on the same CPU, and both with PYTHONHASHSEED set from `--seed`,
so they do the same work.  The host's speed drifts by up to 1.7x over minutes and by 10-20%
within seconds, far more than the bounds allow, but the two sides of a
pair see the same host.  So each timing is its value in
`bench/reference.json` (the pinned copy's own) times src / pinned, each
side's value taken over all its passes of the run (medians, item
latencies pooled): seconds on a host as fast as when the reference was
taken.  `setup_s` also takes SETUP_PAIRS pairs of set-up-only passes.
`peak_rss_mb` is not scaled.  The raw values of
both sides are printed on the comment lines.  Another pair starts while
a typical pair still ends within `--seconds`.

With `--trace 1` passes of `src` alternate traced and untraced, and it
reports the per-layer metrics of the traced passes and the tracing
overhead; the spans are written to `.bench_out/`.  Exit status: 0 when
every item of every pass matched its golden, 1 when some did not, 2
when the benchmark could not run (no package in `src`, a pass that
crashed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
IMPLS = ("src", "pinned")     # the package under test, the frozen copy
PASS_TIMEOUT_S = 150
SETUP_PAIRS = 6     # extra set-up-only pairs per run, for setup_s

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "item_p50_ms": "ms",
    "item_tail_ms": "ms", "peak_rss_mb": "MB",
}
# timings scaled by the pinned copy; bench/reference.json holds its values
REFERENCED = ("wall_s", "setup_s", "item_p50_ms", "item_tail_ms")
# span name -> its self-time metric is "<name>.s"
SPANS = (
    "diagrams.enumerate_chord_diagrams", "diagrams.canonical",
    "relations.four_t_relations", "relations.split_diagram_span",
    "relations.stu_expand",
    "linalg.add", "linalg.dual_basis", "linalg.annihilates", "linalg.member",
    "ngons.reduce_tree_to_ngons",
    "bounds.bound_table", "bounds.brute_force_xtilde",
    "gausscodes.simplify", "gausscodes.alexander_det",
    "gausscodes.is_realizable",
    "invariants.invariant_a2", "invariants.invariant_v3",
    "ribbon.ribbon_gauss_code", "ribbon.verify_ohyama_identity",
    "ribbon.all_switchings_trivial",
    "cli.main",
)
COUNTS = {
    "diagrams.chord_diagrams.count": "count",
    "diagrams.canonical.calls": "count",
    "relations.four_t_relations.rows": "count",
    "relations.stu_expand.calls": "count",
    "relations.stu_expand.terms": "count",
    "linalg.rows_added": "count",
    "linalg.rank": "count",
    "linalg.useful_row_ratio": "1",
    "linalg.pivot_entries": "count",
    "linalg.member.calls": "count",
    "ngons.trace_steps": "count",
    "ngons.gon_terms": "count",
    "gausscodes.simplify.crossings_in": "count",
    "gausscodes.simplify.crossings_out": "count",
    "gausscodes.simplify.certified_ratio": "1",
    "invariants.crossings": "count",
    "invariants.summand_reuse_ratio": "1",
    "cli.main.calls": "count",
    "cli.stdout_bytes": "bytes",
    "trace.spans": "count",
}


def per_layer_units():
    units = {f"{name}.s": "s" for name in SPANS}
    units.update(COUNTS)
    units["trace.overhead_s"] = "s"
    return units


class PassError(RuntimeError):
    pass


def pin_to_one_cpu():
    """Run this process, and so every pass, on one CPU: the two sides of a
    pair then share a core, where on two vCPUs they saw different speeds."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env(seed):
    """The environment of a pass: str hashing seeded from the run's seed,
    so both sides of a pair iterate their sets and dicts alike, and
    bytecode written on import, so only the warm-up pair compiles."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_pass(workload, seed, trace):
    """One pass of src in a fresh interpreter; returns its JSON report."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)), "--t0", repr(t0)],
        cwd=ROOT, env=child_env(seed), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"pass exited with {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Side:
    """One side of a lockstep pair: a pass of one package that runs a
    step each time it is given the turn."""

    def __init__(self, workload, seed, impl):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), "--workload",
             workload, "--seed", str(seed), "--impl", impl, "--lockstep",
             "--t0", repr(time.monotonic())],
            cwd=ROOT, env=child_env(seed), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.report = None
        try:
            self.setup_s = self._read()["setup_s"]
        except BaseException:
            self.close(kill=True)
            raise

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise PassError(f"pass exited with {self.proc.wait()}: "
                            f"{self.proc.stderr.read().strip()[-2000:]}")
        return json.loads(line)

    def turn(self):
        """Run one step; the pass's report arrives after its last step."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        message = self._read()
        if "step" not in message:
            self.report = message

    def close(self, kill):
        """End the process and wait for it.  Closing its stdin ends a pass
        that is waiting for its turn; `kill` ends one that may not be."""
        if kill:
            self.proc.kill()
        try:
            self.proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def _overtime(signum, frame):
    raise PassError(f"a pair took more than {PASS_TIMEOUT_S} s")


def run_pair(workload, seed, order, steps=True):
    """A pass of each package, set up one after the other in `order`, then
    run in lockstep: one step of one side, one of the other, the first
    side alternating.  Without `steps` the passes end after set-up.
    Returns {impl: report}; without `steps` a report is its set-up time."""
    sides = {}
    ok = False
    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(PASS_TIMEOUT_S)
    try:
        for impl in order:
            sides[impl] = Side(workload, seed, impl)
        k = 0
        while steps and any(side.report is None for side in sides.values()):
            for impl in order[::1 - 2 * (k % 2)]:
                if sides[impl].report is None:
                    sides[impl].turn()
            k += 1
        ok = True
    finally:
        signal.alarm(0)
        for side in sides.values():
            side.close(kill=not ok)
    return {impl: side.report or {"setup_s": side.setup_s}
            for impl, side in sides.items()}


def tail_percentile(n):
    """Highest whole percentile with at least ten of n items beyond it;
    the maximum when fewer than twenty items leave none above the median."""
    return math.floor(100 * (n - 10) / n) if n >= 20 else 100


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def raw_metrics(passes, setups, p):
    """Unscaled end-to-end metrics of one side of a run: medians over its
    passes (set-up-only ones too, for setup_s), item latencies pooled
    over its passes (the tail at percentile p)."""
    ms = [m for q in passes for _, m, _ in q["items"]]
    return {"wall_s": statistics.median(q["wall_s"] for q in passes),
            "setup_s": statistics.median(
                q["setup_s"] for q in passes + setups),
            "item_p50_ms": statistics.median(ms),
            "item_tail_ms": percentile(ms, p),
            "peak_rss_mb": statistics.median(q["peak_rss_mb"] for q in passes)}


def end_to_end(rounds, setups, reference):
    """Scaled metrics of a run, and the raw metrics of each side.

    A timing is its reference value times src / pinned of the raw values.
    Both sides of a pair run the same items in lockstep, so the ratio
    cancels the host's speed and what the seed changes.  peak_rss_mb is
    the src side's, not scaled.
    """
    p = tail_percentile(len(rounds[0]["src"]["items"]))
    raw = {impl: raw_metrics([q[impl] for q in rounds],
                             [q[impl] for q in setups], p) for impl in IMPLS}
    values = {name: reference[name] * raw["src"][name] / raw["pinned"][name]
              if name in REFERENCED else raw["src"][name]
              for name in END_TO_END}
    return values, raw, p


def per_layer(passes):
    """Medians of self time, and counts, over the traced passes."""
    traced = [q for q in passes if q["trace"]]
    plain = [q for q in passes if not q["trace"]]
    out = {}
    for name in SPANS:
        out[f"{name}.s"] = statistics.median(
            q["self_s"].get(name, 0.0) for q in traced)
    for q in traced:
        q["counts"]["trace.spans"] = len(q["spans"])
    counts = [{k: q["counts"].get(k, 0) for k in COUNTS} for q in traced]
    out.update(counts[0])
    out["trace.overhead_s"] = (
        statistics.median(q["wall_s"] for q in traced)
        - statistics.median(q["wall_s"] for q in plain))
    return out, all(c == counts[0] for c in counts)


def write_spans(workload, seed, passes):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fp:
        for k, q in enumerate(passes):
            for span in q.get("spans", ()):
                fp.write(json.dumps(dict(span, run_pass=k)) + "\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    reference = json.loads(REFERENCE.read_text())["workloads"]
    if args.workload not in reference:
        print(f"bench: no reference values for {args.workload}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    # a run is a list of rounds: a lockstep pair {src, pinned}, or with
    # tracing one src pass, traced and untraced in turn
    rounds, durations, setups = [], [], []
    order = [list(IMPLS)[::1 - 2 * (k % 2)] for k in range(2)]
    start = time.monotonic()
    try:
        run_pair(args.workload, args.seed, order[0], steps=False)  # warm-up
        if not args.trace:
            setups = [run_pair(args.workload, args.seed, order[k % 2], False)
                      for k in range(SETUP_PAIRS)]
        while (not rounds or (args.trace and len(rounds) < 2)
               or time.monotonic() - start + statistics.median(durations)
               <= args.seconds):
            t = time.monotonic()
            if args.trace:
                rounds.append(run_pass(args.workload, args.seed,
                                       len(rounds) % 2 == 0))
            else:
                rounds.append(run_pair(args.workload, args.seed,
                                       order[len(rounds) % 2]))
            durations.append(time.monotonic() - t)
    except (PassError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    passes = rounds if args.trace else [q["src"] for q in rounds]
    pinned = [] if args.trace else [q["pinned"] for q in rounds]
    ids = [[i for i, _, _ in q["items"]] for q in passes + pinned]
    attempted = sum(len(q["items"]) for q in passes)
    failed = sum(not ok for q in passes for _, _, ok in q["items"])
    for impl, qs in (("src", passes), ("pinned", pinned)):
        for q in qs:
            for item_id, reason in q["failures"]:
                print(f"bench: FAILED ({impl}) {item_id}: {reason}",
                      file=sys.stderr)
    correct = (failed == 0 and not any(q["failures"] for q in pinned)
               and all(i == ids[0] for i in ids))

    if args.trace:
        values, repeat = per_layer(passes)
        correct = correct and repeat
        units = per_layer_units()
        path = write_spans(args.workload, args.seed, passes)
        print(f"# spans: {path.relative_to(ROOT)}")
    else:
        values, raw, p = end_to_end(rounds, setups, reference[args.workload])
        units = END_TO_END
        print(f"# item_tail_ms is p{p} of the items of {len(rounds)} passes"
              f" of {len(ids[0])} items")
        for name, unit in units.items():
            print(f"# raw {name}: src {raw['src'][name]:.6g},"
                  f" pinned {raw['pinned'][name]:.6g} {unit}")
    print(f"# workload {args.workload}, seed {args.seed}, {len(passes)} passes"
          f" of src, failed_ratio {failed / attempted:.6g}"
          f" ({failed}/{attempted})")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
