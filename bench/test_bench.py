"""Tests of the benchmark itself:  python3 -m pytest -q bench

They check that a bad output is counted rather than fatal, that count
metrics repeat exactly between two traced runs, that timings are scaled
by the pinned copy as documented, and that the metric names the harness
prints are the ones `BENCHMARK.json` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

workloads.load_vassiliev()
from vassiliev.errors import ConsistencyError  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def small_orders(tr, corrupt=False):
    """Orders 2 and 3 of the chord_dims table, as two items."""
    table = json.loads(workloads.GOLDENS.read_text())["chord_dims"]["dims:2-6"]
    goldens = {"order2": table["2"], "order3": table["3"]}
    if corrupt:
        goldens["order2"]["dim_mod_4t"] += 1
    items = [("order2", lambda: workloads.dims_order(2, tr)),
             ("order3", lambda: workloads.dims_order(3, tr))]
    return items, goldens


def test_small_orders_match_goldens():
    tr = Tracer(False, "t")
    items, goldens = small_orders(tr)
    rows, failures = workloads.run_items(items, tr, goldens)
    assert failures == [] and len(rows) == 2


def test_corrupted_golden_is_a_counted_failure():
    tr = Tracer(True, "t")
    items, goldens = small_orders(tr, corrupt=True)
    rows, failures = workloads.run_items(items, tr, goldens)
    assert failures == [["order2", "mismatch"]]
    assert [ok for _, _, ok in rows] == [False, True]


def test_raised_exception_is_a_counted_failure():
    def disagree():
        raise ConsistencyError("a2 evaluators disagree")

    items = [("bad", disagree), ("good", lambda: 1)]
    rows, failures = workloads.run_items(items, Tracer(False, "t"),
                                         {"bad": 0, "good": 1})
    assert failures == [["bad", "ConsistencyError: a2 evaluators disagree"]]
    assert [ok for _, _, ok in rows] == [False, True]


def test_item_time_leaves_out_lockstep_waits():
    tr = Tracer(False, "t")

    def pause(message):
        t = time.perf_counter()
        time.sleep(0.2)
        tr.paused += time.perf_counter() - t

    def item():
        tr.step()
        return 1

    tr.pause = pause
    rows, failures = workloads.run_items([("x", item)], tr, {"x": 1})
    assert failures == [] and rows[0][1] < 100


def test_setup_only_pair_reports_both_sides():
    reports = run.run_pair("knot_sums", 1, list(run.IMPLS), steps=False)
    assert set(reports) == set(run.IMPLS)
    assert all(r["setup_s"] > 0 for r in reports.values())


def test_self_time_excludes_child_spans():
    tr = Tracer(True, "t")
    with tr.item("x"):
        tr.call("outer", tr.call, "inner", sum, range(10))
    self_s = tr.self_times()
    spans = {s["name"]: s for s in tr.records()}
    inner = spans["inner"]["end"] - spans["inner"]["start"]
    assert self_s["inner"] == pytest.approx(inner)
    assert spans["inner"]["parent"] == 1 and spans["outer"]["parent"] == 0
    total = spans["bench.item"]["end"] - spans["bench.item"]["start"]
    assert sum(self_s.values()) == pytest.approx(total)


def test_tail_percentile_leaves_ten_items_beyond():
    for n in (20, 31, 129):
        p = run.tail_percentile(n)
        values = list(range(n))
        assert sum(v > run.percentile(values, p) for v in values) >= 10
        assert sum(v > run.percentile(values, p + 1) for v in values) < 10
    assert run.percentile(list(range(18)), run.tail_percentile(18)) == 17


def test_timings_are_scaled_by_the_pinned_copy():
    def report(wall, setup, ms):
        return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": 10.0,
                "items": [[str(i), ms, True] for i in range(20)]}

    rounds = [{"src": report(3.0, 0.3, 10.0), "pinned": report(4.0, 0.2, 8.0)}]
    setups = [{"src": {"setup_s": 0.3}, "pinned": {"setup_s": 0.2}}]
    reference = {"wall_s": 2.0, "setup_s": 0.1,
                 "item_p50_ms": 4.0, "item_tail_ms": 6.0}
    values, raw, _ = run.end_to_end(rounds, setups, reference)
    assert values == pytest.approx({
        "wall_s": 1.5, "setup_s": 0.15, "item_p50_ms": 5.0,
        "item_tail_ms": 7.5, "peak_rss_mb": 10.0})
    assert raw["pinned"]["wall_s"] == 4.0 and raw["src"]["item_p50_ms"] == 10.0


def test_reference_covers_every_workload():
    reference = json.loads(run.REFERENCE.read_text())["workloads"]
    assert list(reference) == list(workloads.BUILDERS)
    assert all(set(v) == set(run.REFERENCED) for v in reference.values())


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


def test_end_to_end_run_reports_every_metric():
    proc, out = bench("--workload", "knot_sums", "--seed", "3",
                      "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_count_metrics_repeat_exactly_across_two_runs():
    counts = []
    for _ in range(2):
        proc, out = bench("--workload", "knot_sums", "--seed", "5",
                          "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        assert set(out["metrics"]) == set(run.per_layer_units())
        counts.append({k: out["metrics"][k]["value"] for k in run.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["invariants.summand_reuse_ratio"] > 0.5
