import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vassiliev.cli import main
from vassiliev.relations import quotient_spans

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(list(argv))
    return status, buf.getvalue()


def test_bounds_csv():
    status, out = run_cli("bounds", "--n-max", "9")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].startswith("# vassiliev")
    assert lines[1] == "n,xtilde,primitive_bound,total_bound,half_factorial,cor53_holds"
    data = [l for l in lines[2:] if not l.startswith("#")]
    bounds = [int(l.split(",")[2]) for l in data]
    assert bounds == [1, 2, 4, 14, 54, 332, 2246]
    assert any("phi(n/d)" in l for l in lines)  # multiplicity footnote


def test_bounds_json_and_determinism():
    s1, out1 = run_cli("bounds", "--n-max", "5", "--format", "json")
    s2, out2 = run_cli("bounds", "--n-max", "5", "--format", "json")
    assert s1 == s2 == 0
    assert out1 == out2  # byte-identical reruns
    rows = [json.loads(l) for l in out1.splitlines() if l.startswith("{")]
    assert rows[0]["n"] == 3 and rows[0]["primitive_bound"] == 1


def test_bounds_usage_error():
    status, _ = run_cli("bounds", "--n-max", "2")
    assert status == 2


def test_dims():
    status, out = run_cli("dims", "--n", "4")
    assert status == 0
    row = json.loads(out.splitlines()[-1])
    assert row["primitive_dim"] == 2
    assert row["dim_mod_4t"] == 6


def test_ngons_list():
    status, out = run_cli("ngons", "--n", "3", "--list")
    assert status == 0
    assert out.splitlines()[1:] == ["1,2,3", "1,3,2"]


def test_reduce_with_verification():
    status, out = run_cli("reduce", "--sigma", "3,1,2", "--verify")
    assert status == 0
    payload = [json.loads(l) for l in out.splitlines()[1:]]
    assert payload[-1] == {"verified": True}
    assert isinstance(payload[1], list)  # the rewrite trace


def test_ribbon_gen_and_verify():
    status, out = run_cli("ribbon", "gen", "--sigma", "1,2")
    assert status == 0
    code_line, scheme_line = out.splitlines()[1:3]
    assert code_line.startswith("O") or code_line.startswith("U")
    assert json.loads(scheme_line)["T"]
    status, out = run_cli("ribbon", "verify", "--sigma", "1,2")
    assert status == 0
    checks = json.loads(out.splitlines()[-1])
    assert all(checks.values())


@pytest.mark.parametrize("sigma, scheme_identity", [
    ("1,2,3,4", True),
    ("1,2,3,4,5", "skipped"),
])
def test_ribbon_verify_switchings_above_order_3(sigma, scheme_identity):
    status, out = run_cli("--no-header", "ribbon", "verify", "--sigma", sigma)
    assert status == 0
    assert json.loads(out) == {
        "realizable": True, "switchings_trivial": True,
        "inverse_switchings_trivial": True, "scheme_identity": scheme_identity}


def test_ribbon_verify_reports_guarded_checks_as_skipped():
    status, out = run_cli("--no-header", "ribbon", "verify",
                          "--sigma", "1,2,3,4,5,6,7,8")
    assert status == 0
    assert json.loads(out) == {
        "realizable": True, "switchings_trivial": "skipped",
        "inverse_switchings_trivial": "skipped", "scheme_identity": "skipped"}


def test_ohyama():
    status, out = run_cli("ohyama", "--sigma", "1,2")
    assert status == 0
    lines = out.splitlines()
    assert lines[1:5] == ["+1 1122", "-1 1212", "-1 1212", "+1 1122"]
    assert json.loads(lines[-1]) == {"identity_mod_4t": True}


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, env", [
    (["reduce", "--sigma", "1,1,2"], {}),
    (["reduce", "--sigma", "1,x"], {}),
    (["ribbon", "gen", "--sigma", "2,1,3"], {}),
    (["ngons", "--n", "1"], {}),
    (["ribbon", "verify", "--sigma", "1,2"],
     {"VASSILIEV_SIMPLIFY_BUDGET": "abc"}),
    (["selftest"], {"VASSILIEV_SIMPLIFY_BUDGET": "abc"}),
    (["ngons", "--n", "9"], {}),
    (["bounds", "--n-max", "41"], {}),
    (["ohyama", "--sigma", "2,1,3"], {}),
    (["ohyama", "--sigma", "1,1,2"], {}),
    (["ohyama", "--sigma", "1"], {}),
    (["ribbon", "verify", "--sigma", "2,1,3"], {}),
    (["ribbon", "verify", "--sigma", "1"], {}),
    (["dims", "--n", "7"], {}),
    (["bounds", "--n-max", "2"], {}),
    (["ribbon", "verify", "--sigma", "1,2"],
     {"VASSILIEV_SIMPLIFY_BUDGET": "-5"}),
    (["selftest"], {"VASSILIEV_SIMPLIFY_BUDGET": "-5"}),
    (["ohyama", "--sigma", "1,2,3,4,5,6,7,8,9"], {}),
])
def test_bad_input_exits_2_with_one_line(argv, env):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "vassiliev.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def _snapshot(n):
    return [({c: dict(r) for c, r in span.pivots.items()},
             [dict(r) for r in span.rows]) for span in quotient_spans(n)]


def test_cli_leaves_cached_spans_unchanged():
    spans = {n: quotient_spans(n) for n in (3, 4)}
    before = {n: _snapshot(n) for n in spans}
    assert run_cli("selftest")[0] == 0
    assert run_cli("reduce", "--sigma", "2,4,1,3", "--verify")[0] == 0
    for n in spans:
        assert quotient_spans(n) is spans[n]
        assert _snapshot(n) == before[n]
