"""Smoke test of the scripts: each runs on a small input and exits 0."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["collision_demo.py", "--steps", "5"],
    ["flow_demo.py", "--steps", "3", "--tmax", "5"],
    ["theta_family.py", "--thetas", "0.3", "0.7"],
], ids=lambda argv: argv[0])
def test_script_runs(argv, tmp_path):
    proc = _run(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_bitident_finds_a_build_identical_to_itself(tmp_path):
    src = str(ROOT / "src")
    proc = _run(["bitident.py", src, src, "--workloads", "roundtrip", "--seeds", "11"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "roundtrip seed 11: 0 of 144 ops differ" in proc.stdout
    counts = re.fullmatch(r"src lines: (\d+) -> (\d+)", proc.stdout.splitlines()[-1])
    assert counts and counts[1] == counts[2] != "0", proc.stdout


def test_workcounts_counts_alike_on_two_runs(tmp_path):
    argv = ["workcounts.py", "roundtrip", "--seed", "11", str(ROOT / "src")]
    runs = [_run(argv, tmp_path) for _ in range(2)]
    assert all(p.returncode == 0 for p in runs), [p.stderr for p in runs]
    assert runs[0].stdout == runs[1].stdout
    head, total = runs[0].stdout.splitlines()[1], runs[0].stdout.splitlines()[-1]
    assert head.split() == ["kind", "ops", "neg_reciprocal", "secular_zeros", "count", "count_slope"]
    assert total.split()[:2] == ["total", "144"] and all(int(v) > 0 for v in total.split()[2:])


def _result_line(p50, share, failed):
    metrics = {"op_p50_ms": {"value": p50, "unit": "ms"},
               "success_share": {"value": share, "unit": "ratio"}}
    return json.dumps({"correct": True, "attempted": 252, "failed": failed, "metrics": metrics})


def test_abpairs_reports_every_run_and_the_medians():
    spec = importlib.util.spec_from_file_location("abpairs", ROOT / "scripts" / "abpairs.py")
    abpairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abpairs)

    old = [_result_line(p50, 0.968, 8) for p50 in (1.6, 1.5, 1.7)]
    new = [_result_line(p50, 0.968, 8) for p50 in (1.4, 1.55, 1.3)]
    rows = abpairs.report(old, new, {"op_p50_ms": "lower", "success_share": "higher"})
    assert rows[0].split() == ["metric", "old", "runs", "new", "runs", "median", "old", "->", "new"]
    assert rows[1].split() == ["op_p50_ms", "1.6", "1.5", "1.7", "1.4", "1.55", "1.3",
                               "1.6", "->", "1.4", "(-12.5%),", "lower", "in", "2,", "higher", "in", "1"]
    assert rows[2].split() == ["success_share", *["0.968"] * 6, "0.968", "->", "0.968", "(+0.0%),",
                               "lower", "in", "0,", "higher", "in", "0"]
    assert rows[3].split() == ["attempted/failed", *["252/8"] * 6]
    assert rows[4].split() == ["correct", *["True"] * 6]
    assert rows[0].index("new runs") == rows[1].index("1.4") == rows[3].index("252/8 252/8 252/8", 20)
    # three pairs are too few to show a gain
    assert rows[5].split() == ["gain", "shown", "none"]


def test_abpairs_shows_a_gain_only_when_nine_of_ten_pairs_and_the_quartiles_agree():
    spec = importlib.util.spec_from_file_location("abpairs", ROOT / "scripts" / "abpairs.py")
    abpairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abpairs)

    old = [1.80, 1.82, 1.84, 1.85, 1.83, 1.81, 1.86, 1.84, 1.83, 1.82]
    new = [1.68, 1.70, 1.66, 1.69, 1.67, 1.71, 1.68, 1.69, 1.70, 1.90]  # 9 of 10 lower
    assert abpairs.shows_gain(old, new, "lower")
    assert not abpairs.shows_gain(old, new, "higher")
    assert not abpairs.shows_gain(old[:9], new[:9], "lower")  # fewer than 10 pairs
    assert not abpairs.shows_gain(old, new[:8] + [1.90, 1.90], "lower")  # 8 of 10
    # 10 of 10 lower, but the median falls by less than old's quartile distance
    wide = [1.70, 1.90, 1.75, 1.95, 1.72, 1.92, 1.74, 1.94, 1.73, 1.93]
    assert not abpairs.shows_gain(wide, [x - 0.05 for x in wide], "lower")
    rows = abpairs.report([_result_line(x, 0.968, 8) for x in old],
                          [_result_line(x, 0.968, 8) for x in new],
                          {"op_p50_ms": "lower", "success_share": "higher"})
    assert rows[-1].split() == ["gain", "shown", "op_p50_ms"]


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PEAKON_CONFIG", None)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
