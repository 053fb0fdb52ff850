"""Smoke test of the scripts: each runs on a small input and exits 0."""

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


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PEAKON_CONFIG", None)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
