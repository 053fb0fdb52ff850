"""Smoke test of the demo scripts: each runs on a small input and exits 0."""

import os
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PEAKON_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
