"""Golden-bytes check of the CLI output across commits.

Each case runs `peakon forward --at`, `inverse`, `interior --enumerate
--moduli` and `evolve` on one fixed small measure and compares every output
file, byte for byte, with the copy stored in tests/data/golden/.  The
stored bytes were produced by an earlier build; a change that is meant to
leave every float bit-identical must reproduce them exactly.

The bytes depend on the platform's libm (exp, expm1, sinh, cosh, tanh),
so a different platform may legitimately differ in the last digit.  Any
Python from 3.10 up must reproduce them: the package adds its float sums
left to right on every version.  Compare the outputs without pytest and
without touching the stored files with

    PYTHONPATH=src python tests/test_golden.py --check

which prints one line per file and exits 1 on any difference.  Regenerate
the files on a new platform with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.  Before it overwrites a file the
script prints how many of its numbers changed, the worst change relative
to max(1, |x|), and whether any text other than the numbers changed.
Neither mode imports pytest, which only collects the tests below, and
neither reads PEAKON_CONFIG.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from peakons.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

# name -> ((x, w, v) triples, interior anchor a); n <= 4, anchor in a gap
CASES = {
    "three": ([(-0.3, 1.7, 0.0), (0.9, -0.6, 0.25), (2.2, 0.8, 0.0)], 0.35),
    "four": ([(-1.5, 0.9, 0.0), (-0.4, 1.2, 0.6), (0.7, -0.8, 0.0), (1.8, 0.5, 0.3)], -0.9),
}

OUTPUTS = ("forward.json", "inverse.json", "interior.json", "evolve.csv", "evolve.csv.report.json")


def _run_case(name: str, workdir: Path) -> list[int]:
    """Write the case's inputs and CLI outputs into workdir; the four exit codes."""
    triples, a = CASES[name]
    measure = workdir / "measure.json"
    measure.write_text(json.dumps({"points": [{"x": x, "w": w, "v": v} for x, w, v in triples]}))
    fwd = str(workdir / "forward.json")
    codes = [main(["forward", str(measure), "--at", repr(a), "--out", fwd])]
    interior_in = workdir / "interior_in.json"
    interior_in.write_text(json.dumps(json.loads((workdir / "forward.json").read_text())["interior"]))
    codes.append(main(["inverse", fwd, "--out", str(workdir / "inverse.json")]))
    codes.append(main(["interior", str(interior_in), "--enumerate", "--moduli",
                       "--out", str(workdir / "interior.json")]))
    codes.append(main(["evolve", str(measure), "--t", "0:1:0.5", "--x=-2:3:1",
                       "--out", str(workdir / "evolve.csv")]))
    return codes


def pytest_generate_tests(metafunc):
    # the parametrization of @pytest.mark.parametrize, without importing pytest
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def test_cli_output_matches_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.delenv("PEAKON_CONFIG", raising=False)
    assert _run_case(name, tmp_path) == [0, 0, 0, 0]
    for fname in OUTPUTS:
        golden = GOLDEN / f"{name}.{fname}"
        assert (tmp_path / fname).read_bytes() == golden.read_bytes(), golden.name


def test_check_mode_needs_no_pytest_and_writes_nothing(tmp_path):
    stored = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
    script = Path(__file__).resolve()
    code = ("import runpy, sys; sys.modules['pytest'] = None; "  # import pytest now fails
            f"sys.argv = [{str(script)!r}, '--check']; runpy.run_path(sys.argv[0], run_name='__main__')")
    env = {k: v for k, v in os.environ.items() if k != "PEAKON_CONFIG"}
    env["PYTHONPATH"] = str(script.parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": identical\n") == len(CASES) * len(OUTPUTS)
    assert {p.name: p.read_bytes() for p in GOLDEN.iterdir()} == stored


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def golden_diff(old: str, new: str) -> str:
    """How the numbers and the other text of new differ from old, in one line."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    text = "unchanged" if NUMBER.sub("#", old) == NUMBER.sub("#", new) else "CHANGED"
    if len(a) != len(b):
        return f"{len(a)} numbers became {len(b)}; text {text}"
    moves = [abs(float(y) - float(x)) / max(1.0, abs(float(x))) for x, y in zip(a, b) if x != y]
    return (f"{len(moves)} of {len(a)} numbers changed, worst {max(moves, default=0.0):.1e}"
            f" relative to max(1,|x|); text {text}")


if __name__ == "__main__":
    import tempfile

    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    os.environ.pop("PEAKON_CONFIG", None)
    if not check:
        GOLDEN.mkdir(parents=True, exist_ok=True)
    differ = 0
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            codes = _run_case(case, Path(tmp))
            if codes != [0, 0, 0, 0]:
                sys.exit(f"{case}: exit codes {codes}")
            for fname in OUTPUTS:
                new, old = Path(tmp) / fname, GOLDEN / f"{case}.{fname}"
                if not old.exists():
                    diff = "new file"
                elif new.read_bytes() == old.read_bytes():
                    diff = "identical"
                else:
                    diff = golden_diff(old.read_text(), new.read_text())
                print(f"{old.name}: {diff}")
                if check:
                    differ += diff != "identical"
                else:
                    shutil.copyfile(new, old)
    if differ:
        sys.exit(f"{differ} of {len(CASES) * len(OUTPUTS)} files differ from {GOLDEN}")
