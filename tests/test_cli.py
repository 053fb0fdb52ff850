import json
import math

import pytest

from peakons.cli import main
from peakons import DEFAULT, Tolerances, ValidationError, serial


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("PEAKON_CONFIG", raising=False)


def _measure_file(tmp_path, triples, name="measure.json"):
    path = tmp_path / name
    obj = {"points": [{"x": x, "w": w, "v": v} for x, w, v in triples]}
    path.write_text(json.dumps(obj))
    return str(path)


def _interior_file(tmp_path, a, pairs, name="interior.json"):
    path = tmp_path / name
    obj = {"a": a, "pairs": [{"lambda": l, "phi": p} for l, p in pairs]}
    path.write_text(json.dumps(obj))
    return str(path)


def test_forward_single_peakon(tmp_path, capsys):
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["forward", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eigenvalues"] == [0.5]
    assert abs(out["norming"][0] - 1.0) < 1e-12
    assert out["zero_counts"] == [0]


def test_forward_interior_report(tmp_path, capsys):
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["forward", f, "--at", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    pair = out["interior"]["pairs"][0]
    assert abs(pair["lambda"] - 0.5) < 1e-12
    assert abs(pair["phi"] - 1.0) < 1e-12


def test_repeated_runs_are_byte_identical(tmp_path):
    f = _measure_file(tmp_path, [(-0.3, 1.7, 0.0), (0.9, -0.6, 0.25), (2.2, 0.8, 0.0)])
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["forward", f, "--out", out1]) == 0
    assert main(["forward", f, "--out", out2]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_inverse_roundtrips_through_files(tmp_path, capsys):
    f = _measure_file(tmp_path, [(-1.0, 1.5, 0.0), (1.0, 0.7, 0.0)])
    sd_file = str(tmp_path / "sd.json")
    assert main(["forward", f, "--out", sd_file]) == 0
    assert main(["inverse", sd_file]) == 0
    out = json.loads(capsys.readouterr().out)
    xs = [p["x"] for p in out["points"]]
    ws = [p["w"] for p in out["points"]]
    assert xs == pytest.approx([-1.0, 1.0], abs=1e-8)
    assert ws == pytest.approx([1.5, 0.7], abs=1e-8)


def test_forward_across_a_gap_of_822_exits_0(tmp_path, capsys):
    f = _measure_file(tmp_path, [(-393.3216, 2.448, 0.0), (428.9488, -0.2958, 0.0)])
    assert main(["forward", f]) == 0
    assert len(json.loads(capsys.readouterr().out)["norming"]) == 2


def test_validation_failure_exits_2(tmp_path, capsys):
    f = _measure_file(tmp_path, [(0.0, 1.0, -0.5)])
    assert main(["forward", f]) == 2
    assert "v[0]" in capsys.readouterr().err


def test_unreadable_file_exits_2(tmp_path, capsys):
    assert main(["forward", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_grid_exits_2(tmp_path, capsys):
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["evolve", f, "--t", "0:10:-1"]) == 2
    assert "step" in capsys.readouterr().err


def test_infeasible_interior_data_exits_4(tmp_path, capsys):
    # phi mass above 1 violates the sum condition
    f = _interior_file(tmp_path, 0.0, [(0.5, 1.2), (2.0, 0.4)])
    assert main(["interior", f]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["feasibility"]["ok"] is False
    assert out["feasibility"]["violations"]


def test_interior_enumerates_the_two_branch_example(tmp_path, capsys):
    phi = math.exp(-0.5)
    f = _interior_file(tmp_path, 0.0, [(0.5, phi)])
    assert main(["interior", f, "--enumerate", "--moduli"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasibility"]["ok"] is True
    assert out["count"]["branches"] == 2
    assert out["moduli_count"] == 2
    xs = sorted(m["points"][0]["x"] for m in out["solutions"])
    assert xs == pytest.approx([-1.0, 1.0], abs=1e-9)
    assert out["errors"] == []
    assert len(out["branches"]) == 2


def test_interior_data_whose_alpha_reads_0_enumerates(tmp_path, capsys):
    # sum phi^2 = 1 - 5e-10: alpha reads 0, and condition (i) holds with it
    f = _interior_file(tmp_path, 0.0, [(1.0, 0.999499373936522), (500.0, 0.0),
                                       (1000.0, -0.03163859985050698)])
    assert main(["interior", f, "--enumerate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasibility"]["alpha"] == 0 and out["feasibility"]["violations"] == []
    assert len(out["solutions"]) == 1 and out["errors"] == []


def test_interior_enumerate_solves_the_weyl_sum_once(tmp_path, monkeypatch, capsys):
    from peakons import interior

    calls = []
    solve = interior.neg_reciprocal
    monkeypatch.setattr(interior, "neg_reciprocal", lambda *a: calls.append(a) or solve(*a))
    f = _interior_file(tmp_path, 0.0, [(0.5, math.exp(-0.5))])
    assert main(["interior", f, "--enumerate"]) == 0
    assert json.loads(capsys.readouterr().out)["count"]["branches"] == 2
    assert len(calls) == 1


def test_interior_splits_flag_selects_family_member(tmp_path, capsys):
    # a sits at a root of the second eigenfunction, so one pole is shared
    from peakons import validate, eigenvalues
    from peakons.forward import _shoot

    m = validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    lam = eigenvalues(m)[1]
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _shoot(m, lam, mid, "plus")[0] > 0:
            hi = mid
        else:
            lo = mid
    a = 0.5 * (lo + hi)
    from peakons import interior_data

    d = interior_data(m, a)
    f = _interior_file(tmp_path, a, list(zip(d.eigenvalues, d.phi)))
    assert main(["interior", f, "--enumerate", "--splits", "0.3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"]["kind"] == "family"
    assert out["count"]["dim"] == 1
    assert out["solutions"]


def test_unparsable_splits_flag_exits_2(tmp_path, capsys):
    f = _interior_file(tmp_path, 0.0, [(0.5, math.exp(-0.5))])
    assert main(["interior", f, "--enumerate", "--splits", "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, payload",
    [
        ("inverse", {"eigenvalues": [1e-320, 2.0], "norming": [1.0, 1.0]}),
        ("inverse", {"eigenvalues": [-1e-300, 2.0], "norming": [1.0, 1.0]}),
        ("interior", {"a": 0.0, "pairs": [{"lambda": 1.0, "phi": 1e308}]}),
        ("interior", {"a": 0.0, "pairs": [{"lambda": 1e200, "phi": 0.5}]}),
    ],
)
def test_out_of_range_squares_exit_2(tmp_path, capsys, command, payload):
    # an eigenvalue whose square underflows, or a phi whose square terms
    # overflow, leaked ZeroDivisionError or ValueError from the numerics
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    assert main([command, str(f)] + (["--enumerate"] if command == "interior" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_evolve_csv_series_and_report(tmp_path):
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    series = str(tmp_path / "series.csv")
    assert main(["evolve", f, "--t", "0:2:1", "--x=-1:1:1", "--out", series]) == 0
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 3 * 3
    report = json.loads((tmp_path / "series.csv.report.json").read_text())
    assert len(report["measures"]) == 3
    assert report["series_errors"] == []
    assert all(v == 0.0 for _, v, _ in report["collisions"])
    # single peakon of height 1 travels at speed 1: x(t) = t
    for entry in report["measures"]:
        assert entry["measure"]["points"][0]["x"] == pytest.approx(
            entry["t"], abs=1e-9
        )
    assert main(["evolve", f, "--t", "0:2:1", "--x=-1:1:1", "--out", series]) == 0
    assert (tmp_path / "series.csv").read_text().splitlines() == lines


def test_evolve_norming_overflow_lists_the_failing_times(tmp_path):
    # lambda_1 = -0.0509, so exp(-t/(2 lambda_1)) overflows from t = 72 on;
    # it leaked an OverflowError traceback
    f = _measure_file(tmp_path, [(0.0, -20.0, 0.0), (1.0, 1.0, 0.0)])
    series = str(tmp_path / "series.csv")
    assert main(["evolve", f, "--t", "0:200:50", "--x=0:1:1", "--out", series]) == 0
    report = json.loads((tmp_path / "series.csv.report.json").read_text())
    overflow = [t for t, _, err in report["collisions"] if err and "overflows" in err]
    assert overflow == [100.0, 150.0, 200.0]
    assert set(overflow) <= {e["t"] for e in report["series_errors"]}


def test_config_file_sets_format_and_grids(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "t": "0:1:1", "x": "0:1:1"}))
    monkeypatch.setenv("PEAKON_CONFIG", str(cfg))
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["evolve", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["series"]) == 4
    assert [r[0] for r in out["series"]] == [0.0, 0.0, 1.0, 1.0]


def test_flag_overrides_config_grid(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "t": "0:5:1", "x": "0:1:1"}))
    monkeypatch.setenv("PEAKON_CONFIG", str(cfg))
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["evolve", f, "--t", "0:0:1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {r[0] for r in out["series"]} == {0.0}


def test_bad_config_format_exits_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "yaml"}))
    monkeypatch.setenv("PEAKON_CONFIG", str(cfg))
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["forward", f]) == 2
    assert "format" in capsys.readouterr().err


def test_tolerance_flag_reaches_validation(tmp_path, capsys):
    f = _measure_file(tmp_path, [(0.0, 1.0, 0.0), (5e-3, 1.0, 0.0)])
    assert main(["forward", f]) == 0
    capsys.readouterr()
    assert main(["forward", f, "--tol.pos", "0.01"]) == 2
    assert "closer than" in capsys.readouterr().err


def test_config_tolerances_apply_and_flags_win(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"pos": 0.01}}))
    monkeypatch.setenv("PEAKON_CONFIG", str(cfg))
    f = _measure_file(tmp_path, [(0.0, 1.0, 0.0), (5e-3, 1.0, 0.0)])
    assert main(["forward", f]) == 2
    capsys.readouterr()
    assert main(["forward", f, "--tol.pos", "1e-10"]) == 0


def test_unknown_config_tolerance_exits_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"bogus": 1.0}}))
    monkeypatch.setenv("PEAKON_CONFIG", str(cfg))
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["forward", f]) == 2
    assert "tolerance" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("flag, grid", [("--t", "nan:1:1"), ("--x", "0:inf:1"), ("--t", "0:1:nan")])
def test_non_finite_grid_exits_2(tmp_path, capsys, flag, grid):
    # a NaN or infinite stop once kept GridSpec.points() looping for ever
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["evolve", f, f"{flag}={grid}"]) == 2
    assert "finite" in _one_error_line(capsys)


@pytest.mark.parametrize("flag, grid", [("--t", "0:1:1e-300"), ("--x", "-1e300:1e300:1")])
def test_a_grid_of_too_many_points_exits_2(tmp_path, capsys, flag, grid):
    # a tiny step once kept GridSpec.points() looping until memory ran out
    from peakons.config import GRID_CAP  # imported first: the loop never starts without it

    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["evolve", f, f"{flag}={grid}"]) == 2
    assert f"more than {GRID_CAP} points" in _one_error_line(capsys)


def test_grid_cap_is_the_largest_grid_accepted():
    from peakons.config import GRID_CAP, GridSpec

    assert len(GridSpec(0.0, GRID_CAP - 1.0, 1.0).points()) == GRID_CAP
    with pytest.raises(ValueError, match="more than"):
        GridSpec(0.0, float(GRID_CAP), 1.0).points()


@pytest.mark.parametrize("flag, grid, msg", [
    ("--t", "5:1:1", "empty grid"),
    ("--x", "1:2", "must be start:stop:step"),
])
def test_malformed_grid_exits_2(tmp_path, capsys, flag, grid, msg):
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["evolve", f, f"{flag}={grid}"]) == 2
    assert msg in _one_error_line(capsys)


def test_interior_data_with_an_overflowing_pole_spacing_exits_3(tmp_path, capsys):
    # eigenvalues 1e154 from the origin once ended --enumerate in an
    # OverflowError traceback
    f = _interior_file(tmp_path, 0.0, [(-1e154, 0.1), (1.0, 0.5), (1e154, 0.1)])
    assert main(["interior", f, "--enumerate"]) == 3
    _one_error_line(capsys)


@pytest.mark.parametrize("content", [None, "{not json"])
def test_unreadable_config_exits_2(tmp_path, monkeypatch, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    monkeypatch.setenv("PEAKON_CONFIG", str(cfg))
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["evolve", f]) == 2
    assert "cannot read config" in _one_error_line(capsys)


@pytest.mark.parametrize("obj", [[1, 2], {"x": 5}, {"splits": 5}])
def test_config_of_the_wrong_shape_exits_2(tmp_path, monkeypatch, capsys, obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    monkeypatch.setenv("PEAKON_CONFIG", str(cfg))
    f = _measure_file(tmp_path, [(0.0, 2.0, 0.0)])
    assert main(["evolve", f]) == 2
    _one_error_line(capsys)


_BAD_TOLERANCES = [("pf", math.nan), ("inv", math.nan), ("inv", -1.0), ("cf", math.inf)]


@pytest.mark.parametrize("name, value", _BAD_TOLERANCES)
def test_bad_tolerance_flag_exits_2(tmp_path, capsys, name, value):
    sd = tmp_path / "sd.json"
    sd.write_text(json.dumps({"eigenvalues": [0.5], "norming": [1.0]}))
    assert main(["inverse", str(sd), f"--tol.{name}", str(value)]) == 2
    assert name in _one_error_line(capsys)


@pytest.mark.parametrize("value", ["abc", -1e-9, math.nan])
def test_bad_config_tolerance_exits_2(tmp_path, monkeypatch, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"pf": value}}))  # nan is written as NaN
    monkeypatch.setenv("PEAKON_CONFIG", str(cfg))
    sd = tmp_path / "sd.json"
    sd.write_text(json.dumps({"eigenvalues": [0.5], "norming": [1.0]}))
    assert main(["inverse", str(sd)]) == 2
    assert "pf" in _one_error_line(capsys)


@pytest.mark.parametrize("name, value", _BAD_TOLERANCES + [("pf", "abc"), ("trace", True)])
def test_bad_tolerance_is_rejected_by_the_api(name, value):
    with pytest.raises(ValidationError):
        Tolerances(**{name: value})
    with pytest.raises(ValidationError):
        DEFAULT.with_overrides(**{name: value})
    assert getattr(Tolerances(**{name: 0}), name) == 0  # zero is a valid tolerance


def test_float_formatting_is_fixed_width_and_parseable():
    assert serial.fmt_float(1.0) == "1"
    assert serial.fmt_float(0.1) == "0.10000000000000001"
    with pytest.raises(ValueError):
        serial.fmt_float(float("nan"))


_NAN, _INF = float("nan"), float("inf")
_MEASURE = [(-0.3, 1.7, 0.0), (0.9, -0.6, 0.25), (2.2, 0.8, 0.0)]


def _with(triples, i, k, value):
    out = [list(t) for t in triples]
    out[i][k] = value
    return [tuple(t) for t in out]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("inverse", {"eigenvalues": [_NAN], "norming": [1.0]}),
        ("inverse", {"eigenvalues": [0.5], "norming": [_NAN]}),
        ("inverse", {"eigenvalues": [0.5, _INF], "norming": [1.0, 0.5]}),
        ("inverse", {"eigenvalues": [0.5, 1.5], "norming": [_INF, 0.5]}),
        ("interior", (0.0, [(0.5, _NAN)])),
        ("interior", (_NAN, [(0.5, math.exp(-0.5))])),
        ("interior", (0.0, [(_INF, 0.3)])),
        ("forward", [(_NAN, 2.0, 0.0)]),
        ("forward", _with(_MEASURE, 0, 1, _INF)),
        ("forward", _with(_MEASURE, 2, 2, _NAN)),
        ("evolve", _with(_MEASURE, 1, 1, _NAN)),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, command, payload):
    # input validation must reject these; the numerics would leak
    # ValueError or IndexError on them, or report a numerical failure
    if command == "inverse":
        f = str(tmp_path / "sd.json")
        (tmp_path / "sd.json").write_text(json.dumps(payload))
    elif command == "interior":
        f = _interior_file(tmp_path, *payload)
    else:
        f = _measure_file(tmp_path, payload)
    flags = {"interior": ["--enumerate", "--moduli"], "evolve": ["--t", "0:1:1", "--x=0:1:1"]}
    argv = [command, f] + flags.get(command, [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_forward_at_matches_the_library_calls(tmp_path, capsys, rng):
    # the CLI solves once and reuses that solve for zero counts and --at
    from conftest import random_measure
    from peakons import eigenfunction_zero_count, interior_data

    for _ in range(8):
        m = random_measure(rng)
        a = float(rng.uniform(m.points[0] - 1.0, m.points[-1]))
        f = _measure_file(tmp_path, zip(m.points, m.omega, m.vee))
        assert main(["forward", f, "--at", repr(a)]) == 0
        out = json.loads(capsys.readouterr().out)
        n_eig = len(out["eigenvalues"])
        assert out["zero_counts"] == [eigenfunction_zero_count(m, i) for i in range(n_eig)]
        assert out["interior"] == interior_data(m, a).to_json_obj()


def test_forward_at_reads_each_eigenfunction_once_without_shooting(tmp_path, monkeypatch, capsys):
    # kappa, the zero counts and --at share one twisted null vector per
    # eigenvalue, and nothing is shot, real or complex
    from peakons import forward

    reads, shots = [], []
    read, shoot = forward._eigenfunction, forward._shoot
    monkeypatch.setattr(forward, "_eigenfunction", lambda *a: reads.append(a) or read(*a))
    monkeypatch.setattr(forward, "_shoot", lambda *a: shots.append(a) or shoot(*a))
    f = _measure_file(tmp_path, [(-1.0, 1.0, 0.5), (0.0, -0.7, 0.0), (1.2, 2.0, 0.3)])
    assert main(["forward", f, "--at", "0.5"]) == 0
    n_eig = len(json.loads(capsys.readouterr().out)["eigenvalues"])
    assert n_eig == 5 and len(reads) == n_eig
    assert shots == []


@pytest.mark.parametrize("command", ["forward", "evolve"])
def test_atoms_too_far_apart_exit_3(tmp_path, capsys, command):
    # sinh and cosh of a 1500-wide gap overflow; both printed an OverflowError traceback
    f = _measure_file(tmp_path, [(0.0, 1.0, 0.0), (1500.0, 1.0, 0.0)])
    flags = {"forward": ["--at", "0"], "evolve": ["--t", "0:1:1", "--x=0:1:1"]}[command]
    assert main([command, f, *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    {"eigenvalues": [1.0 + k * 4e-15 for k in range(24)], "norming": [1.0] * 24},
    {"eigenvalues": [-1e-155, 1e-155], "norming": [1.0, 1.0]},
], ids=["wdot_square_underflows", "residue_sum_square_underflows"])
def test_inverse_underflow_exits_3_with_one_error_line(tmp_path, capsys, payload):
    # both leaked a ZeroDivisionError traceback (the second at +-1e-150, whose
    # residue sum now reconstructs; at +-1e-155 a residue weight underflows)
    f = tmp_path / "sd.json"
    f.write_text(json.dumps(payload))
    assert main(["inverse", str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eigenvalues_sharing_a_float_exit_3_with_one_error_line(tmp_path, capsys):
    # both roots round to 1.0; this ended in "phi_minus vanishes at the peak atom"
    f = _measure_file(tmp_path, [(0.0, 1.0, 0.0), (75.0, 1.0, 0.0)])
    assert main(["forward", f]) == 3
    err = capsys.readouterr().err
    assert err == "error: two eigenvalues share the float 1.0\n"


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); argparse's errors exit through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_consecutive_calls_in_one_process_match_calls_alone(tmp_path, capsys):
    # the parser is built once per process: no flag, default or error of one
    # call may reach the next, so each call of the sequence gives the bytes
    # and exit code it gives with a parser built for it alone
    from peakons.cli import _build_parser

    m = _measure_file(tmp_path, [(-0.3, 1.7, 0.0), (0.9, -0.6, 0.25), (2.2, 0.8, 0.0)])
    close = _measure_file(tmp_path, [(0.0, 1.0, 0.0), (5e-3, 1.0, 0.0)], "close.json")
    sd = str(tmp_path / "sd.json")
    assert main(["forward", m, "--out", sd]) == 0
    sequence = [
        ["inverse", sd, "--tol.inv", "1e-3"],
        ["inverse", sd],
        ["forward", close, "--tol.pos", "0.01"],
        ["forward", close],
        ["evolve", m, "--t", "0:1:0.5"],
        ["evolve", m],
        ["forward", m, "--no-such-flag"],
        ["forward", m, "--at", "0.35"],
    ]
    alone = []
    for argv in sequence:
        _build_parser.cache_clear()
        alone.append(_outcome(argv, capsys))
    _build_parser.cache_clear()
    assert [_outcome(argv, capsys) for argv in sequence] == alone
    codes = [code for code, _, _ in alone]
    assert codes == [0, 0, 2, 0, 0, 0, 2, 0]
    assert alone[4][1] != alone[5][1] and "--no-such-flag" in alone[6][2]
