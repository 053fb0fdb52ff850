"""Command-line front end: forward, inverse, interior, evolve.

Input and output are JSON (CSV only for the evolve series); all floats are
emitted with 17 significant digits so repeated runs are byte-identical.
Exit codes: 0 ok, 2 input validation, 3 numerical failure, 4 infeasible data.
A JSON config file named by the PEAKON_CONFIG environment variable supplies
defaults (tolerances, grids, output format, split ratios); command-line
flags override it.  The argument parser is built on the first main() call
and reused by later calls in the process; parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import evolution, forward, interior, inverse, serial
from .config import DEFAULT, GridSpec, RunConfig, Tolerances
from .errors import (
    InfeasibleData,
    NotHerglotz,
    NumericalError,
    PeakonError,
    ValidationError,
)
from .forward import InteriorData, SpectralData
from .measures import PeakonMeasure

TOL_NAMES = tuple(f.name for f in dataclasses.fields(Tolerances))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process, on the first main() call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="input JSON file")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    for name in TOL_NAMES:
        common.add_argument(
            f"--tol.{name}", dest=f"tol_{name}", type=float, default=None,
            help=f"override tolerance {name}",
        )
    p = argparse.ArgumentParser(prog="peakon")
    sub = p.add_subparsers(dest="command", required=True)
    f = sub.add_parser("forward", parents=[common], help="spectral data from a measure")
    f.add_argument("--at", type=float, default=None, help="interior report point")
    sub.add_parser("inverse", parents=[common], help="measure from spectral data")
    i = sub.add_parser("interior", parents=[common], help="interior inverse problem")
    i.add_argument("--enumerate", action="store_true", dest="do_enumerate",
                   help="enumerate all solution branches")
    i.add_argument("--splits", default=None,
                   help="comma-separated split ratios for shared poles")
    i.add_argument("--moduli", action="store_true",
                   help="count sign classes for modulus-only data")
    e = sub.add_parser("evolve", parents=[common], help="time evolution series")
    e.add_argument("--t", default=None, help="time grid start:stop:step")
    e.add_argument("--x", default=None, help="space grid start:stop:step")
    return p


def _config(args) -> RunConfig:
    obj = {}
    path = os.environ.get("PEAKON_CONFIG")
    if path:
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError(f"config {path} must hold a JSON object")
    try:
        tol = DEFAULT.with_overrides(**obj.get("tolerances", {}))
    except TypeError as exc:
        raise ValidationError(f"bad tolerance name in config: {exc}") from exc
    tol = tol.with_overrides(**{n: getattr(args, f"tol_{n}") for n in TOL_NAMES})
    base = RunConfig()
    try:
        x_grid = GridSpec.parse(obj["x"]) if "x" in obj else base.x_grid
        t_grid = GridSpec.parse(obj["t"]) if "t" in obj else base.t_grid
        if getattr(args, "x", None):
            x_grid = GridSpec.parse(args.x)
        if getattr(args, "t", None):
            t_grid = GridSpec.parse(args.t)
        x_grid.points()  # surface bad steps here as validation errors
        t_grid.points()
        splits = tuple(float(s) for s in obj.get("splits", ()))
    except (ValueError, TypeError) as exc:
        raise ValidationError(str(exc)) from exc
    fmt = obj.get("format", base.fmt)
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {fmt!r}")
    return RunConfig(tol, x_grid, t_grid, fmt, splits)


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_forward(args, cfg: RunConfig) -> int:
    m = PeakonMeasure.from_json_obj(_read_json(args.file), cfg.tol)
    # one solve and one read of each eigenfunction serve kappa, the zero counts and --at
    sd, atoms = forward._spectral(m, cfg.tol)
    report = sd.to_json_obj()
    report["zero_counts"] = [forward._zero_count(vals) for vals in atoms]
    if args.at is not None:
        report["interior"] = forward._interior(m, sd, atoms, args.at, cfg.tol).to_json_obj()
    _write(serial.dumps_json(report), args.out)
    return 0


def _cmd_inverse(args, cfg: RunConfig) -> int:
    sd = SpectralData.from_json_obj(_read_json(args.file))
    m = inverse.measure_from_spectral_data(sd, cfg.tol)
    _write(serial.dumps_json(m.to_json_obj()), args.out)
    return 0


def _cmd_interior(args, cfg: RunConfig) -> int:
    d = InteriorData.from_json_obj(_read_json(args.file))
    rep = interior.feasibility(d, cfg.tol)
    out = {"feasibility": rep.to_json_obj()}
    if not rep.ok:
        _write(serial.dumps_json(out), args.out)
        return 4
    if args.moduli:
        out["moduli_count"] = interior.modulus_family_count(d, cfg.tol)
    if args.do_enumerate:
        if args.splits is not None:
            splits = tuple(s for s in args.splits.split(",") if s)  # parsed by enumerate_solutions
        else:
            splits = cfg.splits or None
        fam = interior.enumerate_solutions(d, splits, cfg.tol)
        out["count"] = interior._describe(fam.assignment).to_json_obj()
        out["assignment"] = fam.assignment.to_json_obj()
        out["solutions"] = [m.to_json_obj() for m in fam.measures]
        out["branches"] = [
            {"branch": b, "free_to_minus": mus} for b, mus in enumerate(fam.free_to_minus)
        ]
        out["errors"] = [[b, str(exc)] for b, exc in fam.errors]
    _write(serial.dumps_json(out), args.out)
    return 0


def _cmd_evolve(args, cfg: RunConfig) -> int:
    m = PeakonMeasure.from_json_obj(_read_json(args.file), cfg.tol)
    fs = evolution.FlowState.from_measure(m, 0.0, cfg.tol)
    ts = cfg.t_grid.points()
    xs = cfg.x_grid.points()
    rows, measures, scan, series_errors = [], [], [], []
    for t in ts:  # one t at a time: the scan and the series share its reconstruction
        scan += evolution.collision_scan(fs, [t], cfg.tol)
        try:
            us, mt = evolution.solution_at(fs, t, xs, cfg.tol)
        except PeakonError as exc:
            series_errors.append({"t": t, "error": str(exc)})
            continue
        rows.extend((t, x, u) for x, u in zip(xs, us))
        measures.append({"t": t, "measure": mt.to_json_obj()})
    report = {
        "measures": measures,
        "collisions": [
            [r.t, r.v_mass, r.error] for r in scan
        ],
        "series_errors": series_errors,
    }
    if cfg.fmt == "json":
        report = {"series": [list(r) for r in rows], **report}
        _write(serial.dumps_json(report), args.out)
    else:
        _write(serial.dumps_csv(rows), args.out)
        if args.out is not None:
            with open(args.out + ".report.json", "w") as fh:
                fh.write(serial.dumps_json(report))
    return 0


_DISPATCH = {
    "forward": _cmd_forward,
    "inverse": _cmd_inverse,
    "interior": _cmd_interior,
    "evolve": _cmd_evolve,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        return _DISPATCH[args.command](args, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NotHerglotz as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if args.command == "interior" else 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
