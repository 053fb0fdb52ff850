"""Seeded benchmark of the peakons library and its CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one op at a time, BLAS threads pinned
to 1): ``roundtrip`` (forward solve then inverse), ``cli_mix`` (the four
CLI subcommands on one measure each, through ``cli.main`` in-process) and
``flow`` (one time step of the conservative flow).  A fixed batch of ops
is built from ``--seed`` before timing.  The run makes one whole pass over
the batch, then repeats it until ``--seconds`` have passed, so ``attempted``
and ``failed`` depend on the seed alone.  Every op of the first pass is
checked against an independent oracle; every repeat must end as the
op's first run did.  A failed op (a ``PeakonError``, any other exception,
or a wrong answer) is counted, never dropped.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures untraced for half the time, then makes one
traced pass over the batch, checks that it gives the same results and
failures, and reports per-layer metrics and the tracing overhead.  Times
are scaled to a reference machine speed (see timing.py).  The last line
of standard output is the result object; the line before it is a report
with provenance, raw timings, failure counts by type, the reach table and
the generator.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np  # noqa: E402

import gen  # noqa: E402
import probes  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PKG = "peakons"

SETUP_REPEATS = 5
# rounds in a run's batch: one pass over it takes 60-80% of a 30 s run at
# the reference speed; the rest of the run repeats the batch
ROUNDS = {"roundtrip": 24, "cli_mix": 5, "flow": 7}


def import_package():
    """Import the library afresh, as a new process would."""
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]
    import peakons
    import peakons.cli  # noqa: F401  (the package does not import its CLI)
    return peakons


def setup(workload: str, seed: int, workdir: Path):
    """Import and build the inputs SETUP_REPEATS times; the last build is used.

    Returns the package, the ops, each repeat's raw seconds, and the
    median repeat in seconds at reference speed.
    """
    times, kernel = [], []
    for k in range(SETUP_REPEATS):
        folder = workdir / f"setup{k}"
        t0 = time.perf_counter()
        pk = import_package()
        ops = workloads.WORKLOADS[workload](pk, seed, ROUNDS[workload], str(folder))
        times.append(time.perf_counter() - t0)
        kernel += [timing.time_kernel() for _ in range(5)]
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(folder, ignore_errors=True)
    setup_s = statistics.median(times) * timing.CAL_REF_S / statistics.median(kernel)
    return pk, ops, times, setup_s


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref
    return ref


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / PKG).glob("*.py")))


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": git_commit(),
        "src_loc": src_loc(),
        "generator": gen.DESCRIPTION,
        "seed": seed,
        "speed_reference": f"calibration kernel of {timing.CAL_ITERS} iterations "
                           f"takes {timing.CAL_REF_S * 1e3:g} ms",
    }


def traced_run(pk, ops, seconds, report) -> tuple[bool, int, int, dict]:
    """Untraced measurement, then one traced pass over the batch; per-layer metrics."""
    first, recs, mismatches = timing.measure(pk, ops, seconds / 2)
    tracer = Tracer()
    tracer.install(PKG)
    try:
        trecs = timing.run_ops(pk, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    same = timing.replay(ops, first, trecs) == 0
    base, traced = timing.summary(first, recs), timing.summary(first, trecs)
    scale = traced["speed_factor_median"]
    layers = tracer.per_layer(len(trecs), scale)
    layers["src.loc"] = (float(report["src_loc"]), "lines")
    layers["trace.solved_per_s_untraced"] = (base["solved_per_s"], "1/s")
    layers["trace.solved_per_s_traced"] = (traced["solved_per_s"], "1/s")
    overhead = 1.0 - traced["solved_per_s"] / base["solved_per_s"] if base["solved_per_s"] else 0.0
    layers["trace.overhead_share"] = (overhead, "ratio")
    report.update(untraced=base, traced=traced, traced_matches_untraced=same,
                  repeat_mismatches=mismatches, spans=len(tracer.spans))
    correct = same and mismatches == 0 and "malformed" not in base["status"]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return correct, base["attempted"], base["failed"], metrics


def timed_run(pk, ops, args, setup_s, report) -> tuple[bool, int, int, dict]:
    """The timed measurement plus the untimed probes; end-to-end metrics."""
    first, recs, mismatches = timing.measure(pk, ops, args.seconds)
    s = timing.summary(first, recs)
    reach_n, table = probes.reach_ladder(pk, args.seed)
    report.update(s, reach_n=reach_n, reach_table=table)
    if args.workload == "flow":
        report["reach_t"], report["flow_horizons"] = probes.flow_horizons(ops)
    deterministic = probes.determinism(ops) if args.workload == "cli_mix" else True
    report.update(cli_byte_identical=deterministic, repeat_mismatches=mismatches)
    correct = deterministic is not False and mismatches == 0 and "malformed" not in s["status"]
    values = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (s["op_p50_ms"], "ms"),
        "op_p90_ms": (s["op_p90_ms"], "ms"),
        "success_share": (1.0 - s["fail_share"], "ratio"),
        "contained_share": (1.0 - s["leak_share"], "ratio"),
        "accuracy_digits_p50": (s["accuracy_digits_p50"], "digits"),
        "accuracy_digits_p10": (s["accuracy_digits_p10"], "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "reach_n": (float(reach_n), "n"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return correct, s["attempted"], s["failed"], metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / PKG / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC / PKG}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = BENCH_DIR / f".work-{os.getpid()}"
    try:
        pk, ops, setup_times, setup_s = setup(args.workload, args.seed, workdir)
        report = {"workload": args.workload, "trace": args.trace, **provenance(args.seed),
                  "raw_setup_s_runs": setup_times, "setup_s": setup_s}
        if args.trace:
            correct, attempted, failed, metrics = traced_run(pk, ops, args.seconds, report)
        else:
            correct, attempted, failed, metrics = timed_run(pk, ops, args, setup_s, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
