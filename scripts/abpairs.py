"""Time two checkouts on one benchmark workload in alternating runs, and compare them.

Runs ``perfbench/run.py`` (read-only) from the OLD and the NEW checkout
in K pairs, OLD first in odd pairs and NEW first in even ones, so that both
see the same drift of a shared machine.
Each run is ``--trace 0`` and prints its result object on the last line of
standard output; this script reads each run's end-to-end metrics from it
and prints one row per metric, with the value of every run of each
checkout and the median OLD -> NEW, with the relative change:

    python3 scripts/abpairs.py old new --workload flow --seed 11

A last row names the metrics on which NEW shows a gain: with ``better``
from NEW's ``BENCHMARK.json``, NEW is better in at least 9 of every 10 of
at least 10 pairs, and its median is better than OLD's by more than the
distance between the quartiles of OLD's runs.  Fewer pairs show no gain.

OLD and NEW are checkout roots, each holding ``perfbench/`` and ``src/``.
Exits 1 when a run fails or reports a result it could not check.

Usage: python3 scripts/abpairs.py OLD NEW --workload W [--seed S] [--pairs K] [--seconds T]
K is 10 and T is 30 by default.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root, workload, seed, seconds):
    """The result line of one ``perfbench/run.py`` run from the checkout root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{root}: run.py exited {proc.returncode}\n{proc.stderr}")
    return lines[-1]


def _fmt(v):
    return f"{v:.4g}"


def shows_gain(a, b, better):
    """Whether runs b beat runs a, pair by pair, as a gain claim needs.

    better is "lower" or "higher".  b must be better in at least 9 of every
    10 of at least 10 pairs (a[k], b[k]), and its median better than a's by
    more than the distance between the quartiles of a.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (x - y) > 0.0 for x, y in zip(a, b))
    if len(a) < 10 or wins < math.ceil(0.9 * len(a)):
        return False
    q1, _, q3 = statistics.quantiles(a, n=4)
    return sign * (statistics.median(a) - statistics.median(b)) > q3 - q1


def report(old, new, better):
    """Rows comparing the result lines old and new, one row per metric.

    Each row names the metric, lists its value in every run of each side
    and ends with the medians, old -> new, their relative change, and in
    how many pairs (old[k], new[k]) new is lower and higher.  The metrics
    are those of the first old result, in its order; a row gives
    attempted/failed per run, one says whether every run checked its
    results, and the last names the metrics of better (name -> "lower" or
    "higher") on which new shows a gain, or "none".
    """
    old, new = [json.loads(line) for line in old], [json.loads(line) for line in new]
    names = list(old[0]["metrics"])
    rows = [("metric", "old runs", "new runs", "median old -> new")]
    gains = []
    for name in names:
        a = [r["metrics"][name]["value"] for r in old]
        b = [r["metrics"][name]["value"] for r in new]
        ma, mb = statistics.median(a), statistics.median(b)
        change = f" ({(mb - ma) / ma:+.1%})" if ma else ""
        lower, higher = sum(y < x for x, y in zip(a, b)), sum(y > x for x, y in zip(a, b))
        rows.append((name, " ".join(map(_fmt, a)), " ".join(map(_fmt, b)),
                     f"{_fmt(ma)} -> {_fmt(mb)}{change}, lower in {lower}, higher in {higher}"))
        if name in better and shows_gain(a, b, better[name]):
            gains.append(name)
    rows.append(("attempted/failed",
                 " ".join(f"{r['attempted']}/{r['failed']}" for r in old),
                 " ".join(f"{r['attempted']}/{r['failed']}" for r in new), ""))
    rows.append(("correct", " ".join(str(r["correct"]) for r in old),
                 " ".join(str(r["correct"]) for r in new), ""))
    rows.append(("gain shown", " ".join(gains) or "none", "", ""))
    widths = [max(len(row[k]) for row in rows) for k in range(3)]
    return [f"{n:<{widths[0]}}  {a:<{widths[1]}}  {b:<{widths[2]}}  {m}".rstrip()
            for n, a, b, m in rows]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="checkout root of the reference")
    ap.add_argument("new", help="checkout root of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    old, new = [], []
    for k in range(args.pairs):
        sides = ((args.old, old), (args.new, new))
        for root, out in sides[::-1] if k % 2 else sides:
            out.append(run_once(Path(root), args.workload, args.seed, args.seconds))
        print(f"pair {k + 1} of {args.pairs} done", file=sys.stderr, flush=True)
    spec = json.loads((Path(args.new) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(report(old, new, better)))
    return 0 if all(json.loads(line)["correct"] for line in old + new) else 1


if __name__ == "__main__":
    sys.exit(main())
