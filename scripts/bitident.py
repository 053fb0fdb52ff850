"""Print one line per op of a benchmark batch, to check two builds compute alike.

Builds the seeded batch of one workload of ``perfbench`` (read-only; the
batch is the one ``perfbench/run.py`` times), runs every op once against
the ``peakons`` package found in SRC_DIR, and prints per op: its index,
kind, n, outcome (``ok``, ``skipped``, ``peakon`` or ``leak``), the
exception type, and a hash of ``Op.digest`` with every float written in
hex, so that ``numpy.float64`` and ``float`` of one value hash alike.
Run it on two source trees and compare with ``diff``:

    python3 scripts/bitident.py old/src flow 11 > old.txt
    python3 scripts/bitident.py src flow 11 > new.txt
    diff old.txt new.txt

Usage: python3 scripts/bitident.py SRC_DIR WORKLOAD SEED
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def normalized(value):
    """value with floats as hex strings and sequences as tuples, recursively."""
    if isinstance(value, (tuple, list)):
        return tuple(normalized(v) for v in value)
    if isinstance(value, float):  # numpy.float64 included
        return float(value).hex()
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_dir", help="directory that holds the peakons package")
    ap.add_argument("workload", choices=("roundtrip", "cli_mix", "flow"))
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(Path(args.src_dir).resolve()), str(BENCH_DIR)]
    import run  # perfbench/run.py: pins BLAS threads, holds the batch sizes
    import timing
    import workloads

    pk = run.import_package()
    if not Path(pk.__file__).is_relative_to(Path(args.src_dir).resolve()):
        ap.error(f"peakons imported from {pk.__file__}, not from {args.src_dir}")
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.WORKLOADS[args.workload](pk, args.seed, run.ROUNDS[args.workload], workdir)
        timing.reset(ops)
        for i, op in enumerate(ops):
            rec = {"status": None, "exc": None, "raw": None}
            timing.attempt(pk, op, rec)
            digest = None
            if rec["status"] is None:
                rec["status"] = "ok"
                text = repr(normalized(op.digest(rec["raw"]))).encode()
                digest = hashlib.sha256(text).hexdigest()[:16]
            print(i, op.kind, f"n={op.n}", rec["status"], rec["exc"], digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
