"""Compare two builds op by op on the benchmark batches, to check they compute alike.

For each workload and seed, builds the seeded batch of ``perfbench``
(read-only; the batch is the one ``perfbench/run.py`` times), runs every op
once against the ``peakons`` package in OLD_SRC and once against the one
in NEW_SRC, each in its own process, and compares one line per op: its
index, kind, n, outcome (``ok``, ``skipped``, ``peakon`` or ``leak``), the
exception type, the type of its ``__cause__`` (so that failures moving
between causes under one type, such as ``Infeasible``, show), and a hash of
``Op.digest`` with every float written in hex, so that ``numpy.float64``
and ``float`` of one value hash alike.
Prints ``k of n ops differ`` per workload and seed, with how many of them
went from ``ok`` to a failure (``peakon`` or ``leak``) and back, then the
differing lines, and last ``src lines: OLD -> NEW``, the ``wc -l`` totals of
the ``*.py`` files under each source directory; exits 1 on any difference:

    python3 scripts/bitident.py old/src src --seeds 11 12 13 14

``--dump SRC_DIR WORKLOAD SEED`` prints the per-op lines of one build.

Usage: python3 scripts/bitident.py OLD_SRC NEW_SRC [--seeds N ...] [--workloads W ...]
"""

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("roundtrip", "cli_mix", "flow")


def normalized(value):
    """value with floats as hex strings and sequences as tuples, recursively."""
    if isinstance(value, (tuple, list)):
        return tuple(normalized(v) for v in value)
    if isinstance(value, float):  # numpy.float64 included
        return float(value).hex()
    return value


def recording(method, raised):
    """method, with each exception it raises appended to raised."""
    def wrapped():
        try:
            return method()
        except Exception as exc:
            raised.append(exc)
            raise

    return wrapped


def batch(src_dir, workload, seed, patch=None):
    """Run the seeded batch op by op against the package in src_dir.

    Yields (index, op, rec, raised) after each op, with rec as
    ``timing.attempt`` fills it and raised the exceptions that the op's
    prepare and call raised.  patch(package), if given, is called on the
    freshly imported package before the batch is built.
    """
    sys.path[:0] = [str(Path(src_dir).resolve()), str(BENCH_DIR)]
    import run  # perfbench/run.py: pins BLAS threads, holds the batch sizes
    import timing
    import workloads

    pk = run.import_package()
    if not Path(pk.__file__).is_relative_to(Path(src_dir).resolve()):
        sys.exit(f"peakons imported from {pk.__file__}, not from {src_dir}")
    if patch is not None:
        patch(pk)
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.WORKLOADS[workload](pk, seed, run.ROUNDS[workload], workdir)
        timing.reset(ops)
        for i, op in enumerate(ops):
            rec = {"status": None, "exc": None, "raw": None}
            raised = []
            op.prepare, op.call = recording(op.prepare, raised), recording(op.call, raised)
            timing.attempt(pk, op, rec)
            yield i, op, rec, raised


def dump(src_dir, workload, seed):
    """Print one line per op of the batch, run against the package in src_dir."""
    for i, op, rec, raised in batch(src_dir, workload, seed):
        cause = raised and raised[-1].__cause__
        digest = None
        if rec["status"] is None:
            rec["status"] = "ok"
            text = repr(normalized(op.digest(rec["raw"]))).encode()
            digest = hashlib.sha256(text).hexdigest()[:16]
        print(i, op.kind, f"n={op.n}", rec["status"], rec["exc"],
              type(cause).__name__ if cause else None, digest)


def flips(pairs):
    """(ok -> fail, fail -> ok) counts over differing line pairs."""
    def status(line):
        return line.split()[3] if line else None

    fail = ("peakon", "leak")
    pairs = [(status(a), status(b)) for a, b in pairs]
    return (sum(a == "ok" and b in fail for a, b in pairs),
            sum(a in fail and b == "ok" for a, b in pairs))


def compare(old_src, new_src, workload, seed):
    """(number of differing ops, number of ops, differing line pairs)."""
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--dump", src, workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        for src in (old_src, new_src)
    ]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        sys.exit(f"{workload} seed {seed}: a build failed to run its batch")
    old, new = (out.splitlines() for out in outs)
    pairs = [(a, b) for a, b in zip(old, new) if a != b]
    pairs += [(a, None) for a in old[len(new):]] + [(None, b) for b in new[len(old):]]
    return len(pairs), max(len(old), len(new)), pairs


def src_lines(src_dir):
    """Lines of the *.py files under src_dir, counted as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in Path(src_dir).rglob("*.py"))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--dump"]:
        ap = argparse.ArgumentParser(prog="bitident.py --dump")
        ap.add_argument("src_dir", help="directory that holds the peakons package")
        ap.add_argument("workload", choices=WORKLOADS)
        ap.add_argument("seed", type=int)
        args = ap.parse_args(argv[1:])
        dump(args.src_dir, args.workload, args.seed)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", help="directory that holds the reference peakons package")
    ap.add_argument("new_src", help="directory that holds the peakons package to check")
    ap.add_argument("--seeds", type=int, nargs="+", default=[11])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)
    found = []
    for workload in args.workloads:
        for seed in args.seeds:
            k, n, pairs = compare(args.old_src, args.new_src, workload, seed)
            lost, gained = flips(pairs)
            print(f"{workload} seed {seed}: {k} of {n} ops differ, "
                  f"{lost} ok->fail, {gained} fail->ok", flush=True)
            found += [(workload, seed, a, b) for a, b in pairs]
    for workload, seed, a, b in found:
        print(f"{workload} seed {seed}\n  - {a}\n  + {b}")
    print(f"src lines: {src_lines(args.old_src)} -> {src_lines(args.new_src)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
