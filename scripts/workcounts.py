"""Count the work of the hot loops on one benchmark batch, op by op.

Builds the seeded batch of one workload of ``perfbench`` (read-only, as
``bitident.py`` builds it), runs every op once against the ``peakons``
package in SRC and counts, while the op runs, the calls of six
functions of the package:

- ``neg_reciprocal``: ``ratfun._pf_neg_reciprocal``, one secular solve;
- ``secular_zeros``: ``ratfun._gap_offset``, one zero of a secular solve;
- ``count``: ``forward._count``, one Sturm pass over the rows;
- ``count_slope``: ``forward._count_slope``, one Newton pass over the rows;
- ``reconstruct``: ``inverse._reconstruct``, one measure rebuilt from spectral data;
- ``spectral``: ``forward._spectral``, one forward solve (eigenvalues, then
  an eigenfunction and a norming constant each).

The counts are exact and the same on every run of one tree.  Prints one
row per op kind and one for all ops, with the number of ops and the mean
count per op, then the total of each count:

    python3 scripts/workcounts.py roundtrip --seed 11 src

Usage: python3 scripts/workcounts.py WORKLOAD [--seed S] SRC
"""

import argparse
import sys
from collections import Counter, defaultdict

from bitident import WORKLOADS, batch

COUNTED = {
    "neg_reciprocal": ("ratfun", "_pf_neg_reciprocal"),
    "secular_zeros": ("ratfun", "_gap_offset"),
    "count": ("forward", "_count"),
    "count_slope": ("forward", "_count_slope"),
    "reconstruct": ("inverse", "_reconstruct"),
    "spectral": ("forward", "_spectral"),
}


def counting(counts):
    """A patch for ``batch`` that makes each COUNTED function add to counts."""
    def patch(pk):
        for name, (module, attr) in COUNTED.items():
            mod = getattr(pk, module)
            setattr(mod, attr, _counted(getattr(mod, attr), counts, name))

    return patch


def _counted(fn, counts, name):
    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("src_dir", help="directory that holds the peakons package")
    args = ap.parse_args(argv)
    counts = Counter()
    per_kind = defaultdict(list)
    for _, op, _, _ in batch(args.src_dir, args.workload, args.seed, counting(counts)):
        per_kind[op.kind].append(Counter(counts))
        counts.clear()
    rows = [("kind", "ops", *COUNTED)]
    every = [c for ops in per_kind.values() for c in ops]
    for kind, ops in [*sorted(per_kind.items()), ("all", every)]:
        rows.append((kind, str(len(ops)), *(f"{sum(c[n] for c in ops) / len(ops):.2f}" for n in COUNTED)))
    rows.append(("total", str(len(every)), *(str(sum(c[n] for c in every)) for n in COUNTED)))
    print(f"{args.workload} seed {args.seed}, {args.src_dir}: mean count per op")
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    for row in rows:
        print("  ".join(v.ljust(w) if k == 0 else v.rjust(w) for k, (v, w) in enumerate(zip(row, widths))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
