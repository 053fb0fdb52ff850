"""The timed closed loop, its speed reference, and the per-run summary.

The machine this runs on changes speed by tens of percent over tens of
seconds (other tenants share the cores), which no amount of averaging in
one run removes.  So after every op the loop times a fixed pure-Python
kernel, and every reported time is scaled to the reference speed at which
that kernel takes ``CAL_REF_S``: an op's time is multiplied by
``CAL_REF_S / k``, where ``k`` is the median kernel time over the
``2 * CAL_WINDOW + 1`` ops around it.  The raw wall-clock figures are kept
in the report next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

import oracles
import workloads

CAL_ITERS = 7000
CAL_REF_S = 1e-3
CAL_WINDOW = 15


def calibration_kernel() -> float:
    """Fixed pure-Python arithmetic, the same work on every call."""
    acc = 0.0
    for i in range(CAL_ITERS):
        x = i * 1e-3
        acc += math.cosh(x) * 0.5 - x * x
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def reset(ops):
    """Forget the state a pass over the ops leaves behind (caches, chained outputs)."""
    for op in ops:
        if isinstance(op, workloads.FlowStep):
            op.traj.fresh()
        elif isinstance(op, workloads.CliOp):
            op.chain.forward_raw = None


def attempt(pk, op, rec):
    """Prepare and call one op, filling status, exception type and op time."""
    try:
        if not op.prepare():
            rec["status"] = "skipped"
            return
        t0 = time.perf_counter()
        try:
            rec["raw"] = op.call()
        finally:
            rec["seconds"] = time.perf_counter() - t0
    except pk.PeakonError as exc:
        rec["status"], rec["exc"] = "peakon", type(exc).__name__
    except Exception as exc:  # a leak: the library raised a non-PeakonError
        rec["status"], rec["exc"] = "leak", type(exc).__name__


def run_ops(pk, ops, deadline=None, tracer=None) -> list[dict]:
    """One pass over the ops in order, one at a time; cut short at ``deadline``."""
    reset(ops)
    recs = []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        if deadline is not None and t0 >= deadline:
            break
        rec = {"i": i, "kind": op.kind, "n": op.n, "status": None, "exc": None,
               "seconds": None, "raw": None}
        if tracer is not None:
            tracer.op = i
        attempt(pk, op, rec)
        rec["span"] = time.perf_counter() - t0  # op plus untimed preparation
        rec["cal"] = time_kernel()
        recs.append(rec)
    return recs


def measure(pk, ops, seconds) -> tuple[list[dict], list[dict], int]:
    """Every op once, then repeat passes over them until ``seconds`` have passed.

    The first pass always runs the whole batch, whatever the clock says, so
    which ops are attempted and which fail depends on the seed alone.  The
    repeat passes add timing samples; each repeat must end as the op's
    first run did.  Returns the first pass (checked), every record in the
    order run, and the number of repeats that did not match.
    """
    deadline = time.perf_counter() + seconds
    first = run_ops(pk, ops)
    check(ops, first)
    recs, mismatches = list(first), 0
    while time.perf_counter() < deadline:
        more = run_ops(pk, ops, deadline)
        mismatches += replay(ops, first, more)
        recs += more
    return first, recs, mismatches


def check(ops, recs):
    """Judge every record whose call returned against the op's oracle."""
    for rec in recs:
        raw = rec.pop("raw")
        if rec["status"] is not None:
            continue
        op = ops[rec["i"]]
        rec["digest"] = repr(op.digest(raw))
        try:
            err = op.check(raw)
        except workloads.Failed as exc:
            rec["status"], rec["exc"] = "peakon", str(exc)
            continue
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            rec["status"], rec["exc"] = "malformed", f"unreadable output: {type(exc).__name__}"
            continue
        rec["err"] = err
        if err <= workloads.PASS_ERR:
            rec["status"] = "ok"
        elif err <= workloads.GROSS_ERR:
            rec["status"], rec["exc"] = "inaccurate", f"relative error above {workloads.PASS_ERR:g}"
        else:
            rec["status"], rec["exc"] = "wrong", f"relative error above {workloads.GROSS_ERR:g}"


def replay(ops, first, recs) -> int:
    """Give repeat records the verdict of the op's first run; count mismatches.

    A repeat matches when it raised the same exception type as the first
    run, or returned the same output (compared by ``Op.digest``).  A
    mismatch gets the status ``mismatch``.
    """
    mismatches = 0
    for rec in recs:
        raw = rec.pop("raw")
        ref = first[rec["i"]]
        if rec["status"] is None:
            same = repr(ops[rec["i"]].digest(raw)) == ref.get("digest")
        else:
            same = "digest" not in ref and (rec["status"], rec["exc"]) == (ref["status"], ref["exc"])
        if same:
            rec["status"], rec["exc"] = ref["status"], ref["exc"]
            if "err" in ref:
                rec["err"] = ref["err"]
        else:
            rec["status"], rec["exc"] = "mismatch", "differs from the op's first run"
            mismatches += 1
    return mismatches


def speed_factors(recs) -> list[float]:
    """Per-record factor that scales its times to the reference speed."""
    cal = [r["cal"] for r in recs]
    return [
        CAL_REF_S / statistics.median(cal[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
        for k in range(len(recs))
    ]


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else math.nan


def per_op(recs, factors) -> tuple[dict, dict]:
    """Each op's median call time (ms) and median span (s) over all its runs."""
    times, spans = defaultdict(list), defaultdict(list)
    for r, fk in zip(recs, factors):
        spans[r["i"]].append(r["span"] * fk)
        if r["seconds"] is not None:
            times[r["i"]].append(1e3 * r["seconds"] * fk)
    return ({i: statistics.median(v) for i, v in times.items()},
            {i: statistics.median(v) for i, v in spans.items()})


def summary(first, recs) -> dict:
    """End-to-end figures of one measurement; times at reference speed, raw ones kept.

    Outcomes (attempted, failed, shares, accuracy) come from the first pass
    over the batch.  Times come from every pass: each op counts once, with
    the median of its runs, so an op the last pass reached does not weigh
    more than one it did not.  ``solved_per_s`` is passed ops over the time
    of one pass at those medians.
    """
    attempted = len(first)
    status = Counter(r["status"] for r in first)
    ok = status["ok"]
    f = speed_factors(recs)
    op_ms, op_s = per_op(recs, f)
    raw_ms, raw_s = per_op(recs, [1.0] * len(recs))
    digits = [oracles.digits(r["err"]) for r in first if r["status"] == "ok"]
    by_kind = {}
    for kind in sorted({r["kind"] for r in first}):
        rs = [r for r in first if r["kind"] == kind]
        by_kind[kind] = {
            "attempted": len(rs),
            "ok": sum(r["status"] == "ok" for r in rs),
            "p50_ms": percentile([op_ms[r["i"]] for r in rs if r["i"] in op_ms], 50),
        }
    return {
        "attempted": attempted,
        "failed": attempted - ok,
        "status": dict(status),
        "errors": dict(Counter(r["exc"] for r in first if r["exc"])),
        "timed_ops": len(recs),
        "passes": len(recs) / attempted,
        "latency_samples": len(op_ms),
        "op_p50_ms": percentile(list(op_ms.values()), 50),
        "op_p90_ms": percentile(list(op_ms.values()), 90),
        "solved_per_s": ok / sum(op_s.values()),
        "fail_share": (attempted - ok) / attempted,
        "leak_share": status["leak"] / attempted,
        "accuracy_digits_p50": percentile(digits, 50),
        "accuracy_digits_p10": percentile(digits, 10),
        "accuracy_digits_min": min(digits, default=math.nan),
        "speed_factor_median": statistics.median(f),
        "raw_wall_s": sum(r["span"] for r in recs),
        "raw_op_p50_ms": percentile(list(raw_ms.values()), 50),
        "raw_op_p90_ms": percentile(list(raw_ms.values()), 90),
        "raw_solved_per_s": ok / sum(raw_s.values()),
        "by_kind": by_kind,
        "bad_answers": [
            {"op": r["i"], "kind": r["kind"], "n": r["n"], "err": r["err"]}
            for r in first if r["status"] in ("inaccurate", "wrong")
        ],
    }
