"""Untimed probes of the working range, run after the timed phase.

``reach_ladder`` times one measure per timed size and then climbs a size
ladder above the timed sizes until the first size at which any of its
measures fails to roundtrip; the rows follow the size table of the
ROADMAP Baseline.  ``flow_horizons`` scans the t-grid upward on the first
round's trajectories and records the first failing time of each.
``determinism`` reruns one CLI chain and compares the outputs byte for
byte.  Times here are raw wall-clock milliseconds.
"""

from __future__ import annotations

import math
import time

import gen
import oracles
import workloads
from timing import reset

TABLE_SIZES = (4, 8, 12, 16)
LADDER = (24, 32, 48, 64, 96, 128)
LADDER_SEEDS = 3  # measures per ladder size; every one must roundtrip
TIMED_MAX_N = max(workloads.ROUNDTRIP_MIX)


def roundtrip_row(pk, triples) -> dict:
    """Forward pieces and inverse on one measure, timed separately."""
    row = {"n": len(triples)}
    try:
        m = pk.validate(triples)
        t0 = time.perf_counter()
        lams = pk.eigenvalues(m)
        t1 = time.perf_counter()
        sd = pk.spectral_data(m)
        t2 = time.perf_counter()
        row.update(N=len(lams), eigenvalues_ms=1e3 * (t1 - t0), spectral_data_ms=1e3 * (t2 - t1))
        m2 = pk.measure_from_spectral_data(sd)
        row["inverse_ms"] = 1e3 * (time.perf_counter() - t2)
    except Exception as exc:  # probe boundary: record what stopped it
        row["error"] = type(exc).__name__
        return row
    err = max(oracles.seq_err(sd.eigenvalues, oracles.dense_eigenvalues(triples)),
              oracles.measure_err(m2.points, m2.omega, m2.vee, triples))
    row["max_dx"] = (
        max(abs(a - t[0]) for a, t in zip(m2.points, triples))
        if m2.n == len(triples) else math.inf
    )
    if err > workloads.PASS_ERR:
        row["error"] = f"relative error {err:.1e}"
    return row


def reach_ladder(pk, seed: int) -> tuple[int, list[dict]]:
    """(reach_n, size table); reach_n is TIMED_MAX_N when the first rung fails."""
    table = [roundtrip_row(pk, gen.measure_triples(gen.sub_rng(seed, 7, n), n))
             for n in TABLE_SIZES]
    reach = TIMED_MAX_N
    for n in LADDER:
        for j in range(LADDER_SEEDS):
            table.append(roundtrip_row(pk, gen.measure_triples(gen.sub_rng(seed, 8, n, j), n)))
            if "error" in table[-1]:
                return reach, table
        reach = n
    return reach, table


def flow_horizons(ops) -> tuple[float | None, list[dict]]:
    """(reach_t, per-trajectory first failure) on the first round's trajectories.

    reach_t is the largest grid time below every trajectory's first
    failure, None when some trajectory fails at the first grid time.
    """
    trajs = []
    for op in ops[:len(workloads.FLOW_SIZES) * workloads.FLOW_PER_SIZE * len(workloads.FLOW_STRATA)]:
        if op.traj not in trajs:
            trajs.append(op.traj)
    rows = []
    for traj in trajs:
        traj.fresh()
        first = None
        for t in workloads.FLOW_T:
            step = workloads.FlowStep(traj, t)
            try:
                step.prepare()
                err = step.check(step.call())
            except Exception as exc:  # probe boundary: record what stopped it
                first = {"t": t, "error": type(exc).__name__}
                break
            if err > workloads.PASS_ERR:
                first = {"t": t, "error": f"relative error {err:.1e}"}
                break
        rows.append({"n": len(traj.triples), "first_fail": first})
    horizon = min((r["first_fail"]["t"] for r in rows if r["first_fail"]), default=math.inf)
    reach_t = max((t for t in workloads.FLOW_T if t < horizon), default=None)
    return reach_t, rows


def determinism(ops) -> bool | None:
    """Run the first CLI chain twice; None when its forward step fails."""
    chain = ops[:4]
    outputs = []
    for _ in range(2):
        reset(chain)
        out = []
        for op in chain:
            if not op.prepare():
                return None
            out.append(op.digest(op.call()))
        outputs.append(out)
    return outputs[0] == outputs[1]
