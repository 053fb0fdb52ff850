"""The benchmark's three workloads and their per-op oracles.

Every workload turns the seed into a list of ops before timing.  An op has
three steps: ``prepare`` (untimed; builds inputs that depend on an earlier
op of the same chain), ``call`` (timed; one call into the library or the
CLI) and ``check`` (untimed, after the first pass; compares the captured
output with an oracle).  Ops are grouped in rounds that each hold a fixed
mix of sizes in a seeded order, so a repeat pass cut short by the clock still
measures a representative sample.  An op whose input comes from an
earlier op that failed is skipped, and counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

from gen import measure_triples, sub_rng
from oracles import (
    dense_eigenvalues,
    kernel_u,
    ladder_ranks,
    measure_err,
    seq_err,
)

PASS_ERR = 1e-6  # relative error above which an answer counts as inaccurate
GROSS_ERR = 1e-3  # above this the answer is a different measure or spectrum

ROUNDTRIP_MIX = (4, 8, 8, 12, 16, 16)
CLI_SIZES = tuple(range(3, 11))
FLOW_SIZES = (3, 5, 8)
FLOW_STRATA = (  # one step of each trajectory falls in each stratum of the t-grid
    (0.0, 5.0, 10.0, 15.0, 20.0), (25.0, 30.0, 40.0), (50.0, 60.0, 80.0), (100.0, 150.0, 200.0),
)
FLOW_T = tuple(t for stratum in FLOW_STRATA for t in stratum)
FLOW_PER_SIZE = 3  # trajectories of each size in a round
FLOW_X = tuple(-20.0 + 0.5 * k for k in range(81))
EVOLVE_T = "0:1:0.5"


def write_json(path: str, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))


def points_err(pts, triples) -> float:
    """measure_err for a measure in the CLI's JSON shape."""
    return measure_err([p["x"] for p in pts], [p["w"] for p in pts], [p["v"] for p in pts], triples)


class Failed(Exception):
    """The library reported a failure without raising (exit code, error list)."""


class Op:
    kind = ""

    def __init__(self, n: int):
        self.n = n

    def prepare(self) -> bool:
        return True

    def call(self):
        raise NotImplementedError

    def check(self, raw) -> float:
        """Relative error against the oracle; raises Failed on a reported failure."""
        raise NotImplementedError

    def digest(self, raw):
        """A value equal between two runs that computed the same results."""
        return raw


# ----------------------------------------------------------------- roundtrip

class RoundtripOp(Op):
    kind = "roundtrip"

    def __init__(self, pk, triples):
        super().__init__(len(triples))
        self.pk = pk
        self.triples = triples
        self.m = pk.validate(triples)

    def call(self):
        sd = self.pk.spectral_data(self.m)
        return sd, self.pk.measure_from_spectral_data(sd)

    def check(self, raw) -> float:
        sd, m2 = raw
        lam_err = seq_err(sd.eigenvalues, dense_eigenvalues(self.triples))
        return max(lam_err, measure_err(m2.points, m2.omega, m2.vee, self.triples))

    def digest(self, raw):
        sd, m2 = raw
        return (sd.eigenvalues, sd.norming, m2.points, m2.omega, m2.vee)


def build_roundtrip(pk, seed: int, rounds: int, workdir: str) -> list[Op]:
    ops = []
    for r in range(rounds):
        order = sub_rng(seed, 1, r).permutation(len(ROUNDTRIP_MIX))
        for slot in order:
            n = ROUNDTRIP_MIX[slot]
            ops.append(RoundtripOp(pk, measure_triples(sub_rng(seed, 2, r, int(slot)), n)))
    return ops


# ------------------------------------------------------------------ cli_mix

class Chain:
    """Files and outputs shared by the four CLI ops on one measure."""

    def __init__(self, pk, triples, anchor: float, folder: str, tag: str):
        self.pk = pk
        self.triples = triples
        self.anchor = anchor
        self.folder = folder
        self.tag = tag  # file name prefix of this chain
        self.lams = None  # dense oracle eigenvalues, filled by the first check
        self.forward_raw = None  # what the forward op last returned
        write_json(self.path("measure.json"),
                   {"points": [{"x": x, "w": w, "v": v} for x, w, v in triples]})

    def path(self, name: str) -> str:
        return os.path.join(self.folder, f"{self.tag}-{name}")

    def oracle_lams(self) -> list[float]:
        if self.lams is None:
            self.lams = dense_eigenvalues(self.triples)
        return self.lams

    def forward_report(self):
        """The forward op's parsed output; None unless it succeeded."""
        raw = self.forward_raw
        if raw is None or raw[0] != 0 or raw[1][0] is None:
            return None
        return json.loads(raw[1][0])


class CliOp(Op):
    def __init__(self, chain: Chain, outputs: tuple[str, ...]):
        super().__init__(len(chain.triples))
        self.chain = chain
        self.outputs = outputs
        self.kind = f"cli.{self.command}"

    def argv(self) -> list[str]:
        raise NotImplementedError

    def call(self):
        for name in self.outputs:  # a failed repeat must not see stale output
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.chain.path(name))
        with contextlib.redirect_stderr(io.StringIO()):  # the CLI's error lines
            code = self.chain.pk.cli.main(self.argv())
        texts = []
        for name in self.outputs:
            try:
                with open(self.chain.path(name), "rb") as fh:
                    texts.append(fh.read())
            except FileNotFoundError:
                texts.append(None)
        return code, tuple(texts)

    def check(self, raw) -> float:
        code, texts = raw
        if code != 0:
            raise Failed(f"exit {code}")
        return self.check_output(texts)


class ForwardCli(CliOp):
    command = "forward"

    def __init__(self, chain):
        super().__init__(chain, ("forward.json",))

    def argv(self):
        c = self.chain
        return ["forward", c.path("measure.json"), "--at", repr(c.anchor),
                "--out", c.path("forward.json")]

    def call(self):
        self.chain.forward_raw = super().call()
        return self.chain.forward_raw

    def check_output(self, texts) -> float:
        rep = json.loads(texts[0])
        lams = self.chain.oracle_lams()
        err = seq_err(rep["eigenvalues"], lams)
        if rep["zero_counts"] != [r - 1 for r in ladder_ranks(lams)]:
            return math.inf
        if rep["interior"]["a"] != self.chain.anchor:
            return math.inf
        return err


class InverseCli(CliOp):
    command = "inverse"

    def __init__(self, chain):
        super().__init__(chain, ("inverse.json",))

    def prepare(self) -> bool:
        fwd = self.chain.forward_report()
        if fwd is None:
            return False
        write_json(self.chain.path("spectral.json"),
                   {"eigenvalues": fwd["eigenvalues"], "norming": fwd["norming"]})
        return True

    def argv(self):
        c = self.chain
        return ["inverse", c.path("spectral.json"), "--out", c.path("inverse.json")]

    def check_output(self, texts) -> float:
        return points_err(json.loads(texts[0])["points"], self.chain.triples)


class InteriorCli(CliOp):
    command = "interior"

    def __init__(self, chain):
        super().__init__(chain, ("interior.json",))

    def prepare(self) -> bool:
        fwd = self.chain.forward_report()
        if fwd is None:
            return False
        write_json(self.chain.path("interior_data.json"), fwd["interior"])
        return True

    def argv(self):
        c = self.chain
        return ["interior", c.path("interior_data.json"), "--enumerate", "--moduli",
                "--out", c.path("interior.json")]

    def check_output(self, texts) -> float:
        rep = json.loads(texts[0])
        best = min(
            (points_err(sol["points"], self.chain.triples) for sol in rep["solutions"]),
            default=math.inf,
        )
        if best > PASS_ERR and rep["errors"]:
            # the true branch is among those the library reported as failed
            raise Failed("branch error on the original measure")
        return best


class EvolveCli(CliOp):
    command = "evolve"

    def __init__(self, chain):
        super().__init__(chain, ("evolve.csv", "evolve.csv.report.json"))
        xs = [t[0] for t in chain.triples]
        self.x_grid = f"{math.floor(xs[0]) - 3}:{math.ceil(xs[-1]) + 3}:0.25"

    def argv(self):
        c = self.chain
        return ["evolve", c.path("measure.json"), "--t", EVOLVE_T, f"--x={self.x_grid}",
                "--out", c.path("evolve.csv")]

    def check_output(self, texts) -> float:
        rep = json.loads(texts[1])
        if rep["series_errors"]:
            raise Failed("evolve series error")
        pts = [t[0] for t in self.chain.triples]
        ws = [t[1] for t in self.chain.triples]
        err = 0.0
        for line in texts[0].decode().splitlines()[1:]:
            t, x, u = (float(s) for s in line.split(","))
            if t == 0.0:
                want = kernel_u(pts, ws, x)
                err = max(err, abs(u - want) / max(1.0, abs(want)))
        total = sum(1.0 / lam for lam in self.chain.oracle_lams())
        for rec in rep["measures"]:
            mom = sum(p["w"] for p in rec["measure"]["points"])
            err = max(err, abs(mom - total) / max(1.0, abs(total)))
        return err


def build_cli_mix(pk, seed: int, rounds: int, workdir: str) -> list[Op]:
    ops = []
    os.makedirs(workdir, exist_ok=True)
    for r in range(rounds):
        order = sub_rng(seed, 3, r).permutation(len(CLI_SIZES))
        for slot in order:
            n = CLI_SIZES[slot]
            rng = sub_rng(seed, 4, r, int(slot))
            triples = measure_triples(rng, n)
            xs = [t[0] for t in triples]
            if rng.random() < 0.5:  # anchor left of the support
                anchor = xs[0] - float(rng.uniform(0.3, 1.0))
            else:  # anchor inside a gap, away from both atoms
                j = int(rng.integers(n - 1))
                anchor = xs[j] + (xs[j + 1] - xs[j]) * float(rng.uniform(0.25, 0.75))
            chain = Chain(pk, triples, anchor, workdir, f"r{r}n{n}")
            ops += [ForwardCli(chain), InverseCli(chain), InteriorCli(chain), EvolveCli(chain)]
    return ops


# --------------------------------------------------------------------- flow

class Trajectory:
    def __init__(self, pk, triples):
        self.pk = pk
        self.triples = triples
        self.lams = None
        self.fs = None
        self.base_error = None  # the exception the forward solve raised
        try:
            self.base = pk.spectral_data(pk.validate(triples))
        except Exception as exc:  # recorded on every step, never dropped
            self.base = None
            self.base_error = exc

    def fresh(self):
        """Start the flow again with an empty reconstruction cache."""
        self.fs = None if self.base is None else self.pk.FlowState(self.base)

    def oracle_lams(self) -> list[float]:
        if self.lams is None:
            self.lams = dense_eigenvalues(self.triples)
        return self.lams


class FlowStep(Op):
    kind = "flow"

    def __init__(self, traj: Trajectory, t: float):
        super().__init__(len(traj.triples))
        self.traj = traj
        self.t = t

    def prepare(self) -> bool:
        if self.traj.base is None:
            raise self.traj.base_error
        return True

    def call(self):
        pk, fs = self.traj.pk, self.traj.fs
        m = pk.measure_at(fs, self.t)
        us, m2 = pk.solution_at(fs, self.t, FLOW_X)
        return m, us, m2

    def check(self, raw) -> float:
        m, us, m2 = raw
        if m2 != m:  # solution_at must reconstruct the measure measure_at gave
            return math.inf
        lams = self.traj.oracle_lams()
        triples = list(zip(m.points, m.omega, m.vee))
        err = seq_err(dense_eigenvalues(triples), lams)
        total = sum(1.0 / lam for lam in lams)
        err = max(err, abs(sum(m.omega) - total) / max(1.0, abs(total)))
        grid_err = max(
            abs(u - kernel_u(m.points, m.omega, x)) for x, u in zip(FLOW_X, us)
        )
        err = max(err, grid_err)
        # |u| peaks at an atom, and never exceeds 1/(2 min|lambda|)
        bound = 1.0 / (2.0 * min(abs(lam) for lam in lams))
        sup = max(abs(kernel_u(m.points, m.omega, x)) for x in m.points)
        if sup > bound * (1.0 + 1e-9) + 1e-12:
            return math.inf
        return err

    def digest(self, raw):
        m, us, _ = raw
        return (m.points, m.omega, m.vee, tuple(us))


def build_flow(pk, seed: int, rounds: int, workdir: str) -> list[Op]:
    ops = []
    for r in range(rounds):
        steps = []
        for k in range(FLOW_PER_SIZE * len(FLOW_SIZES)):
            rng = sub_rng(seed, 5, r, k)
            traj = Trajectory(pk, measure_triples(rng, FLOW_SIZES[k % len(FLOW_SIZES)]))
            steps += [FlowStep(traj, float(rng.choice(stratum))) for stratum in FLOW_STRATA]
        order = sub_rng(seed, 6, r).permutation(len(steps))
        ops += [steps[i] for i in order]
    return ops


WORKLOADS = {
    "roundtrip": build_roundtrip,
    "cli_mix": build_cli_mix,
    "flow": build_flow,
}
