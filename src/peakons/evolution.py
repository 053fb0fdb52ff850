"""Conservative multipeakon dynamics in spectral coordinates.

The flow fixes the eigenvalues and scales each norming constant by
exp(-(t - t0)/(2 lambda_i)); all time evolution is exact and the only
numerics live in the reconstruction back to (omega, v).  The wave profile
is u(x) = 1/2 sum omega_j e^{-|x - x_j|}, cross-checked against the
spectral route u(x) = 1/2 sum phi_i(x)^2 / lambda_i.  Both sums, taken at
every grid point of every step, are explicit loops from the integer 0: the
same additions in the same order as ratfun.lsum, without its per-term
generator cost.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from . import forward, inverse
from .config import Tolerances, DEFAULT
from .errors import NumericalError, PeakonError, TraceMismatch
from .forward import SpectralData
from .measures import PeakonMeasure
from .ratfun import lsum

SupResult = namedtuple("SupResult", ["value", "attained"])
ScanRecord = namedtuple("ScanRecord", ["t", "v_mass", "error"])


@dataclass
class FlowState:
    base: SpectralData
    t0: float = 0.0
    _last: tuple = field(default=(None, None), repr=False, compare=False)  # (key, outcome)

    @classmethod
    def from_measure(cls, m: PeakonMeasure, t0: float = 0.0, tol: Tolerances = DEFAULT):
        return cls(forward.spectral_data(m, tol), t0)


def evolve_spectral(fs: FlowState, t: float) -> SpectralData:
    try:
        kappas = tuple(
            math.exp(-(t - fs.t0) / (2.0 * lam)) * kap
            for lam, kap in zip(fs.base.eigenvalues, fs.base.norming)
        )
    except OverflowError as exc:
        raise NumericalError(f"a norming constant overflows at t = {t}") from exc
    if not all(map(math.isfinite, kappas)):
        raise NumericalError(f"a norming constant overflows at t = {t}")
    if 0.0 in kappas:
        raise NumericalError(f"a norming constant underflows at t = {t}")
    return SpectralData(fs.base.eigenvalues, kappas)


def measure_at(fs: FlowState, t: float, tol: Tolerances = DEFAULT) -> PeakonMeasure:
    """The measure at time t; asking again for the last (t, tol) reuses its outcome."""
    return _reconstruction(fs, t, tol)[0]


def _reconstruction(fs: FlowState, t: float, tol: Tolerances):
    """(m, atoms, ws) at t, kept for the last (t, tol) only: inverse._reconstruct,
    and for solution_at's trace route m's values at the atoms and kappa_i lambda_i."""
    key, out = fs._last
    if key != (t, tol):
        try:
            sd = evolve_spectral(fs, t)
            m, back, atoms = inverse._reconstruct(sd, tol)
        except PeakonError as exc:
            fs._last = ((t, tol), exc)  # its frames live only until the next (t, tol)
            raise
        ws = [k * lam for lam, k in zip(back.eigenvalues, sd.norming)]  # sd's kappa, not back's
        out = (m, atoms, ws)
        fs._last = ((t, tol), out)
    elif isinstance(out, PeakonError):
        raise type(out)(*out.args) from out.__cause__
    return out


def _kernel_u(m: PeakonMeasure, x: float) -> float:
    """u(x) = 1/2 sum omega_j e^{-|x - x_j|}, the terms added as lsum adds them."""
    u = 0
    for xj, w in zip(m.points, m.omega):
        u += w * math.exp(-abs(x - xj))
    return 0.5 * u


def solution_at(
    fs: FlowState, t: float, xs, tol: Tolerances = DEFAULT
) -> tuple[list[float], PeakonMeasure]:
    """u on the grid and the reconstructed measure at time t.

    Each u is checked against the trace route 1/2 sum phi_i(x)^2/(kappa_i
    lambda_i), with m's own eigenvalues and values at the atoms from
    inverse._reconstruct (every phi_i read at x by one forward._phi_at) over
    the flow's evolved kappa_i, so it also checks m's kappa against the flow's.
    """
    m, atoms, ws = _reconstruction(fs, t, tol)
    us = []
    for x in xs:
        u = _kernel_u(m, x)
        trace = 0  # summed as lsum sums it
        for p, w in zip(forward._phi_at(m, atoms, x), ws):
            trace += p * p / w
        trace *= 0.5
        if abs(u - trace) > tol.trace * max(1.0, abs(u)):
            raise TraceMismatch(f"u routes disagree at x={x}, t={t}: {u} vs {trace}")
        us.append(u)
    return us, m


def sup_u(fs: FlowState) -> SupResult:
    """Supremum of |u| over all space and time: 1/(2 min|lambda|)."""
    lam_star = min(abs(lam) for lam in fs.base.eigenvalues)
    return SupResult(1.0 / (2.0 * lam_star), len(fs.base.eigenvalues) == 1)


def collision_scan(fs: FlowState, times, tol: Tolerances = DEFAULT) -> list[ScanRecord]:
    """Total v-mass per sampled time; nonzero entries flag collision windows."""
    out = []
    for t in times:
        try:
            m = measure_at(fs, t, tol)
        except PeakonError as exc:
            out.append(ScanRecord(t, None, str(exc)))
            continue
        out.append(ScanRecord(t, lsum(m.vee), None))
    return out
