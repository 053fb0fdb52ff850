"""Conservative multipeakon dynamics in spectral coordinates.

The flow fixes the eigenvalues and scales each norming constant by
exp(-(t - t0)/(2 lambda_i)); all time evolution is exact and the only
numerics live in the reconstruction back to (omega, v).  The wave profile
is u(x) = 1/2 sum omega_j e^{-|x - x_j|}, cross-checked against the
spectral route u(x) = 1/2 sum phi_i(x)^2 / lambda_i.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from . import forward, inverse
from .config import Tolerances, DEFAULT
from .errors import PeakonError, TraceMismatch
from .forward import SpectralData
from .measures import PeakonMeasure

SupResult = namedtuple("SupResult", ["value", "attained"])
ScanRecord = namedtuple("ScanRecord", ["t", "v_mass", "error"])


@dataclass
class FlowState:
    base: SpectralData
    t0: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_measure(cls, m: PeakonMeasure, t0: float = 0.0, tol: Tolerances = DEFAULT):
        return cls(forward.spectral_data(m, tol), t0)


def evolve_spectral(fs: FlowState, t: float) -> SpectralData:
    kappas = tuple(
        math.exp(-(t - fs.t0) / (2.0 * lam)) * kap
        for lam, kap in zip(fs.base.eigenvalues, fs.base.norming)
    )
    return SpectralData(fs.base.eigenvalues, kappas)


def measure_at(fs: FlowState, t: float, tol: Tolerances = DEFAULT) -> PeakonMeasure:
    """The measure at time t, reconstructed once per t; a failure is cached too."""
    if t not in fs._cache:
        try:
            fs._cache[t] = inverse.measure_from_spectral_data(evolve_spectral(fs, t), tol)
        except PeakonError as exc:
            # not exc itself: its traceback would keep the solver's frames alive
            fs._cache[t] = (type(exc), exc.args)
            raise
    out = fs._cache[t]
    if isinstance(out, tuple):
        cls, args = out
        raise cls(*args)
    return out


def _kernel_u(m: PeakonMeasure, x: float) -> float:
    return 0.5 * sum(w * math.exp(-abs(x - xj)) for xj, w in zip(m.points, m.omega))


def solution_at(
    fs: FlowState, t: float, xs, tol: Tolerances = DEFAULT
) -> tuple[list[float], PeakonMeasure]:
    """u on the grid and the reconstructed measure at time t.

    phi_i is merged as in forward.eigenfunction_zero_count: left of the peak
    atom, where rounding rides the growing mode of phi_plus, it is phi_minus
    scaled to phi_plus at that atom.
    """
    m = measure_at(fs, t, tol)
    sd = evolve_spectral(fs, t)
    routes = []  # (scale of phi_minus, peak atom, lambda, kappa * lambda)
    for lam, kap in zip(sd.eigenvalues, sd.norming):
        plus, minus = forward._sweep(m, lam, "plus"), forward._sweep(m, lam, "minus")
        top = max(range(m.n), key=lambda k: abs(plus[k]))
        if minus[top] == 0.0:
            raise TraceMismatch(f"phi_minus vanishes at the peak atom for eigenvalue {lam}")
        routes.append((plus[top] / minus[top], m.points[top], lam, kap * lam))
    us = []
    for x in xs:
        u = _kernel_u(m, x)
        trace = 0.5 * sum(
            (s * forward._shoot(m, lam, x, "minus")[0] if x < peak
             else forward._shoot(m, lam, x, "plus")[0]) ** 2 / w
            for s, peak, lam, w in routes
        )
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
        out.append(ScanRecord(t, sum(m.vee), None))
    return out
