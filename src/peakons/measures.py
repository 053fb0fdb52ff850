"""Discrete measure pair (omega, v) on x_1 < ... < x_n.

omega is a signed point measure, v a nonnegative one, sharing support;
every support point must carry some mass: |omega_i| + v_i > 0, and every
entry is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import Tolerances, DEFAULT
from .errors import DuplicatePoint, NegativeVee, NullPoint, ValidationError


@dataclass(frozen=True)
class PeakonMeasure:
    points: tuple[float, ...]
    omega: tuple[float, ...]
    vee: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def to_json_obj(self) -> dict:
        return {
            "points": [
                {"x": x, "w": w, "v": v}
                for x, w, v in zip(self.points, self.omega, self.vee)
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: dict, tol: Tolerances = DEFAULT) -> "PeakonMeasure":
        try:
            triples = [(float(p["x"]), float(p["w"]), float(p["v"])) for p in obj["points"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad measure object: {exc}") from exc
        return validate(triples, tol)


def validate(triples, tol: Tolerances = DEFAULT) -> PeakonMeasure:
    """Sort raw (x, omega, v) triples and enforce the measure invariants."""
    triples = [(float(x), float(w), float(v)) for x, w, v in triples]
    if not all(math.isfinite(c) for t in triples for c in t):
        raise ValidationError("x, w and v must be finite")
    if not triples:
        raise NullPoint("measure needs at least one point")
    triples.sort(key=lambda t: t[0])
    xs, ws, vs = zip(*triples)
    for i in range(len(xs) - 1):
        if xs[i + 1] - xs[i] < tol.pos:
            raise DuplicatePoint(f"points {xs[i]!r} and {xs[i+1]!r} closer than {tol.pos}")
    ws = list(ws)
    vs = list(vs)
    for i, v in enumerate(vs):
        if v < -tol.zero:
            raise NegativeVee(f"v[{i}] = {v!r} < 0")
        if abs(v) <= tol.zero:
            vs[i] = 0.0
        if abs(ws[i]) <= tol.zero:
            ws[i] = 0.0
        if abs(ws[i]) + vs[i] <= tol.zero:
            raise NullPoint(f"point {xs[i]!r} carries no mass")
    return PeakonMeasure(tuple(xs), tuple(ws), tuple(vs))


def counts(m: PeakonMeasure) -> tuple[int, int, int]:
    """(n_v, n_plus, n_minus): v-carrying points, then sign split of the rest."""
    n_v = sum(1 for v in m.vee if v != 0.0)
    n_plus = sum(1 for w, v in zip(m.omega, m.vee) if v == 0.0 and w > 0)
    n_minus = sum(1 for w, v in zip(m.omega, m.vee) if v == 0.0 and w < 0)
    return n_v, n_plus, n_minus
