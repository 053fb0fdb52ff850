"""Tolerance bundle and run configuration.

The CLI can override every field of Tolerances (--tol.<name>).  Not every
numerical threshold is one: forward._rows' 1e-8 gap floor, the two
1e-8 tests of ratfun._at_infinity (a slope or a constant kept at infinity,
for _pf_neg_reciprocal and so every secular solve, and for cf_expand's
first stage), the 1e-8 constant-or-v test of ratfun._stage (every stage
it peels) and cf_expand's 1e-6 remainder test are fixed in the code, and
so are forward._newton's cap of _NEWTON_STEPS = 40 steps per root, its
stop rule, a step of at most _NEWTON_ULPS = 2 ulps, and
forward._warm_bracket's node widths (_WARM_ULPS, _WARM_WIDEN,
_WARM_TRIES); none of them moves an eigenvalue, only the number of counts
it takes.  A first width below _WARM_ULPS = 64 ulps would: 4 or 8 ulps
around _newton's guesses moved 37 or 10 of 3120 test-generator spectra off
the floats of the cold bisection, whose count is not monotone within a few
ulps of some roots.  forward._eigenfunction's
twisted null vector adds no threshold: its twist is the row of least
residual, and a zero pivot becomes the least positive float, as in the count.
inverse._newton_step's forward-difference step _FD_STEP = 1e-8 and its
damping _DAMPING = 1e-10 are fixed as well; the step it takes is kept only
under the same tol.inv check as the reconstruction it mends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Tolerances:
    pos: float = 1e-10     # minimal distance between support points
    zero: float = 1e-12    # weight treated as exactly zero
    coef: float = 1e-10    # cf_expand: a minus-side function vanishes at infinity
    pf: float = 1e-9       # pole-residue form reproduction bound
    cf: float = 1e-8       # continued-fraction reconstruction bound
    inv: float = 1e-7      # inverse-problem roundtrip bound (relative)
    phi: float = 1e-8      # relative snap-to-zero for eigenfunction values
    ab: float = 1e-9       # alpha/beta zero classification
    trace: float = 1e-8    # trace-formula vs kernel-sum agreement
    cons: float = 1e-6     # two-route norming-constant consistency
    g: float = 1e-8        # feasibility condition (i) zero test

    def __post_init__(self):
        # a NaN makes every "> tol" test false, so no check could ever fire
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v < math.inf:
                raise ValidationError(f"tolerance {f.name} must be a finite number >= 0, got {v!r}")

    def with_overrides(self, **kw: float) -> "Tolerances":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT = Tolerances()

GRID_CAP = 10**6  # points per grid: a tiny step would fill memory, not fail


@dataclass(frozen=True)
class GridSpec:
    """start:stop:step inclusive grid; step > 0."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        # points() would never pass a NaN or infinite stop
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise ValueError(f"grid start, stop and step must be finite, got {self}")

    def points(self) -> list[float]:
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        limit = self.stop + 1e-12 * max(1.0, abs(self.stop))
        if (limit - self.start) / self.step >= GRID_CAP:
            raise ValueError(f"grid {self} has more than {GRID_CAP} points")
        out = []
        k = 0
        while True:
            x = self.start + k * self.step
            if x > limit:
                break
            out.append(x)
            k += 1
        if not out:
            raise ValueError("empty grid")
        return out

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        if not isinstance(text, str):
            raise ValueError(f"grid spec must be a start:stop:step string, got {text!r}")
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:step, got {text!r}")
        return cls(float(parts[0]), float(parts[1]), float(parts[2]))


@dataclass(frozen=True)
class RunConfig:
    tol: Tolerances = DEFAULT
    x_grid: GridSpec = GridSpec(-10.0, 10.0, 0.5)
    t_grid: GridSpec = GridSpec(0.0, 10.0, 1.0)
    fmt: str = "csv"               # json|csv, evolve series format
    splits: tuple[float, ...] = field(default_factory=tuple)
