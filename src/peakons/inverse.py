"""Reconstruction of discrete measures from Weyl functions and spectral data.

A one-sided Weyl function unrolls into a Stieltjes continued fraction whose
lengths are increments of 2 tanh((x - a)/2); inverting the cumulative sums
recovers positions, and the affine stage coefficients divided by cosh^2
recover the weights.  Full-line reconstruction from (eigenvalues, norming)
places a reference point strictly left of the support, where the minus-side
Weyl function is exactly -1/(2z), and rebuilds the plus side.

The data fix the left end of the support in closed form.  Left of the
support phi_i(a)^2 = e^a kappa_i / (lam_i W'(lam_i))^2, with W' in the
product form forward._wdot that spectral_data checks kappa against, so
alpha(a) = 1 - sum phi_i(a)^2 vanishes exactly at a = x_1:

    x_1 = -log sum_i kappa_i / (lam_i W'(lam_i))^2.

The one reference point is the anchor x_1 - 1.  The reconstruction is
verified by forward._resolve, which solves its forward problem from
brackets around the given eigenvalues, and by its norming constants; a
failure at the anchor is reported as Infeasible, chained to the error of
the stage that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import forward, ratfun
from .config import Tolerances, DEFAULT
from .errors import (
    Infeasible,
    LengthBudgetExceeded,
    BadResidueAtZero,
    NumericalError,
    ValidationError,
)
from .measures import PeakonMeasure, validate
from .ratfun import HerglotzRational, cf_expand, herglotz, neg_reciprocal


@dataclass(frozen=True)
class HalfLineMeasure:
    points: tuple[float, ...]
    omega: tuple[float, ...]
    vee: tuple[float, ...]
    a: float
    side: str  # support in [a, inf) for plus, (-inf, a) for minus

    @property
    def n(self) -> int:
        return len(self.points)

    def triples(self) -> list[tuple[float, float, float]]:
        return list(zip(self.points, self.omega, self.vee))

    def __post_init__(self):
        if self.side not in ("plus", "minus"):
            raise ValidationError(f"side must be plus or minus, got {self.side!r}")
        for x in self.points:
            if self.side == "plus" and x < self.a:
                raise ValidationError(f"plus-side point {x} left of {self.a}")
            if self.side == "minus" and x >= self.a:
                raise ValidationError(f"minus-side point {x} not left of {self.a}")


def measure_from_weyl(
    h: HerglotzRational, a: float, side: str, tol: Tolerances = DEFAULT
) -> HalfLineMeasure:
    """Invert a one-sided Weyl function into atoms on that side of a."""
    cf = cf_expand(h, side, tol)
    total = cf.head_length + sum(s.length for s in cf.stages)
    if abs(total - 2.0) > tol.cf:
        raise BadResidueAtZero(f"side lengths total {total}, expected 2")
    # remaining budget before each atom as a tail sum of positive lengths:
    # far atoms have 2 - cum below float granularity of cum, but the tail
    # itself stays fully resolved, keeping their positions accurate
    rems = [0.0] * len(cf.stages)
    rem = 0.0
    for j in range(len(cf.stages) - 1, -1, -1):
        rem += cf.stages[j].length
        rems[j] = rem
    triples = []
    for stage, rem in zip(cf.stages, rems):
        if not rem > 0.0:
            raise LengthBudgetExceeded(f"length budget exhausted {rem} before an atom")
        # cum/2 = 1 - rem/2, so 2 artanh(cum/2) = log((4 - rem)/rem)
        offset = max(0.0, math.log((4.0 - rem) / rem))
        ch2 = 4.0 / (rem * (4.0 - rem))  # cosh^2((x-a)/2)
        x = a + offset if side == "plus" else a - offset
        triples.append((x, stage.c0 / ch2, stage.c1 / ch2))
    triples.sort(key=lambda t: t[0])
    return HalfLineMeasure(
        tuple(t[0] for t in triples),
        tuple(t[1] for t in triples),
        tuple(t[2] for t in triples),
        a,
        side,
    )


def _attempt(sd: forward.SpectralData, a: float, tol: Tolerances) -> PeakonMeasure:
    """The measure whose plus-side Weyl function at a fits sd.

    W'(lam_i) is forward._wdot; _attempt divides by its square, which
    underflows for eigenvalues a few ulps apart.
    """
    lams = list(sd.eigenvalues)
    wds = [forward._wdot(lams, i) for i in range(len(lams))]
    for lam, wd in zip(lams, wds):
        if not wd * wd > 0.0:
            raise NumericalError(f"W'({lam}) = {wd} underflows its square")
    try:
        ea = math.exp(a)
    except OverflowError as exc:
        raise NumericalError(f"e^a overflows at the reference point {a}") from exc
    res = []  # residues of the pole term: lam^2 phi(a)^2
    s_phi2 = 0.0
    s_lphi2 = 0.0
    for lam, kap, wd in zip(lams, sd.norming, wds):
        r = ea * kap / (wd * wd)
        res.append(r)
        s_phi2 += r / (lam * lam)
        s_lphi2 += r / lam
    f = herglotz(1.0 - s_phi2, -s_lphi2, lams, res, tol)
    s = neg_reciprocal(f, tol)
    # the pole of -1/F nearest the origin is the exact zero F(0)=0; the minus
    # side contributes -1/(2z), so the plus share of its residue is exactly 1/2
    i0 = min(range(len(s.poles)), key=lambda i: abs(s.poles[i]))
    poles = list(s.poles)
    residues = list(s.residues)
    poles[i0] = 0.0
    residues[i0] = 0.5
    m_plus = HerglotzRational(s.gamma, s.zeta, tuple(poles), tuple(residues))
    half = measure_from_weyl(m_plus, a, "plus", tol)
    return validate(half.triples(), tol)


def _left_end(sd: forward.SpectralData) -> float:
    """x_1, the left end of the support, in closed form (see the module doc).

    log|lam_i W'(lam_i)| = sum_{j != i} (log|lam_j - lam_i| - log|lam_j|) is
    summed from differences, since 1 - lam_i/lam_j rounds to 0 for adjacent
    floats, and the outer sum is a log-sum-exp.  A term that overflows makes
    the result inf or nan; nothing here raises.
    """
    lams = sd.eigenvalues
    terms = []
    for i, (lam, kap) in enumerate(zip(lams, sd.norming)):
        ell = sum(
            math.log(abs(mu - lam)) - math.log(abs(mu))
            for j, mu in enumerate(lams) if j != i
        )
        terms.append(math.log(kap) - 2.0 * ell)
    top = max(terms)
    return -(top + math.log(sum(math.exp(t - top) for t in terms)))


def measure_from_spectral_data(
    sd: forward.SpectralData, tol: Tolerances = DEFAULT
) -> PeakonMeasure:
    """Unique measure with the given eigenvalues and norming constants.

    Rebuilt once, at the anchor _left_end(sd) - 1, and accepted when it
    reproduces sd within tol.inv; otherwise Infeasible.
    """
    return _reconstruct(sd, tol)[0]


def _reconstruct(sd: forward.SpectralData, tol: Tolerances):
    """(m, back, atoms): measure_from_spectral_data, with m's own spectral data
    back and eigenfunction values atoms from forward._resolve."""
    a = _left_end(sd) - 1.0
    if not math.isfinite(a):
        raise Infeasible(f"the anchor a = {a} is not finite")
    try:
        m = _attempt(sd, a, tol)
        back, atoms = forward._resolve(m, sd.eigenvalues, tol)
    except (NumericalError, ValidationError) as exc:
        raise Infeasible(f"no reconstruction at the anchor a = {a}: {exc}") from exc
    err = max(abs(k - k2) / max(1.0, abs(k)) for k, k2 in zip(sd.norming, back.norming))
    if err > tol.inv:
        raise Infeasible(f"the reconstruction at the anchor a = {a} misses the data by {err}")
    return m, back, atoms
