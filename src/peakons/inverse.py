"""Reconstruction of discrete measures from Weyl functions and spectral data.

A one-sided Weyl function unrolls into a Stieltjes continued fraction whose
lengths are increments of 2 tanh((x - a)/2); inverting the cumulative sums
recovers positions, and the affine stage coefficients divided by cosh^2
recover the weights.  Full-line reconstruction from (eigenvalues, norming)
places a reference point strictly left of the support, where the minus-side
Weyl function is exactly -1/(2z), and rebuilds the plus side: it is the
all-plus branch of the interior inverse, whose empty minus side
measure_from_weyl returns without a continued fraction.  _branch turns one
split of the poles of M_plus + M_minus into a measure, for both inverses.

The data fix the left end of the support in closed form.  Left of the
support phi_i(a)^2 = e^a kappa_i / (lam_i W'(lam_i))^2, with W' in the
product form forward._wdot that spectral_data checks kappa against, so
alpha(a) = 1 - sum phi_i(a)^2 vanishes exactly at a = x_1:

    x_1 = -log sum_i kappa_i / (lam_i W'(lam_i))^2.

The one reference point is the anchor x_1 - 1.  The reconstruction is
verified by forward._resolve, which solves its forward problem from
brackets around the given eigenvalues, and by its norming constants, each
within tol.inv of the data relative to itself, however small; a failure
at the anchor is reported as Infeasible, chained to the error of the stage
that failed.

A kappa of two eigenvalues a relative 1e-5 apart moves by about 2/gap
times an eigenvalue error, so a continued fraction that keeps positions
to 1e-11 can miss it by 1e-6.  A reconstruction that misses only in
kappa takes one damped Gauss-Newton step (_newton_step) on the forward
problem and is verified again, under the same tol.inv.
"""

from __future__ import annotations

import math
from array import array
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
from .ratfun import HerglotzRational, cf_expand, herglotz, lsum, neg_reciprocal


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


_FREE_SIDE = (0.0, 0.0, (0.0,), (0.5,))  # -1/(2z), the Weyl function of no atoms


def measure_from_weyl(
    h: HerglotzRational, a: float, side: str, tol: Tolerances = DEFAULT
) -> HalfLineMeasure:
    """Invert a one-sided Weyl function into atoms on that side of a.

    The Weyl function of a side free of atoms is exactly -1/(2z), the pole
    data (0, 0, (0.0,), (0.5,)): its continued fraction is the head length
    2 alone, under any tolerances, so it gives the empty measure at once.
    That is the minus side of every full-line inverse.
    """
    if side in ("plus", "minus") and (h.gamma, h.zeta, h.poles, h.residues) == _FREE_SIDE:
        return HalfLineMeasure((), (), (), a, side)
    cf = cf_expand(h, side, tol)
    total = cf.head_length + lsum(s.length for s in cf.stages)
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
    # the pole of -1/F nearest the origin is the exact zero F(0)=0; left of
    # the support M_minus = -1/(2z) exactly, so every other pole is M_plus's
    # and the plus share of the origin's residue is exactly 1/2
    i0 = min(range(len(s.poles)), key=lambda i: abs(s.poles[i]))
    plus = [(0.0, 0.5) if i == i0 else pr for i, pr in enumerate(zip(s.poles, s.residues))]
    return _branch(s, a, plus, [(0.0, 0.5)], tol)


def _branch(s: HerglotzRational, a: float, plus, minus, tol: Tolerances) -> PeakonMeasure:
    """The measure whose Weyl functions at a share out the Weyl sum s.

    plus and minus are (pole, residue) pairs, whose residues at each pole of
    s add up to its residue there: M_plus is s's slope and constant with the
    pairs plus, M_minus the pairs minus alone.  Each side is inverted by
    measure_from_weyl, plus side first, and the union is validated.
    """
    triples = []
    for side, gamma, zeta, pairs in (("plus", s.gamma, s.zeta, plus), ("minus", 0.0, 0.0, minus)):
        pairs = sorted(pairs)
        h = HerglotzRational(gamma, zeta, tuple(p for p, _ in pairs), tuple(r for _, r in pairs))
        triples += measure_from_weyl(h, a, side, tol).triples()
    return validate(triples, tol)


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
        ell = lsum(
            math.log(abs(mu - lam)) - math.log(abs(mu))
            for j, mu in enumerate(lams) if j != i
        )
        terms.append(math.log(kap) - 2.0 * ell)
    top = max(terms)
    return -(top + math.log(lsum(math.exp(t - top) for t in terms)))


def _miss(sd: forward.SpectralData, back: forward.SpectralData) -> float:
    """The largest relative miss of back's norming constants against sd's."""
    return max(abs(k - k2) / k for k, k2 in zip(sd.norming, back.norming))


_FD_STEP = 1e-8   # forward-difference step, relative to max(1, |entry|)
_DAMPING = 1e-10  # added to the unit diagonal of the normal equations


def _newton_step(m: PeakonMeasure, sd, back, tol: Tolerances) -> PeakonMeasure:
    """m moved by one damped Gauss-Newton step toward sd; back is m's own data.

    The data are the eigenvalues over max(1, |lam|) and log kappa.  Their
    Jacobian over every x, omega and non-zero v is taken by forward
    differences, each a forward._spectral from brackets around sd's
    eigenvalues, and the step solves the normal equations on unit columns
    with _DAMPING on the diagonal, which keeps directions the data barely
    see from taking the step.
    """
    def data(s):
        return [lam / max(1.0, abs(lam)) for lam in s.eigenvalues] + [math.log(k) for k in s.norming]

    base = data(back)
    r = [t - f for t, f in zip(data(sd), base)]
    triples = [list(t) for t in zip(m.points, m.omega, m.vee)]
    slots = [(k, c) for k, t in enumerate(triples) for c in range(3) if c < 2 or t[2]]
    cols = []
    for k, c in slots:
        h = _FD_STEP * max(1.0, abs(triples[k][c]))
        triples[k][c] += h
        moved = forward._spectral(validate(triples, tol), tol, near=sd.eigenvalues)[0]
        triples[k][c] -= h
        cols.append(array("d", ((f - g) / h for f, g in zip(data(moved), base))))
    for (k, c), step in zip(slots, _damped_lstsq(cols, r)):
        triples[k][c] += step
    return validate(triples, tol)


def _damped_lstsq(cols: list, r: list) -> list[float]:
    """x minimising |sum_j x_j cols[j] - r|^2 + _DAMPING |x|^2 over unit columns,
    by the Cholesky factor of the normal equations; cols are scaled in place."""
    norms = [math.sqrt(math.fsum(c * c for c in col)) for col in cols]
    if not all(0.0 < s < math.inf for s in norms):
        raise NumericalError("a column of the Jacobian is zero or not finite")
    for col, s in zip(cols, norms):
        col[:] = array("d", (c / s for c in col))
    u, n = cols, len(cols)
    g = [array("d", (math.fsum(a * b for a, b in zip(u[i], u[j])) for j in range(i + 1)))
         for i in range(n)]
    y = [math.fsum(a * b for a, b in zip(ui, r)) for ui in u]
    for i in range(n):  # g = L L^T in place, then L y' = y
        g[i][i] += _DAMPING
        for j in range(i + 1):
            s = g[i][j] - math.fsum(g[i][k] * g[j][k] for k in range(j))
            if j == i and not s > 0.0:
                raise NumericalError(f"the normal equations lose definiteness at {i}")
            g[i][j] = s / g[j][j] if j < i else math.sqrt(s)
        y[i] = (y[i] - math.fsum(g[i][k] * y[k] for k in range(i))) / g[i][i]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):  # L^T x = y'
        x[i] = (y[i] - math.fsum(g[k][i] * x[k] for k in range(i + 1, n))) / g[i][i]
    return [xi / s for xi, s in zip(x, norms)]


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
    err = _miss(sd, back)
    if err > tol.inv:  # one Gauss-Newton step, verified as the first measure was
        atoms = None  # not returned unless the step lands within tol.inv
        try:
            m = _newton_step(m, sd, back, tol)
            back, atoms = forward._resolve(m, sd.eigenvalues, tol)
            err = _miss(sd, back)
        except (NumericalError, ValidationError):
            pass
    if err > tol.inv:
        raise Infeasible(f"the reconstruction at the anchor a = {a} misses the data by {err}")
    return m, back, atoms
