"""Rational Herglotz-Nevanlinna arithmetic, and four polynomial helpers.

A rational Herglotz function is kept in one form only, the normal form
gamma*z + zeta + sum b_i/(mu_i - z) with gamma >= 0 and b_i > 0; sums,
negative reciprocals (_pf_neg_reciprocal) and continued fractions all work
on the pole data, never on numerator and denominator coefficients.
Stieltjes-type continued fractions alternate -l*z length terms with
affine stages m(z) = c0 + c1*z, c1 >= 0:

    value = 1/(-head*z + 1/(m_1 + 1/(-l_1*z + 1/(m_2 + ... - 1/(l_K*z)))))

with head = 0 permitted on the plus side only (reference point on an atom).

The polynomial helpers (trim, polyval, eval_scale, _cauchy_bound) serve only
forward.eigenvalues: its spectral bound, Newton polish and residual test on
the coefficient array of Q_n, ascending, with the empty array for zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .config import Tolerances, DEFAULT
from .errors import (
    BadResidueAtZero,
    DegreeMismatch,
    NonConverged,
    NonPositiveLength,
    NotHerglotz,
    PoleHit,
)


# ---------------------------------------------------------------- polynomials

def trim(c, rel: float = DEFAULT.coef) -> np.ndarray:
    """Drop trailing coefficients below rel * max|c|; empty array = zero."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size == 0:
        return c
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return c[:0]
    keep = np.nonzero(np.abs(c) > rel * scale)[0]
    if keep.size == 0:
        return c[:0]
    return c[: keep[-1] + 1]


def polyval(c, z):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size == 0:
        return 0.0 * z
    return npp.polyval(z, c)


def eval_scale(c, z) -> float:
    """sum |c_i| |z|^i, the natural magnitude for residual tests."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size == 0:
        return 0.0
    return float(npp.polyval(abs(z), np.abs(c)))


def _cauchy_bound(c: np.ndarray) -> float:
    # all roots lie in |z| <= 1 + max |c_i / c_lead|
    lead = c[-1]
    if len(c) == 1:
        return 1.0
    return 1.0 + float(np.max(np.abs(c[:-1] / lead)))


# ----------------------------------------------------- rational Herglotz form

_GRID_Y = (0.7, 1.3, 2.9, 6.1, 12.7)


@dataclass(frozen=True)
class HerglotzRational:
    gamma: float
    zeta: float
    poles: tuple[float, ...]
    residues: tuple[float, ...]

    def __call__(self, z):
        val = self.gamma * z + self.zeta
        if isinstance(z, np.ndarray):
            val = val + np.zeros_like(z)
        for mu, b in zip(self.poles, self.residues):
            val = val + b / (mu - z)
        return val


def herglotz(gamma, zeta, poles, residues, tol: Tolerances = DEFAULT) -> HerglotzRational:
    """Normal-form constructor with the type invariants enforced."""
    gamma = float(gamma)
    if gamma < 0.0:
        if gamma < -tol.pf:
            raise NotHerglotz(f"negative slope {gamma}")
        gamma = 0.0
    pr = sorted(zip(poles, residues))
    poles = tuple(float(m) for m, _ in pr)
    residues = tuple(float(b) for _, b in pr)
    for b in residues:
        if b <= 0.0:
            raise NotHerglotz(f"nonpositive residue weight {b}")
    for a, b in zip(poles, poles[1:]):
        if not b > a:
            raise NotHerglotz(f"poles not distinct near {a}")
    return HerglotzRational(gamma, float(zeta), poles, residues)


# --------------------------------------- zeros of a Herglotz function, anchored

def _anchored_terms(mus, betas, i) -> list[tuple[float, float]]:
    """(mus[j] - mus[i], betas[j]) for j != i, j ascending: the poles seen from mus[i]."""
    return [(mus[j] - mus[i], betas[j]) for j in range(len(mus)) if j != i]


def _anchored_value(gamma, zeta, mu, terms, x):
    """h at mu + x with the anchor pole's term left out; terms from _anchored_terms.

    Working in the offset x keeps pole-zero separations resolved far
    below the float spacing of the pole locations themselves.
    """
    t = gamma * (mu + x) + zeta
    for d, b in terms:
        t += b / (d - x)
    return t


def _anchored_slope(gamma, mus, betas, i, x):
    """h' at mus[i] + x, same anchoring; positive wherever h is finite."""
    x2 = x * x
    if x2 == 0.0:  # |x| below 1.5e-154
        raise NonConverged(f"pole-zero offset {x} underflows its square")
    t = gamma + betas[i] / x2
    for j in range(len(mus)):
        if j != i:
            t += betas[j] / ((mus[j] - mus[i]) - x) ** 2
    return t


def _bracket(gamma, zeta, mus, betas, i, sgn):
    """G(d) = sgn*d*h(mus[i] + sgn*d) - betas[i] with h anchored at mus[i].

    G increases through zero toward the zero on that side of the pole; the
    anchored terms are built once for every evaluation.
    """
    mu, beta, terms = mus[i], betas[i], _anchored_terms(mus, betas, i)

    def G(d):
        return sgn * d * _anchored_value(gamma, zeta, mu, terms, sgn * d) - beta

    return G


def _zero_offset(gamma, zeta, mus, betas, i, sgn, hi):
    """Offset d > 0 of the zero of h at mus[i] + sgn*d, with d <= hi.

    hi=None searches the unbounded outer side.  G(d) = sgn*d*h(mus[i]+sgn*d)
    increases through zero on the bracket; a descent over the rungs hi*2^-k
    finds the scale and bisection the mantissa, so offsets hundreds of
    orders below the gap width keep full relative precision.  The descent
    gallops (k = 1, 2, 4, ...) and then bisects on k for the first rung with
    G <= 0: adjacent rungs differ by a factor 2 in d, far above G's
    rounding, so G's sign is monotone along them and this is the rung that
    halving one step at a time finds.  A rung below 1e-280 counts as past
    the zero and is returned as it is.
    """
    G = _bracket(gamma, zeta, mus, betas, i, sgn)
    if hi is None:
        hi = max(1.0, abs(mus[i]))
        while not G(hi) >= 0.0:
            hi *= 2.0
            if hi > 1e280:
                raise NonConverged("no zero in the outer range")
    elif not G(hi) >= 0.0:
        raise NonConverged("zero bracket lost during Herglotz inversion")

    def past(k):  # ldexp is exact on every rung from 1e-280 up
        d = math.ldexp(hi, -k)
        return d < 1e-280 or G(d) <= 0.0

    k_lo, k_hi = 0, 1  # rung k_lo is above the zero, rung k_hi past it
    while not past(k_hi):
        k_lo, k_hi = k_hi, 2 * k_hi
    while k_hi - k_lo > 1:
        k = (k_lo + k_hi) // 2
        k_lo, k_hi = (k_lo, k) if past(k) else (k, k_hi)
    lo, hi = math.ldexp(hi, -k_hi), math.ldexp(hi, -k_lo)
    if lo < 1e-280:
        return lo
    for _ in range(80):  # no step moves a bracket of two adjacent floats
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if G(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _pf_neg_reciprocal(gamma, zeta, mus, betas):
    """Pole data of -1/h computed from h's pole data alone.

    Returns (gamma', zeta', poles', residues').  Zeros of h are solved
    per gap anchored to the nearest pole, so residues spanning hundreds
    of orders of magnitude survive where coefficient arithmetic cannot.
    """
    m = len(mus)
    if m == 0:
        if gamma <= 0.0:
            raise NotHerglotz("constant function has no Herglotz reciprocal")
        return 0.0, 0.0, (-zeta / gamma,), (1.0 / gamma,)
    s1 = sum(betas)
    span = max(1.0, max(abs(u) for u in mus))
    # behaviour at infinity: slope, then constant, else the pole sum
    slope = gamma * span * span > 1e-8 * s1
    const = abs(zeta) * span > 1e-8 * s1
    found: list[tuple[int, float]] = []  # (anchor pole, signed offset)
    if slope or (const and zeta < 0.0):
        found.append((0, -_zero_offset(gamma, zeta, mus, betas, 0, -1.0, None)))
    for i in range(m - 1):
        # the zero's side of the gap midpoint, by the bracket test of _zero_offset
        half = 0.5 * (mus[i + 1] - mus[i])
        if _bracket(gamma, zeta, mus, betas, i, +1.0)(half) >= 0.0:
            found.append((i, +_zero_offset(gamma, zeta, mus, betas, i, +1.0, half)))
        elif _bracket(gamma, zeta, mus, betas, i + 1, -1.0)(half) >= 0.0:
            found.append((i + 1, -_zero_offset(gamma, zeta, mus, betas, i + 1, -1.0, half)))
        else:  # both anchors round past the midpoint: the zero is the midpoint
            found.append((i, half))
    if slope or (const and zeta > 0.0):
        found.append((m - 1, +_zero_offset(gamma, zeta, mus, betas, m - 1, +1.0, None)))
    zeros = tuple(mus[i] + d for i, d in found)
    res = tuple(1.0 / _anchored_slope(gamma, mus, betas, i, d) for i, d in found)
    if slope:
        g2, z2 = 0.0, 0.0
    elif const:
        g2, z2 = 0.0, -1.0 / zeta
    else:
        s2 = sum(b * u for b, u in zip(betas, mus))
        g2, z2 = 1.0 / s1, -s2 / (s1 * s1)
    return g2, z2, zeros, res


def neg_reciprocal(h: HerglotzRational, tol: Tolerances = DEFAULT) -> HerglotzRational:
    """Normal form of -1/h; poles of the output are the zeros of h."""
    g2, z2, zeros, res = _pf_neg_reciprocal(h.gamma, h.zeta, h.poles, h.residues)
    out = herglotz(g2, z2, zeros, res, tol)
    for y in _GRID_Y:
        z = 1j * y
        ref = -1.0 / h(z)
        if abs(out(z) - ref) > tol.pf * max(1.0, abs(ref)):
            raise NonConverged("reciprocal does not reproduce -1/h")
    return out


# ------------------------------------------------- Stieltjes continued fractions

@dataclass(frozen=True)
class CFStage:
    c0: float
    c1: float      # slope of the affine stage, >= 0
    length: float  # the -l*z term that follows the stage, > 0


@dataclass(frozen=True)
class StieltjesCF:
    head_length: float          # 0 allowed on the plus side only
    stages: tuple[CFStage, ...]
    side: str                   # "plus" | "minus"


def cf_evaluate(cf: StieltjesCF, z):
    """Bottom-up evaluation of the nested fraction."""
    u = 0.0
    for st in reversed(cf.stages):
        t = -st.length * z + u
        if t == 0:
            raise PoleHit(f"z={z} hits a pole of the continued fraction")
        u = st.c0 + st.c1 * z + 1.0 / t
        if u == 0:
            raise PoleHit(f"z={z} hits a pole of the continued fraction")
        u = 1.0 / u
    d = -cf.head_length * z + u
    if d == 0:
        raise PoleHit(f"z={z} hits a pole of the continued fraction")
    return 1.0 / d


def cf_expand(h: HerglotzRational, side: str, tol: Tolerances = DEFAULT) -> StieltjesCF:
    """Expand a one-sided Weyl function into its finite continued fraction.

    Alternates two pole-space inversions: -1/h starts with a length slope,
    and minus the reciprocal of the bounded remainder starts with the
    affine stage.  The result is verified against h before returning.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be plus or minus, got {side!r}")
    if not h.poles:
        raise BadResidueAtZero("no pole at the origin")
    span = max(1.0, max(abs(m) for m in h.poles))
    i0 = min(range(len(h.poles)), key=lambda i: abs(h.poles[i]))
    if abs(h.poles[i0]) > tol.cf * span:
        raise BadResidueAtZero("no pole at the origin")
    if abs(h.residues[i0] - 0.5) > tol.cf * max(1.0, h.residues[i0]):
        raise BadResidueAtZero(
            f"residue at 0 is {-h.residues[i0]}, expected -1/2"
        )
    if side == "minus":
        sup = sum(h.residues)
        if h.gamma > tol.coef or abs(h.zeta) > tol.coef * max(1.0, sup):
            raise DegreeMismatch("minus-side function must vanish at infinity")

    gamma, zeta = h.gamma, h.zeta
    # the origin pole is structural: phi(0, x) = e^{-x/2} makes its location
    # and residue exact, and every stage peel hands the same pole down to the
    # next tail.  Pinning it at 0 keeps its (large) residue out of the moment
    # sums of later peels, where a wobbled position costs seven digits.
    mus = list(h.poles)
    betas = list(h.residues)
    mus[i0] = 0.0
    betas[i0] = 0.5
    head = None
    stages: list[tuple[float, float]] = []
    lengths: list[float] = []
    for _ in range(len(h.poles) + 2):
        wspan = max(1.0, max(abs(u) for u in mus))
        l, rest, mus2, betas2 = _pf_neg_reciprocal(gamma, zeta, mus, betas)
        if head is None:
            if l == 0.0 and side == "minus":
                raise NonPositiveLength("minus side needs a strictly positive head length")
            head = l
        else:
            if l <= 0.0:
                raise NonPositiveLength(f"vanishing length: extracted l = {l}")
            lengths.append(l)
        if not mus2:
            # bare terminal length: the constant remainder must vanish
            if abs(rest) > 1e-6 * wspan * max(l, tol.cf):
                raise NonConverged("continued fraction left a nonzero remainder")
            break
        c1, c0, mus3, betas3 = _pf_neg_reciprocal(0.0, rest, mus2, betas2)
        stages.append((c0, c1))
        if not mus3:
            raise DegreeMismatch("continued fraction ended without its terminal length")
        mus3 = list(mus3)
        j0 = min(range(len(mus3)), key=lambda i: abs(mus3[i]))
        mus3[j0] = 0.0
        gamma, zeta, mus, betas = 0.0, 0.0, mus3, betas3
    else:
        raise NonConverged("continued-fraction expansion did not terminate")
    if len(lengths) != len(stages):
        raise DegreeMismatch("stage/length count mismatch")
    cf = StieltjesCF(
        float(head),
        tuple(CFStage(c0, c1, l) for (c0, c1), l in zip(stages, lengths)),
        side,
    )
    for y in _GRID_Y:
        z = 1j * y
        ref = h(z)
        if abs(cf_evaluate(cf, z) - ref) > tol.cf * max(1.0, abs(ref)):
            raise NonConverged("continued fraction does not reproduce the input")
    return cf
