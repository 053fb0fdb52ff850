"""Rational Herglotz-Nevanlinna arithmetic.

A rational Herglotz function is kept in one form only, the normal form
gamma*z + zeta + sum b_i/(mu_i - z) with gamma >= 0 and b_i > 0; sums,
negative reciprocals (_pf_neg_reciprocal) and continued fractions all work
on the pole data, never on numerator and denominator coefficients.

Stieltjes-type continued fractions alternate -l*z length terms with
affine stages m(z) = c0 + c1*z, c1 >= 0:

    value = 1/(-head*z + 1/(m_1 + 1/(-l_1*z + 1/(m_2 + ... - 1/(l_K*z)))))

with head = 0 permitted on the plus side only (reference point on an atom).

The poles of -1/h are the zeros of h, one per gap between poles and at
most one on each outer side.  Each is solved as an offset from the pole
nearer to it, so offsets far below the pole spacing keep their relative
precision, down to the subnormals.  A gap zero is bracketed by the gap
midpoint and an outer zero by doubling (_zero_offset); one solver,
_gap_offset, then takes a few safeguarded Newton steps on a model that
keeps the anchor pole exact, and a walk, or failing that a bisection, to
the adjacent floats across which the offset equation changes sign.  It
always ends there and returns their midpoint; where the equation changes
sign more than once near the zero, it is one such pair.  Each gap costs
one midpoint test, from its left pole; a zero past the midpoint is solved
from the right pole.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from operator import add

from .config import Tolerances, DEFAULT
from .errors import (
    BadResidueAtZero,
    DegreeMismatch,
    NonConverged,
    NonPositiveLength,
    NotHerglotz,
    PoleHit,
)


def lsum(values):
    """sum(values) added left to right: from Python 3.12 on, sum() compensates floats."""
    return reduce(add, values, 0)


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
    mu = mus[i]
    terms = [(u - mu, b) for u, b in zip(mus, betas)]
    del terms[i]
    return terms


def _anchored_value(gamma, zeta, mu, terms, x):
    """h at mu + x with the anchor pole's term left out; terms from _anchored_terms.

    Working in the offset x keeps pole-zero separations resolved far
    below the float spacing of the pole locations themselves.
    """
    t = gamma * (mu + x) + zeta
    for d, b in terms:
        t += b / (d - x)
    return t


def _anchored_residue(gamma, beta, terms, x):
    """1/h' at mu + x, anchored at the pole mu of residue beta: the residue of -1/h there.

    terms are the anchor's _anchored_terms, so the sum runs in their order.
    Where x*x is below the normal floats (|x| below 1.5e-154) it is
    q/(1 + q*rest) with q = (x/beta)*x, which stays in range: beta is then
    tiny too, and so is the residue, about x*x/beta.
    """
    x2 = x * x
    tiny = x2 < _NORMAL_MIN
    t = gamma if tiny else gamma + beta / x2
    for d, b in terms:
        t += b / (d - x) ** 2
    if not tiny:
        return 1.0 / t
    q = x / beta * x
    return q / (1.0 + q * t)


def _bracket(gamma, zeta, mu, beta, terms, sgn):
    """G(d) = sgn*d*h(mu + sgn*d) - beta with h anchored at its pole mu.

    G increases through zero toward the zero on that side of the pole;
    terms are the anchor's _anchored_terms.
    """
    def G(d):
        return sgn * d * _anchored_value(gamma, zeta, mu, terms, sgn * d) - beta

    return G


_NORMAL_MIN = sys.float_info.min  # the scaled forms of residues and z2 start below it
_NEWTON_STEPS = 40
_WALK_STEPS = 8


def _bisect(G, lo, hi):
    """Midpoint of the adjacent floats lo < hi, G(lo) <= 0 <= G(hi), that bisection finds.

    Takes such a bracket with lo >= 0.  The probe is the geometric mean
    while hi > 4*lo, lo = 0 read as the least subnormal, so about ten
    probes find the scale of an offset hundreds of orders below hi; then
    the arithmetic mean finds the mantissa.  Every probe lies strictly
    inside (lo, hi), so the loop ends, on adjacent floats at any scale,
    subnormals included.
    """
    while True:
        low = lo or math.ulp(0.0)
        p = math.sqrt(low) * math.sqrt(hi) if hi > 4.0 * low else 0.5 * (lo + hi)
        if not lo < p < hi:
            return 0.5 * (lo + hi)
        if G(p) <= 0.0:
            lo = p
        else:
            hi = p


def _gap_offset(gamma, zeta, mu, beta, terms, sgn, hi):
    """Offset of the zero of G on (0, hi], G(hi) >= 0 known: the midpoint of adjacent floats.

    With S(d) = sgn*h(mu + sgn*d) anchored at mu, G = d*S(d) - beta, and
    one pass over terms gives G and S' > 0.  Each step keeps
    the anchor pole exact and S linear, S(y) ~ S(d) + S'(d)*(y - d): a
    one-pole rational model in the spirit of Gu-Eisenstat and Li, whose
    root y = d + e solves G(d) + G'(d)*e + S'(d)*e^2 = 0.  From d = 0 the
    step is the start, first-order exact for tiny offsets, down to the
    subnormals.  Each value of G narrows the bracket [lo, hi] with
    G(lo) <= 0 < G(hi), and a step outside it is replaced by sqrt(lo*hi),
    or hi/8 while lo = 0.

    The iteration stops at a step of at most 2 ulp, or when the bracket
    has no float left for such a replacement.  A walk then probes G from
    the step outward in ulp strides that double, a probe outside [lo, hi]
    replaced by the midpoint, until lo and hi are adjacent floats, and
    returns their midpoint.  After _NEWTON_STEPS steps or _WALK_STEPS
    probes without an answer, where a G with several sign changes near the
    zero is likely, _bisect takes the bracket as it stands to adjacent
    floats instead.  The sums are written out here, each with the float
    operations of _anchored_value in its order: this is the hottest loop.
    """
    lo, d, g, x = 0.0, 0.0, -beta, 0.0
    for k in range(_NEWTON_STEPS + 1):
        # value t and slope s of h at mu + x, anchored at mu
        t, s = gamma * (mu + x) + zeta, gamma
        for c, b in terms:
            r = c - x
            q = b / r
            t += q
            s += q / r
        if k:
            g = sgn * d * t - beta  # G(d), summed as G sums it
            if g <= 0.0:
                lo = d
            else:
                hi = d
            if k == _NEWTON_STEPS:
                return _bisect(_bracket(gamma, zeta, mu, beta, terms, sgn), lo, hi)
        # the model's root y = d + e solves g + a*e + s*e^2 = 0, a = G'(d)
        a, w = sgn * t + s * d, 2.0 * math.sqrt(s) * math.sqrt(abs(g))
        if g <= 0.0:
            r = math.hypot(a, w)
            e = -2.0 * g / (a + r) if a > 0.0 else (r - a) / (2.0 * s) if s > 0.0 else hi
        elif a > w:
            e = -2.0 * g / (a + math.sqrt(a - w) * math.sqrt(a + w))
        else:  # no root near d
            e = hi
        y = d + e
        if d > 0.0 and abs(e) <= 2.0 * math.ulp(d):
            break
        if not lo < y < hi:
            y = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.125 * hi
            if not lo < y < hi:  # lo and hi are a few ulps apart
                break
        d = y
        x = sgn * d
    # walk from the last step: ulp strides that double, a probe outside
    # [lo, hi] replaced by the midpoint, until lo and hi are adjacent
    p = y if lo < y < hi else math.nextafter(lo, hi) if y <= lo else math.nextafter(hi, lo)
    stride = math.ulp(p)
    for _ in range(_WALK_STEPS + 1):
        if math.nextafter(lo, hi) == hi:
            return 0.5 * (lo + hi)
        if not lo < p < hi:
            p = 0.5 * (lo + hi)
        x = sgn * p
        t = gamma * (mu + x) + zeta
        for c, b in terms:
            t += b / (c - x)
        if sgn * p * t - beta <= 0.0:  # G(p)
            lo, p = p, p + stride
        else:
            hi, p = p, p - stride
        stride *= 2.0
    return _bisect(_bracket(gamma, zeta, mu, beta, terms, sgn), lo, hi)


def _zero_offset(gamma, zeta, mus, betas, i, sgn, hi, terms=None):
    """Offset d > 0 of the zero of h at mus[i] + sgn*d, with d <= hi.

    G(d) = sgn*d*h(mus[i] + sgn*d) increases through zero on the bracket.
    hi=None searches the unbounded outer side by doubling hi from
    max(1, |mus[i]|) until G(hi) >= 0.  Either bracket goes to _gap_offset,
    which returns the midpoint of adjacent floats across which G changes
    sign.  terms are the anchor's _anchored_terms, built here if omitted.
    """
    if terms is None:
        terms = _anchored_terms(mus, betas, i)
    G = _bracket(gamma, zeta, mus[i], betas[i], terms, sgn)
    if hi is None:
        hi = max(1.0, abs(mus[i]))
        while not G(hi) >= 0.0:
            hi *= 2.0
            if hi > 1e280:
                raise NonConverged("no zero in the outer range")
    elif not G(hi) >= 0.0:
        raise NonConverged("zero bracket lost during Herglotz inversion")
    return _gap_offset(gamma, zeta, mus[i], betas[i], terms, sgn, hi)


def _pf_neg_reciprocal(gamma, zeta, mus, betas):
    """Pole data of -1/h computed from h's pole data alone.

    Returns (gamma', zeta', poles', residues').  Zeros of h are solved
    per gap anchored to the nearest pole, so residues spanning hundreds
    of orders of magnitude survive where coefficient arithmetic cannot.
    G_i(half) = half*h(mu_i + half) - beta_i >= 0 puts the zero within
    half of mu_i, else it is solved from mu_{i+1}; only a solve that ends
    on half or the float below reads G_{i+1}(half), and if that is negative
    too, the zero is the midpoint.  One midpoint test per gap, not about 1.5.
    A slope, constant, pole or residue of -1/h beyond the floats raises
    NonConverged.
    """
    m = len(mus)
    if m == 0:
        if gamma <= 0.0:
            raise NotHerglotz("constant function has no Herglotz reciprocal")
        return _in_range(0.0, 0.0, (-zeta / gamma,), (1.0 / gamma,))
    s1 = lsum(betas)
    span = max(1.0, max(abs(u) for u in mus))
    # behaviour at infinity: slope, then constant, else the pole sum
    slope = gamma * span * span > 1e-8 * s1
    const = abs(zeta) * span > 1e-8 * s1
    # each anchor's terms are built once and dropped after its gap: the m^2
    # terms of all anchors at once held megabytes at m = 175
    found: list[tuple[int, float, float]] = []  # (anchor pole, signed offset, residue)
    lo = _anchored_terms(mus, betas, 0)
    if slope or (const and zeta < 0.0):
        d = -_zero_offset(gamma, zeta, mus, betas, 0, -1.0, None, lo)
        found.append((0, d, _anchored_residue(gamma, betas[0], lo, d)))
    for i in range(m - 1):
        hi = _anchored_terms(mus, betas, i + 1)
        half = 0.5 * (mus[i + 1] - mus[i])
        if half * _anchored_value(gamma, zeta, mus[i], lo, half) - betas[i] >= 0.0:
            j, terms, d = i, lo, _gap_offset(gamma, zeta, mus[i], betas[i], lo, 1.0, half)
        else:
            j, terms, d = i + 1, hi, -_gap_offset(gamma, zeta, mus[i + 1], betas[i + 1], hi, -1.0, half)
            # both anchors rounding past the midpoint makes the midpoint the zero
            if -d >= math.nextafter(half, 0.0) and not (
                    -half * _anchored_value(gamma, zeta, mus[i + 1], hi, -half) - betas[i + 1] >= 0.0):
                j, terms, d = i, lo, half
        found.append((j, d, _anchored_residue(gamma, betas[j], terms, d)))
        lo = hi
    if slope or (const and zeta > 0.0):
        d = _zero_offset(gamma, zeta, mus, betas, m - 1, +1.0, None, lo)
        found.append((m - 1, d, _anchored_residue(gamma, betas[m - 1], lo, d)))
    zeros = tuple(mus[i] + d for i, d, _ in found)
    res = tuple(b for _, _, b in found)
    if slope:
        g2, z2 = 0.0, 0.0
    elif const:
        g2, z2 = 0.0, -1.0 / zeta
    else:
        s2 = lsum(b * u for b, u in zip(betas, mus))
        g2 = 1.0 / s1
        # where s1*s1 is below the normal floats the division form stays in range
        z2 = -(s2 / s1) / s1 if s1 * s1 < _NORMAL_MIN else -s2 / (s1 * s1)
    return _in_range(g2, z2, zeros, res)


def _in_range(g2, z2, zeros, res):
    """The pole data of -1/h as they are; NonConverged where a value overflowed."""
    if not all(map(math.isfinite, (g2, z2, *zeros, *res))):
        raise NonConverged("negative reciprocal leaves float range")
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


def _peel(gamma, zeta, mus, betas):
    """_pf_neg_reciprocal in a chain of inversions (cf_expand, forward.weyl)."""
    try:
        return _pf_neg_reciprocal(gamma, zeta, mus, betas)
    except ZeroDivisionError as exc:  # by a residue of an earlier inversion
        raise NonConverged("a residue underflowed to 0 in a chain of inversions") from exc


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
        sup = lsum(h.residues)
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
        l, rest, mus2, betas2 = _peel(gamma, zeta, mus, betas)
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
        c1, c0, mus3, betas3 = _peel(0.0, rest, mus2, betas2)
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
