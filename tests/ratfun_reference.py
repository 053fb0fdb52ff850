"""A frozen copy of ratfun's secular solver as it stood before the one-midpoint-test gap loop.

The reference for tests/test_ratfun.py: the library's _pf_neg_reciprocal
must return the same floats, bit for bit, or raise the same exception type.
Here each gap tests G_i(half) and, when that is negative, G_{i+1}(half)
before it solves, and every probe goes through _anchored_value_slope or a
_bracket closure.  Its float sums are added left to right, as sum() added
floats before Python 3.12.  Do not edit it to follow the library.
"""

import math
import sys
from functools import reduce
from operator import add

from peakons.errors import NonConverged, NotHerglotz


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


def _anchored_value_slope(gamma, zeta, mu, terms, x):
    """(value, slope) of _anchored_value at x in one pass; the value bit for bit."""
    t, s = gamma * (mu + x) + zeta, gamma
    for d, b in terms:
        r = d - x
        q = b / r
        t += q
        s += q / r
    return t, s


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


def _gap_offset(gamma, zeta, mu, beta, terms, sgn, hi, G):
    """Offset of the zero of G on (0, hi], G(hi) >= 0 known: the midpoint of adjacent floats.

    With S(d) = sgn*h(mu + sgn*d) anchored at mu, G = d*S(d) - beta, and
    one pass of _anchored_value_slope gives G and S' > 0.  Each step keeps
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
    floats instead.
    """
    lo, d, g = 0.0, 0.0, -beta
    t, s = _anchored_value_slope(gamma, zeta, mu, terms, 0.0)
    for _ in range(_NEWTON_STEPS):
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
        t, s = _anchored_value_slope(gamma, zeta, mu, terms, sgn * d)
        g = sgn * d * t - beta  # G(d), summed as G sums it
        if g <= 0.0:
            lo = d
        else:
            hi = d
    else:
        return _bisect(G, lo, hi)
    # walk from the last step: ulp strides that double, a probe outside
    # [lo, hi] replaced by the midpoint, until lo and hi are adjacent
    p = y if lo < y < hi else math.nextafter(lo, hi) if y <= lo else math.nextafter(hi, lo)
    stride = math.ulp(p)
    for _ in range(_WALK_STEPS + 1):
        if math.nextafter(lo, hi) == hi:
            return 0.5 * (lo + hi)
        if not lo < p < hi:
            p = 0.5 * (lo + hi)
        if G(p) <= 0.0:
            lo, p = p, p + stride
        else:
            hi, p = p, p - stride
        stride *= 2.0
    return _bisect(G, lo, hi)


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
    return _gap_offset(gamma, zeta, mus[i], betas[i], terms, sgn, hi, G)


def _pf_neg_reciprocal(gamma, zeta, mus, betas):
    """Pole data of -1/h computed from h's pole data alone.

    Returns (gamma', zeta', poles', residues').  Zeros of h are solved
    per gap anchored to the nearest pole, so residues spanning hundreds
    of orders of magnitude survive where coefficient arithmetic cannot.
    A slope, constant, pole or residue of -1/h beyond the floats raises
    NonConverged.
    """
    m = len(mus)
    if m == 0:
        if gamma <= 0.0:
            raise NotHerglotz("constant function has no Herglotz reciprocal")
        return _in_range(0.0, 0.0, (-zeta / gamma,), (1.0 / gamma,))
    s1 = reduce(add, betas, 0)
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
        # the zero's side of the gap midpoint, by the bracket test of _zero_offset
        half = 0.5 * (mus[i + 1] - mus[i])
        for j, sgn, terms in ((i, +1.0, lo), (i + 1, -1.0, hi)):
            G = _bracket(gamma, zeta, mus[j], betas[j], terms, sgn)
            if G(half) >= 0.0:
                d = sgn * _gap_offset(gamma, zeta, mus[j], betas[j], terms, sgn, half, G)
                found.append((j, d, _anchored_residue(gamma, betas[j], terms, d)))
                break
        else:  # both anchors round past the midpoint: the zero is the midpoint
            found.append((i, half, _anchored_residue(gamma, betas[i], lo, half)))
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
        s2 = reduce(add, (b * u for b, u in zip(betas, mus)), 0)
        g2 = 1.0 / s1
        # where s1*s1 is below the normal floats the division form stays in range
        z2 = -(s2 / s1) / s1 if s1 * s1 < _NORMAL_MIN else -s2 / (s1 * s1)
    return _in_range(g2, z2, zeros, res)


def _in_range(g2, z2, zeros, res):
    """The pole data of -1/h as they are; NonConverged where a value overflowed."""
    if not all(map(math.isfinite, (g2, z2, *zeros, *res))):
        raise NonConverged("negative reciprocal leaves float range")
    return g2, z2, zeros, res

