"""Forward spectral solver for the discrete string pencil.

The spectral problem -f'' + f/4 = z*omega*f + z^2*v*f is solved on the
gaps by f = A e^{x/2} + B e^{-x/2}; at an atom f is continuous and the
left derivative jumps by (z w_i + z^2 v_i) f(x_i).  All derivative values
are left-continuous.  phi_plus decays like e^{-x/2} at +inf, phi_minus
like e^{x/2} at -inf; their Wronskian W(z) is a polynomial whose zeros
are the eigenvalues.

The determinant recursion Q_0..Q_n runs over rows (a_{i-1}^2, b_{i-1}, w, v)
that depend on the measure alone, in reversed support order: the rows of
T(z) = tridiag(-a, b - w z - v z^2, -a), whose determinant Q_n(z) is W(z)
up to a positive factor; _rows returns them with the couplings a.  At an
eigenvalue the null vector of T is phi_plus at the atoms up to a constant,
and _eigenfunction reads it once, as the twisted null vector of Parlett &
Dhillon (Linear Algebra Appl. 267 (1997)): pivots top-down, as _count forms
them, and bottom-up, joined at the row of least residual, with a recurrence
in a itself.  phi is scaled to e^{-x_n/2} at x_n, as phi_plus is right of
the support, and c_lam = phi_minus/phi_plus = e^{x_1/2}/phi(x_1).

W(0) = 1 and W vanishes on the spectrum, so W'(lam_i) = -(1/lam_i)
prod_{j != i}(1 - lam_i/lam_j) (_wdot), with no shooting and no cancelling
sum; kappa = -lam W'(lam)/c_lam is consistent with the W' the inverse
divides by, and _spectral checks it against the atom sum
lam sum phi^2 (omega + 2 lam v).  _spectral returns the spectral data with
the atom values: the CLI forward command and interior_data take them
directly, and the inverse, interior branches and the flow's trace route
through _resolve, which also checks that a reconstruction reproduces its
eigenvalues.  _phi_at reads every eigenfunction at a point from them.  A
seed, cosh or sinh out of float range raises NumericalError; _shoot, the
gap-transfer walk, serves only weyl's check off the real axis.

_count walks the rows at a number z in ratio form, the pivots
d_i = Q_i(z)/Q_{i-1}(z) of an LDL^T factorisation (Parlett, The Symmetric
Eigenvalue Problem, sec. 3), and counts the negative ones; no Q_i and no
coefficient of Q_n in z is ever formed, so the count cannot overflow.
eigenvalues builds the rows once for every Sturm count of its bracket and
bisection, counts each distinct z once per call, bisects every root down to
two adjacent floats and certifies each final bracket by its count.  Each
root is guessed, certified and bisected, or falls back:

- guess: the caller's (near=, as _resolve passes the eigenvalues a
  reconstruction was built from), or else _newton's.  _newton starts once
  the cold bisection has isolated the root and takes safeguarded Newton
  steps on log Q_n, each by one _count_slope pass, which forms _count's
  pivots and count bit for bit and sums d_i'/d_i as well;
- certify: _warm_bracket takes the node of the cold bisection a few ulps
  wide around the guess, or its neighbour, when the count certifies it,
  and the root ends on the floats the cold bisection gives;
- fall back: a guess that is not certified bisects from the cold bracket.

weyl folds M_+ or M_- from its Stieltjes continued fraction in pole-residue
form, the exact inverse of inverse.measure_from_weyl.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass

from . import ratfun
from .config import Tolerances, DEFAULT
from .errors import (ConsistencyFail, NearCollision, NonConverged, NotHerglotz,
                     NumericalError, ValidationError)
from .measures import PeakonMeasure, counts
from .ratfun import HerglotzRational


def _check_spectrum(lams):
    """The checks that SpectralData and InteriorData make of their eigenvalues."""
    for x, y in zip(lams, lams[1:]):
        if not y > x:
            raise ValidationError("eigenvalues must be strictly increasing")
    if any(lam == 0.0 for lam in lams):
        raise ValidationError("0 is never an eigenvalue")


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: tuple[float, ...]
    norming: tuple[float, ...]  # kappa_i = lambda_i * gamma_i^2 > 0

    def to_json_obj(self) -> dict:
        return {"eigenvalues": list(self.eigenvalues), "norming": list(self.norming)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SpectralData":
        try:
            ev = tuple(float(v) for v in obj["eigenvalues"])
            nm = tuple(float(v) for v in obj["norming"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad spectral-data object: {exc}") from exc
        return cls(ev, nm)

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.norming) or not self.eigenvalues:
            raise ValidationError("eigenvalues and norming lengths differ or empty")
        if not all(map(math.isfinite, (*self.eigenvalues, *self.norming))):
            raise ValidationError("eigenvalues and norming constants must be finite")
        _check_spectrum(self.eigenvalues)
        for lam in self.eigenvalues:
            if lam * lam == 0.0:  # the inverse divides by lambda^2
                raise ValidationError(f"eigenvalue {lam} underflows its square")
        if any(k <= 0.0 for k in self.norming):
            raise ValidationError("norming constants must be positive")


@dataclass(frozen=True)
class InteriorData:
    a: float
    eigenvalues: tuple[float, ...]
    phi: tuple[float, ...]  # signed normalized eigenfunction values at a

    def to_json_obj(self) -> dict:
        return {
            "a": self.a,
            "pairs": [
                {"lambda": lam, "phi": p} for lam, p in zip(self.eigenvalues, self.phi)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InteriorData":
        try:
            a = float(obj["a"])
            pairs = [(float(p["lambda"]), float(p["phi"])) for p in obj["pairs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad interior-data object: {exc}") from exc
        pairs.sort(key=lambda t: t[0])
        return cls(a, tuple(t[0] for t in pairs), tuple(t[1] for t in pairs))

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, *self.eigenvalues, *self.phi))):
            raise ValidationError("a, lambda and phi must be finite")
        if len(self.eigenvalues) != len(self.phi) or not self.eigenvalues:
            raise ValidationError("eigenvalue and phi lengths differ or empty")
        _check_spectrum(self.eigenvalues)
        for lam, p in zip(self.eigenvalues, self.phi):  # the terms of alpha and beta
            if not (math.isfinite(p * p) and math.isfinite(lam * p * p)):
                raise ValidationError(f"a square term of phi overflows at lambda = {lam}")


# ------------------------------------------------------------------- shooting

def _shoot(m: PeakonMeasure, z: complex, x: float, side: str):
    """(phi, phi') of phi_side at x, phi' left-continuous; see the module doc."""
    # sgn is the sign of sinh on the gaps; the jump enters with -sgn
    k = bisect_left(m.points, x)  # atoms k.. lie at or above x
    if side == "plus":
        sgn, cur, crossed = -1.0, max(m.points[-1], x) + 1.0, range(m.n - 1, k - 1, -1)
    else:
        sgn, cur, crossed = 1.0, min(m.points[0], x) - 1.0, range(k)
    try:
        phi = math.exp(sgn * cur / 2.0)
        dphi = sgn * 0.5 * phi
        for j in (*crossed, None):  # None: the last gap, up to x
            xi = x if j is None else m.points[j]
            h = sgn * (xi - cur) / 2.0  # half the gap length
            c, s = math.cosh(h), sgn * math.sinh(h)
            phi, dphi = phi * c + 2.0 * dphi * s, dphi * c + 0.5 * phi * s
            if j is None:
                return phi, dphi
            w, v = m.omega[j], m.vee[j]
            dphi -= sgn * ((z * w + z * z * v) * phi)
            cur = xi
    except OverflowError as exc:
        raise NumericalError(f"phi_{side} overflows on its way to {x}") from exc


def _eigenfunction(m: PeakonMeasure, lam: float, rows: list, a: list) -> tuple[array, float]:
    """(phi_plus at the atoms, c_lam) for an eigenvalue lam of m, (rows, a) = _rows(m).

    The twisted null vector u of T(lam) (see the module doc): pivots D+ and
    D-, a zero one made _TINY, and u_r = 1 at r = argmin |D+_r + D-_r - T_rr|.
    The pivots divide by a^2 from the rows; u multiplies by the couplings a
    themselves, which stay normal floats across gaps where a^2 underflows.
    """
    n = len(rows)
    diag = [b - w * lam - v * lam * lam for _, b, w, v in rows]
    plus, d = [], 1.0
    for (a2, _, _, _), t in zip(rows, diag):  # top-down, as _count forms it
        d = (t - a2 / d) or _TINY
        plus.append(d)
    minus, d, a2 = [0.0] * n, 1.0, 0.0
    for i in range(n - 1, -1, -1):  # bottom-up; a2 couples row i to row i + 1
        d = (diag[i] - a2 / d) or _TINY
        minus[i], a2 = d, rows[i][0]
    r = min(range(n), key=lambda i: abs(plus[i] + minus[i] - diag[i]))
    u = [0.0] * n
    u[r] = 1.0
    for i in range(r - 1, -1, -1):  # above the twist: u_i = a_{i+1} u_{i+1}/D+_i
        u[i] = a[i + 1] * u[i + 1] / plus[i]
    for i in range(r + 1, n):  # below it: u_i = a_i u_{i-1}/D-_i
        u[i] = a[i] * u[i - 1] / minus[i]
    try:  # row 0 is atom n, where phi_plus = e^{-x_n/2}
        s = math.exp(-m.points[-1] / 2.0) / u[0]
        vals = array("d", (s * p for p in reversed(u)))  # 8 bytes a value, not 32
        c_lam = math.exp(m.points[0] / 2.0) / vals[0]
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(f"the eigenfunction of {lam} leaves float range") from exc
    if not 0.0 < abs(c_lam) < math.inf:
        raise NumericalError(f"c_lam = {c_lam} out of float range for eigenvalue {lam}")
    return vals, c_lam


def _phi_at(m: PeakonMeasure, atoms: list, x: float) -> list[float]:
    """phi(x) of every eigenfunction from its values at the atoms (_eigenfunction).

    One gap lookup serves them all.  On a gap phi = A e^{x/2} + B e^{-x/2}
    through the two neighbouring atom values p and q; with l and r the
    distances to them and g = l + r, phi = (p sinh(r/2) + q sinh(l/2))/sinh(g/2),
    written with e^{-l/2}, e^{-r/2} and expm1 so that no gap overflows.
    Outside the support an eigenfunction is e^{x/2} or e^{-x/2} times a
    constant, so phi decays from the end atom.
    """
    pts = m.points
    n = len(pts)
    k = bisect_left(pts, x)  # atoms k.. lie at or above x
    if k < n and pts[k] == x:
        return [vals[k] for vals in atoms]
    if k == 0 or k == n:  # outside the support
        end = 0 if k == 0 else -1
        e = math.exp(-abs(x - pts[end]) / 2.0)
        return [vals[end] * e for vals in atoms]
    l, r = x - pts[k - 1], pts[k] - x
    den = math.expm1(pts[k - 1] - pts[k])
    cl, cr = math.exp(-l / 2.0) * math.expm1(-r), math.exp(-r / 2.0) * math.expm1(-l)
    return [(vals[k - 1] * cl + vals[k] * cr) / den for vals in atoms]


def _wdot(lams: list[float], i: int) -> float:
    """W'(lam_i), the derivative of W(z) = prod(1 - z/lam_j) at lam_i."""
    out = -1.0 / lams[i]
    for j, lam in enumerate(lams):
        if j != i:
            out *= 1.0 - lams[i] / lam
    return out


# ------------------------------------------------------- determinant recursion

def _rows(m: PeakonMeasure) -> tuple[list[tuple[float, float, float, float]], list[float]]:
    """(rows, a) of T(z) in reversed support order, row i for atom n - i.

    rows[i] = (a_i^2, b_i, w, v) is step i + 1 of the Q recursion, and a_i =
    1/(2 sinh(g/2)) couples rows i - 1 and i across their gap g, a_0 = 0.
    b_i is the mean of coth over the atom's two half-gaps, the outermost
    half-infinite ones contributing coth(inf) = 1.
    """
    gaps = [y - x for x, y in zip(m.points, m.points[1:])]
    for g in gaps:  # in support order: the leftmost such gap is named
        if g < 1e-8:
            raise NearCollision(f"support gap {g} below 1e-8")
    try:
        a = [0.0, *(1.0 / (2.0 * math.sinh(g / 2.0)) for g in reversed(gaps))]
    except OverflowError as exc:
        raise NumericalError(f"a support gap of {max(gaps)} overflows sinh") from exc
    coth = [1.0, *(1.0 / math.tanh(g / 2.0) for g in reversed(gaps)), 1.0]
    rows = [(ai ** 2, 0.5 * (coth[i] + coth[i + 1]), w, v)
            for i, (ai, w, v) in enumerate(zip(a, reversed(m.omega), reversed(m.vee)))]
    return rows, a


_TINY = math.ulp(0.0)  # the least positive float


def _count(rows: list, z: float) -> int:
    """Negative pivots d_i of the LDL^T factorisation at z, i = 1..n.

    d_i = (b_{i-1} - w z - v z^2) - a_{i-1}^2/d_{i-1} with d_0 = 1 is the
    ratio Q_i(z)/Q_{i-1}(z), so the count equals the sign changes along
    Q_0(z), ..., Q_n(z) while no Q_i is ever formed or can overflow.  A zero
    pivot counts as non-negative and becomes the least positive float: the
    next pivot is then hugely negative, which matches skipping the exact zero
    Q_i in the sign changes, and no division is by zero.
    """
    count, d = 0, 1.0
    for a2, b, w, v in rows:
        d = (b - w * z - v * z * z) - a2 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = _TINY
    return count


def _count_slope(rows: list, z: float) -> tuple[int, float]:
    """(_count(rows, z), Q_n'(z)/Q_n(z)) in one pass over the rows.

    The pivots and the count are formed exactly as in _count.  The slope of
    log|Q_n| is the sum of d_i'/d_i, with d_i' = -(w + 2 v z) +
    a_{i-1}^2 d_{i-1}'/d_{i-1}^2 and d_0' = 0; it is carried as the ratios
    r_i = d_i'/d_i, so the only divisor is a pivot, never zero, and the pass
    cannot raise.  A slope out of float range comes back inf or nan.
    """
    count, d, r, slope = 0, 1.0, 0.0, 0.0
    for a2, b, w, v in rows:
        dd = a2 * r / d - (w + 2.0 * v * z)
        d = (b - w * z - v * z * z) - a2 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = _TINY
        r = dd / d
        slope += r
    return count, slope


def eigenvalues(
    m: PeakonMeasure, tol: Tolerances = DEFAULT, *, near=None
) -> list[float]:
    """All n + n_v eigenvalues, ascending, by Sturm-count bisection.

    Root k of each sign ladder (k-th from 0) bisects from a bracket whose
    count says it holds that root, until the bracket is two adjacent floats,
    and returns their midpoint; the counts are memoized by z for this call
    only.  Each final bracket must hold exactly one eigenvalue by the count
    itself, which catches a count that is not monotone and two eigenvalues
    between the same two floats.  Two roots whose brackets share an end
    float can both round to it, so equal midpoints raise NonConverged.  The
    count needs no tolerance; tol is accepted for a uniform signature.

    The cold bracket is [0, +-bound], with the bound doubled from 1 until
    both ladders are complete.  Every root starts from a guess g instead:
    near's (ascending guesses, say a spectrum known to within rounding), or
    else _newton's, run once the cold bisection has isolated root k.
    _warm_bracket then certifies a narrow node of that same bisection
    around g, and a guess it does not certify falls back to the cold
    bracket.  A guess therefore changes only the number of counts, not the
    result.
    """
    n_v, n_plus, n_minus = counts(m)
    rows = _rows(m)[0]
    memo: dict[float, int] = {}

    def count(z):
        if z not in memo:
            memo[z] = _count(rows, z)
        return memo[z]

    def bisect(lo, hi, k, isolate):
        """(lo, hi) bisected down to two adjacent floats, or with isolate only
        until it holds the k-th root alone; count(hi) >= k > count(lo) throughout."""
        while not (isolate and count(hi) - count(lo) == 1):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if count(mid) >= k:
                hi = mid
            else:
                lo = mid
        return lo, hi

    bound = None

    def cold(sign):
        nonlocal bound
        if bound is None:
            bound = 1.0
            while count(bound) < n_v + n_plus or count(-bound) < n_v + n_minus:
                if bound > 1e300:
                    raise NonConverged("could not bracket the spectrum")
                bound *= 2.0
        return 0.0, sign * bound

    guesses = [] if near is None else [float(g) for g in near]
    out = []
    for sign, total in ((1.0, n_v + n_plus), (-1.0, n_v + n_minus)):
        ladder = sorted((g for g in guesses if sign * g > 0.0), key=abs)
        for k in range(1, total + 1):
            if k <= len(ladder):
                g = ladder[k - 1]
            else:
                lo, hi = bisect(*cold(sign), k, True)
                g = _newton(rows, memo, k, lo, hi) if count(hi) - count(lo) == 1 else None
            warm = None if g is None else _warm_bracket(count, g, k)
            lo, hi = bisect(*(warm or cold(sign)), k, False)
            if count(hi) - count(lo) != 1:
                raise NonConverged(f"no single eigenvalue certified in [{lo}, {hi}]")
            out.append(0.5 * (lo + hi))
    out.sort()
    for x, y in zip(out, out[1:]):
        if x == y:
            raise NonConverged(f"two eigenvalues share the float {x}")
    return out


_NEWTON_STEPS = 40  # cap on _newton's steps per root
_NEWTON_ULPS = 2.0  # _newton stops on a step this many ulps long or shorter


def _newton(rows: list, memo: dict, k: int, lo: float, hi: float) -> float:
    """A guess at root k of Q_n inside (lo, hi), which holds it alone.

    Safeguarded Newton steps on log Q_n from the midpoint, each by one
    _count_slope pass: its count goes into memo and narrows the bracket,
    and a step that leaves the bracket, or a zero or non-finite slope,
    takes the bracket's midpoint instead.  Stops after a step of at most
    _NEWTON_ULPS ulps, or after _NEWTON_STEPS steps.
    """
    z = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        c, slope = _count_slope(rows, z)
        memo[z] = c
        if c >= k:
            hi = z
        else:
            lo = z
        step = 1.0 / slope if slope != 0.0 and math.isfinite(slope) else math.nan
        if abs(step) <= _NEWTON_ULPS * math.ulp(z):
            return z - step
        z -= step
        if not min(lo, hi) < z < max(lo, hi):
            z = 0.5 * (lo + hi)
            if z == lo or z == hi:  # two adjacent floats
                return z
    return z


_WARM_ULPS = 64.0      # first width of a warm bracket, in ulps of the guess
_WARM_WIDEN = 2.0**16  # factor by which a rejected warm bracket widens
_WARM_TRIES = 3


def _warm_bracket(count, g: float, k: int) -> tuple[float, float] | None:
    """(lo, hi) holding the guess g with count(lo) < k <= count(hi), or None.

    lo is the end nearer 0.  The bracket is the dyadic interval
    [j w, (j + 1) w], j >= 1, that holds |g|, or its neighbour where its
    counts put the root, with w = _WARM_ULPS ulps of g widened
    _WARM_TRIES - 1 times.  Such an interval is a node of the bisection from
    [0, +-bound], bound a power of 2, and the only node of its width that the
    count certifies unless the count is non-monotone over a width w; the
    cold bisection passes through it, so both end on the same two floats
    even where the count wobbles within a few ulps of the root.
    """
    if not math.isfinite(g):
        return None
    sign = 1.0 if g > 0.0 else -1.0
    w = _WARM_ULPS * math.ulp(g)
    for _ in range(_WARM_TRIES):
        j = math.floor(abs(g) / w)
        if count(sign * j * w) >= k:  # the root lies nearer 0 than g's node
            j -= 1
        elif count(sign * (j + 1) * w) < k:  # or beyond it
            j += 1
        if j < 1:
            return None
        lo, hi = sign * j * w, sign * (j + 1) * w
        if not math.isfinite(hi):
            return None
        if count(lo) < k <= count(hi):
            return lo, hi
        w *= _WARM_WIDEN
    return None


# ------------------------------------------------------------- spectral data

def spectral_data(m: PeakonMeasure, tol: Tolerances = DEFAULT) -> SpectralData:
    """Eigenvalues and norming constants."""
    return _spectral(m, tol)[0]


def _spectral(m: PeakonMeasure, tol: Tolerances, near=None) -> tuple[SpectralData, list]:
    """(spectral_data, [phi at the atoms for each eigenvalue]), one _eigenfunction each;
    the atom sum is taken as c_lam phi times phi, in range where phi^2 overflows."""
    lams = eigenvalues(m, tol, near=near)
    rows, a = _rows(m)
    kappas, atoms = [], []
    for i, lam in enumerate(lams):
        vals, c_lam = _eigenfunction(m, lam, rows, a)
        lhs = _wdot(lams, i)
        kappa = -lam * lhs / c_lam
        rhs = -ratfun.lsum(c_lam * p * p * (w + 2.0 * lam * v) for p, w, v in zip(vals, m.omega, m.vee))
        if not (0.0 < kappa < math.inf and math.isfinite(rhs)):
            raise ConsistencyFail(
                f"norming constant {kappa} (atom-sum W' {rhs}) for eigenvalue {lam}"
            )
        if abs(lhs - rhs) > tol.cons * max(1.0, abs(lhs), abs(rhs)):
            raise ConsistencyFail(
                f"Wronskian-derivative route disagrees at {lam}: {lhs} vs {rhs}"
            )
        kappas.append(kappa)
        atoms.append(vals)
    return SpectralData(tuple(lams), tuple(kappas)), atoms


def _resolve(m: PeakonMeasure, lams, tol: Tolerances) -> tuple[SpectralData, list]:
    """_spectral of a reconstruction m, solved from brackets around the
    eigenvalues lams it was built from, which it must reproduce in number and
    each within tol.inv: the one reproduction check of every reconstruction."""
    n_v, n_plus, n_minus = counts(m)
    size = 2 * n_v + n_plus + n_minus
    if size != len(lams):
        raise NumericalError(f"reconstruction has {size} eigenvalues, expected {len(lams)}")
    sd, atoms = _spectral(m, tol, near=lams)
    for lam, lam2 in zip(lams, sd.eigenvalues):
        if abs(lam - lam2) > tol.inv * max(1.0, abs(lam)):
            raise NumericalError(f"eigenvalue {lam} reproduced as {lam2}")
    return sd, atoms


def interior_data(m: PeakonMeasure, a: float, tol: Tolerances = DEFAULT) -> InteriorData:
    sd, atoms = _spectral(m, tol)
    return _interior(m, sd, atoms, a, tol)


def _interior(
    m: PeakonMeasure, sd: SpectralData, atoms: list, a: float, tol: Tolerances
) -> InteriorData:
    """interior_data for the spectral data sd of m and its atom values atoms (_spectral)."""
    phis = [p / math.sqrt(k) for p, k in zip(_phi_at(m, atoms, a), sd.norming)]
    return InteriorData(a, sd.eigenvalues, tuple(_snap(phis, tol)))


def _snap(phis, tol: Tolerances) -> list[float]:
    """phis with every value at most tol.phi * max|phis| in size set to 0.0.

    The one rule that decides which phi_i(a) is a node of phi_i: interior_data
    applies it to what it reads, and every interior routine to the data it
    is given.
    """
    top = max(abs(p) for p in phis)
    return [0.0 if abs(p) <= tol.phi * top else p for p in phis]


def weyl(m: PeakonMeasure, a: float, side: str, tol: Tolerances = DEFAULT) -> HerglotzRational:
    """M_plus = phi'_+/(z phi_+) on [a, inf); M_minus = -phi'_-/(z phi_-) on (-inf, a).

    Folded bottom-up from the continued fraction that measure_from_weyl
    unrolls.  With u = |x_j - a| over the atoms on that side, stage j is
    (omega_j + v_j z) cosh^2(u_j/2), and the lengths are the increments of
    2 tanh(u/2) from 0 through the atoms to 2, each written as a product so
    that no difference of tanh cancels.  Far atom first, with N(h) = -1/h:
    r = N(l_K z), then r <- N(l_{j-1} z + N(stage_j + r)) per atom, where
    a zero head length (a on an atom) leaves r <- stage_1 + r.  The result
    must reproduce the shooting quotient off the real axis.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be plus or minus, got {side!r}")
    k = bisect_left(m.points, a)
    far_first = range(m.n - 1, k - 1, -1) if side == "plus" else range(k)
    atoms = [(abs(m.points[j] - a), m.omega[j], m.vee[j]) for j in far_first]
    neg = ratfun._peel
    u = atoms[0][0] if atoms else 0.0
    try:
        gamma, zeta, poles, residues = neg(2.0 * math.exp(-u / 2.0) / math.cosh(u / 2.0), 0.0, (), ())
        for t, (u, w, v) in enumerate(atoms):
            ch = math.cosh(u / 2.0)
            gamma, zeta = gamma + v * ch * ch, zeta + w * ch * ch
            if t + 1 < len(atoms):
                un = atoms[t + 1][0]
                length = 2.0 * math.sinh((u - un) / 2.0) / (math.cosh(un / 2.0) * ch)
            else:
                length = 2.0 * math.tanh(u / 2.0)
            if length > 0.0:
                gamma, zeta, poles, residues = neg(gamma, zeta, poles, residues)
                gamma, zeta, poles, residues = neg(gamma + length, zeta, poles, residues)
    except OverflowError as exc:
        raise NumericalError(f"an atom {u} from {a} overflows cosh") from exc
    h = ratfun.herglotz(gamma, zeta, poles, residues, tol)
    sign = 1.0 if side == "plus" else -1.0
    for y in ratfun._GRID_Y:
        z = 1j * y
        phi, dphi = _shoot(m, z, a, side)
        if phi == 0.0:
            raise NumericalError(f"phi_{side} underflows at {a}")
        ref = sign * dphi / (z * phi)
        if abs(h(z) - ref) > tol.pf * max(1.0, abs(ref)):
            raise NotHerglotz(f"continued fraction does not reproduce the Weyl function at {z}")
    return h


def eigenfunction_zero_count(m: PeakonMeasure, i: int, tol: Tolerances = DEFAULT) -> int:
    """Zeros of the i-th (ascending-order index) eigenfunction on the line.

    The sign changes of phi along the atoms, from _eigenfunction's twisted
    null vector.  A zero landing on a support point is attributed to the gap
    on its left.  A genuine zero at an atom crosses, so noise of either sign
    at a near-zero sample leaves the count unchanged.
    """
    return _zero_count(_eigenfunction(m, eigenvalues(m, tol)[i], *_rows(m))[0])


def _zero_count(vals) -> int:
    """eigenfunction_zero_count from the eigenfunction's values at the atoms (_eigenfunction)."""
    count = 0
    for p, q in zip(vals, vals[1:]):
        if q == 0.0:
            count += 1
        elif p != 0.0 and (p > 0) != (q > 0):
            count += 1
    return count
