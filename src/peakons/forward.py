"""Forward spectral solver for the discrete string pencil.

The spectral problem -f'' + f/4 = z*omega*f + z^2*v*f is solved on the
gaps by f = A e^{x/2} + B e^{-x/2}; at an atom f is continuous and the
left derivative jumps by (z w_i + z^2 v_i) f(x_i).  All derivative values
are left-continuous.  phi_plus decays like e^{-x/2} at +inf, phi_minus
like e^{x/2} at -inf; their Wronskian W(z) is a polynomial whose zeros
are the eigenvalues.

Every shooting solution comes from one gap-transfer walk, _shoot:

- the side picks the direction: "plus" walks right to left from beyond
  the support and includes the jump at x, "minus" walks left to right and
  crosses only the atoms strictly below x; the side fixes the seed, the
  sign of sinh on the gaps and the sign of the jump;
- an optional record list receives phi at each crossed atom, before its
  jump (the one-pass sweeps over the support);
- z is a number (plain float arithmetic) or None, which yields
  coefficient arrays in z (polyadd/polymul arithmetic).

The determinant recursion Q_0..Q_n has one body, _q_recursion, with the
same number / coefficient-array switch.  Coefficient arrays stay unpadded:
padding them to one length makes np.convolve sum in another order, which
moves Q and the eigenvalues in the last bit.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from . import ratfun
from .config import Tolerances, DEFAULT
from .errors import ConsistencyFail, NearCollision, NonConverged, ValidationError
from .measures import PeakonMeasure, counts
from .ratfun import HerglotzRational, pf_decompose


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
        for a, b in zip(self.eigenvalues, self.eigenvalues[1:]):
            if not b > a:
                raise ValidationError("eigenvalues must be strictly increasing")
        if any(lam == 0.0 for lam in self.eigenvalues):
            raise ValidationError("0 is never an eigenvalue")
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
        if len(self.eigenvalues) != len(self.phi) or not self.eigenvalues:
            raise ValidationError("eigenvalue and phi lengths differ or empty")
        for a, b in zip(self.eigenvalues, self.eigenvalues[1:]):
            if not b > a:
                raise ValidationError("eigenvalues must be strictly increasing")
        if any(lam == 0.0 for lam in self.eigenvalues):
            raise ValidationError("0 is never an eigenvalue")


@dataclass(frozen=True)
class ShootingState:
    value: float
    left_derivative: float
    A: float  # e^{x/2} coefficient on the gap left of x
    B: float  # e^{-x/2} coefficient on the gap left of x


@dataclass(frozen=True)
class Pencil:
    J: np.ndarray
    D: np.ndarray


# ------------------------------------------------------------------- shooting

def _shoot(m: PeakonMeasure, z: float | None, x: float, side: str, record: list | None = None):
    """(phi, phi') of phi_side at x, phi' left-continuous; see the module doc.

    With a record list, record[j] = phi(x_j) for every crossed atom j.
    """
    # sgn is the sign of sinh on the gaps; the jump enters with -sgn
    k = bisect_left(m.points, x)  # atoms k.. lie at or above x
    if side == "plus":
        sgn, cur, crossed = -1.0, max(m.points[-1], x) + 1.0, range(m.n - 1, k - 1, -1)
    else:
        sgn, cur, crossed = 1.0, min(m.points[0], x) - 1.0, range(k)
    if z is None:  # polyadd pads unequal degrees
        add, mul, phi = npp.polyadd, npp.polymul, np.array([math.exp(sgn * cur / 2.0)])
    else:
        add, mul, phi = operator.add, operator.mul, math.exp(sgn * cur / 2.0)
    dphi = sgn * 0.5 * phi
    for j in (*crossed, None):  # None: the last gap, up to x
        xi = x if j is None else m.points[j]
        h = sgn * (xi - cur) / 2.0  # half the gap length
        c, s = math.cosh(h), sgn * math.sinh(h)
        phi, dphi = add(phi * c, 2.0 * dphi * s), add(dphi * c, 0.5 * phi * s)
        if j is None:
            return phi, dphi
        if record is not None:
            record[j] = phi
        w, v = m.omega[j], m.vee[j]
        jump = [0.0, w, v] if z is None else z * w + z * z * v
        dphi = add(dphi, -sgn * mul(jump, phi))
        cur = xi


def _state(x: float, phi: float, dphi: float) -> ShootingState:
    A = 0.5 * math.exp(-x / 2.0) * (phi + 2.0 * dphi)
    B = 0.5 * math.exp(x / 2.0) * (phi - 2.0 * dphi)
    return ShootingState(phi, dphi, A, B)


def shoot_plus(m: PeakonMeasure, z: float, x: float) -> ShootingState:
    """phi_plus and its left derivative at x; the jump at x itself is included."""
    return _state(x, *_shoot(m, z, x, "plus"))


def shoot_minus(m: PeakonMeasure, z: float, x: float) -> ShootingState:
    """phi_minus and its left derivative at x; atoms strictly below x are crossed."""
    return _state(x, *_shoot(m, z, x, "minus"))


def _sweep(m: PeakonMeasure, z: float, side: str) -> list[float]:
    """phi_side(z, x_j) for every support point, one pass."""
    vals = [0.0] * m.n
    _shoot(m, z, m.points[0] if side == "plus" else m.points[-1] + 1.0, side, vals)
    return vals


def wronskian_poly(m: PeakonMeasure) -> np.ndarray:
    """W(z) coefficients: the e^{-x/2} coefficient of phi_plus left of x_1."""
    x1 = m.points[0]
    phi, dphi = _shoot(m, None, x1, "plus")
    return ratfun.trim(0.5 * math.exp(x1 / 2.0) * npp.polysub(phi, 2.0 * dphi), 1e-14)


def wronskian_at(m: PeakonMeasure, z: float, x: float) -> float:
    p = shoot_plus(m, z, x)
    q = shoot_minus(m, z, x)
    return p.value * q.left_derivative - p.left_derivative * q.value


# ------------------------------------------------------- determinant recursion

def _gaps(m: PeakonMeasure) -> list[float]:
    return [b - a for a, b in zip(m.points, m.points[1:])]


def _coefficients(m: PeakonMeasure) -> tuple[list[float], list[float]]:
    """(a_1..a_{n-1}, b_0..b_{n-1}) of the reversed-order tridiagonal block."""
    n = m.n
    gaps = _gaps(m)
    for g in gaps:
        if g < 1e-8:
            raise NearCollision(f"support gap {g} below 1e-8")
    # a_i couples atoms n-i+1 and n-i; b_i sums the coth of both adjacent half-gaps,
    # with the outermost half-infinite gaps contributing coth(inf) = 1
    a = [1.0 / (2.0 * math.sinh(gaps[n - 1 - i] / 2.0)) for i in range(1, n)]
    b = []
    for i in range(n):
        right = 1.0 if n - i == n else 1.0 / math.tanh(gaps[n - 1 - i] / 2.0)
        left = 1.0 if n - i == 1 else 1.0 / math.tanh(gaps[n - 2 - i] / 2.0)
        b.append(0.5 * (right + left))
    return a, b


def build_pencil(m: PeakonMeasure) -> Pencil:
    n = m.n
    n_v = sum(1 for v in m.vee if v != 0.0)
    a, b = _coefficients(m)
    size = n + n_v
    J = np.zeros((size, size))
    D = np.zeros((size, size))
    for j in range(n):
        J[j, j] = b[j]
        D[j, j] = m.omega[n - 1 - j]
    for j in range(n - 1):
        J[j, j + 1] = J[j + 1, j] = -a[j]
    k = 0
    for j in range(n):
        vj = m.vee[n - 1 - j]
        if vj != 0.0:
            J[n + k, n + k] = 1.0
            D[j, n + k] = D[n + k, j] = math.sqrt(vj)
            k += 1
    try:
        np.linalg.cholesky(J)
    except np.linalg.LinAlgError as exc:
        raise NonConverged("pencil J block is not positive definite") from exc
    return Pencil(J, D)


def _q_recursion(m: PeakonMeasure, z: float | None) -> list:
    """[Q_0, ..., Q_n] at the number z, or as coefficient arrays for z=None."""
    a, b = _coefficients(m)
    if z is None:
        add, mul, prev1 = npp.polyadd, npp.polymul, np.array([1.0])
    else:
        add, mul, prev1 = operator.add, operator.mul, 1.0
    q, prev2 = [prev1], 0.0
    # Q_i = (b_{i-1} - w z - v z^2) Q_{i-1} - a_{i-1}^2 Q_{i-2}, with a_0 = 0, Q_{-1} = 0
    for ai, bi, w, v in zip((0.0, *a), b, reversed(m.omega), reversed(m.vee)):
        factor = [bi, -w, -v] if z is None else bi - w * z - v * z * z
        cur = add(mul(factor, prev1), -(ai ** 2) * prev2)
        q.append(cur)
        prev2, prev1 = prev1, cur
    return q


def q_values(m: PeakonMeasure, z: float) -> list[float]:
    """[Q_0(z), ..., Q_n(z)] by the three-term recursion."""
    return _q_recursion(m, z)


def sign_changes(m: PeakonMeasure, z: float) -> int:
    """S_n(z): eigenvalues strictly between 0 and z (either sign of z)."""
    q = q_values(m, z)
    count = 0
    last = 1.0  # Q_0 = 1
    for val in q[1:]:
        if val == 0.0:
            continue
        if (val > 0) != (last > 0):
            count += 1
        last = val
    return count


def eigenvalues(m: PeakonMeasure, tol: Tolerances = DEFAULT) -> list[float]:
    """All n + n_v eigenvalues by Sturm-count bisection plus Newton polish."""
    n_v, n_plus, n_minus = counts(m)
    qn = _q_recursion(m, None)[-1]
    dqn = npp.polyder(qn)
    bound = ratfun._cauchy_bound(ratfun.trim(qn, 1e-14))
    for _ in range(60):
        if sign_changes(m, bound) >= n_v + n_plus and sign_changes(m, -bound) >= n_v + n_minus:
            break
        bound *= 2.0
    else:
        raise NonConverged("could not bracket the spectrum")

    def polish(x, lo, hi):
        for _ in range(60):
            f = ratfun.polyval(qn, x)
            df = ratfun.polyval(dqn, x)
            if df == 0.0:
                break
            step = f / df
            if not (lo <= x - step <= hi):
                break
            x -= step
            if abs(step) <= 1e-16 * max(1.0, abs(x)):
                break
        return x

    out = []
    for sign, total in ((1.0, n_v + n_plus), (-1.0, n_v + n_minus)):
        for k in range(1, total + 1):
            lo, hi = 0.0, sign * bound
            # invariant: count(hi) >= k > count(lo); the boundary is the k-th root
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                if sign_changes(m, mid) >= k:
                    hi = mid
                else:
                    lo = mid
            lam = polish(0.5 * (lo + hi), min(lo, hi), max(lo, hi))
            out.append(lam)
    out.sort()
    for lam in out:
        if abs(ratfun.polyval(qn, lam)) > 1e4 * tol.root * max(
            1.0, ratfun.eval_scale(qn, lam)
        ):
            raise NonConverged(f"eigenvalue {lam} residual too large")
    return out


# ------------------------------------------------------------- spectral data

def _norming(m: PeakonMeasure, lam: float, vals: list[float]) -> float:
    g2 = sum(p * p * w for p, w in zip(vals, m.omega))
    g2 += 2.0 * lam * sum(p * p * v for p, v in zip(vals, m.vee))
    return lam * g2


def spectral_data(m: PeakonMeasure, tol: Tolerances = DEFAULT) -> SpectralData:
    lams = eigenvalues(m, tol)
    wpoly = wronskian_poly(m)
    dw = npp.polyder(wpoly)
    kappas = []
    for lam in lams:
        plus = _sweep(m, lam, "plus")
        kappa = _norming(m, lam, plus)
        if kappa <= 0.0:
            raise ConsistencyFail(f"norming constant {kappa} for eigenvalue {lam}")
        minus = _sweep(m, lam, "minus")
        j = max(range(m.n), key=lambda i: abs(plus[i]))
        c_lam = minus[j] / plus[j]
        lhs = ratfun.polyval(dw, lam)
        rhs = -c_lam * (kappa / lam)
        if abs(lhs - rhs) > tol.cons * max(1.0, abs(lhs), abs(rhs)):
            raise ConsistencyFail(
                f"Wronskian-derivative route disagrees at {lam}: {lhs} vs {rhs}"
            )
        kappas.append(kappa)
    return SpectralData(tuple(lams), tuple(kappas))


def interior_data(m: PeakonMeasure, a: float, tol: Tolerances = DEFAULT) -> InteriorData:
    sd = spectral_data(m, tol)
    phis = [
        shoot_plus(m, lam, a).value / math.sqrt(k)
        for lam, k in zip(sd.eigenvalues, sd.norming)
    ]
    top = max(abs(p) for p in phis)
    phis = [0.0 if abs(p) <= tol.phi * top else p for p in phis]
    return InteriorData(a, sd.eigenvalues, tuple(phis))


def weyl(m: PeakonMeasure, a: float, side: str, tol: Tolerances = DEFAULT) -> HerglotzRational:
    """M_plus = phi'_+/(z phi_+) on [a, inf); M_minus = -phi'_-/(z phi_-) on (-inf, a)."""
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be plus or minus, got {side!r}")
    phi, dphi = _shoot(m, None, a, side)
    sign = 1.0 if side == "plus" else -1.0
    return pf_decompose(sign * dphi, npp.polymul([0.0, 1.0], phi), tol)


def eigenfunction_zero_count(m: PeakonMeasure, i: int, tol: Tolerances = DEFAULT) -> int:
    """Zeros of the i-th (ascending-order index) eigenfunction on the line.

    A zero landing on a support point is attributed to the gap on its left.
    A one-sided shooting solution loses sign accuracy past the peak (the
    signal decays there while rounding rides the growing mode), so the two
    sweeps are merged at the largest sample: minus-side values left of the
    peak, plus-side values from the peak on, signs aligned at the peak.  A
    genuine zero at an atom crosses, so noise of either sign at a near-zero
    sample leaves the count unchanged.
    """
    lam = eigenvalues(m, tol)[i]
    plus = _sweep(m, lam, "plus")
    minus = _sweep(m, lam, "minus")
    top = max(range(m.n), key=lambda k: abs(plus[k]))
    s = 1.0 if plus[top] * minus[top] > 0 else -1.0
    vals = [s * p for p in minus[:top]] + plus[top:]
    count = 0
    for j in range(m.n - 1):
        if vals[j + 1] == 0.0:
            count += 1
        elif vals[j] != 0.0 and (vals[j] > 0) != (vals[j + 1] > 0):
            count += 1
    return count


def ladder_rank(lams: list[float], i: int) -> int:
    """1-based rank of eigenvalue i within its sign ladder (distance from 0)."""
    lam = lams[i]
    if lam > 0:
        return sum(1 for x in lams if 0 < x <= lam)
    return sum(1 for x in lams if lam <= x < 0)
