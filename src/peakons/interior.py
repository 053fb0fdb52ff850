"""Inverse problem from interior data {lambda_i, phi_i(a)} at one point.

-1/(M_plus + M_minus) = alpha z + beta + sum lam_i^2 phi_i(a)^2/(lam_i - z)
with alpha = 1 - sum phi_i(a)^2 and beta = -sum lam_i phi_i(a)^2.  The poles
of M_plus + M_minus interlace the poles of that function F, the eigenvalues
where phi does not vanish, so each pole's gap is its rank.  The pole in the
gap holding 0 is shared half/half, a pole in a gap holding an eigenvalue
where phi vanishes is shared with a free ratio, a pole between two
eigenvalues is forced to one side by the signs of phi there, and the at
most two poles beyond the ends of the spectrum admit a binary choice each.
Each choice plus each split ratio yields one measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import forward, inverse
from .config import Tolerances, DEFAULT
from .errors import (
    InfeasibleData,
    NumericalError,
    UnresolvedPole,
    ValidationError,
)
from .forward import InteriorData
from .measures import PeakonMeasure, validate
from .ratfun import HerglotzRational, herglotz, lsum, neg_reciprocal


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    alpha: float
    beta: float
    violations: tuple[tuple[str, str], ...]

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "alpha": self.alpha,
            "beta": self.beta,
            "violations": [[tag, msg] for tag, msg in self.violations],
        }


@dataclass(frozen=True)
class PoleAssignment:
    shared_zero: float  # residue of the origin pole of M_plus + M_minus
    set_A: tuple[tuple[float, float], ...]  # (pole, residue), shared with a ratio
    set_B: tuple[tuple[float, float], ...]  # poles of M_plus alone
    set_C: tuple[tuple[float, float], ...]  # poles of M_minus alone
    free_poles: tuple[tuple[float, float], ...]  # either side, binary choice

    def to_json_obj(self) -> dict:
        return {
            "shared_zero": self.shared_zero,
            "A": [list(p) for p in self.set_A],
            "B": [list(p) for p in self.set_B],
            "C": [list(p) for p in self.set_C],
            "free": [list(p) for p in self.free_poles],
        }


@dataclass(frozen=True)
class CountDescriptor:
    kind: str  # unique | finite | family
    branches: int
    dim: int

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "branches": self.branches, "dim": self.dim}


class SolutionFamily:
    """Measures per branch, in deterministic branch order.

    Iterates over the successful measures; failed branches are kept in
    .errors as (branch index, exception) pairs.
    """

    def __init__(self, measures, errors, assignment, dim):
        self.measures = list(measures)
        self.errors = list(errors)
        self.assignment = assignment
        self.dim = dim

    def __iter__(self):
        return iter(self.measures)

    def __len__(self):
        return len(self.measures)

    def __getitem__(self, i):
        return self.measures[i]


def _snap_phi(d: InteriorData, tol: Tolerances) -> list[float]:
    top = max(abs(p) for p in d.phi)
    if top == 0.0:
        return list(d.phi)
    return [0.0 if abs(p) <= tol.phi * top else p for p in d.phi]


def _alpha_beta(lams, phi, tol: Tolerances) -> tuple[float, float]:
    alpha = 1.0 - lsum(p * p for p in phi)
    beta = -lsum(lam * p * p for lam, p in zip(lams, phi))
    if abs(alpha) <= tol.ab:
        alpha = 0.0
    if abs(beta) <= tol.ab:
        beta = 0.0
    return alpha, beta


def alpha_beta(d: InteriorData, tol: Tolerances = DEFAULT) -> tuple[float, float]:
    return _alpha_beta(d.eigenvalues, d.phi, tol)


def _f_function(d: InteriorData, tol: Tolerances) -> HerglotzRational:
    phi = _snap_phi(d, tol)
    alpha, beta = alpha_beta(d, tol)
    poles, res = [], []
    for lam, p in zip(d.eigenvalues, phi):
        if p != 0.0:
            r = lam * lam * p * p
            if not math.isfinite(r):
                raise ValidationError(f"residue lambda^2 phi^2 overflows at lambda = {lam}")
            poles.append(lam)
            res.append(r)
    return herglotz(alpha, beta, poles, res, tol)


def feasibility(d: InteriorData, tol: Tolerances = DEFAULT) -> FeasibilityReport:
    phi = _snap_phi(d, tol)
    lams = list(d.eigenvalues)
    n = len(lams)
    alpha, beta = alpha_beta(d, tol)
    bad = []

    # (iii): total weight at most 1, and strictly positive phi on the
    # eigenvalue(s) adjacent to 0
    if lsum(p * p for p in phi) > 1.0 + tol.ab:
        bad.append(("iii", "sum of phi^2 exceeds 1"))
    adjacent = []
    if lams[0] > 0:
        adjacent.append(0)
    elif lams[-1] < 0:
        adjacent.append(n - 1)
    else:
        j = next(i for i in range(n - 1) if lams[i] < 0 < lams[i + 1])
        adjacent.extend([j, j + 1])
    for j in adjacent:
        if not phi[j] > 0.0:
            bad.append(("iii", f"phi at eigenvalue {lams[j]} adjacent to 0 not positive"))

    # (ii): an interior zero forces opposite signs on its neighbors
    for j in range(n):
        if phi[j] != 0.0:
            continue
        if j + 1 < n and phi[j + 1] == 0.0:
            bad.append(("ii", f"consecutive zeros at {lams[j]}, {lams[j + 1]}"))
        if 0 < j < n - 1 and phi[j - 1] * phi[j + 1] >= 0.0:
            bad.append(("ii", f"zero at {lams[j]} without a neighbor sign change"))

    # (i): every zeroed eigenvalue must be a zero of the pole-free part of -1/(M+M)
    zero_idx = [j for j in range(n) if phi[j] == 0.0]
    if zero_idx:
        gamma = 1.0 - lsum(p * p for p in phi)
        for j in zero_idx:
            z = lams[j]
            val = gamma * z + beta
            scale = max(1.0, abs(gamma * z) + abs(beta))
            ok = True
            for lam, p in zip(lams, phi):
                if p == 0.0:
                    continue
                r = lam * lam * p * p
                if lam == z:
                    ok = False
                    break
                val += r / (lam - z)
                scale += abs(r / (lam - z))
            if not ok or abs(val) > tol.g * scale:
                bad.append(("i", f"F does not vanish at zeroed eigenvalue {z}"))

    # endpoint constraints by regime
    if alpha == 0.0 and beta == 0.0:
        if phi[0] == 0.0 or phi[-1] == 0.0:
            bad.append(("ends", "extreme phi must both be nonzero when alpha=beta=0"))
    elif alpha == 0.0:
        if phi[0] == 0.0 and phi[-1] == 0.0:
            bad.append(("ends", "extreme phi cannot both vanish when alpha=0"))

    return FeasibilityReport(not bad, alpha, beta, tuple(bad))


def sum_weyl(d: InteriorData, tol: Tolerances = DEFAULT) -> HerglotzRational:
    """M_plus + M_minus in partial-fraction form."""
    return neg_reciprocal(_f_function(d, tol), tol)


def pole_split(d: InteriorData, tol: Tolerances = DEFAULT) -> PoleAssignment:
    return _pole_split(d, sum_weyl(d, tol), tol)


def _pole_split(d: InteriorData, s: HerglotzRational, tol: Tolerances) -> PoleAssignment:
    """pole_split for the Weyl sum s of d, already solved: each pole placed by its rank.

    With P the eigenvalues where phi does not vanish (the poles of F),
    s = -1/F has one pole in each gap of P, one below P[0] exactly when s
    has no slope and zeta >= 0, and one above P[-1] exactly when s has no
    slope and zeta <= 0, so the k-th pole lies in the k-th such region of
    [-inf, P, +inf]: shared if it holds 0, in A if it holds a zeroed
    eigenvalue, free if an end is infinite, else in B or C by phi's signs.
    """
    phi = _snap_phi(d, tol)
    ends = [(-math.inf, 0.0)] + [(lam, p) for lam, p in zip(d.eigenvalues, phi) if p != 0.0]
    ends.append((math.inf, 0.0))
    zeroed = [lam for lam, p in zip(d.eigenvalues, phi) if p == 0.0]
    below = s.gamma == 0.0 and s.zeta >= 0.0
    above = s.gamma == 0.0 and s.zeta <= 0.0
    regions = list(zip(ends, ends[1:]))[(0 if below else 1):len(ends) - (1 if above else 2)]
    if len(regions) != len(s.poles):
        raise UnresolvedPole(f"{len(s.poles)} Weyl-sum poles do not interlace {len(ends) - 2} of F")

    shared = None
    set_a, set_b, set_c, free = [], [], [], []
    for ((left, p_left), (right, p_right)), pole in zip(regions, zip(s.poles, s.residues)):
        if left < 0.0 < right:
            shared = pole[1]
        elif any(left < z < right for z in zeroed):
            set_a.append(pole)
        elif math.isinf(left) or math.isinf(right):
            free.append(pole)
        elif (p_left < 0.0) != (p_right < 0.0):
            set_b.append(pole)
        else:
            set_c.append(pole)
    if shared is None:
        raise UnresolvedPole("no pole of the Weyl sum in the gap holding 0")
    return PoleAssignment(shared, tuple(set_a), tuple(set_b), tuple(set_c), tuple(free))


def _normalize_splits(splits, n_a: int) -> list[float]:
    try:
        if splits is None:
            thetas = [0.5] * n_a
        elif isinstance(splits, dict):
            thetas = [float(splits.get(i, 0.5)) for i in range(n_a)]
        else:
            thetas = [float(t) for t in splits]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad split ratio: {exc}") from exc
    if len(thetas) != n_a:
        raise ValidationError(f"{len(thetas)} split ratios given for {n_a} shared poles")
    for t in thetas:
        if not 0.0 < t < 1.0:
            raise ValidationError(f"split ratio {t} outside (0, 1)")
    return thetas


def enumerate_solutions(
    d: InteriorData, splits=None, tol: Tolerances = DEFAULT
) -> SolutionFamily:
    """One measure per discrete branch, at the given split ratios.

    Branch bits follow the ascending free poles; bit 0 sends a free pole to
    M_plus, bit 1 to M_minus, so branch 0 is the all-plus choice.
    """
    s = sum_weyl(d, tol)
    asg = _pole_split(d, s, tol)
    thetas = _normalize_splits(splits, len(asg.set_A))

    plus_base = [(0.0, asg.shared_zero / 2.0)]
    minus_base = [(0.0, asg.shared_zero / 2.0)]
    plus_base += list(asg.set_B)
    minus_base += list(asg.set_C)
    for (mu, res), th in zip(asg.set_A, thetas):
        plus_base.append((mu, th * res))
        minus_base.append((mu, (1.0 - th) * res))

    measures, errors = [], []
    for branch in range(2 ** len(asg.free_poles)):
        plus = list(plus_base)
        minus = list(minus_base)
        for j, pr in enumerate(asg.free_poles):
            (minus if (branch >> j) & 1 else plus).append(pr)
        plus.sort()
        minus.sort()
        try:
            m_plus = HerglotzRational(
                s.gamma, s.zeta,
                tuple(p for p, _ in plus), tuple(r for _, r in plus),
            )
            m_minus = HerglotzRational(
                0.0, 0.0,
                tuple(p for p, _ in minus), tuple(r for _, r in minus),
            )
            hp = inverse.measure_from_weyl(m_plus, d.a, "plus", tol)
            hm = inverse.measure_from_weyl(m_minus, d.a, "minus", tol)
            m = validate(hp.triples() + hm.triples(), tol)
            _verify_interior(d, m, tol)
        except (NumericalError, ValidationError) as exc:
            errors.append((branch, exc))
            continue
        measures.append(m)
    return SolutionFamily(measures, errors, asg, len(asg.set_A))


def _verify_interior(d: InteriorData, m: PeakonMeasure, tol: Tolerances):
    sd, atoms = forward._resolve(m, d.eigenvalues, tol)
    back = forward._interior(m, sd, atoms, d.a, tol)
    for lam, p, p2 in zip(d.eigenvalues, _snap_phi(d, tol), back.phi):
        if abs(p - p2) > tol.inv * max(1.0, abs(p)):
            raise NumericalError(f"phi {p} at eigenvalue {lam} reproduced as {p2}")


def solution_count(d: InteriorData, tol: Tolerances = DEFAULT) -> CountDescriptor:
    return _describe(pole_split(d, tol))


def _describe(asg: PoleAssignment) -> CountDescriptor:
    """solution_count for the pole assignment asg, already split."""
    k = len(asg.set_A)
    branches = 2 ** len(asg.free_poles)
    if k > 0:
        kind = "family"
    elif branches == 1:
        kind = "unique"
    else:
        kind = "finite"
    return CountDescriptor(kind, branches, k)


def modulus_family_count(d: InteriorData, tol: Tolerances = DEFAULT) -> int:
    """Number of sign-choice classes when only |phi_i(a)| is known."""
    phi = _snap_phi(d, tol)
    n = len(phi)
    k = sum(1 for p in phi if p == 0.0)
    alpha, beta = _alpha_beta(d.eigenvalues, phi, tol)  # from the snapped phi
    if alpha == 0.0 and beta == 0.0:
        c = 2
    elif alpha == 0.0:
        c = 1
    else:
        c = 0
    exp = n - 2 * k - c
    if exp < 0:
        raise InfeasibleData(f"no sign class exists for N={n}, k={k}")
    return 2 ** exp
