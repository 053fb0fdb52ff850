"""Shared oracles and generators for the test suite.

The dense oracle solves the generalized eigenvalue problem J y = z D y by
Cholesky reduction and a dense symmetric eigensolver, independently of the
sign-count bisection used by the library.
"""

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from peakons import NonConverged, validate
from peakons.forward import _count, _rows
from peakons.measures import counts


@dataclass(frozen=True)
class Pencil:
    J: np.ndarray
    D: np.ndarray


def build_pencil(m):
    """The dense pencil (J, D) of m, reversed support order; oracle only.

    J is tridiagonal over the plain rows with a unit block per v-atom, D
    carries the omega weights and couples each v-atom's row by sqrt(v).
    """
    n = m.n
    n_v = sum(1 for v in m.vee if v != 0.0)
    rows, a = _rows(m)
    size = n + n_v
    J = np.zeros((size, size))
    D = np.zeros((size, size))
    for j in range(n):
        J[j, j] = rows[j][1]
        D[j, j] = m.omega[n - 1 - j]
    for j in range(n - 1):
        J[j, j + 1] = J[j + 1, j] = -a[j + 1]
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


def bisect_eigenvalues(m):
    """All eigenvalues by the plain Sturm-count bisection; oracle only.

    Every root bisects from the cold bracket [0, +-bound] down to two
    adjacent floats, with no guess.  forward.eigenvalues must return these
    very floats, or raise the same exception type.
    """
    n_v, n_plus, n_minus = counts(m)
    rows = _rows(m)[0]
    memo = {}

    def count(z):
        if z not in memo:
            memo[z] = _count(rows, z)
        return memo[z]

    b = 1.0
    while count(b) < n_v + n_plus or count(-b) < n_v + n_minus:
        if b > 1e300:
            raise NonConverged("could not bracket the spectrum")
        b *= 2.0
    out = []
    for sign, total in ((1.0, n_v + n_plus), (-1.0, n_v + n_minus)):
        for k in range(1, total + 1):
            lo, hi = 0.0, sign * b
            # invariant: count(hi) >= k > count(lo); the boundary is the k-th root
            while True:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                if count(mid) >= k:
                    hi = mid
                else:
                    lo = mid
            if count(hi) - count(lo) != 1:
                raise NonConverged(f"no single eigenvalue certified in [{lo}, {hi}]")
            out.append(0.5 * (lo + hi))
    out.sort()
    for x, y in zip(out, out[1:]):
        if x == y:
            raise NonConverged(f"two eigenvalues share the float {x}")
    return out


def ladder_rank(lams, i):
    """1-based rank of eigenvalue i within its sign ladder (distance from 0)."""
    lam = lams[i]
    if lam > 0:
        return sum(1 for x in lams if 0 < x <= lam)
    return sum(1 for x in lams if lam <= x < 0)


def dense_eigenvalues(m):
    """All eigenvalues via numpy on the dense pencil; oracle only."""
    p = build_pencil(m)
    L = np.linalg.cholesky(p.J)
    y = np.linalg.solve(L, p.D)
    c = np.linalg.solve(L, y.T).T
    nu = np.linalg.eigvalsh((c + c.T) / 2.0)
    return sorted(1.0 / v for v in nu)


def real_roots(c):
    """Ascending roots of the ascending coefficient array c; oracle only.

    numpy's companion-matrix solver; a complex root fails the caller's test.
    """
    roots = np.polynomial.polynomial.polyroots(c)
    assert not np.iscomplexobj(roots), f"non-real roots {roots}"
    return sorted(float(r) for r in roots)


def q_coefficients(m):
    """[Q_0, ..., Q_n] of m as ascending coefficient arrays in z; oracle only.

    Q_i = (b_{i-1} - w z - v z^2) Q_{i-1} - a_{i-1}^2 Q_{i-2}, with a_0 = 0
    and Q_{-1} = 0, over the library's recursion rows.
    """
    q, prev2 = [np.array([1.0])], 0.0
    for a2, b, w, v in _rows(m)[0]:
        q.append(npp.polyadd(npp.polymul([b, -w, -v], q[-1]), -a2 * prev2))
        prev2 = q[-2]
    return q


class MpForward:
    """The forward problem of m in mpmath at dps digits; oracle only.

    Independent of the library: phi_plus = e^{-x/2} right of the support is
    carried right to left across the atoms as A e^{x/2} + B e^{-x/2}, with
    phi' jumping by (z w + z^2 v) phi at each atom, and W(z) is its B left
    of the support.  Each eigenvalue is the root of W that findroot reaches
    from a float eigenvalue, and kappa = lam sum phi_plus^2 (omega + 2 lam v)
    over the atoms.  Skips the test when mpmath is missing.
    """

    def __init__(self, m, dps=120):
        self.mp = pytest.importorskip("mpmath")
        self.m, self.dps = m, dps
        with self.mp.workdps(dps):
            self.atoms = [(x, self.mp.exp(self.mp.mpf(x) / 2), w, v)
                          for x, w, v in zip(m.points, m.omega, m.vee)][::-1]

    def _digits(self):
        """At least dps digits, more if the caller works at more (mpmath.diff does)."""
        return self.mp.workdps(max(self.dps, self.mp.mp.dps))

    def _carry(self, z, x):
        """(A, B, phi_plus at each atom right of x, right to left) on the gap holding x."""
        A, B, vals = self.mp.mpf(0), self.mp.mpf(1), []
        for xj, e, w, v in self.atoms:
            if x >= xj:
                break
            phi, dphi = A * e + B / e, (A * e - B / e) / 2
            vals.append(phi)
            dphi += (z * w + z * z * v) * phi
            A, B = (phi + 2 * dphi) / (2 * e), e * (phi - 2 * dphi) / 2
        return A, B, vals

    def w(self, z):
        with self._digits():
            return self._carry(z, -self.mp.inf)[1]

    def phi(self, z, x):
        """phi_plus(z, x)."""
        with self._digits():
            A, B, _ = self._carry(z, x)
            e = self.mp.exp(self.mp.mpf(x) / 2)
            return A * e + B / e

    def root(self, lam):
        """The eigenvalue that findroot reaches from the float lam."""
        with self._digits():
            # W is far from unit size at large n, so its residual cannot be the stop test
            x0 = self.mp.mpf(lam)
            return self.mp.findroot(self.w, (x0, x0 * (1 + self.mp.mpf(2) ** -40)), verify=False)

    def weyl_pole(self, mu, x):
        """(pole, residue) of M_plus = phi'/(z phi) at x nearest the float pole mu.

        The pole is the zero of phi_plus(., x) that findroot reaches from mu,
        and the residue, as b in b/(pole - z), is -phi'/(z dphi/dz) there,
        with phi' on the gap right of x (phi is 0 there, so no jump counts).
        """
        with self._digits():
            x0 = self.mp.mpf(mu)
            pole = self.mp.findroot(lambda z: self.phi(z, x), (x0, x0 * (1 + self.mp.mpf(2) ** -40)),
                                    verify=False)
            A, B, _ = self._carry(pole, x)
            e = self.mp.exp(self.mp.mpf(x) / 2)
            dphi = (A * e - B / e) / 2
            return pole, -dphi / (pole * self.mp.diff(lambda z: self.phi(z, x), pole))

    def spectral(self, lams):
        """[(eigenvalue, kappa)] for the roots reached from the floats lams."""
        out = []
        for lam in lams:
            root = self.root(lam)
            with self._digits():
                vals = self._carry(root, -self.mp.inf)[2][::-1]
                kappa = root * sum(p * p * (w + 2 * root * v)
                                   for p, w, v in zip(vals, self.m.omega, self.m.vee))
            out.append((root, kappa))
        return out


def rel_err(x, ref):
    """|x - ref|/|ref| as a float, for a float x against an oracle value."""
    return float(abs(x - ref) / abs(ref))


def random_measure(rng, n=None, signs="mixed", with_v=True, span=4.0):
    """Random valid measure: min gap 0.05, weights bounded away from 0."""
    if n is None:
        n = int(rng.integers(1, 7))
    xs = np.sort(rng.uniform(-span, span, n))
    for i in range(1, n):
        if xs[i] - xs[i - 1] < 0.05:
            xs[i] = xs[i - 1] + 0.05 + rng.uniform(0.0, 0.1)
    triples = []
    for x in xs:
        v = float(rng.uniform(0.2, 1.5)) if with_v and rng.random() < 0.4 else 0.0
        w = float(rng.uniform(0.2, 2.5))
        if signs == "mixed" and rng.random() < 0.5:
            w = -w
        if v > 0.0 and rng.random() < 0.3:
            w = 0.0
        triples.append((float(x), w, v))
    return validate(triples)


def perfbench_gen():
    """perfbench/gen.py, the benchmark's seeded measure generator, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
