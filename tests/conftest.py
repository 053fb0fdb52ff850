"""Shared oracles and generators for the test suite.

The dense oracle solves the generalized eigenvalue problem J y = z D y by
Cholesky reduction and a dense symmetric eigensolver, independently of the
sign-count bisection used by the library.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from peakons import build_pencil, validate
from peakons.forward import _rows


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
    for a2, b, w, v in _rows(m):
        q.append(npp.polyadd(npp.polymul([b, -w, -v], q[-1]), -a2 * prev2))
        prev2 = q[-2]
    return q


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
