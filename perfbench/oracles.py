"""Independent oracles for the benchmark's correctness checks.

The dense oracle rebuilds the generalized eigenproblem J y = z D y of the
discrete string from the gaps of the support (in ascending atom order, an
orientation the library does not use) and solves it by Cholesky reduction
and a dense symmetric eigensolver.  Nothing here calls the library.
"""

from __future__ import annotations

import math

import numpy as np

DIGITS_CAP = 17.0  # relative error floor 1e-17: beyond double precision


def dense_eigenvalues(triples) -> list[float]:
    """All n + n_v eigenvalues of the measure, ascending."""
    xs = [t[0] for t in triples]
    ws = [t[1] for t in triples]
    vs = [t[2] for t in triples]
    n = len(xs)
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    v_atoms = [j for j in range(n) if vs[j] != 0.0]
    size = n + len(v_atoms)
    J = np.zeros((size, size))
    D = np.zeros((size, size))
    for j in range(n):
        left = 1.0 if j == 0 else 1.0 / math.tanh(gaps[j - 1] / 2.0)
        right = 1.0 if j == n - 1 else 1.0 / math.tanh(gaps[j] / 2.0)
        J[j, j] = 0.5 * (left + right)
        D[j, j] = ws[j]
        if j < n - 1:
            J[j, j + 1] = J[j + 1, j] = -1.0 / (2.0 * math.sinh(gaps[j] / 2.0))
    for k, j in enumerate(v_atoms):
        J[n + k, n + k] = 1.0
        D[j, n + k] = D[n + k, j] = math.sqrt(vs[j])
    L = np.linalg.cholesky(J)
    y = np.linalg.solve(L, D)
    c = np.linalg.solve(L, y.T).T
    nu = np.linalg.eigvalsh((c + c.T) / 2.0)
    return sorted(1.0 / v for v in nu if abs(v) > 1e-300)


def ladder_ranks(lams) -> list[int]:
    """1-based rank of each eigenvalue within its sign ladder."""
    return [
        sum(1 for x in lams if 0 < x <= lam) if lam > 0
        else sum(1 for x in lams if lam <= x < 0)
        for lam in lams
    ]


def rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def seq_err(got, want) -> float:
    """Largest componentwise relative error; inf on a length mismatch."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return math.inf
    return max((rel(a, b) for a, b in zip(got, want)), default=0.0)


def measure_err(points, omega, vee, triples) -> float:
    """Relative error of a reconstructed (x, omega, v) against the original."""
    return max(
        seq_err(points, [t[0] for t in triples]),
        seq_err(omega, [t[1] for t in triples]),
        seq_err(vee, [t[2] for t in triples]),
    )


def kernel_u(points, omega, x: float) -> float:
    return 0.5 * sum(w * math.exp(-abs(x - xj)) for xj, w in zip(points, omega))


def digits(err: float) -> float:
    """Correct decimal digits: -log10 of the relative error, capped at 17."""
    if err <= 0.0:
        return DIGITS_CAP
    if not math.isfinite(err):
        return 0.0
    return max(0.0, min(DIGITS_CAP, -math.log10(err)))
