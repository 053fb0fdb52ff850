"""A frozen copy of evolution.solution_at as it stood with its sums in lsum.

The reference for tests/test_evolution.py: the library's solution_at must
return the same floats, bit for bit, and raise TraceMismatch with the same
message where this does.  Here the kernel sum and the trace sum are each
reduce(add, generator, 0), and _phi_at reads m.n per point.  Do not edit it
to follow the library.
"""

import math
from bisect import bisect_left
from functools import reduce
from operator import add

from peakons.errors import TraceMismatch
from peakons.evolution import _reconstruction


def lsum(values):
    return reduce(add, values, 0)


def kernel_u(m, x):
    return 0.5 * lsum(w * math.exp(-abs(x - xj)) for xj, w in zip(m.points, m.omega))


def phi_at(m, atoms, x):
    pts = m.points
    k = bisect_left(pts, x)
    if k < m.n and pts[k] == x:
        return [vals[k] for vals in atoms]
    if k == 0 or k == m.n:
        end = 0 if k == 0 else -1
        e = math.exp(-abs(x - pts[end]) / 2.0)
        return [vals[end] * e for vals in atoms]
    l, r = x - pts[k - 1], pts[k] - x
    den = math.expm1(pts[k - 1] - pts[k])
    cl, cr = math.exp(-l / 2.0) * math.expm1(-r), math.exp(-r / 2.0) * math.expm1(-l)
    return [(vals[k - 1] * cl + vals[k] * cr) / den for vals in atoms]


def solution_at(fs, t, xs, tol):
    m, atoms, ws = _reconstruction(fs, t, tol)
    us = []
    for x in xs:
        u = kernel_u(m, x)
        trace = 0.5 * lsum(p * p / w for p, w in zip(phi_at(m, atoms, x), ws))
        if abs(u - trace) > tol.trace * max(1.0, abs(u)):
            raise TraceMismatch(f"u routes disagree at x={x}, t={t}: {u} vs {trace}")
        us.append(u)
    return us, m
