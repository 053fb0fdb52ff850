"""Seeded input generator for the benchmark.

Measures have about unit spacing (support points at the integers, centred
on 0, each moved by a uniform jitter of +-0.1), about 40% of the atoms
carry a quadratic weight v, and the linear weights have mixed signs.  The
generator is written here, not imported from the test suite, so that the
benchmark's inputs stay fixed when the tests change.
"""

from __future__ import annotations

import numpy as np

DESCRIPTION = (
    "x_i = i - (n-1)/2 + U(-0.1, 0.1); v_i = U(0.2, 1.5) with prob. 0.4 else 0; "
    "omega_i = +-U(0.2, 2.5) with a fair sign; numpy default_rng(seed)"
)


def measure_triples(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """(x, omega, v) triples of one measure with n atoms, ascending in x."""
    xs = np.arange(n) - (n - 1) / 2.0 + rng.uniform(-0.1, 0.1, n)
    out = []
    for x in xs:
        v = float(rng.uniform(0.2, 1.5)) if rng.random() < 0.4 else 0.0
        w = float(rng.uniform(0.2, 2.5))
        if rng.random() < 0.5:
            w = -w
        out.append((float(x), w, v))
    return out


def sub_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent stream for one input, keyed by the workload seed and tags."""
    return np.random.default_rng([seed, *tags])
