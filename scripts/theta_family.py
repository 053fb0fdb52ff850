"""One-parameter family of measures sharing the same interior data.

When the anchor point a sits on a zero of an eigenfunction, the data
(lambda_i, phi_i(a)) no longer pins the measure down: the vanishing
entry hides how that eigenvalue's pole splits between the two half-line
problems, and every split ratio theta in (0, 1) yields a different valid
measure with identical data.  This script places a at the zero of the
second eigenfunction of a two-peakon measure and sweeps theta.

Usage: python scripts/theta_family.py [--thetas 0.1 0.3 0.5 0.7 0.9]
"""

import argparse
import sys

from peakons import (
    enumerate_solutions,
    interior_data,
    solution_count,
    spectral_data,
    validate,
)
from peakons.forward import _eigenfunction, _phi_at, _rows


def second_zero(m):
    """Bisect the sign change of the second eigenfunction inside the support."""
    lam = spectral_data(m).eigenvalues[1]
    atoms = [_eigenfunction(m, lam, *_rows(m))[0]]  # phi at the atoms; _phi_at reads it anywhere
    lo, hi = m.points[0], m.points[-1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _phi_at(m, atoms, lo)[0] * _phi_at(m, atoms, mid)[0] <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def data_error(d, m):
    d2 = interior_data(m, d.a)
    err = max(abs(x - y) for x, y in zip(d2.eigenvalues, d.eigenvalues))
    return max(err, max(abs(x - y) for x, y in zip(d2.phi, d.phi)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--thetas", type=float, nargs="+", default=[0.1, 0.3, 0.5, 0.7, 0.9]
    )
    args = ap.parse_args(argv)

    m = validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    a = second_zero(m)
    d = interior_data(m, a)
    cnt = solution_count(d)
    print(f"anchor a = {a:.12f}")
    lam_s = ", ".join(f"{lam:.6f}" for lam in d.eigenvalues)
    phi_s = ", ".join(f"{p:.6f}" for p in d.phi)
    print(f"data: lambda = ({lam_s}), phi = ({phi_s})")
    print(f"count: kind={cnt.kind} branches={cnt.branches} dim={cnt.dim}\n")

    print(f"{'theta':>6} {'x1':>12} {'x2':>12} {'w1':>10} {'w2':>10} {'data err':>10}")
    for theta in args.thetas:
        fam = enumerate_solutions(d, (theta,))
        for sol in fam:
            print(
                f"{theta:6.2f} {sol.points[0]:12.6f} {sol.points[1]:12.6f} "
                f"{sol.omega[0]:10.6f} {sol.omega[1]:10.6f} {data_error(d, sol):10.1e}"
            )
    print("\nevery row reproduces the same interior data; the measures differ.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
