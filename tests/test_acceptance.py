"""Acceptance gate: one test per shipped guarantee.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
figure before asserting, so a plain pytest -s run reads as a checklist.
Seeds are fixed; timed criteria include their runtime in the detail.
"""

import math
import time

import numpy as np

from peakons import (
    FlowState,
    InteriorData,
    SpectralData,
    alpha_beta,
    collision_scan,
    counts,
    enumerate_solutions,
    evolve_spectral,
    feasibility,
    interior_data,
    measure_at,
    measure_from_spectral_data,
    modulus_family_count,
    solution_count,
    spectral_data,
    sup_u,
    validate,
)
from peakons.forward import _shoot, eigenfunction_zero_count

from conftest import ladder_rank, random_measure


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _check_data(d, m, tol=1e-6):
    """Max deviation of interior data regenerated from m against d, signed."""
    d2 = interior_data(m, d.a)
    if len(d2.eigenvalues) != len(d.eigenvalues):
        return math.inf
    err = max(_rel(x, y) for x, y in zip(d2.eigenvalues, d.eigenvalues))
    return max(err, max(abs(x - y) for x, y in zip(d2.phi, d.phi)))


def test_criterion_1_single_peakon_closed_forms():
    t0 = time.perf_counter()
    m = validate([(0.0, 2.0, 0.0)])
    sd = spectral_data(m)
    err_lam = abs(sd.eigenvalues[0] - 0.5)
    err_kap = abs(sd.norming[0] - 1.0)

    d = interior_data(m, 0.0)
    alpha, _ = alpha_beta(d)
    err_phi = abs(d.phi[0] - 1.0)

    fam = enumerate_solutions(InteriorData(0.0, (0.5,), (math.exp(-0.5),)))
    xs = sorted(m2.points[0] for m2 in fam)
    err_x = max(abs(xs[0] + 1.0), abs(xs[1] - 1.0)) if len(xs) == 2 else math.inf

    dt = time.perf_counter() - t0
    ok = (
        err_lam <= 1e-12
        and err_kap <= 1e-12
        and err_phi <= 1e-12
        and alpha == 0.0
        and len(fam) == 2
        and not fam.errors
        and err_x <= 1e-9
        and dt < 1.0
    )
    _report(1, ok, f"lambda {err_lam:.1e}, phi {err_phi:.1e}, x {err_x:.1e}, {dt:.2f}s")


def test_criterion_2_eigenvalue_counts_and_oscillation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = ""
    for trial in range(200):
        m = random_measure(rng, n=int(rng.integers(1, 9)))
        n_v, n_plus, n_minus = counts(m)
        lams = list(spectral_data(m).eigenvalues)
        pos = sum(1 for lam in lams if lam > 0)
        neg = sum(1 for lam in lams if lam < 0)
        if (pos, neg) != (n_v + n_plus, n_v + n_minus):
            worst = f"trial {trial}: counts {(pos, neg)} vs {(n_v + n_plus, n_v + n_minus)}"
            break
        for i in range(len(lams)):
            if eigenfunction_zero_count(m, i) != ladder_rank(lams, i) - 1:
                worst = f"trial {trial}: zeros of eigenfunction {i}"
                break
        if worst:
            break
    dt = time.perf_counter() - t0
    ok = not worst and dt < 30.0
    _report(2, ok, worst or f"200 measures, counts and zero patterns exact, {dt:.1f}s")


def test_criterion_3_spectral_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m = random_measure(rng)
        m2 = measure_from_spectral_data(spectral_data(m))
        assert m2.n == m.n
        for got, want in zip(
            m2.points + m2.omega + m2.vee, m.points + m.omega + m.vee
        ):
            worst = max(worst, _rel(got, want))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 60.0
    _report(3, ok, f"100 roundtrips, worst relative error {worst:.1e}, {dt:.1f}s")


def _draw_atoms(rng, n, straddle, v_at=None):
    """Positions with gap >= 0.2; weights in [0.4, 1.6]; optional v atom."""
    while True:
        xs = np.sort(rng.uniform(-2.0, 2.0, n))
        if n == 1 or min(np.diff(xs)) > 0.2:
            break
    ws = rng.uniform(0.4, 1.6, n)
    if straddle:
        flips = rng.random(n) < 0.5
        flips[int(rng.integers(n))] = False  # keep at least one positive
        if not flips.any():
            flips[int(rng.integers(n))] = True
        ws = np.where(flips, -ws, ws)
    vs = np.zeros(n)
    if v_at is not None:
        vs[v_at] = rng.uniform(0.4, 1.2)
    return validate(list(zip(map(float, xs), map(float, ws), map(float, vs))))


def test_criterion_4_interior_solution_counts_by_regime():
    rng = np.random.default_rng(4)
    lines = []
    failed = ""

    def run(label, n_expected_by, draws):
        nonlocal failed
        for m, a in draws:
            d = interior_data(m, a)
            N = len(d.eigenvalues)
            cnt = solution_count(d)
            mod = modulus_family_count(d)
            want_cnt, want_mod = n_expected_by(N)
            fam = enumerate_solutions(d)
            good = (
                cnt.dim == 0
                and cnt.branches == want_cnt
                and mod == want_mod
                and len(fam) == want_cnt
                and not fam.errors
                and all(_check_data(d, m2) <= 1e-6 for m2 in fam)
            )
            if not good:
                failed = (
                    f"{label}: branches {cnt.branches} (want {want_cnt}), "
                    f"moduli {mod} (want {want_mod}), {len(fam.errors)} errors"
                )
                return
        lines.append(label)

    # alpha = beta = 0: a carries v > 0
    run(
        "1 at 2^(N-2)",
        lambda N: (1, 2 ** (N - 2)),
        [
            (m, m.points[i])
            for m, i in (
                (_draw_atoms(rng, n, True, v_at=i), i)
                for n, i in [(3, 1), (4, 2), (5, 0), (6, 3), (4, 1), (5, 4)]
            )
        ],
    )
    # alpha = 0, beta != 0: a carries a plain weight; one-signed then straddling
    run(
        "1 at 2^(N-1) one-signed",
        lambda N: (1, 2 ** (N - 1)),
        [
            (m, m.points[i])
            for m, i in (
                (_draw_atoms(rng, n, False), i)
                for n, i in [(2, 0), (3, 1), (4, 3), (5, 2), (6, 0), (4, 2)]
            )
        ],
    )
    run(
        "2 at 2^(N-1) straddling",
        lambda N: (2, 2 ** (N - 1)),
        [
            (m, m.points[i])
            for m, i in (
                (_draw_atoms(rng, n, True), i)
                for n, i in [(2, 1), (3, 0), (4, 2), (5, 3), (6, 1), (5, 0)]
            )
        ],
    )
    # alpha != 0: a off the support; one-signed then straddling
    run(
        "2 at 2^N one-signed",
        lambda N: (2, 2**N),
        [
            (m, float(m.points[0] - rng.uniform(0.3, 1.0)))
            for m in (_draw_atoms(rng, n, False) for n in [1, 2, 3, 4, 5, 6])
        ],
    )
    run(
        "4 at 2^N straddling",
        lambda N: (4, 2**N),
        [
            (m, float(m.points[-1] + rng.uniform(0.3, 1.0)))
            for m in (_draw_atoms(rng, n, True) for n in [2, 3, 4, 5, 6, 4])
        ],
    )

    ok = not failed and len(lines) == 5
    _report(4, ok, failed or "; ".join(lines))


def _second_eigenfunction_zero(m):
    lam = spectral_data(m).eigenvalues[1]
    lo, hi = m.points[0], m.points[-1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _shoot(m, lam, lo, "plus")[0] * _shoot(m, lam, mid, "plus")[0] < 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_5_theta_family_one_dimensional():
    m = validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    a = _second_eigenfunction_zero(m)
    d = interior_data(m, a)
    assert d.phi[1] == 0.0  # a sits on the second eigenfunction's zero

    cnt = solution_count(d)
    fams = [enumerate_solutions(d, (theta,)) for theta in (0.3, 0.7)]
    sols = [fam[0] for fam in fams]
    spread = max(
        max(abs(x - y) for x, y in zip(s1.points + s1.omega, s2.points + s2.omega))
        for s1, s2 in [(sols[0], sols[1])]
    )
    err = max(_check_data(d, s) for s in sols)

    ok = (
        cnt.kind == "family"
        and cnt.dim == 1
        and all(len(f) == cnt.branches and not f.errors for f in fams)
        and spread > 1e-3
        and err <= 1e-6
    )
    _report(5, ok, f"dim {cnt.dim}, measures differ by {spread:.2f}, data error {err:.1e}")


def test_criterion_6_trace_formula_matches_kernel_sum():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        m = random_measure(rng)
        sd = spectral_data(m)
        for x in sorted(set(np.linspace(-12.0, 12.0, 41)) | set(m.points)):
            kern = 0.5 * sum(
                w * math.exp(-abs(x - xj)) for xj, w in zip(m.points, m.omega)
            )
            trace = 0.5 * sum(
                _shoot(m, lam, x, "plus")[0] ** 2 / (kap * lam)
                for lam, kap in zip(sd.eigenvalues, sd.norming)
            )
            worst = max(worst, abs(kern - trace))
    ok = worst <= 1e-8
    _report(6, ok, f"50 measures, max grid deviation {worst:.1e}")


def test_criterion_7_conserved_quantities_along_the_flow():
    rng = np.random.default_rng(7)
    drift = excess = momentum = 0.0
    for _ in range(20):
        m = random_measure(rng, signs="positive", with_v=False)
        fs = FlowState(spectral_data(m))
        total = sum(1.0 / lam for lam in fs.base.eigenvalues)
        bound = sup_u(fs).value
        for t in np.linspace(0.0, 10.0, 11):
            mt = measure_at(fs, t)
            back = spectral_data(mt)
            drift = max(
                drift,
                max(
                    _rel(got, want)
                    for got, want in zip(back.eigenvalues, fs.base.eigenvalues)
                ),
            )
            momentum = max(momentum, abs(sum(mt.omega) - total))
            for x in list(mt.points) + list(np.linspace(-15.0, 15.0, 31)):
                u = 0.5 * sum(
                    w * math.exp(-abs(x - xj)) for xj, w in zip(mt.points, mt.omega)
                )
                excess = max(excess, abs(u) - bound)

    # single peakon: the crest moves at exactly its own height
    fs1 = FlowState(spectral_data(validate([(0.0, 2.0, 0.0)])))
    xs = {t: measure_at(fs1, t).points[0] for t in (2.5, 3.0, 3.5)}
    height = 0.5 * measure_at(fs1, 3.0).omega[0]
    speed_err = abs((xs[3.5] - xs[2.5]) / 1.0 - height)

    ok = drift <= 1e-9 and momentum <= 1e-8 and excess <= 1e-9 and speed_err <= 1e-8
    _report(
        7,
        ok,
        f"drift {drift:.1e}, momentum {momentum:.1e}, bound excess {excess:.1e}, "
        f"speed vs height {speed_err:.1e}",
    )


def test_criterion_8_peakon_antipeakon_collision_window():
    base = SpectralData((-1.0, 1.0), (2.0 * math.exp(-0.5), 2.0 * math.exp(0.5)))
    fs = FlowState(base, t0=-1.0)
    records = collision_scan(fs, np.linspace(-1.0, 1.0, 21))
    peak = max((r.v_mass for r in records if r.v_mass is not None), default=0.0)
    ok = peak > 1e-6
    _report(8, ok, f"max scanned v-mass {peak:.3f}")


def test_criterion_9_infeasible_interior_data_rejected():
    rng = np.random.default_rng(9)
    total = hits = 0

    def expect(tag, lams, phi, exact=False):
        nonlocal total, hits
        rep = feasibility(InteriorData(0.0, tuple(lams), tuple(phi)))
        tags = {t for t, _ in rep.violations}
        good = (not rep.ok) and tag in tags and (not exact or tags == {tag})
        total += 1
        hits += good

    for _ in range(25):
        n = int(rng.integers(3, 7))
        lams = np.sort(rng.uniform(0.3, 4.0, n))
        lams += 0.1 * np.arange(n)  # keep the gaps honest
        phi = rng.uniform(0.15, 0.5, n)

        # interior zero with same-sign neighbors
        bad = phi.copy()
        bad[n - 2] = 0.0
        expect("ii", lams, bad)

        # total weight above 1
        expect("iii", lams, phi * math.sqrt(rng.uniform(1.1, 1.6) / (phi @ phi)), exact=True)

        # wrong sign next to the origin, one-signed spectrum
        bad = phi.copy()
        bad[0] = -bad[0]
        expect("iii", lams, bad, exact=True)

        # wrong sign next to the origin, straddling spectrum
        k = int(rng.integers(1, n))
        straddled = lams - 0.5 * (lams[k - 1] + lams[k])
        bad = phi.copy()
        bad[k] = -bad[k]
        expect("iii", straddled, bad, exact=True)

    ok = hits == total
    _report(9, ok, f"{hits}/{total} synthetic infeasible cases named correctly")
