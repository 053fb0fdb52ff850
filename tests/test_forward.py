import math

import numpy as np
import pytest

from conftest import dense_eigenvalues, random_measure
from peakons import (
    NearCollision,
    build_pencil,
    counts,
    eigenfunction_zero_count,
    eigenvalues,
    interior_data,
    q_values,
    shoot_minus,
    shoot_plus,
    sign_changes,
    spectral_data,
    validate,
    weyl,
    wronskian_at,
    wronskian_poly,
)
from peakons.forward import ladder_rank, _q_recursion, _sweep
from peakons.ratfun import poly_real_roots, polyval


# ---------------------------------------------------------------- pencil

def test_pencil_single_omega():
    m = validate([(3.0, 2.0, 0.0)])
    p = build_pencil(m)
    assert p.J.shape == (1, 1) and p.J[0, 0] == pytest.approx(1.0)
    assert p.D[0, 0] == pytest.approx(2.0)


def test_pencil_single_v_eigenvalues():
    m = validate([(0.0, 0.0, 1.0)])
    p = build_pencil(m)
    assert p.J.shape == (2, 2)
    assert dense_eigenvalues(m) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_pencil_coefficients():
    m = validate([(0.0, 1.0, 0.0), (1.0, 3.0, 0.0)])
    p = build_pencil(m)
    a1 = 1.0 / (2.0 * math.sinh(0.5))
    b = 0.5 * (1.0 + 1.0 / math.tanh(0.5))
    assert p.J[0, 0] == pytest.approx(b)
    assert p.J[1, 1] == pytest.approx(b)
    assert p.J[0, 1] == pytest.approx(-a1)
    # D block carries the weights in reversed support order
    assert p.D[0, 0] == pytest.approx(3.0)
    assert p.D[1, 1] == pytest.approx(1.0)


def test_near_collision_guard():
    m = validate([(0.0, 1.0, 0.0), (1e-9, 1.0, 0.0)], tol=None or __import__("peakons").Tolerances(pos=1e-12))
    with pytest.raises(NearCollision):
        build_pencil(m)


# ------------------------------------------------------------- recursion

def test_q_at_zero_positive(rng):
    for _ in range(20):
        m = random_measure(rng)
        q = q_values(m, 0.0)
        assert q[0] == 1.0
        assert all(v > 0 for v in q)


def test_q1_vanishes_at_eigenvalue():
    m = validate([(0.0, 2.0, 0.0)])
    assert q_values(m, 0.5)[-1] == pytest.approx(0.0, abs=1e-14)


def test_q_matches_wronskian_scaling(rng):
    for _ in range(10):
        m = random_measure(rng, n=4)
        a, _b = __import__("peakons.forward", fromlist=["x"])._coefficients(m)
        scale = math.exp((m.points[-1] - m.points[0]) / 2.0) * math.prod(a)
        for _ in range(20):
            z = float(rng.uniform(-3.0, 3.0))
            qn = q_values(m, z)[-1]
            w = wronskian_at(m, z, float(m.points[0] - 0.5))
            assert qn == pytest.approx(scale * w, rel=1e-9, abs=1e-9)


def test_q_phi_identity(rng):
    # Q_i(z) = e^{x_n/2} (a_1...a_i) phi_plus(z, x_{n-i}) for i < n
    for _ in range(5):
        m = random_measure(rng, n=4)
        a, _b = __import__("peakons.forward", fromlist=["x"])._coefficients(m)
        z = float(rng.uniform(-2.0, 2.0))
        q = q_values(m, z)
        vals = _sweep(m, z, "plus")
        pref = math.exp(m.points[-1] / 2.0)
        for i in range(1, m.n):
            pref_i = pref * math.prod(a[:i])
            assert q[i] == pytest.approx(pref_i * vals[m.n - 1 - i], rel=1e-9, abs=1e-12)
        # both one-pass sweeps record exactly the shooting values at the atoms
        minus = _sweep(m, z, "minus")
        for j, xj in enumerate(m.points):
            assert vals[j] == shoot_plus(m, z, xj).value
            assert minus[j] == shoot_minus(m, z, xj).value


# ----------------------------------------------------------- eigenvalues

def test_sign_change_counts(rng):
    for _ in range(25):
        m = random_measure(rng)
        oracle = dense_eigenvalues(m)
        pos = sorted(v for v in oracle if v > 0)
        if not pos:
            continue
        assert sign_changes(m, 0.5 * pos[0]) == 0
        assert sign_changes(m, pos[-1] * 1.5) == len(pos)
        if len(pos) >= 2:
            mid = 0.5 * (pos[0] + pos[1])
            assert sign_changes(m, mid) == 1


def test_eigenvalues_match_dense_oracle(rng):
    for _ in range(40):
        m = random_measure(rng)
        mine = eigenvalues(m)
        oracle = dense_eigenvalues(m)
        assert len(mine) == len(oracle)
        for x, y in zip(mine, oracle):
            assert x == pytest.approx(y, rel=1e-9, abs=1e-11)


def test_eigenvalue_count_by_signs(rng):
    for _ in range(30):
        m = random_measure(rng)
        n_v, n_plus, n_minus = counts(m)
        lams = eigenvalues(m)
        assert sum(1 for v in lams if v > 0) == n_v + n_plus
        assert sum(1 for v in lams if v < 0) == n_v + n_minus


def test_interlacing_and_no_common_roots(rng):
    for _ in range(10):
        m = random_measure(rng, n=3)
        polys = _q_recursion(m, None)
        prev_roots = [0.0]
        for i in range(1, m.n + 1):
            roots = poly_real_roots(polys[i], assume_real_simple=True)
            both = sorted(prev_roots + roots)
            # strict interlacing of z*Q_{i-1} and Q_i root sets
            for r in roots:
                assert all(abs(r - p) > 1e-9 for p in prev_roots)
            merged = sorted([(r, 0) for r in prev_roots] + [(r, 1) for r in roots])
            kinds = [k for _, k in merged]
            assert all(x != y for x, y in zip(kinds, kinds[1:]))
            prev_roots = [0.0] + roots


# -------------------------------------------------------------- shooting

def test_shoot_seed_above_support():
    m = validate([(0.0, 1.0, 0.0)])
    s = shoot_plus(m, 0.0, 1.0)
    assert s.value == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert s.left_derivative == pytest.approx(-0.5 * math.exp(-0.5), rel=1e-14)


def test_single_peakon_eigenfunction_left_tail():
    m = validate([(0.0, 2.0, 0.0)])
    s = shoot_plus(m, 0.5, -3.0)
    assert s.value == pytest.approx(math.exp(-1.5), rel=1e-12)
    assert s.left_derivative == pytest.approx(0.5 * math.exp(-1.5), rel=1e-12)
    assert s.B == pytest.approx(0.0, abs=1e-14)  # W vanishes at the eigenvalue


def test_w_at_zero_is_one(rng):
    for _ in range(10):
        m = random_measure(rng)
        s = shoot_plus(m, 0.0, float(m.points[0]))
        assert s.B == pytest.approx(1.0, rel=1e-12)
        w = wronskian_poly(m)
        assert w[0] == pytest.approx(1.0, rel=1e-12)


def test_shoot_minus_seed():
    m = validate([(0.0, 1.0, 0.0)])
    x = -1.0
    s = shoot_minus(m, 0.0, x)
    assert s.value == pytest.approx(math.exp(x / 2.0), rel=1e-14)
    assert s.left_derivative == pytest.approx(0.5 * math.exp(x / 2.0), rel=1e-14)


def test_wronskian_sides_and_x_independence(rng):
    for _ in range(50):
        m = random_measure(rng, n=int(rng.integers(1, 5)))
        z = float(rng.uniform(-3.0, 3.0))
        ref = polyval(wronskian_poly(m), z)
        for x in np.linspace(m.points[0] - 1.0, m.points[-1] + 1.0, 5):
            assert wronskian_at(m, z, float(x)) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_single_peakon_c_lambda():
    m = validate([(1.0, 2.0, 0.0)])
    s_plus = shoot_plus(m, 0.5, 1.0)
    s_minus = shoot_minus(m, 0.5, 1.0)
    assert s_minus.value / s_plus.value == pytest.approx(math.exp(1.0), rel=1e-12)


# ---------------------------------------------------------- spectral data

def test_single_peakon_spectral_closed_form():
    sd = spectral_data(validate([(0.0, 2.0, 0.0)]))
    assert sd.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
    assert sd.norming[0] == pytest.approx(1.0, rel=1e-12)
    sd1 = spectral_data(validate([(1.0, 2.0, 0.0)]))
    assert sd1.norming[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_norming_always_positive(rng):
    for _ in range(20):
        sd = spectral_data(random_measure(rng))
        assert all(k > 0 for k in sd.norming)


# ---------------------------------------------------------- interior data

def test_interior_single_peakon_cases():
    m = validate([(0.0, 2.0, 0.0)])
    d0 = interior_data(m, 0.0)
    assert d0.phi[0] == pytest.approx(1.0, rel=1e-12)
    d1 = interior_data(m, -1.0)
    assert d1.phi[0] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_interior_sum_bound(rng):
    for _ in range(20):
        m = random_measure(rng)
        a = float(rng.uniform(m.points[0] - 1.0, m.points[-1] + 1.0))
        d = interior_data(m, a)
        assert sum(p * p for p in d.phi) <= 1.0 + 1e-9


def test_sign_flip_around_zero_of_second_eigenfunction(rng):
    for _ in range(10):
        m = random_measure(rng, n=3, signs="positive", with_v=False)
        lams = eigenvalues(m)
        if len(lams) < 3:
            continue
        lam2 = lams[1]
        lo, hi = m.points[0], m.points[-1]
        flo = shoot_plus(m, lam2, lo).value
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = shoot_plus(m, lam2, mid).value
            if fm == 0.0:
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        a = 0.5 * (lo + hi)
        d = interior_data(m, a)
        assert d.phi[1] == 0.0
        assert d.phi[0] * d.phi[2] < 0


# ------------------------------------------------------------------ weyl

def test_weyl_minus_free():
    m = validate([(0.0, 2.0, 0.0)])
    h = weyl(m, -1.0, "minus")
    assert h.poles == (0.0,) and h.residues[0] == pytest.approx(0.5, abs=1e-12)
    assert h.gamma == 0.0 and abs(h.zeta) < 1e-12


def test_weyl_residue_at_zero(rng):
    for _ in range(15):
        m = random_measure(rng)
        a = float(rng.uniform(m.points[0] - 1.0, m.points[-1] + 1.0))
        for side in ("plus", "minus"):
            h = weyl(m, a, side)
            i0 = min(range(len(h.poles)), key=lambda i: abs(h.poles[i]))
            assert h.poles[i0] == pytest.approx(0.0, abs=1e-10)
            assert h.residues[i0] == pytest.approx(0.5, rel=1e-9)


def test_weyl_at_support_point():
    m = validate([(0.0, 2.0, 0.0)])
    h = weyl(m, 0.0, "plus")  # omega_1 - 1/(2z)
    assert h.gamma == pytest.approx(0.0, abs=1e-12)
    assert h.zeta == pytest.approx(2.0, rel=1e-12)
    assert h.poles == (0.0,) and h.residues[0] == pytest.approx(0.5, abs=1e-12)


def test_weyl_sum_identity(rng):
    # -1/(M+ + M-) = alpha z + beta + sum lam^2 phi^2/(lam - z)
    for _ in range(10):
        m = random_measure(rng, n=int(rng.integers(1, 4)))
        a = float(rng.uniform(m.points[0] - 0.5, m.points[-1] + 0.5))
        hp = weyl(m, a, "plus")
        hm = weyl(m, a, "minus")
        d = interior_data(m, a)
        alpha = 1.0 - sum(p * p for p in d.phi)
        beta = -sum(lam * p * p for lam, p in zip(d.eigenvalues, d.phi))
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 5.0))
            lhs = -1.0 / (hp(z) + hm(z))
            rhs = alpha * z + beta + sum(
                lam * lam * p * p / (lam - z)
                for lam, p in zip(d.eigenvalues, d.phi)
            )
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


# ------------------------------------------------------------ zero counts

def test_zero_counts_simple_cases():
    assert eigenfunction_zero_count(validate([(0.0, 2.0, 0.0)]), 0) == 0
    m = validate([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)])
    lams = eigenvalues(m)
    assert len(lams) == 4
    # second eigenvalue of the positive ladder has one zero
    i = next(i for i, v in enumerate(lams) if v > 0) + 1
    assert eigenfunction_zero_count(m, i) == 1


def test_extreme_eigenfunctions_positive(rng):
    for _ in range(10):
        m = random_measure(rng)
        lams = eigenvalues(m)
        extremes = [i for i, v in enumerate(lams) if ladder_rank(lams, i) == 1]
        for i in extremes:
            vals = _sweep(m, lams[i], "plus")
            assert all(v > 0 for v in vals)
