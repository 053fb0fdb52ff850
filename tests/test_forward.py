import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

import peakons.forward as forward
from conftest import (
    MpForward,
    bisect_eigenvalues,
    build_pencil,
    dense_eigenvalues,
    ladder_rank,
    q_coefficients,
    random_measure,
    real_roots,
    rel_err,
)
from peakons import (
    DEFAULT,
    FlowState,
    Infeasible,
    NearCollision,
    NonConverged,
    NumericalError,
    counts,
    eigenfunction_zero_count,
    eigenvalues,
    interior_data,
    measure_at,
    measure_from_weyl,
    spectral_data,
    validate,
    weyl,
)
from peakons.forward import (
    _coefficients,
    _count,
    _count_slope,
    _eigenfunction,
    _phi_at,
    _rows,
    _shoot,
    _spectral,
    _wdot,
)


def q_values(m, z):
    """[Q_0(z), ..., Q_n(z)] from the coefficient arrays of the recursion."""
    return [npp.polyval(z, c) for c in q_coefficients(m)]


def wronskian_at(m, z, x):
    """phi_plus phi_minus' - phi_plus' phi_minus at x, both by _shoot."""
    p, dp = _shoot(m, z, x, "plus")
    q, dq = _shoot(m, z, x, "minus")
    return p * dq - dp * q


def b_coefficient(x, phi, dphi):
    """B of phi = A e^{x/2} + B e^{-x/2} on the gap left of x, from (phi, phi') at x."""
    return 0.5 * math.exp(x / 2.0) * (phi - 2.0 * dphi)


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
        vals = [_shoot(m, z, xj, "plus")[0] for xj in m.points]
        pref = math.exp(m.points[-1] / 2.0)
        for i in range(1, m.n):
            pref_i = pref * math.prod(a[:i])
            assert q[i] == pytest.approx(pref_i * vals[m.n - 1 - i], rel=1e-9, abs=1e-12)


# ----------------------------------------------------------- eigenvalues

def test_sign_change_counts(rng):
    for _ in range(25):
        m = random_measure(rng)
        oracle = dense_eigenvalues(m)
        pos = sorted(v for v in oracle if v > 0)
        neg = sorted((v for v in oracle if v < 0), reverse=True)
        for ladder in (pos, neg):  # each ladder outward from 0
            if not ladder:
                continue
            rows = _rows(m)
            assert _count(rows, 0.5 * ladder[0]) == 0
            assert _count(rows, ladder[-1] * 1.5) == len(ladder)
            if len(ladder) >= 2:
                mid = 0.5 * (ladder[0] + ladder[1])
                assert _count(rows, mid) == 1


def test_sign_change_count_skips_an_exact_zero(rng):
    # the last atom has omega = 1 and v = 0, so Q_1(b_0) = b_0 - b_0 = 0 exactly
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = random_measure(rng, n=n)
        m = validate([*zip(m.points, m.omega, m.vee)][:-1] + [(m.points[-1], 1.0, 0.0)])
        rows = _rows(m)
        _, z, w, v = rows[0]  # z = b_0
        assert z - w * z - v * z * z == 0.0
        oracle = dense_eigenvalues(m)
        assert min(abs(lam - z) for lam in oracle) > 1e-6
        assert _count(rows, z) == sum(1 for lam in oracle if 0.0 < lam < z)


def test_eigenvalues_match_dense_oracle(rng):
    for _ in range(40):
        m = random_measure(rng)
        mine = eigenvalues(m)
        oracle = dense_eigenvalues(m)
        assert len(mine) == len(oracle)
        for x, y in zip(mine, oracle):
            assert x == pytest.approx(y, rel=1e-9, abs=1e-11)


def _q_mpmath(mpmath, rows, z):
    """Q_n(z) by the recursion over the float rows, in mpmath."""
    q1, q2 = mpmath.mpf(1), mpmath.mpf(0)
    for a2, b, w, v in rows:
        q1, q2 = (b - w * z - v * z * z) * q1 - a2 * q2, q1
    return q1


def _generator_measure(rng, n):
    """Unit-spaced atoms, 40% with v, mixed-sign omega: Q_n overflows by n = 24."""
    xs = np.arange(n) - (n - 1) / 2.0 + rng.uniform(-0.1, 0.1, n)
    triples = []
    for x in xs:
        v = float(rng.uniform(0.2, 1.5)) if rng.random() < 0.4 else 0.0
        w = float(rng.uniform(0.2, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        triples.append((float(x), w, v))
    return validate(triples)


@pytest.mark.parametrize("make, bound", [
    (_generator_measure, 1e-15),
    (lambda rng, n: random_measure(rng, n=n), 1e-14),  # gaps down to 0.05 condition Q_n worse
], ids=["generator", "close_atoms"])
def test_eigenvalues_match_mpmath_roots_of_q(make, bound):
    # each eigenvalue against a 60-digit root of Q_n, the polynomial it counts
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    worst = 0.0
    with mpmath.workdps(60):
        for n in range(1, 17):
            for _ in range(3):
                m = make(rng, n)
                rows = _rows(m)
                for lam in eigenvalues(m):
                    ref = mpmath.findroot(lambda z: _q_mpmath(mpmath, rows, z), mpmath.mpf(lam))
                    worst = max(worst, float(abs(lam - ref) / abs(ref)))
    assert worst <= bound


@pytest.mark.parametrize("n", [24, 32, 64, 128])
def test_eigenvalues_reach_large_n(n):
    # the monomial coefficients of Q_n overflowed here; the ratio count does not
    rng = np.random.default_rng(900 + n)
    for _ in range(2):
        m = _generator_measure(rng, n)
        mine = eigenvalues(m)
        oracle = dense_eigenvalues(m)
        assert len(mine) == len(oracle)
        for x, y in zip(mine, oracle):
            assert x == pytest.approx(y, rel=1e-12)


def _same_as_bisection(m):
    """eigenvalues(m) and the plain bisection give the same floats or the same exception type."""
    def run(solve):
        try:
            return solve(m)
        except Exception as exc:  # compared by type below
            return type(exc)

    mine, ref = run(eigenvalues), run(bisect_eigenvalues)
    assert mine == ref, (m.points, mine, ref)
    return mine


def _spread_measure(rng, n, width):
    """Generator weights on n atoms spread evenly over a support width wide."""
    m = _generator_measure(rng, n)
    xs = np.linspace(-width / 2.0, width / 2.0, n) + rng.uniform(-0.1, 0.1, n)
    return validate(list(zip(xs.tolist(), m.omega, m.vee)))


def test_eigenvalues_are_the_bisection_s_floats_on_generator_measures():
    # Newton guides each cold root to a node of the bisection: the floats cannot move
    rng = np.random.default_rng(16)
    for n in range(2, 65):
        assert isinstance(_same_as_bisection(_generator_measure(rng, n)), list)


@pytest.mark.parametrize("shift", [-1e4, -300.0, 1e3, 5e4])
def test_eigenvalues_are_the_bisection_s_floats_far_from_the_origin(shift):
    rng = np.random.default_rng(17)
    for n in (2, 5, 9, 16):
        m = _generator_measure(rng, n)
        _same_as_bisection(validate([(x + shift, w, v) for x, w, v in zip(m.points, m.omega, m.vee)]))


@pytest.mark.parametrize("width", [100.0, 180.0, 300.0])
def test_eigenvalues_are_the_bisection_s_floats_on_wide_supports(width):
    rng = np.random.default_rng(int(width))
    for n in (2, 3, 4, 6, 9, 12):
        _same_as_bisection(_spread_measure(rng, n, width))


def test_eigenvalues_sharing_a_float_raise_non_converged():
    # the two roots straddle 1.0 and both brackets' midpoints round to it
    m = validate([(0.0, 1.0, 0.0), (75.0, 1.0, 0.0)])
    with pytest.raises(NonConverged, match=r"share the float 1\.0$"):
        eigenvalues(m)
    assert _same_as_bisection(m) is NonConverged


# gap 117: the squared pivot at z = 1/79.2 underflows, and d_1'/d_1^2 would divide by zero
UNDERFLOW_TRIPLES = [(-91.32, -0.0125, 0.0), (25.934, 79.2, 0.0)]


def test_count_slope_never_raises_where_a_squared_pivot_underflows():
    m = validate(UNDERFLOW_TRIPLES)
    rows = _rows(m)
    z = 0.012626262626262626  # 1 - 79.2 z == 0: the first pivot is exactly zero
    assert rows[0][1] - rows[0][2] * z == 0.0
    c, slope = _count_slope(rows, z)
    assert c == _count(rows, z) and not math.isfinite(slope)
    assert eigenvalues(m) == [-80.0, 0.012626262626262624] == bisect_eigenvalues(m)


def test_count_slope_counts_as_count(rng):
    for n in (1, 2, 5, 8, 16, 40):
        m = _generator_measure(rng, n)
        rows = _rows(m)
        lams = eigenvalues(m)
        zs = [0.0, *lams, *rng.uniform(-3.0, 3.0, 20).tolist()]
        zs += [lam + d * math.ulp(lam) for lam in lams for d in (-1.0, 1.0)]
        for z in zs:
            assert _count_slope(rows, z)[0] == _count(rows, z)


def test_count_slope_is_the_log_derivative_of_the_pencil_determinant(rng):
    # d/dz log|det(J - z D)| = -trace((J - z D)^{-1} D), and det(J - z D) = Q_n(z)
    for n in (1, 2, 4, 7, 12):
        m = _generator_measure(rng, n)
        p = build_pencil(m)
        lams = dense_eigenvalues(m)
        ends = [2.0 * lams[0], *lams, 2.0 * lams[-1]]
        zs = [0.0] + [0.5 * (a + b) for a, b in zip(ends, ends[1:]) if a * b > 0.0]
        rows = _rows(m)
        for z in zs:
            ref = -np.trace(np.linalg.solve(p.J - z * p.D, p.D))
            assert _count_slope(rows, z)[1] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_cold_eigenvalues_stay_within_their_pivot_pass_budget(monkeypatch):
    # plain bisection makes about 51 passes per root at n = 16
    passes = []
    for name in ("_count", "_count_slope"):
        fn = getattr(forward, name)
        monkeypatch.setattr(forward, name, lambda rows, z, fn=fn: passes.append(z) or fn(rows, z))
    rng = np.random.default_rng(24)
    roots = 0
    for _ in range(10):
        roots += len(eigenvalues(_generator_measure(rng, 16)))
    assert len(passes) <= 24 * roots


def test_a_guess_one_node_off_the_root_takes_the_neighbouring_node(monkeypatch):
    # the 64-ulp node that holds the guess misses the root and its neighbour
    # holds it: 3 counts and 6 halvings per root, not the 26 passes of a node
    # widened 2^16 times
    passes = []
    fn = forward._count
    monkeypatch.setattr(forward, "_count", lambda rows, z: passes.append(z) or fn(rows, z))
    rng = np.random.default_rng(26)
    for n in (4, 8, 16):
        m = _generator_measure(rng, n)
        cold = eigenvalues(m)
        for side in (-1.0, 1.0):
            near = [lam + side * 64.0 * math.ulp(lam) for lam in cold]
            w = [64.0 * math.ulp(g) for g in near]
            assert all(abs(g) // wg != abs(lam) // wg for g, lam, wg in zip(near, cold, w))
            del passes[:]
            assert eigenvalues(m, near=near) == cold
            assert len(passes) <= 10 * len(cold)


@pytest.mark.parametrize("guess", [
    lambda rows, memo, k, lo, hi: None,
    lambda rows, memo, k, lo, hi: 2.0 * hi,  # outside the root's bracket
    lambda rows, memo, k, lo, hi: lo + 0.25 * (hi - lo),  # inside, on no root
], ids=["none", "outside", "off_root"])
def test_an_uncertified_newton_guess_falls_back_to_the_same_floats(guess, monkeypatch):
    rng = np.random.default_rng(25)
    ms = [_generator_measure(rng, n) for n in (1, 3, 8, 16)] + [validate(UNDERFLOW_TRIPLES)]
    monkeypatch.setattr(forward, "_newton", guess)
    for m in ms:
        _same_as_bisection(m)


# 8 atoms, half with v: the benchmark generator's measure_triples(sub_rng(11, 5, 2, 8), 8)
FLOW_OVERFLOW_TRIPLES = [
    (-3.4619321277500563, -1.075502816105577, 1.443567455703164),
    (-2.4492988429351716, 2.2497139732057185, 0.3467611192256559),
    (-1.593150210324319, 1.7433291084893239, 0.0),
    (-0.4950368398216214, -2.2547151859982812, 0.24804282326398644),
    (0.4843810049791696, -2.3017084365155083, 1.2608605408313955),
    (1.4246625994349338, 1.5089791062477416, 1.285285202088244),
    (2.5601943980216255, 2.0096502881414136, 0.0),
    (3.4817270444695008, 2.1884246204361575, 0.597193218902792),
]


def test_spectral_data_is_python_floats(rng):
    # Newton-polished eigenvalues once came back as numpy.float64
    ms = [validate(FLOW_OVERFLOW_TRIPLES)] + [random_measure(rng, n=6) for _ in range(10)]
    for m in (m for m in ms if any(m.vee)):
        sd = spectral_data(m)
        assert all(type(x) is float for x in sd.eigenvalues + sd.norming)


def test_flow_norming_overflow_is_no_numpy_warning():
    # numpy scalars turned the norming range's overflow into a RuntimeWarning
    fs = FlowState(spectral_data(validate(FLOW_OVERFLOW_TRIPLES)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Infeasible):
            measure_at(fs, 200.0)


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
        polys = q_coefficients(m)
        prev_roots = [0.0]
        for i in range(1, m.n + 1):
            roots = real_roots(polys[i])
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
    phi, dphi = _shoot(m, 0.0, 1.0, "plus")
    assert phi == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert dphi == pytest.approx(-0.5 * math.exp(-0.5), rel=1e-14)


def test_single_peakon_eigenfunction_left_tail():
    m = validate([(0.0, 2.0, 0.0)])
    phi, dphi = _shoot(m, 0.5, -3.0, "plus")
    assert phi == pytest.approx(math.exp(-1.5), rel=1e-12)
    assert dphi == pytest.approx(0.5 * math.exp(-1.5), rel=1e-12)
    assert b_coefficient(-3.0, phi, dphi) == pytest.approx(0.0, abs=1e-14)  # W(1/2) = 0


def _w_from_q(m, z):
    """W(z) as Q_n(z) / (e^{(x_n - x_1)/2} a_1...a_{n-1}), from the recursion."""
    scale = math.exp((m.points[-1] - m.points[0]) / 2.0) * math.prod(_coefficients(m)[0])
    return q_values(m, z)[-1] / scale


def test_w_at_zero_is_one(rng):
    for _ in range(10):
        m = random_measure(rng)
        x1 = float(m.points[0])
        assert b_coefficient(x1, *_shoot(m, 0.0, x1, "plus")) == pytest.approx(1.0, rel=1e-12)
        w0 = _w_from_q(m, 0.0)
        assert w0 == pytest.approx(1.0, rel=1e-12)


def test_shoot_minus_seed():
    m = validate([(0.0, 1.0, 0.0)])
    x = -1.0
    phi, dphi = _shoot(m, 0.0, x, "minus")
    assert phi == pytest.approx(math.exp(x / 2.0), rel=1e-14)
    assert dphi == pytest.approx(0.5 * math.exp(x / 2.0), rel=1e-14)


def test_wronskian_sides_and_x_independence(rng):
    for _ in range(50):
        m = random_measure(rng, n=int(rng.integers(1, 5)))
        z = float(rng.uniform(-3.0, 3.0))
        ref = _w_from_q(m, z)
        for x in np.linspace(m.points[0] - 1.0, m.points[-1] + 1.0, 5):
            assert wronskian_at(m, z, float(x)) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_single_peakon_c_lambda():
    m = validate([(1.0, 2.0, 0.0)])
    phi_plus, _ = _shoot(m, 0.5, 1.0, "plus")
    phi_minus, _ = _shoot(m, 0.5, 1.0, "minus")
    assert phi_minus / phi_plus == pytest.approx(math.exp(1.0), rel=1e-12)


def test_wronskian_derivative_matches_mpmath():
    # the product form from the spectrum against an 80-digit derivative of the shooting W
    rng = np.random.default_rng(44)
    worst = 0.0
    for n in range(4, 17):
        oracle = MpForward(random_measure(rng, n=n), dps=80)
        lams = eigenvalues(oracle.m)
        for i, lam in enumerate(lams):
            with oracle.mp.workdps(80):
                ref = oracle.mp.diff(oracle.w, oracle.mp.mpf(lam))
            worst = max(worst, rel_err(_wdot(lams, i), ref))
    assert worst <= 1e-12


def _phi_test_points(m):
    """Every atom, every gap at a quarter and a half, and four points outside the support."""
    x = m.points
    gaps = [a + f * (b - a) for a, b in zip(x, x[1:]) for f in (0.25, 0.5)]
    return [*x, *gaps, x[0] - 3.0, x[0] - 0.5, x[-1] + 0.5, x[-1] + 3.0]


# ------------------------------------------------------ eigenfunction evaluator

def test_phi_at_matches_shooting(rng):
    # at the atoms, in the gaps and outside the support; small n, where the
    # plus shot loses few digits past the peak
    for _ in range(20):
        m = random_measure(rng, n=int(rng.integers(1, 6)))
        lams = eigenvalues(m)
        atoms = [_eigenfunction(m, lam, _rows(m))[0] for lam in lams]
        tops = [max(abs(p) for p in vals) for vals in atoms]
        for j, xj in enumerate(m.points):
            assert _phi_at(m, atoms, xj) == [vals[j] for vals in atoms]
        for x in _phi_test_points(m):
            for lam, p, top in zip(lams, _phi_at(m, atoms, x), tops):
                assert abs(p - _shoot(m, lam, x, "plus")[0]) <= 1e-9 * top


def test_phi_atoms_are_the_scaled_twisted_null_vector(rng):
    # T(lam) phi = 0 at the atoms, in reversed order, with phi(x_n) = e^{-x_n/2}
    # and c_lam = e^{x_1/2}/phi(x_1)
    for _ in range(10):
        m = random_measure(rng, n=5)
        rows = _rows(m)
        for lam in eigenvalues(m):
            vals, c_lam = _eigenfunction(m, lam, rows)
            assert vals[-1] == pytest.approx(math.exp(-m.points[-1] / 2.0), rel=1e-15)
            assert c_lam == math.exp(m.points[0] / 2.0) / vals[0]
            u = list(vals[::-1]) + [0.0]
            a = [math.sqrt(a2) for a2, *_ in rows] + [0.0]
            diag = [b - w * lam - v * lam * lam for _, b, w, v in rows]
            scale = max(abs(p) for p in u) * (max(map(abs, diag)) + 2.0 * max(a))
            for i, t in enumerate(diag):
                res = -a[i] * u[i - 1] + t * u[i] - a[i + 1] * u[i + 1]
                assert abs(res) <= 1e-13 * scale


def test_spectral_atoms_are_phi_atoms(rng):
    for _ in range(10):
        m = random_measure(rng, n=int(rng.integers(1, 8)))
        sd, atoms = _spectral(m, DEFAULT)
        assert sd == spectral_data(m)
        assert atoms == [_eigenfunction(m, lam, _rows(m))[0] for lam in sd.eigenvalues]


def test_spectral_data_reads_each_eigenfunction_once_without_shooting(rng, monkeypatch):
    # one twisted null vector per eigenvalue, and no shot at all, real or complex
    reads, shots = [], []
    read, shoot = forward._eigenfunction, forward._shoot
    monkeypatch.setattr(forward, "_eigenfunction", lambda *a: reads.append(a) or read(*a))
    monkeypatch.setattr(forward, "_shoot", lambda *a: shots.append(a) or shoot(*a))
    for _ in range(5):
        m = random_measure(rng, n=int(rng.integers(1, 8)))
        del reads[:]
        sd = spectral_data(m)
        assert len(reads) == len(sd.eigenvalues)
    assert shots == []


def test_phi_at_matches_mpmath_left_of_the_peak():
    # n = 16, where phi_plus shot past its peak is off by O(1) of max|phi|
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (8, 16):
        for _ in range(2):
            oracle = MpForward(_generator_measure(rng, n), dps=50)
            m, xs = oracle.m, _phi_test_points(oracle.m)
            lams = eigenvalues(m)
            atoms = [_eigenfunction(m, lam, _rows(m))[0] for lam in lams]
            got = [_phi_at(m, atoms, x) for x in xs]
            for i, lam in enumerate(lams):
                lam_mp = oracle.root(lam)
                ref = [oracle.phi(lam_mp, x) for x in xs]
                top = max(abs(r) for r in ref)
                worst = max(worst, *(float(abs(p[i] - r) / top) for p, r in zip(got, ref)))
    assert worst <= 1e-13


# ---------------------------------------------------------- spectral data

def test_norming_matches_mpmath_on_generator_measures():
    # kappa = -lam W'(lam)/c_lam; the raw plus sweep, read past its peak, was
    # off by up to 8.7e-9 here
    rng = np.random.default_rng(2)
    worst, checked = 0.0, 0
    for n in range(4, 17):
        m = _generator_measure(rng, n)
        sd = spectral_data(m)
        for kappa, (_, ref) in zip(sd.norming, MpForward(m, dps=80).spectral(sd.eigenvalues)):
            worst = max(worst, rel_err(kappa, ref))
            checked += 1
    assert checked >= 150
    assert worst <= 1e-12


@pytest.mark.parametrize("n, bound", [(24, 1e-12), (32, 1e-12), (64, 2e-12)])
def test_norming_matches_the_oracle_at_large_n(n, bound):
    # the merged plus and minus sweeps ended in ConsistencyFail from n = 24 on
    m = _generator_measure(np.random.default_rng(900 + n), n)
    sd = spectral_data(m)
    oracle = MpForward(m).spectral(sd.eigenvalues)
    assert max(rel_err(lam, ref) for lam, (ref, _) in zip(sd.eigenvalues, oracle)) <= 4e-16 * n
    assert max(rel_err(kappa, ref) for kappa, (_, ref) in zip(sd.norming, oracle)) <= bound


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
        flo = _shoot(m, lam2, lo, "plus")[0]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = _shoot(m, lam2, mid, "plus")[0]
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


# two atoms, one with omega = 0: the fold meets a zero exactly at a gap midpoint
WEYL_OMEGA_ZERO_TRIPLES = [
    (-3.3796274211919775, -0.5005737653567364, 0.37316863505458175),
    (2.10544761121185, 0.0, 0.5983337529689183),
]


def _check_weyl(m, a, side):
    """weyl agrees with the shooting quotient off the axis and inverts to its atoms."""
    h = weyl(m, a, side)
    sign = 1.0 if side == "plus" else -1.0
    for z in (0.3 + 0.5j, -1.7 + 2.0j, 4.0 + 0.25j, -0.05 + 9.0j):
        phi, dphi = _shoot(m, z, a, side)
        ref = sign * dphi / (z * phi)
        assert abs(h(z) - ref) <= 1e-9 * max(1.0, abs(ref))
    half = measure_from_weyl(h, a, side)
    atoms = [t for t in zip(m.points, m.omega, m.vee) if (t[0] >= a) == (side == "plus")]
    assert half.n == len(atoms)
    for got, want in zip(half.triples(), atoms):
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("n", [9, 12, 16])
def test_weyl_on_many_atoms(n):
    # anchors left of the support, in the first gap, on an atom and right of it
    rng = np.random.default_rng(600 + n)
    for _ in range(4):
        m = random_measure(rng, n=n)
        x = m.points
        for a in (x[0] - 0.7, 0.5 * (x[0] + x[1]), x[n // 2], x[-1] + 0.7):
            for side in ("plus", "minus"):
                _check_weyl(m, float(a), side)


def test_weyl_with_a_zero_omega_atom():
    m = validate(WEYL_OMEGA_ZERO_TRIPLES)
    _check_weyl(m, m.points[0] - 0.7, "plus")


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
            vals = [_shoot(m, lams[i], x, "plus")[0] for x in m.points]
            assert all(v > 0 for v in vals)


# ------------------------------------------------------------ float range

_FAR_LEFT = validate([(-1500.0, 2.0, 0.0)])  # the plus seed e^{-x/2} overflows
_FAR_RIGHT = validate([(1500.0, 2.0, 0.0)])  # the minus seed e^{x/2} overflows
_WIDE_GAP = validate([(0.0, 1.0, 0.0), (1500.0, 1.0, 0.0)])  # sinh and cosh of the gap overflow
_PLUS_UNDERFLOWS = validate([(1400.0, 1.0, 0.0), (1495.0, 1.0, 0.0)])  # phi_plus is 0 at every atom
_WEYL_PAIR = validate([(0.0, 1.0, 0.0), (1.0, 0.5, 0.2)])


@pytest.mark.parametrize("call", [
    lambda: spectral_data(_FAR_LEFT),
    lambda: interior_data(_FAR_LEFT, -1500.0),
    lambda: eigenfunction_zero_count(_FAR_LEFT, 0),
    lambda: eigenfunction_zero_count(_FAR_RIGHT, 0),
    lambda: spectral_data(_WIDE_GAP),
    lambda: interior_data(_WIDE_GAP, 0.0),
    lambda: eigenfunction_zero_count(_PLUS_UNDERFLOWS, 0),
    lambda: spectral_data(validate([(-1000.0, 2.0, 0.0)])),  # kappa overflows to inf
    lambda: weyl(_WEYL_PAIR, -1500.0, "plus"),  # cosh of the atom distance
    lambda: weyl(_WEYL_PAIR, -1500.0, "minus"),  # phi_minus underflows to 0 at a
    lambda: weyl(_WEYL_PAIR, 1500.0, "plus"),
    lambda: weyl(_WEYL_PAIR, 1500.0, "minus"),
], ids=[
    "spectral_far_left", "interior_far_left", "zero_count_far_left", "zero_count_far_right",
    "spectral_wide_gap", "interior_wide_gap", "zero_count_plus_underflows",
    "kappa_overflows", "weyl_plus_left", "weyl_minus_left", "weyl_plus_right",
    "weyl_minus_right",
])
def test_float_range_failures_are_numerical_errors(call):
    # these leaked OverflowError or ZeroDivisionError, raised ValidationError
    # (an input error) for an overflowing kappa, or counted zeros of a
    # phi_plus that had underflowed to 0
    with pytest.raises(NumericalError):
        call()


def test_weyl_of_a_residue_underflowing_in_its_chain_is_nonconverged():
    # three atoms 214 and 474 apart, seen from the first: a residue of the
    # chained inversions underflows to 0 and the next one divided by it
    # (ZeroDivisionError leaked)
    m = validate([(17.69933371469429, -836.1126237302997, 0.0),
                  (231.70729385735285, -0.026498728559133287, 0.0),
                  (705.7897761118595, 169785.00101505968, 0.0)])
    with pytest.raises(NonConverged, match="underflowed to 0") as info:
        weyl(m, 17.69933371469429, "plus")
    assert isinstance(info.value.__cause__, ZeroDivisionError)
