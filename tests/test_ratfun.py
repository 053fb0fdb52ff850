import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peakons import (
    BadResidueAtZero,
    HerglotzRational,
    NotHerglotz,
    StieltjesCF,
    cf_evaluate,
    cf_expand,
    herglotz,
    neg_reciprocal,
    pf_decompose,
    poly_real_roots,
    validate,
    weyl,
)
from peakons.ratfun import CFStage


# ---------------------------------------------------------------- roots

def test_linear_root():
    assert poly_real_roots([1.0, -2.0]) == [0.5]


def test_quadratic_roots():
    r = poly_real_roots([-1.0, 0.0, 1.0])
    assert r == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_q2_roots_match_dense_oracle():
    from peakons import q_values
    from conftest import dense_eigenvalues
    from peakons.forward import _q_recursion

    m = validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    q2 = _q_recursion(m, None)[-1]
    roots = poly_real_roots(q2, assume_real_simple=True)
    assert len(roots) == 2 and all(r > 0 for r in roots)
    oracle = dense_eigenvalues(m)
    assert roots == pytest.approx(oracle, rel=1e-9)


def test_root_of_multiplicity_at_origin():
    # z^2 * (z - 2): origin root kept exactly
    r = poly_real_roots([0.0, 0.0, -2.0, 1.0])
    assert r[0] == 0.0 and r[1] == 0.0
    assert r[2] == pytest.approx(2.0, abs=1e-12)


@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5, unique=True))
@settings(max_examples=60)
def test_roots_of_factored_polynomials(roots_in):
    sep = sorted(roots_in)
    if any(b - a < 0.05 for a, b in zip(sep, sep[1:])):
        return
    c = np.array([1.0])
    for r in sep:
        c = np.polynomial.polynomial.polymul(c, [-r, 1.0])
    out = poly_real_roots(c, assume_real_simple=True)
    assert out == pytest.approx(sep, abs=1e-7)


# ---------------------------------------------------- partial fractions

def test_single_origin_pole():
    h = pf_decompose([1.0], [0.0, -1.0])  # 1/(-z)
    assert h.gamma == 0.0 and h.zeta == 0.0
    assert h.poles == (0.0,) and h.residues == (1.0,)


def test_negative_residue_rejected():
    with pytest.raises(NotHerglotz):
        pf_decompose([1.0, 0.0, 1.0], [0.0, -1.0])  # (1+z^2)/(-z)


def test_single_peakon_interior_sum():
    # -1/(alpha z + beta + G) for lambda=0.5, phi(a)=1: alpha=0, beta=-0.5,
    # G = 0.25/(0.5 - z); the sum is z/(2(0.5-z))... its negative reciprocal
    # has the single pole 0 with residue 1
    f = herglotz(0.0, -0.5, [0.5], [0.25])
    s = neg_reciprocal(f)
    assert s.poles == (0.0,)
    assert s.residues[0] == pytest.approx(1.0, abs=1e-12)
    assert s.gamma == pytest.approx(0.0, abs=1e-12)


def test_pf_roundtrip_random(rng):
    for _ in range(40):
        k = int(rng.integers(0, 4))
        poles = np.sort(rng.uniform(-4.0, 4.0, k))
        if any(b - a < 0.1 for a, b in zip(poles, poles[1:])):
            continue
        h = herglotz(
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
            [float(p) for p in poles],
            [float(r) for r in rng.uniform(0.1, 2.0, k)],
        )
        num, den = h.num_den()
        back = pf_decompose(num, den)
        assert back.gamma == pytest.approx(h.gamma, abs=1e-8)
        assert back.zeta == pytest.approx(h.zeta, abs=1e-8)
        assert back.poles == pytest.approx(h.poles, abs=1e-8)
        assert back.residues == pytest.approx(h.residues, rel=1e-7)


def test_herglotz_upper_half_plane(rng):
    for _ in range(20):
        h = herglotz(
            float(rng.uniform(0.0, 1.0)), float(rng.uniform(-1.0, 1.0)),
            [-1.0, 2.0], [float(rng.uniform(0.1, 2.0)) for _ in range(2)],
        )
        for _ in range(10):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            assert h(z).imag >= -1e-13


# ------------------------------------------------------ neg_reciprocal

def test_neg_reciprocal_of_inverse_z():
    h = HerglotzRational(0.0, 0.0, (0.0,), (1.0,))  # -1/z
    out = neg_reciprocal(h)
    assert out.poles == ()
    assert out.gamma == pytest.approx(1.0, abs=1e-14)
    assert out.zeta == pytest.approx(0.0, abs=1e-14)


def test_neg_reciprocal_zeros_become_poles():
    h = HerglotzRational(1.0, 0.0, (0.0,), (1.0,))  # z - 1/z, zeros at +-1
    out = neg_reciprocal(h)
    assert out.poles == pytest.approx((-1.0, 1.0), abs=1e-12)


def test_neg_reciprocal_involution(rng):
    for _ in range(25):
        h = herglotz(
            float(rng.uniform(0.1, 2.0)), float(rng.uniform(-1.0, 1.0)),
            [0.0, 1.5], [float(rng.uniform(0.2, 1.5)) for _ in range(2)],
        )
        back = neg_reciprocal(neg_reciprocal(h))
        assert back.gamma == pytest.approx(h.gamma, rel=1e-8, abs=1e-9)
        assert back.zeta == pytest.approx(h.zeta, rel=1e-8, abs=1e-9)
        assert back.poles == pytest.approx(h.poles, abs=1e-9)
        assert back.residues == pytest.approx(h.residues, rel=1e-7)


def test_zeros_poles_interlace(rng):
    for _ in range(20):
        h = herglotz(
            float(rng.uniform(0.1, 1.0)), 0.0,
            [-2.0, 0.0, 1.0], [float(rng.uniform(0.2, 1.5)) for _ in range(3)],
        )
        zeros = neg_reciprocal(h).poles
        both = sorted([(p, "p") for p in h.poles] + [(q, "z") for q in zeros])
        kinds = [k for _, k in both]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


# ------------------------------------------------- continued fractions

def test_free_half_line_cf():
    h = HerglotzRational(0.0, 0.0, (0.0,), (0.5,))  # -1/(2z)
    cf = cf_expand(h, "minus")
    assert cf.stages == ()
    assert cf.head_length == pytest.approx(2.0, abs=1e-14)
    assert cf_evaluate(cf, 1.0) == pytest.approx(-0.5, abs=1e-14)


def test_single_peakon_cf_stages():
    m = validate([(0.0, 2.0, 0.0)])
    h = weyl(m, -1.0, "plus")
    cf = cf_expand(h, "plus")
    th = math.tanh(0.5)
    assert cf.head_length == pytest.approx(2.0 * th, rel=1e-12)
    assert len(cf.stages) == 1
    assert cf.stages[0].c0 == pytest.approx(2.0 * math.cosh(0.5) ** 2, rel=1e-12)
    assert cf.stages[0].c1 == pytest.approx(0.0, abs=1e-10)
    assert cf.stages[0].length == pytest.approx(2.0 * (1.0 - th), rel=1e-12)
    # direct evaluation matches the Weyl function
    assert cf_evaluate(cf, 0.25) == pytest.approx(h(0.25), rel=1e-12)


def test_bad_residue_rejected():
    h = HerglotzRational(0.0, 0.0, (0.0,), (1.0,))  # residue weight 1, not 1/2
    with pytest.raises(BadResidueAtZero):
        cf_expand(h, "plus")


def test_cf_roundtrip_on_weyl_functions(rng):
    from conftest import random_measure

    for _ in range(15):
        m = random_measure(rng, n=int(rng.integers(1, 5)))
        a = float(m.points[0] - rng.uniform(0.1, 2.0))
        for side in ("plus", "minus"):
            h = weyl(m, a, side)
            cf = cf_expand(h, side)
            expected = m.n if side == "plus" else 0
            assert len(cf.stages) == expected
            for _ in range(20):
                z = complex(rng.uniform(-3, 3), rng.uniform(1.0, 10.0))
                assert abs(cf_evaluate(cf, z) - h(z)) <= 1e-8 * max(1.0, abs(h(z)))


def test_cf_evaluate_empty_terminal():
    cf = StieltjesCF(2.0, (), "minus")
    assert cf_evaluate(cf, 1.0) == pytest.approx(-0.5)


def test_cf_lengths_from_measure_formulas(rng):
    # lengths/weights of the expansion equal the closed forms
    from conftest import random_measure

    for _ in range(10):
        m = random_measure(rng, n=3, with_v=True)
        a = float(m.points[0] - rng.uniform(0.5, 1.5))
        cf = cf_expand(weyl(m, a, "plus"), "plus")
        tanhs = [math.tanh((x - a) / 2.0) for x in m.points]
        assert cf.head_length == pytest.approx(2.0 * tanhs[0], rel=1e-9)
        for j, stage in enumerate(cf.stages):
            ch2 = math.cosh((m.points[j] - a) / 2.0) ** 2
            assert stage.c0 == pytest.approx(m.omega[j] * ch2, rel=1e-8, abs=1e-9)
            assert stage.c1 == pytest.approx(m.vee[j] * ch2, rel=1e-8, abs=1e-9)
            nxt = tanhs[j + 1] if j + 1 < m.n else 1.0
            assert stage.length == pytest.approx(2.0 * (nxt - tanhs[j]), rel=1e-8)
