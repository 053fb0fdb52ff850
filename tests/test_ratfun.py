import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from peakons import (
    BadResidueAtZero,
    HerglotzRational,
    NonPositiveLength,
    NotHerglotz,
    StieltjesCF,
    cf_evaluate,
    cf_expand,
    herglotz,
    measure_from_weyl,
    neg_reciprocal,
    validate,
    weyl,
)
from peakons.errors import NonConverged, PeakonError
from peakons.ratfun import CFStage


# ---------------------------------------------------------------- roots

def test_q2_roots_match_dense_oracle():
    from conftest import dense_eigenvalues, q_coefficients, real_roots

    m = validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    q2 = q_coefficients(m)[-1]
    roots = real_roots(q2)
    assert len(roots) == 2 and all(r > 0 for r in roots)
    oracle = dense_eigenvalues(m)
    assert roots == pytest.approx(oracle, rel=1e-9)


def test_anchored_sum_matches_reference_loop():
    # the per-anchor term list must leave every float of the sum unchanged
    from peakons.ratfun import _anchored_terms, _anchored_value

    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.integers(1, 10))
        mus = sorted(rng.normal(0.0, 3.0, k).tolist())
        betas = rng.uniform(1e-3, 5.0, k).tolist()
        gamma, zeta = float(rng.uniform(0.0, 2.0)), float(rng.normal())
        for i in range(k):
            terms = _anchored_terms(mus, betas, i)
            for x in (rng.normal(0.0, 1.0, 4) * 10.0 ** rng.integers(-200, 2, 4)).tolist():
                ref = gamma * (mus[i] + x) + zeta
                for j in range(k):
                    if j != i:
                        ref += betas[j] / ((mus[j] - mus[i]) - x)
                assert _anchored_value(gamma, zeta, mus[i], terms, x) == ref


def _zero_offset_reference(gamma, zeta, mus, betas, i, sgn, hi):
    """_zero_offset as it was with the halving descent and 80 bisection steps."""
    from peakons.errors import NonConverged
    from peakons.ratfun import _anchored_terms, _anchored_value

    mu, terms = mus[i], _anchored_terms(mus, betas, i)

    def G(d):
        return sgn * d * _anchored_value(gamma, zeta, mu, terms, sgn * d) - betas[i]

    if hi is None:
        hi = max(1.0, abs(mus[i]))
        while not G(hi) >= 0.0:
            hi *= 2.0
            if hi > 1e280:
                raise NonConverged("no zero in the outer range")
    elif not G(hi) >= 0.0:
        raise NonConverged("zero bracket lost during Herglotz inversion")
    lo = None
    while lo is None:
        nd = 0.5 * hi
        if nd < 1e-280:
            return nd
        if G(nd) <= 0.0:
            lo = nd
        else:
            hi = nd
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if G(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_zero_offset_bit_identical_to_halving_reference():
    # the solver must return the reference's float wherever the reference
    # returns the zero; below 1e-280 the reference returns a rung, and the
    # solver the zero itself, within 4 ulps of the 80-digit zero
    mpmath = pytest.importorskip("mpmath")
    from peakons.ratfun import _zero_offset

    def outcome(f, *args):
        try:
            return f(*args).hex()
        except Exception as exc:
            return type(exc), str(exc)

    rng = np.random.default_rng(17)
    seen = {"ok": 0, "early": 0, "raised": 0, "outer": 0}
    for _ in range(300):
        mus = sorted(set((rng.normal(0.0, 3.0, int(rng.integers(1, 8)))
                          * 10.0 ** rng.integers(-2, 3)).tolist()))
        k = len(mus)
        betas = (10.0 ** rng.uniform(-300.0, 5.0, k)).tolist()
        gamma = float(rng.choice([0.0, 10.0 ** rng.uniform(-5.0, 2.0)]))
        zeta = float(rng.choice([0.0, rng.normal() * 10.0 ** rng.uniform(-3.0, 3.0)]))
        for i in range(k):
            # the gap toward each neighbour; hi=None only on the outer sides
            brackets = []
            if i + 1 < k:
                brackets.append((+1.0, 0.5 * (mus[i + 1] - mus[i])))
            if i > 0:
                brackets.append((-1.0, 0.5 * (mus[i] - mus[i - 1])))
            if i == k - 1:
                brackets.append((+1.0, None))
            if i == 0:
                brackets.append((-1.0, None))
            for sgn, hi in brackets:
                args = (gamma, zeta, mus, betas, i, sgn, hi)
                ref = outcome(_zero_offset_reference, *args)
                got = outcome(_zero_offset, *args)
                if isinstance(ref, tuple):
                    assert got == ref
                    seen["raised"] += 1
                elif float.fromhex(ref) < 1e-280:
                    d = float.fromhex(got)
                    assert _mpmath_offset_ulps(mpmath, *args, d) <= 4.0, (args, d)
                    seen["early"] += 1
                else:
                    assert got == ref
                    seen["ok"] += 1
                    seen["outer"] += hi is None
    assert min(seen.values()) > 0, seen


def _pole_sets(rng, count):
    """(gamma, zeta, mus, betas) with pole spacings over seven decades, residues 10^U(-300, 5)."""
    for _ in range(count):
        gaps = 10.0 ** rng.uniform(-6.0, 1.0, int(rng.integers(1, 12)))
        poles = np.concatenate(([0.0], np.cumsum(gaps))) - rng.uniform(0.0, gaps.sum())
        mus = sorted(set(poles.tolist()))
        betas = (10.0 ** rng.uniform(-300.0, 5.0, len(mus))).tolist()
        gamma = float(rng.choice([0.0, 10.0 ** rng.uniform(-5.0, 2.0)]))
        zeta = float(rng.choice([0.0, rng.normal() * 10.0 ** rng.uniform(-3.0, 3.0)]))
        yield gamma, zeta, mus, betas


def _gap_cases(rng, count):
    """_zero_offset arguments of gap zeros, each side picked as _pf_neg_reciprocal picks it.

    Many zeros sit far closer to their anchor pole than the pole spacing.
    """
    from peakons.ratfun import _anchored_terms, _bracket

    for gamma, zeta, mus, betas in _pole_sets(rng, count):
        for i in range(len(mus) - 1):
            half = 0.5 * (mus[i + 1] - mus[i])
            for j, sgn in ((i, +1.0), (i + 1, -1.0)):
                G = _bracket(gamma, zeta, mus[j], betas[j], _anchored_terms(mus, betas, j), sgn)
                if G(half) >= 0.0:
                    yield gamma, zeta, mus, betas, j, sgn, half
                    break


def _outer_cases(rng, count):
    """_zero_offset arguments of outer zeros (hi=None) on each side that has one."""
    for gamma, zeta, mus, betas in _pole_sets(rng, count):
        if gamma > 0.0 or zeta < 0.0:
            yield gamma, zeta, mus, betas, 0, -1.0, None
        if gamma > 0.0 or zeta > 0.0:
            yield gamma, zeta, mus, betas, len(mus) - 1, +1.0, None


def test_gap_zero_offsets_bit_identical_and_mostly_newton(monkeypatch):
    # the Newton path must end on the float of the halving reference wherever
    # the reference returns the zero (from 1e-280 up), and must answer nearly
    # every gap zero itself rather than fall back to bisection
    from peakons import ratfun

    bisect, probes = ratfun._bisect, []

    def counted(G, lo, hi):
        return bisect(lambda d: probes.append(d) or G(d), lo, hi)

    monkeypatch.setattr(ratfun, "_bisect", counted)
    calls = close = high = bisected = 0
    for args in _gap_cases(np.random.default_rng(23), 300):
        ref = _zero_offset_reference(*args)
        before = len(probes)
        got = ratfun._zero_offset(*args)
        calls += 1
        close += ref < 1e-6 * args[-1]
        bisected += len(probes) > before
        if ref >= 1e-280:
            high += 1
            assert got.hex() == ref.hex(), args
    assert calls > 1000 and close > 0.1 * calls and high > 0.5 * calls, (calls, close, high)
    assert bisected <= 0.1 * calls, (bisected, calls)


def test_gap_zero_offsets_near_the_rung_floor():
    # zeros from 1e-248 down to the subnormals at 1e-318: within 4 ulps of
    # the 80-digit zero, and on the reference's float from 1e-280 up, where
    # the reference returns the zero rather than a rung below it
    mpmath = pytest.importorskip("mpmath")
    from peakons import ratfun

    for e in range(248, 320, 2):
        for beta in (10.0 ** -e, 3.7 * 10.0 ** -e):
            for zeta in (0.0, -0.4, 3.0):
                args = (0.0, zeta, [0.0, 1.0], [beta, 1.0], 0, +1.0, 0.5)
                d, ref = ratfun._zero_offset(*args), _zero_offset_reference(*args)
                assert _mpmath_offset_ulps(mpmath, *args, d) <= 4.0, (args, d)
                if ref >= 1e-280:
                    assert d.hex() == ref.hex(), args


def _mpmath_offset_ulps(mpmath, gamma, zeta, mus, betas, i, sgn, hi, d):
    """|d - d*|/ulp(d*), d* the 80-digit zero of the same anchored G."""
    from peakons.ratfun import _anchored_terms

    mp = mpmath.mp
    with mpmath.workdps(80):
        terms = [(mp.mpf(u), mp.mpf(b)) for u, b in _anchored_terms(mus, betas, i)]
        g, z, mu, beta, s = (mp.mpf(v) for v in (gamma, zeta, mus[i], betas[i], sgn))

        def G(e):
            x = s * e
            return x * (g * (mu + x) + z + mp.fsum(b / (u - x) for u, b in terms)) - beta

        # a bracket of 2^-19 around d if G changes sign on it, else all of
        # (0, hi] from below the least subnormal
        lo, up = mp.mpf(d) * (1 - mp.mpf(2) ** -20), mp.mpf(d) * (1 + mp.mpf(2) ** -20)
        if G(lo) > 0 or G(up) <= 0:
            lo, up = mp.mpf(2) ** -1080, mp.mpf(1e300 if hi is None else hi)
        while up / lo - 1 > mp.mpf(1e-24):
            mid = mp.sqrt(lo * up)
            lo, up = (mid, up) if G(mid) <= 0 else (lo, mid)
        return float(abs(d - lo) / math.ulp(float(lo)))


def test_gap_zero_offsets_against_mpmath():
    # every gap offset within 64 ulps of the 80-digit zero of the same
    # anchored G, and the median within 1 ulp; outer zeros (hi=None) alike
    mpmath = pytest.importorskip("mpmath")
    from peakons.ratfun import _zero_offset

    for cases, at_least in ((_gap_cases(np.random.default_rng(29), 45), 150),
                            (_outer_cases(np.random.default_rng(31), 60), 50)):
        errs = []
        for args in cases:
            errs.append(_mpmath_offset_ulps(mpmath, *args, _zero_offset(*args)))
        assert len(errs) > at_least, len(errs)
        assert max(errs) <= 64.0 and float(np.median(errs)) <= 1.0, (max(errs), np.median(errs))


def test_single_peakon_interior_sum():
    # -1/(alpha z + beta + G) for lambda=0.5, phi(a)=1: alpha=0, beta=-0.5,
    # G = 0.25/(0.5 - z); the sum is z/(2(0.5-z))... its negative reciprocal
    # has the single pole 0 with residue 1
    f = herglotz(0.0, -0.5, [0.5], [0.25])
    s = neg_reciprocal(f)
    assert s.poles == (0.0,)
    assert s.residues[0] == pytest.approx(1.0, abs=1e-12)
    assert s.gamma == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------- normal form

def test_herglotz_rejects_negative_residue_and_slope():
    with pytest.raises(NotHerglotz):
        herglotz(0.0, 0.0, [0.0, 1.0], [0.5, -1.0])
    with pytest.raises(NotHerglotz):
        herglotz(-1.0, 0.0, [0.0], [1.0])  # -z - 1/z


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


def test_neg_reciprocal_zero_exactly_at_gap_midpoint():
    # h(0) = 0 with 0 the midpoint of the poles; each anchor's bracket test
    # rounds the zero past the midpoint, so the midpoint itself is the zero
    b = 0.006857331254711412
    h = herglotz(1.3190260620247065, 0.0, (-1.2914613008322244, 1.2914613008322244), (b, b))
    assert h(0.0) == 0.0
    out = neg_reciprocal(h)
    assert len(out.poles) == 3 and out.poles[1] == 0.0
    assert out.poles[0] == -out.poles[2]
    assert out.residues[0] == out.residues[2]


def test_neg_reciprocal_underflowing_offset_is_contained():
    # the zero sits d = beta/(1 + beta) from the pole at 0 with beta = 1e-300,
    # and d*d is 0; the residue 1/h'(d) = beta/(1 + beta)^3 stays in range
    out = neg_reciprocal(herglotz(0.0, 0.0, (0.0, 1.0), (1e-300, 1.0)))
    assert out.poles == pytest.approx((1e-300,), rel=1e-14, abs=0.0)
    assert out.residues == pytest.approx((1e-300,), rel=1e-14, abs=0.0)


def test_neg_reciprocal_subnormal_offset_square_keeps_the_residue():
    # the zero sits d = beta/(1 + beta) from the pole at 0, and d*d is a
    # subnormal of two significant bits; 1/h'(d) = beta/(1 + beta)^3 exactly
    beta = 3e-162
    out = neg_reciprocal(herglotz(0.0, 0.0, (0.0, 1.0), (beta, 1.0)))
    assert out.gamma == pytest.approx(1.0 / (1.0 + beta), rel=1e-15)
    assert out.zeta == pytest.approx(-1.0, rel=1e-15)
    assert out.poles == pytest.approx((beta / (1.0 + beta),), rel=1e-15, abs=0.0)
    assert out.residues == pytest.approx((beta / (1.0 + beta) ** 3,), rel=1e-14, abs=0.0)


def test_neg_reciprocal_across_a_pole_spacing_whose_square_overflows():
    # h = z - 1/z + 1/(1e160 - z) has zeros near -1 and 1, where h' is 2 up
    # to 1e-320, and one within 1e-160 of the far pole; (1e160 - x)**2 in
    # the residues of the near zeros raised OverflowError
    out = neg_reciprocal(herglotz(1.0, 0.0, (0.0, 1e160), (1.0, 1.0)))
    assert out.poles[:2] == pytest.approx((-1.0, 1.0), rel=1e-15)
    assert out.residues[:2] == pytest.approx((0.5, 0.5), rel=1e-15)
    assert len(out.poles) == 3 and out.poles[2] >= 1e160 and 0.0 < out.residues[2] < 1e-300
    # b/(0 - z) + b/(L - z) vanishes at L/2, where h' = 8b/L^2 and x*x
    # overflows too (the pole data alone: the constant of -1/h cancels its
    # pole term at the imaginary grid, beyond neg_reciprocal's check)
    from peakons.ratfun import _pf_neg_reciprocal

    _, _, zeros, res = _pf_neg_reciprocal(0.0, 0.0, (0.0, 1e160), (1e100, 1e100))
    assert zeros == pytest.approx((5e159,), rel=1e-15)
    assert res == pytest.approx((1.25e219,), rel=1e-15)  # L^2/(8b)


def test_an_h_prime_underflowing_to_0_in_a_chain_of_inversions_leaves_float_range():
    # residues of 5e-324, as an earlier inversion of a chain leaves them:
    # h' underflows to 0 at the zero between the poles, so its residue 1/h'
    # is beyond the floats; this was a ZeroDivisionError, which _peel
    # reported as "a residue underflowed to 0 in a chain of inversions"
    from peakons.ratfun import _peel

    with pytest.raises(NonConverged, match="negative reciprocal leaves float range"):
        _peel(0.0, 0.0, (-6.0, 1.0), (5e-324, 5e-324))


def _hex_outcome(f, *args):
    """f(*args) with every float in hex, or the type of the exception it raised."""
    try:
        g2, z2, zeros, res = f(*args)
    except Exception as exc:
        return type(exc)
    return g2.hex(), z2.hex(), [d.hex() for d in zeros], [b.hex() for b in res]


def _pole_data(gaps, shift, logb):
    """Strictly increasing poles with spacings 10**gaps and residues 10**logb, or None."""
    steps = [10.0 ** g for g in gaps]
    mus = [sum(steps[:k]) - shift * sum(steps) for k in range(len(steps) + 1)]
    if any(b <= a for a, b in zip(mus, mus[1:])):
        return None
    return mus, [10.0 ** e or math.ulp(0.0) for e in logb[:len(mus)]]


# residues 10^U(-320, 5), subnormals included, pole spacings over seven
# decades, and slopes and constants that add outer zeros
_POLE_SETS = dict(
    gaps=st.lists(st.floats(-6.0, 1.0), max_size=11),
    shift=st.floats(0.0, 1.0),
    logb=st.lists(st.floats(-320.0, 5.0), min_size=12, max_size=12),
    gamma=st.one_of(st.just(0.0), st.floats(-5.0, 2.0).map(lambda e: 10.0 ** e)),
    zeta=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
)

# the same, with pole spacings of 10^U(154.2, 160) mixed in: their squares
# leave the floats
_WIDE_POLE_SETS = dict(
    _POLE_SETS, gaps=st.lists(st.one_of(st.floats(-6.0, 1.0), st.floats(154.2, 160.0)), max_size=11))

# four poles placed symmetrically about 0 with mirrored residues and no
# constant, found by a scan: h(0) = 0, and at the middle gap both anchors'
# bracket tests round past the midpoint, so the midpoint is the zero
_BOTH_PAST_MIDPOINT = dict(
    gaps=[-0.8074910751748945] * 3, shift=0.5,
    logb=[-13.703657772458655, -61.56209119114857, -61.56209119114857, -13.703657772458655] + [0.0] * 8,
    gamma=1.5110889270898316, zeta=0.0,
)


def _assert_interlaces_or_raises(gaps, shift, logb, gamma, zeta):
    """-1/h has one pole in each gap of h and at most one on each outer side,
    positive residues and finite data, or the call raises a PeakonError.

    A zero closer to its pole than the pole's float spacing rounds onto it,
    so the gaps are closed and the poles strictly increasing; c counts the
    poles left of h's.
    """
    data = _pole_data(gaps, shift, logb)
    if data is None:
        return
    mus, betas = data
    try:
        out = neg_reciprocal(herglotz(gamma, zeta, mus, betas))
    except PeakonError:
        return
    assert all(map(math.isfinite, (out.gamma, out.zeta, *out.poles, *out.residues)))
    assert all(b > 0.0 for b in out.residues)
    assert all(b > a for a, b in zip(out.poles, out.poles[1:]))
    ext = [-math.inf, *mus, math.inf]
    assert any(len(out.poles) - c in (len(mus) - 1, len(mus))
               and all(ext[k + 1 - c] <= p <= ext[k + 2 - c] for k, p in enumerate(out.poles))
               for c in (0, 1)), (mus, out.poles)


@settings(max_examples=300, deadline=None)
@given(**_POLE_SETS)
# one pole of residue 1e-309: the slope 1/1e-309 and, with a subnormal
# constant, -1/zeta and the outer zero's residue overflowed to inf
@example(gaps=[], shift=0.0, logb=[-309.0] * 12, gamma=0.0, zeta=0.0)
@example(gaps=[], shift=0.0, logb=[-309.0] * 12, gamma=0.0, zeta=2.225073858507e-311)
def test_neg_reciprocal_interlaces_or_raises(gaps, shift, logb, gamma, zeta):
    # residues 10^U(-320, 5), subnormals included, and pole spacings over
    # seven decades
    _assert_interlaces_or_raises(gaps, shift, logb, gamma, zeta)


@settings(max_examples=200, deadline=None)
@given(**_WIDE_POLE_SETS)
# two poles 1e160 apart: (d - x)**2 in the residue of a zero raised OverflowError
@example(gaps=[160.0], shift=0.5, logb=[0.0] * 12, gamma=1.0, zeta=0.0)
# h' = 8e-325 at the midpoint zero underflows to 0, so its residue 1/h' leaves the floats
@example(gaps=[155.0], shift=0.0, logb=[-15.0] * 12, gamma=0.0, zeta=0.0)
def test_neg_reciprocal_interlaces_or_raises_across_spacings_whose_squares_overflow(
        gaps, shift, logb, gamma, zeta):
    # as above, with pole spacings above 1.4e154 mixed in
    _assert_interlaces_or_raises(gaps, shift, logb, gamma, zeta)


@settings(max_examples=500, deadline=None)
@given(**_POLE_SETS)
@example(**_BOTH_PAST_MIDPOINT)
def test_pf_neg_reciprocal_matches_the_frozen_two_test_solver(gaps, shift, logb, gamma, zeta):
    # one midpoint test per gap and the inlined probe sums leave every float
    # of the two-test solver in tests/ratfun_reference.py as it was, or
    # raise the same exception type
    import ratfun_reference

    from peakons.ratfun import _pf_neg_reciprocal

    data = _pole_data(gaps, shift, logb)
    if data is None:
        return
    args = (gamma, zeta, *data)
    assert _hex_outcome(_pf_neg_reciprocal, *args) == _hex_outcome(
        ratfun_reference._pf_neg_reciprocal, *args), args


def test_the_pinned_input_takes_the_both_past_midpoint_branch():
    from peakons.ratfun import _anchored_terms, _anchored_value, _pf_neg_reciprocal

    mus, betas = _pole_data(**{k: _BOTH_PAST_MIDPOINT[k] for k in ("gaps", "shift", "logb")})
    gamma, zeta = _BOTH_PAST_MIDPOINT["gamma"], _BOTH_PAST_MIDPOINT["zeta"]
    half = 0.5 * (mus[2] - mus[1])
    for j, sgn in ((1, 1.0), (2, -1.0)):
        value = _anchored_value(gamma, zeta, mus[j], _anchored_terms(mus, betas, j), sgn * half)
        assert sgn * half * value - betas[j] < 0.0
    assert _pf_neg_reciprocal(gamma, zeta, mus, betas)[2][2] == mus[1] + half == 0.0


@pytest.mark.parametrize("gamma, zeta", [(1e-320, 0.0), (1e-320, 1.0), (1e-300, 1e10)])
def test_neg_reciprocal_of_a_line_leaving_float_range_is_contained(gamma, zeta):
    # -1/(gamma*z + zeta) has its pole at -zeta/gamma and the residue 1/gamma;
    # an inf in either was returned
    with pytest.raises(NonConverged, match="float range"):
        neg_reciprocal(herglotz(gamma, zeta, (), ()))


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


@pytest.mark.parametrize("vee", [0.0, 0.8], ids=["v=0", "v>0"])
def test_an_atom_anchored_first_stage_is_read_off_h(monkeypatch, vee):
    # a on an atom: h = (omega + v*z) + sum b/(mu - z) is its own first stage
    # behind a head of 0, and only the later stages take a secular solve
    from peakons import ratfun

    m = validate([(-1.0, 1.3, 0.4), (0.2, -0.7, vee), (1.5, 2.0, 0.0), (2.1, 0.6, 1.1)])
    h = weyl(m, m.points[1], "plus")
    calls = []
    solve = ratfun._pf_neg_reciprocal
    monkeypatch.setattr(ratfun, "_pf_neg_reciprocal", lambda *a: calls.append(a) or solve(*a))
    cf = cf_expand(h, "plus")
    assert cf.head_length == 0.0
    assert (cf.stages[0].c0, cf.stages[0].c1) == (h.zeta, h.gamma)
    assert len(cf.stages) == 3 and len(calls) == len(cf.stages) - 1


@pytest.mark.parametrize("gamma, zeta", [(5e-11, 0.0), (0.0, 3e-11)])
def test_a_minus_side_with_a_slope_or_constant_at_infinity_has_no_head(gamma, zeta):
    # within tol.coef of vanishing at infinity, yet a slope or constant that
    # h keeps there: its head length would be 0, which the minus side forbids
    h = HerglotzRational(gamma, zeta, (0.0, 1000.0), (0.5, 1.0))
    with pytest.raises(NonPositiveLength, match="strictly positive head length"):
        cf_expand(h, "minus")
    with pytest.raises(NonPositiveLength, match="strictly positive head length"):
        measure_from_weyl(h, 0.0, "minus")


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


def _generator_measure(rng, n):
    """A measure as the benchmark draws them: atoms near the integers, mixed-sign
    omega bounded away from 0, and v on about 40% of the atoms."""
    xs = np.arange(n) - (n - 1) / 2.0 + rng.uniform(-0.1, 0.1, n)
    return validate([(float(x), float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.5)),
                      float(rng.uniform(0.2, 1.5)) if rng.random() < 0.4 else 0.0) for x in xs])


def _generator_stages(seed, count):
    """The (poles, residues) input of every stage of the plus-side Weyl
    functions of count benchmark-like measures, origin pole pinned."""
    from peakons.ratfun import _stage

    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = _generator_measure(rng, int(rng.integers(2, 9)))
        h = weyl(m, m.points[0] - float(rng.uniform(0.3, 1.5)), "plus")
        mus, betas = list(h.poles), list(h.residues)
        i0 = min(range(len(mus)), key=lambda i: abs(mus[i]))
        mus[i0], betas[i0] = 0.0, 0.5
        while len(mus) > 1:
            yield mus, betas
            _, _, (_, _, mus, betas) = _stage(mus, betas, max(1.0, max(map(abs, mus))))


def _mp_stage(mpmath, mus, betas, const):
    """_stage's (c0, c1) in 60 digits from the same pole data, with s1 and the
    (pole, residue) pairs for _mp_pole; const is the float stage's decision."""
    mp = mpmath.mp
    with mpmath.workdps(60):
        mus, betas = [mp.mpf(u) for u in mus], [mp.mpf(b) for b in betas]
        s1, s2, s3, s4 = (mp.fsum(b * u ** k for b, u in zip(betas, mus)) for k in range(4))
        a1, a2, a3 = s2 / s1, s3 / s1, s4 / s1
        A, B = (a2 - a1 ** 2) / s1, (a1 ** 3 - 2 * a1 * a2 + a3) / s1
        c0, c1 = (s1 / a1, mp.mpf(0)) if const else (-B / A ** 2, 1 / A)
        return c0, c1, s1, list(zip(mus, betas))


def _mp_pole(mpmath, pairs, p):
    """The root of P(z) = sum_{mu != 0} b*mu/(mu - z) polished by Newton steps
    from the float pole p, in 60 digits, and the residue 1/g' there, with
    g = -1/h - z/s1."""
    with mpmath.workdps(60):
        z = mpmath.mpf(p)
        for _ in range(60):
            P = mpmath.fsum(b * u / (u - z) for u, b in pairs if u)
            dP = mpmath.fsum(b * u / (u - z) ** 2 for u, b in pairs if u)
            step = P / dP
            z -= step
            if abs(step) <= mpmath.mpf(10) ** -55 * abs(z):
                break
        h = mpmath.fsum(b / (u - z) for u, b in pairs)
        dh = mpmath.fsum(b / (u - z) ** 2 for u, b in pairs)
        s1 = mpmath.fsum(b for _, b in pairs)
        return z, 1 / (dh / h ** 2 - 1 / s1)


def test_one_peel_stage_against_a_60_digit_stage():
    # every stage of the plus-side Weyl functions of benchmark-like measures,
    # v-stages included, against the same stage in 60 digits: the stage
    # constants and the poles within 1e-13, the residues within 1e-12
    mpmath = pytest.importorskip("mpmath")
    from peakons.ratfun import _stage

    worst = {"c": 0.0, "pole": 0.0, "residue": 0.0}
    kinds = set()
    for mus, betas in _generator_stages(27, 12):
        _, _, (c1, c0, poles, residues) = _stage(mus, betas, max(1.0, max(map(abs, mus))))
        kinds.add(c1 > 0.0)
        ref = _mp_stage(mpmath, mus, betas, c1 == 0.0)
        for x, r in zip((c0, c1), ref[:2]):
            worst["c"] = max(worst["c"], float(abs(x - r) / abs(r)) if r else abs(x))
        b0 = betas[mus.index(0.0)]
        for p, b in zip(poles, residues):
            z, rb = (0.0, b0 * ref[2] / (ref[2] - b0)) if p == 0.0 else _mp_pole(mpmath, ref[3], p)
            worst["pole"] = max(worst["pole"], float(abs(p - z) / abs(z)) if p else 0.0)
            worst["residue"] = max(worst["residue"], float(abs(b - rb) / rb))
    assert kinds == {False, True}
    assert worst["c"] <= 1e-13 and worst["pole"] <= 1e-13 and worst["residue"] <= 1e-12, worst


def test_one_peel_stage_scales_with_residues_near_1e168():
    # flow residues reach 1e168 at t = 200, where s1^2, s1^3 and (s1/w)^2
    # overflow and A^2 underflows: scaled by c = 2^560 every value of a stage
    # scales exactly by c or 1/c, but the constant rest, which rounds in its
    # division form, and c0 = -1/rest
    from peakons.ratfun import _stage

    c = 2.0 ** 560
    for mus, betas in _generator_stages(31, 8):
        span = max(1.0, max(map(abs, mus)))
        l, rest, (c1, c0, poles, residues) = _stage(mus, betas, span)
        l2, rest2, (c1b, c0b, poles2, residues2) = _stage(mus, [b * c for b in betas], span)
        assert (l2 * c, c1b / c, poles2, [b / c for b in residues2]) == (l, c1, poles, residues)
        assert rest2 * c == pytest.approx(rest, rel=1e-15) and c0b / c == pytest.approx(c0, rel=1e-15)


def test_a_v_stage_of_two_poles_has_no_terminal_length():
    # a v-stage drops Q's zero nearest w = 0; of two poles Q has none, and
    # the origin pole would be left with no length.  No two-pole remainder
    # fails the 1e-8 test, so span = 0 takes the v branch here
    from peakons.errors import DegreeMismatch
    from peakons.ratfun import _stage

    with pytest.raises(DegreeMismatch, match="without its terminal length"):
        _stage([0.0, 1.0], [0.5, 0.5], 0.0)
