import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import MpForward, random_measure, rel_err
from peakons import (
    DEFAULT,
    FlowState,
    HerglotzRational,
    SpectralData,
    eigenvalues,
    evolve_spectral,
    herglotz,
    measure_at,
    measure_from_spectral_data,
    measure_from_weyl,
    spectral_data,
    validate,
    weyl,
)
from peakons.errors import (ConsistencyFail, Infeasible, NonConverged, NotHerglotz,
                            NumericalError, PeakonError, ValidationError)
from peakons.inverse import _left_end


def test_free_minus_side_is_empty():
    h = HerglotzRational(0.0, 0.0, (0.0,), (0.5,))
    half = measure_from_weyl(h, -1.0, "minus")
    assert half.n == 0


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("tol", [DEFAULT, DEFAULT.with_overrides(cf=0.0, coef=0.0)],
                         ids=["default", "zero"])
def test_the_free_side_takes_the_result_of_its_continued_fraction(monkeypatch, side, tol):
    # -1/(2z) is inverted without a continued fraction; with that shortcut
    # switched off, cf_expand gives the same empty measure, head length 2
    from peakons import inverse

    h = HerglotzRational(0.0, 0.0, (0.0,), (0.5,))
    fast = measure_from_weyl(h, -1.5, side, tol)
    cf = inverse.cf_expand(h, side, tol)
    assert (cf.head_length, cf.stages) == (2.0, ())
    monkeypatch.setattr(inverse, "_FREE_SIDE", None)
    assert measure_from_weyl(h, -1.5, side, tol) == fast
    assert fast == inverse.HalfLineMeasure((), (), (), -1.5, side)


def test_a_bad_side_is_a_value_error_on_the_free_side_too():
    with pytest.raises(ValueError, match="side must be plus or minus"):
        measure_from_weyl(HerglotzRational(0.0, 0.0, (0.0,), (0.5,)), -1.0, "left")


def test_single_peakon_weyl_roundtrip():
    m = validate([(0.0, 2.0, 0.0)])
    half = measure_from_weyl(weyl(m, -1.0, "plus"), -1.0, "plus")
    assert half.n == 1
    assert half.points[0] == pytest.approx(0.0, abs=1e-9)
    assert half.omega[0] == pytest.approx(2.0, rel=1e-9)
    assert half.vee[0] == pytest.approx(0.0, abs=1e-9)


def test_both_sides_concatenate_to_original(rng):
    for _ in range(10):
        m = random_measure(rng, n=6)
        a = float(m.points[m.n // 2])  # a on a support point: atom goes plus
        plus = measure_from_weyl(weyl(m, a, "plus"), a, "plus")
        minus = measure_from_weyl(weyl(m, a, "minus"), a, "minus")
        back = validate(plus.triples() + minus.triples())
        assert back.n == m.n
        for i in range(m.n):
            assert back.points[i] == pytest.approx(m.points[i], abs=1e-7)
            assert back.omega[i] == pytest.approx(m.omega[i], rel=1e-7, abs=1e-7)
            assert back.vee[i] == pytest.approx(m.vee[i], rel=1e-7, abs=1e-7)


def test_spectral_closed_forms():
    m = measure_from_spectral_data(SpectralData((0.5,), (1.0,)))
    assert m.points[0] == pytest.approx(0.0, abs=1e-9)
    assert m.omega[0] == pytest.approx(2.0, rel=1e-9)
    m2 = measure_from_spectral_data(SpectralData((0.5,), (math.exp(-1.0),)))
    assert m2.points[0] == pytest.approx(1.0, abs=1e-9)
    assert m2.omega[0] == pytest.approx(2.0, rel=1e-9)


def test_spectral_roundtrip(rng):
    for _ in range(20):
        m = random_measure(rng, n=int(rng.integers(1, 7)))
        back = measure_from_spectral_data(spectral_data(m))
        assert back.n == m.n
        for i in range(m.n):
            assert back.points[i] == pytest.approx(m.points[i], abs=1e-6)
            assert back.omega[i] == pytest.approx(m.omega[i], rel=1e-6, abs=1e-6)
            assert back.vee[i] == pytest.approx(m.vee[i], rel=1e-6, abs=1e-6)


def test_reconstruction_deterministic():
    sd = SpectralData((-1.5, 0.5, 2.0), (0.7, 1.3, 0.4))
    m1 = measure_from_spectral_data(sd)
    m2 = measure_from_spectral_data(sd)
    assert m1 == m2


def test_far_shifted_support():
    # the closed-form anchor follows the support far from the origin either way
    sd = spectral_data(validate([(8.0, 1.5, 0.0), (9.0, 0.5, 0.2)]))
    back = measure_from_spectral_data(sd)
    assert back.points[0] == pytest.approx(8.0, abs=1e-6)
    sd2 = spectral_data(validate([(-9.0, 1.5, 0.0), (-8.0, 0.5, 0.2)]))
    back2 = measure_from_spectral_data(sd2)
    assert back2.points[0] == pytest.approx(-9.0, abs=1e-6)


@pytest.mark.parametrize("lam", [1e-320, -1e-300])
def test_eigenvalue_with_underflowing_square_is_rejected(lam):
    # the inverse divides by lambda^2; this leaked ZeroDivisionError
    with pytest.raises(ValidationError):
        measure_from_spectral_data(SpectralData((lam, 2.0), (1.0, 1.0)))
    with pytest.raises(ValidationError):
        SpectralData.from_json_obj({"eigenvalues": [lam, 2.0], "norming": [1.0, 1.0]})


# ------------------------------------------- closed-form anchor and warm verify

def _generator_spectra(seed, sizes, per_size):
    """(measure, spectral data) of generator-style measures whose forward solve succeeds."""
    from test_forward import _generator_measure

    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        for _ in range(per_size):
            m = _generator_measure(rng, n)
            try:
                out.append((m, spectral_data(m)))
            except NumericalError:  # forward limits are tested in test_forward
                continue
    return out


def test_left_end_closed_form_is_the_first_support_point():
    cases = _generator_spectra(41, range(1, 17), 4)
    assert len(cases) >= 60
    for m, sd in cases:
        assert _left_end(sd) == pytest.approx(m.points[0], rel=1e-12, abs=1e-12)


def test_left_end_closed_form_along_the_flow():
    checked = 0
    for m, _ in _generator_spectra(43, (3, 5, 8), 3):
        fs = FlowState.from_measure(m)
        for t in (0.0, 5.0, 20.0, 40.0, 80.0):
            try:
                mt = measure_at(fs, t)
            except NumericalError:  # the inverse's reach in t is tested elsewhere
                continue
            assert _left_end(evolve_spectral(fs, t)) == pytest.approx(
                mt.points[0], rel=1e-12, abs=1e-12)
            checked += 1
    assert checked >= 20


def test_warm_start_returns_the_cold_eigenvalues_bit_for_bit():
    # guesses change the number of counts only; the count wobbles within a
    # few ulps of some roots, which a bracket not on the cold tree would show
    from test_forward import _generator_measure

    rng = np.random.default_rng(47)
    measures = [_generator_measure(rng, n) for n in range(1, 17) for _ in range(5)]
    measures += [random_measure(rng, n=int(rng.integers(1, 9))) for _ in range(40)]
    for m in measures:
        cold = eigenvalues(m)
        nears = (
            cold,
            [x * (1.0 + 1e-12) for x in cold],
            [x * (1.0 - 1e-3) for x in cold],
            cold[:-1],
            cold + [cold[-1] + 1.0],
            [-x for x in cold],
        )
        for near in nears:
            warm = eigenvalues(m, near=near)
            assert [x.hex() for x in warm] == [x.hex() for x in cold]


def _count_cf_expand(monkeypatch) -> list:
    """Every continued fraction of the inverse: one per reference point tried,
    since its minus side, the exact -1/(2z) there, is inverted without one."""
    from peakons import inverse

    calls = []
    expand = inverse.cf_expand
    monkeypatch.setattr(inverse, "cf_expand", lambda *a: calls.append(a) or expand(*a))
    return calls


def test_one_continued_fraction_per_inverse_on_generator_measures(monkeypatch):
    calls = _count_cf_expand(monkeypatch)
    cases = _generator_spectra(53, range(1, 17), 3)
    assert len(cases) >= 45
    for _, sd in cases:
        calls.clear()
        measure_from_spectral_data(sd)
        assert len(calls) == 1


# a flow step whose support is 102 wide; the sweep merge failed its verification
FAILED_ANCHOR_SD = SpectralData(
    (0.44942166003438744, 1.774610845127742, 5.6337372468186295),
    (1.726086399315825e-49, 3.464143367094688e-12, 0.020992661617613928))


def test_a_failed_anchor_is_infeasible_after_one_attempt(monkeypatch):
    # a reconstruction that fails its verification (at tol.cons = 0 the two W'
    # routes must agree to the bit): no fallback point is tried, and the
    # verification's error is the cause
    calls = _count_cf_expand(monkeypatch)
    with pytest.raises(Infeasible, match=r"anchor a = 9\.30816") as info:
        measure_from_spectral_data(FAILED_ANCHOR_SD, DEFAULT.with_overrides(cons=0.0))
    assert len(calls) == 1
    assert isinstance(info.value.__cause__, ConsistencyFail)
    assert str(info.value.__cause__) in str(info.value)


def test_the_once_failed_anchor_reconstructs_the_oracle_s_data():
    m = measure_from_spectral_data(FAILED_ANCHOR_SD)
    assert m.points[-1] - m.points[0] > 100.0
    oracle = MpForward(m).spectral(FAILED_ANCHOR_SD.eigenvalues)
    assert max(rel_err(k, ref) for k, (_, ref) in zip(FAILED_ANCHOR_SD.norming, oracle)) <= 1e-13


# two copies of one block, 20.5 apart, whose weights differ by 3.2e-5: four
# eigenvalue pairs lie about 1e-5 apart, and a kappa of such a pair moves by
# about 2/gap times an eigenvalue error of the reconstruction
TWIN_BLOCKS = [
    (0.06045301223363672, -0.78665875920067, 0.0),
    (0.9898982129577476, 2.01406370761168, 0.23685171947860822),
    (2.067153020783974, 1.5971073914560985, 0.0),
    (3.039166573353689, 1.8595420743837998, 1.428851904220099),
    (20.582938258322308, -0.7866840477356715, 0.0),
    (21.51238345904642, 2.0141284532462636, 0.23685171947860822),
    (22.589638266872644, 1.5971587332935822, 0.0),
    (23.56165181944236, 1.8596018526476084, 1.428851904220099),
]


def test_a_kappa_miss_is_mended_by_one_newton_step(monkeypatch):
    from peakons import inverse

    m = validate(TWIN_BLOCKS)
    sd = spectral_data(m)
    steps = []
    newton = inverse._newton_step
    monkeypatch.setattr(inverse, "_newton_step", lambda *a: steps.append(a) or newton(*a))
    back = measure_from_spectral_data(sd)
    assert len(steps) == 1
    assert max(abs(x - y) for x, y in zip(back.points, m.points)) <= 1e-9
    oracle = MpForward(back).spectral(sd.eigenvalues)
    assert max(rel_err(k, ref) for k, (_, ref) in zip(sd.norming, oracle)) <= DEFAULT.inv
    # without the step the continued fraction's measure misses the data

    def refuse(*a):
        raise NumericalError("no step")

    monkeypatch.setattr(inverse, "_newton_step", refuse)
    with pytest.raises(Infeasible, match="misses the data by 3.4"):
        measure_from_spectral_data(sd)


def test_a_reconstruction_within_tol_inv_takes_no_newton_step(monkeypatch):
    from peakons import inverse

    monkeypatch.setattr(inverse, "_newton_step", lambda *a: 1 / 0)
    for _, sd in _generator_spectra(53, range(1, 17), 3):
        measure_from_spectral_data(sd)


def test_damped_lstsq_solves_a_consistent_system():
    from peakons.inverse import _damped_lstsq

    cols = [[1.0, 0.0, 1.0], [0.0, 2.0, 2.0]]  # columns of a 3 x 2 system
    x = _damped_lstsq(cols, [1.0, 4.0, 5.0])
    assert x == pytest.approx([1.0, 2.0], rel=1e-9)
    with pytest.raises(NumericalError, match="zero or not finite"):
        _damped_lstsq([[0.0, 0.0, 0.0]], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("n", [24, 48])
def test_roundtrip_positions_at_large_n(n):
    # the sweep merge ended in ConsistencyFail from n = 24 on; the inverse of
    # the library's spectral data and of the oracle's gives back the positions
    from test_forward import _generator_measure

    m = _generator_measure(np.random.default_rng(900 + n), n)
    sd = spectral_data(m)
    oracle = MpForward(m).spectral(sd.eigenvalues)
    exact = SpectralData(tuple(float(lam) for lam, _ in oracle), tuple(float(k) for _, k in oracle))
    for data in (sd, exact):
        back = measure_from_spectral_data(data)
        assert back.n == m.n
        assert max(abs(x - y) for x, y in zip(back.points, m.points)) <= 1e-10


def test_norming_at_the_top_of_float_range_reconstructs():
    # kappa = 1.7e308 puts the one atom at x_1 = -log kappa, where phi(x_1)^2
    # overflows and c_lam = e^{x_1} is subnormal
    sd = SpectralData((0.5,), (1.7e308,))
    m = measure_from_spectral_data(sd)
    assert m.points[0] == pytest.approx(-math.log(1.7e308), abs=1e-12)
    assert m.omega == pytest.approx((2.0,), rel=1e-12)
    (_, ref), = MpForward(m).spectral(sd.eigenvalues)
    assert rel_err(sd.norming[0], ref) <= 1e-13


@pytest.mark.parametrize("k", [23, 34, 38, 39, 41, 44])
def test_roundtrip_at_n16_once_rejected_by_the_norming_check(k):
    # the k-th n = 16 generator measure of seed 61; its raw-sweep kappa failed
    # the W' check with ConsistencyFail
    from test_forward import _generator_measure

    rng = np.random.default_rng(61)
    for _ in range(k + 1):
        m = _generator_measure(rng, 16)
    back = measure_from_spectral_data(spectral_data(m))
    assert back.n == m.n
    assert max(abs(x - y) for x, y in zip(back.points, m.points)) <= 1e-8


@pytest.mark.parametrize("eigs, norming", [
    ((0.5, 0.5 + 1e-12), (1e306, 1e306)),  # the anchor lies near x = -760, where e^a underflows
    ((-2.0, 0.5), (1e-300, 1e300)),
    ((1e-100, 1e100), (1.0, 1.0)),
    ((0.5,), (1e-310,)),  # the anchor lies near x = 713, where e^a overflows
    ((-1e100, 1e-100), (1e-320, 1e308)),
])
def test_overflowing_norming_data_ends_in_a_peakon_error(eigs, norming):
    sd = SpectralData(eigs, norming)
    x1 = _left_end(sd)  # never raises
    assert isinstance(x1, float)
    with pytest.raises(PeakonError):
        measure_from_spectral_data(sd)


@pytest.mark.parametrize("eigs, norming", [
    ((0.5,), (math.nan,)),
    ((math.nan,), (1.0,)),
    ((0.5, 1.5), (1.0, math.inf)),
])
def test_non_finite_spectral_data_is_a_validation_error(eigs, norming):
    # a NaN norming constant passed every check and leaked ValueError from the inverse
    with pytest.raises(ValidationError, match="must be finite"):
        measure_from_spectral_data(SpectralData(eigs, norming))


def test_wdot_square_underflow_is_a_numerical_error():
    # 24 eigenvalues 4e-15 apart: W'(lambda)^2 underflowed to a ZeroDivisionError
    sd = SpectralData(tuple(1.0 + k * 4e-15 for k in range(24)), (1.0,) * 24)
    with pytest.raises(NumericalError):
        measure_from_spectral_data(sd)


def test_residue_sum_square_underflow_is_a_numerical_error():
    # at +-1e-150 the residues of F summed to about 1e-300, whose square
    # underflowed to a ZeroDivisionError; at +-1e-155 a residue weight of the
    # reconstruction underflows to 0
    with pytest.raises(NumericalError) as info:
        measure_from_spectral_data(SpectralData((-1e-155, 1e-155), (1.0, 1.0)))
    assert isinstance(info.value.__cause__, NotHerglotz)


def test_residue_sum_with_underflowing_square_reconstructs():
    # the residues of F sum to about 8e-301: z2 = -(s2/s1)/s1 stays in range
    # where s1*s1 underflows, and the data come from one v-atom at ln 2
    sd = SpectralData((-1e-150, 1e-150), (1.0, 1.0))
    m = measure_from_spectral_data(sd)
    assert m.points == pytest.approx((math.log(2.0),), rel=1e-14)
    assert m.omega == (0.0,)
    assert m.vee == pytest.approx((1e300,), rel=1e-14)
    back = spectral_data(m)
    assert back.eigenvalues == pytest.approx(sd.eigenvalues, rel=1e-14)
    assert back.norming == pytest.approx(sd.norming, rel=1e-14)


def test_verify_rejects_a_spectrum_of_another_size():
    from peakons.forward import _resolve

    m = validate([(0.0, 2.0, 0.0)])  # one eigenvalue, not three
    with pytest.raises(NumericalError, match="1 eigenvalues, expected 3"):
        _resolve(m, (-1.5, 0.5, 2.0), DEFAULT)


def test_resolve_rejects_an_eigenvalue_outside_tol_inv():
    from peakons.forward import _resolve

    m = validate([(0.0, 2.0, 0.0), (1.0, 0.5, 0.0)])
    lams = spectral_data(m).eigenvalues
    sd, atoms = _resolve(m, lams, DEFAULT)
    assert sd == spectral_data(m) and len(atoms) == 2
    off = (lams[0], lams[1] * (1.0 + 1e-5))
    with pytest.raises(NumericalError, match=f"eigenvalue {off[1]} reproduced as {lams[1]}"):
        _resolve(m, off, DEFAULT)
    tight = DEFAULT.with_overrides(inv=0.0)
    _resolve(m, lams, tight)  # exactly reproduced


@settings(max_examples=300, deadline=None)
@given(
    poles=st.lists(st.tuples(st.floats(-6.0, 2.0), st.booleans(), st.floats(-300.0, 300.0)), max_size=9),
    gamma=st.one_of(st.just(0.0), st.floats(-5.0, 2.0).map(lambda e: 10.0 ** e)),
    zeta=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    side=st.sampled_from(("plus", "minus")),
    a=st.floats(-50.0, 50.0),
)
def test_measure_from_weyl_returns_or_raises_a_peakon_error(poles, gamma, zeta, side, a):
    # random Herglotz data with the origin pole pinned at residue 1/2, the
    # other poles 1e-6 to 100 from it on either side with residues 10^U(-300, 300):
    # the half-line inverse returns finite atoms or raises a PeakonError
    mus = [0.0] + [10.0 ** e if right else -10.0 ** e for e, right, _ in poles]
    betas = [0.5] + [10.0 ** e for _, _, e in poles]
    try:
        h = herglotz(gamma, zeta, mus, betas)
    except NotHerglotz:  # two poles on one float
        return
    try:
        half = measure_from_weyl(h, a, side)
    except PeakonError:
        return
    assert all(map(math.isfinite, (*half.points, *half.omega, *half.vee)))


# data whose two-inversion stages underflowed a residue to 0 (and leaked
# ZeroDivisionError before that was caught); one inversion per stage never
# forms those residues, and both expand
_TWO_PEEL_UNDERFLOWS = {
    "offset": (4.423491214913143e-05, 0.0,
               (0.0, -1.2372863571048118e-06, 0.007413809083425229, 0.4239898520497565,
                0.000924328805225356, 0.00024131392476869126, 0.034107385050181564, 6.03845673473307e-06),
               (0.5, 3.4414274623485816e-299, 5.1434747393357844e-152, 7.193107287737874e-79,
                3.618024067433458e-223, 3.1193002607780316e-161, 3.1202831623747327e-102,
                7.510223814392767e-266),
               "plus", 33.06234146177013),
    "residue_sum": (0.0, 0.0,
                    (0.0, 2.3838527354679683e-06, 0.0023662653285689353, -0.00014177974532939553,
                     0.2800811108713131),
                    (0.5, 1.3436167147803163e-298, 6.939720986439724e-78, 5.577104623940519e-44,
                     2.2603537051626197e-173),
                    "minus", 37.75582324520633),
}


@pytest.mark.parametrize("gamma, zeta, poles, residues, side, a", [
    # a residue of the continued fraction underflows to 0, and a later stage
    # divides by it: at a zero's offset from its pole, or as the sum of the
    # residues of a remainder; both in the one inversion of a stage
    (0.0, 0.0, (0.0, 2.377954028409586, -0.00019030211360743094, -0.000756327739862537),
     (0.5, 1.7859085703992598e-53, 1.518969747970499e-296, 3.7189051866945782e+90),
     "minus", 15.622499902515798),
    (0.0, 0.0, (0.0, 0.37115569079157495, -60.39194530889538),
     (0.5, 1.1297536078248332e+152, 3.949074843461659e-254),
     "minus", -24.933881624021137),
], ids=["offset", "residue_sum"])
def test_a_residue_underflowing_in_the_continued_fraction_is_nonconverged(
        gamma, zeta, poles, residues, side, a):
    with pytest.raises(NonConverged, match="underflowed to 0") as info:
        measure_from_weyl(herglotz(gamma, zeta, poles, residues), a, side)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def _mp_continued_fraction(mpmath, h):
    """(lengths, stage constants c0) of h's continued fraction, c1 = 0 past the
    first stage, by polynomial division in 1200 digits: h = N/D, and each step
    divides minus the denominator by the numerator of the remainder."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def divide(a, b):  # quotient (constant, slope) and remainder; deg a <= deg b + 1
        a, q = list(a), [0, 0]
        for k in range(len(a) - len(b), -1, -1):
            q[k] = a[k + len(b) - 1] / b[-1]
            a = [x - q[k] * (b[i - k] if 0 <= i - k < len(b) else 0) for i, x in enumerate(a)]
        return q, a[:len(b) - 1]

    with mpmath.workdps(1200):
        poles = [mpmath.mpf(u) for u in h.poles]
        den = [mpmath.mpf(1)]
        for u in poles:
            den = mul(den, [u, -1])
        num = mul(den, [mpmath.mpf(h.zeta), mpmath.mpf(h.gamma)])
        for i, b in enumerate(h.residues):
            term = [mpmath.mpf(b)]
            for u in poles[:i] + poles[i + 1:]:
                term = mul(term, [u, -1])
            num = [x + y for x, y in zip(num, term + [0] * (len(num) - len(term)))]
        while not num[-1]:
            num.pop()
        lengths, c0s = [], []
        while True:  # -1/h = l z + rest + r/num, then -1/(rest + r/num) = c0 + c1 z + ...
            (rest, l), r = divide([-x for x in den], num)
            lengths.append(l)
            if len(num) == 1:
                return lengths, c0s
            g = [rest * x + (r[i] if i < len(r) else 0) for i, x in enumerate(num)]
            g = g if abs(g[-1]) > mpmath.mpf(10) ** -900 * max(map(abs, g)) else g[:-1]
            (c0, _), den = divide([-x for x in num], g)
            c0s.append(c0)
            num, den = den, g


@pytest.mark.parametrize("case", sorted(_TWO_PEEL_UNDERFLOWS))
def test_data_that_underflowed_two_inversions_per_stage_expand(case):
    mpmath = pytest.importorskip("mpmath")
    from peakons.ratfun import cf_expand

    gamma, zeta, poles, residues, side, a = _TWO_PEEL_UNDERFLOWS[case]
    h = herglotz(gamma, zeta, poles, residues)
    cf = cf_expand(h, side)
    lengths, c0s = _mp_continued_fraction(mpmath, h)
    got = [cf.head_length] + [s.length for s in cf.stages]
    assert len(got) == len(lengths) and len(cf.stages) == len(c0s)
    for x, ref in [*zip(got, lengths), *zip((s.c0 for s in cf.stages), c0s)]:
        assert abs(x - ref) <= 1e-8 * abs(ref), case
    half = measure_from_weyl(h, a, side)
    assert all(map(math.isfinite, (*half.points, *half.omega, *half.vee)))
