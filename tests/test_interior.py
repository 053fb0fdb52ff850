"""Interior inverse problem: feasibility gate, pole splitting, enumeration."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from peakons import (
    DEFAULT,
    InteriorData,
    PeakonMeasure,
    alpha_beta,
    enumerate_solutions,
    feasibility,
    forward,
    interior_data,
    measure_from_spectral_data,
    modulus_family_count,
    pole_split,
    solution_count,
    spectral_data,
    sum_weyl,
    validate,
)
from peakons.errors import NotHerglotz, PeakonError, UnresolvedPole, ValidationError
from peakons.interior import _pole_split
from peakons.inverse import _left_end
from peakons.ratfun import HerglotzRational
from peakons.forward import _shoot

from conftest import perfbench_gen, random_measure


def _single_peakon():
    return validate([(0.0, 2.0, 0.0)], DEFAULT)


def _phi_zero_of_second(m, lo, hi):
    """Bisect the root of the second eigenfunction between two atoms."""
    sd = spectral_data(m)
    lam = sd.eigenvalues[1]
    f = lambda x: _shoot(m, lam, x, "plus")[0]
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------------ regimes

def test_single_peakon_unique():
    m = _single_peakon()
    d = interior_data(m, 0.0)
    assert d.phi == pytest.approx((1.0,), abs=1e-12)
    alpha, beta = alpha_beta(d)
    assert alpha == 0.0
    assert beta == pytest.approx(-0.5, abs=1e-12)
    assert feasibility(d).ok
    count = solution_count(d)
    assert (count.kind, count.branches, count.dim) == ("unique", 1, 0)
    fam = enumerate_solutions(d)
    assert len(fam) == 1 and not fam.errors
    got = fam[0]
    assert got.points == pytest.approx((0.0,), abs=1e-9)
    assert got.omega == pytest.approx((2.0,), abs=1e-9)
    assert modulus_family_count(d) == 1


def test_two_branch_shift_pair():
    # phi_1(a) = e^{-1/2} at a = 0 admits exactly the shifts x_1 = -1 and 1
    d = InteriorData(0.0, (0.5,), (math.exp(-0.5),))
    assert feasibility(d).ok
    count = solution_count(d)
    assert (count.kind, count.branches, count.dim) == ("finite", 2, 0)
    fam = enumerate_solutions(d)
    assert len(fam) == 2 and not fam.errors
    xs = sorted(m.points[0] for m in fam)
    assert xs == pytest.approx([-1.0, 1.0], abs=1e-9)
    for m in fam:
        assert m.omega == pytest.approx((2.0,), abs=1e-9)
    # norming constants of the two branches: e^{-x_1}
    kappas = sorted(spectral_data(m).norming[0] for m in fam)
    assert kappas == pytest.approx([math.exp(-1.0), math.exp(1.0)], rel=1e-9)
    assert modulus_family_count(d) == 2


def test_free_to_minus_lists_the_free_poles_of_each_branch():
    fam = enumerate_solutions(InteriorData(0.0, (0.5,), (math.exp(-0.5),)))
    (mu, _), = fam.assignment.free_poles
    assert fam.free_to_minus == [[], [mu]]


def test_alpha_and_beta_come_from_the_snapped_phi():
    # phi = 0.004 is a node under tol.phi = 0.01, so the data read as their snapped copy
    tol = DEFAULT.with_overrides(phi=0.01)
    d = InteriorData(0.0, (-1.0, 0.5, 2.0), (0.3, 0.6, 0.004))
    snapped = InteriorData(0.0, (-1.0, 0.5, 2.0), (0.3, 0.6, 0.0))
    assert alpha_beta(d, tol) == alpha_beta(snapped, tol) == pytest.approx((0.55, -0.09), rel=1e-15)
    assert sum_weyl(d, tol) == sum_weyl(snapped, tol)


def test_point_mass_with_vee_regime():
    # alpha = beta = 0 forces a single atom carrying v at the point itself
    p2, q2 = 2.0 / 3.0, 1.0 / 3.0
    d = InteriorData(0.0, (-1.0, 2.0), (math.sqrt(p2), math.sqrt(q2)))
    alpha, beta = alpha_beta(d)
    assert alpha == 0.0 and beta == 0.0
    assert feasibility(d).ok
    count = solution_count(d)
    assert (count.kind, count.branches, count.dim) == ("unique", 1, 0)
    fam = enumerate_solutions(d)
    assert len(fam) == 1 and not fam.errors
    got = fam[0]
    assert got.n == 1
    assert got.points[0] == pytest.approx(0.0, abs=1e-9)
    assert got.vee[0] > 0.0
    assert modulus_family_count(d) == 1


# ------------------------------------------------------------------ families

def test_theta_family_two_members():
    m = validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)], DEFAULT)
    a = _phi_zero_of_second(m, 0.0, 1.0)
    d = interior_data(m, a)
    assert d.phi[1] == 0.0
    assert feasibility(d).ok
    count = solution_count(d)
    assert count.dim == 1 and count.kind == "family"
    asg = pole_split(d)
    assert count.branches == 2 ** len(asg.free_poles)
    fam3 = enumerate_solutions(d, splits=[0.3])
    fam7 = enumerate_solutions(d, splits=[0.7])
    assert fam3.measures and fam7.measures
    # distinct measures carrying identical interior data
    a3, a7 = fam3[0], fam7[0]
    assert max(abs(p - q) for p, q in zip(a3.points, a7.points)) > 1e-3
    for got in (a3, a7):
        back = interior_data(got, a)
        assert back.eigenvalues == pytest.approx(d.eigenvalues, rel=1e-6)
        assert back.phi == pytest.approx(d.phi, abs=1e-6)


def test_split_given_as_dict_matches_sequence():
    m = validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)], DEFAULT)
    a = _phi_zero_of_second(m, 0.0, 1.0)
    d = interior_data(m, a)
    f1 = enumerate_solutions(d, splits=[0.4])
    f2 = enumerate_solutions(d, splits={0: 0.4})
    assert [m.points for m in f1] == [m.points for m in f2]
    assert [m.omega for m in f1] == [m.omega for m in f2]


def test_split_validation():
    m = validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)], DEFAULT)
    a = _phi_zero_of_second(m, 0.0, 1.0)
    d = interior_data(m, a)
    with pytest.raises(ValidationError):
        enumerate_solutions(d, splits=[0.3, 0.4])
    with pytest.raises(ValidationError):
        enumerate_solutions(d, splits=[1.0])
    with pytest.raises(ValidationError):
        enumerate_solutions(d, splits=[0.0])
    for bad in (["abc"], {0: "abc"}, [None]):  # these leaked ValueError and TypeError
        with pytest.raises(ValidationError):
            enumerate_solutions(d, splits=bad)


# 20 atoms, 8 with v, N = 27: the benchmark generator's measure_triples(sub_rng(32, 9, 20), 20).
# Free poles lie only beyond the ends of the spectrum, so any N has at most 4 branches
N27_TRIPLES = [
    (-9.540250722409821, -0.5228633753006071, 0.8758868555104056),
    (-8.456195567273674, 2.2917922219463627, 0.0),
    (-7.440859033318761, 1.7193124744073809, 0.661279005016213),
    (-6.47230257806831, 1.3051399672202852, 0.0),
    (-5.422180231717075, 0.3692602867975269, 0.0),
    (-4.447303203634943, 0.7151002695623021, 0.0),
    (-3.479396580038234, -1.4517771441582616, 0.0),
    (-2.423185978546077, 1.3997148978012777, 0.6072805167637416),
    (-1.4486208170601576, 2.4118826083590097, 0.7233990658369251),
    (-0.5574772350228827, -2.0536791329300286, 0.0),
    (0.4137597196384736, -0.7291282756133883, 0.0),
    (1.5011750795494783, -1.315389507313214, 0.0),
    (2.4412556044335454, -1.0421230402499757, 0.0),
    (3.458225087531619, 1.8892659598316115, 0.7252355657653158),
    (4.5042005761582535, 1.5658628903043157, 0.0),
    (5.529003376343189, 0.4035006899491066, 0.7944057557964068),
    (6.554906330935555, -1.693259588835247, 0.0),
    (7.525060588836128, 0.6150654847099564, 1.2592618286445891),
    (8.455598191552857, -1.0957104755397207, 0.0),
    (9.596557509367717, 2.248277462625071, 0.0),
]


def test_enumeration_beyond_two_dozen_eigenvalues_recovers_its_source():
    m = validate(N27_TRIPLES)
    d = interior_data(m, m.points[0] - 0.5)
    assert len(d.eigenvalues) == 27
    fam = enumerate_solutions(d)
    assert len(fam) + len(fam.errors) == solution_count(d).branches == 4
    errs = [
        max(abs(p - q) for p, q in zip(got.points + got.omega + got.vee,
                                       m.points + m.omega + m.vee))
        for got in fam if got.n == m.n
    ]
    assert errs and min(errs) < 1e-12, [str(e) for _, e in fam.errors]


# ------------------------------------------------------------------ gate

def test_gate_sum_exceeds_one():
    d = InteriorData(0.0, (0.5, 1.0), (1.2, 0.3))
    rep = feasibility(d)
    assert not rep.ok
    assert any(tag == "iii" for tag, _ in rep.violations)
    with pytest.raises(NotHerglotz):
        enumerate_solutions(d)


def test_gate_wrong_sign_next_to_origin():
    rep = feasibility(InteriorData(0.0, (0.5, 1.0), (-0.5, 0.3)))
    assert not rep.ok
    assert any(tag == "iii" for tag, _ in rep.violations)
    # both neighbors of 0 must be positive when the spectrum straddles it
    rep2 = feasibility(InteriorData(0.0, (-1.0, 0.5), (0.4, -0.4)))
    assert not rep2.ok
    assert any(tag == "iii" for tag, _ in rep2.violations)


def test_gate_zero_with_same_sign_neighbors():
    rep = feasibility(InteriorData(0.0, (0.5, 1.0, 1.5), (0.3, 0.0, 0.2)))
    assert not rep.ok
    assert any(tag == "ii" for tag, _ in rep.violations)


def test_gate_consecutive_zeros():
    rep = feasibility(InteriorData(0.0, (0.5, 1.0, 1.5), (0.3, 0.0, 0.0)))
    assert not rep.ok
    assert any(tag == "ii" for tag, _ in rep.violations)


def test_gate_function_value_at_zeroed_eigenvalue():
    # sign pattern is fine but F(1.0) != 0 for generic magnitudes
    rep = feasibility(InteriorData(0.0, (0.5, 1.0, 2.0), (0.5, 0.0, -0.4)))
    assert not rep.ok
    assert any(tag == "i" for tag, _ in rep.violations)


def test_gate_value_test_takes_the_alpha_that_sum_weyl_inverts():
    # sum phi^2 = 1 - 5e-10, so alpha reads 0 within tol.ab; F(500) vanishes
    # with that alpha, not with the raw 5e-10, and the one branch is the data's
    d = InteriorData(0.0, (1.0, 500.0, 1000.0), (0.999499373936522, 0.0, -0.03163859985050698))
    rep = feasibility(d)
    assert rep.alpha == 0.0
    assert rep.ok, rep.violations
    fam = enumerate_solutions(d)
    assert len(fam) == 1 and not fam.errors
    back = interior_data(fam[0], d.a)
    assert back.eigenvalues == pytest.approx(d.eigenvalues, rel=1e-9)
    assert back.phi == pytest.approx(d.phi, abs=1e-9)


def test_gate_extreme_values_when_alpha_beta_zero():
    # p + q = 1 and -p + 2q = 0 give alpha = beta = 0; the zeroed top
    # entry then violates the nonzero-extremes requirement
    p2, q2 = 2.0 / 3.0, 1.0 / 3.0
    d = InteriorData(0.0, (-1.0, 2.0, 5.0), (math.sqrt(p2), math.sqrt(q2), 0.0))
    assert alpha_beta(d) == (0.0, 0.0)
    rep = feasibility(d)
    assert not rep.ok
    assert any(tag == "ends" for tag, _ in rep.violations)


def test_gate_accepts_true_data():
    rng = np.random.default_rng(5)
    for _ in range(15):
        m = random_measure(rng, n=int(rng.integers(1, 5)))
        pts = m.points
        a = pts[0] if m.n == 1 else 0.5 * (pts[0] + pts[1])
        rep = feasibility(interior_data(m, a))
        assert rep.ok, rep.violations


# ------------------------------------------------------------------ splitting

def test_sum_weyl_pole_interlacing(rng):
    for _ in range(20):
        m = random_measure(rng, n=int(rng.integers(1, 5)))
        a = m.points[0] - 0.3
        d = interior_data(m, a)
        s = sum_weyl(d)
        f_poles = sorted(
            lam for lam, p in zip(d.eigenvalues, d.phi) if p != 0.0
        )
        assert len(s.poles) in (len(f_poles), len(f_poles) + 1)
        assert min(abs(p) for p in s.poles) < 1e-8
        for lo, hi in zip(f_poles, f_poles[1:]):
            inside = [p for p in s.poles if lo < p < hi]
            assert len(inside) == 1
        assert all(r > 0 for r in s.residues)


def test_pole_split_partitions_everything(rng):
    for _ in range(20):
        m = random_measure(rng, n=int(rng.integers(1, 5)))
        a = m.points[-1] + 0.7
        d = interior_data(m, a)
        s = sum_weyl(d)
        asg = pole_split(d)
        total = 1 + len(asg.set_A) + len(asg.set_B) + len(asg.set_C) + len(asg.free_poles)
        assert total == len(s.poles)


def test_pole_split_rejects_a_weyl_sum_that_does_not_interlace():
    # F has poles 0.5 and 1.0 and no slope in -1/F: one pole per region of
    # [-inf, 0.5, 1.0, +inf], so three, not two
    d = InteriorData(0.0, (0.5, 1.0), (0.5, 0.3))
    s = HerglotzRational(0.0, 0.0, (0.0, 0.7), (0.2, 0.1))
    with pytest.raises(UnresolvedPole, match="do not interlace"):
        _pole_split(d, s, DEFAULT)


def test_pole_split_rejects_a_weyl_sum_with_no_pole_in_the_gap_of_0():
    # a slope leaves only the gap (0.5, 1.0); 0 lies below it, so no residue is shared
    d = InteriorData(0.0, (0.5, 1.0), (0.5, 0.3))
    s = HerglotzRational(1.0, 0.0, (0.7,), (0.1,))
    with pytest.raises(UnresolvedPole, match="gap holding 0"):
        _pole_split(d, s, DEFAULT)


# ------------------------------------------------------------------ roundtrip

def test_family_contains_the_source_measure(rng):
    # anchored between atoms, and on every atom, v = 0 and v > 0 both met
    on_atom_vee = set()
    for _ in range(20):
        m = random_measure(rng, n=int(rng.integers(1, 5)))
        gap = m.points[0] - 0.4 if m.n == 1 else 0.5 * (m.points[0] + m.points[1])
        on_atom_vee.update(v > 0.0 for v in m.vee)
        for a in (gap, *m.points):
            fam = enumerate_solutions(interior_data(m, a))
            assert fam.measures, [str(e) for _, e in fam.errors]
            best = min(
                max(
                    abs(p - q)
                    for p, q in zip(
                        got.points + got.omega + got.vee,
                        m.points + m.omega + m.vee,
                    )
                )
                if got.n == m.n
                else math.inf
                for got in fam
            )
            assert best < 1e-6, (m.points, m.omega, m.vee, a)
    assert on_atom_vee == {False, True}


def test_the_full_line_inverse_is_a_branch_of_the_interior_inverse():
    # left of the support phi = c e^{x/2} with c != 0, so no phi_i(a) is a
    # node and none is snapped; at the full-line inverse's anchor x_1 - 1 one
    # branch of the interior inverse is the full-line reconstruction
    gen = perfbench_gen()
    tol = DEFAULT.with_overrides(phi=0.0)
    for k in range(40):
        m = validate(gen.measure_triples(gen.sub_rng(500, k), 3 + k % 10))
        sd = spectral_data(m)
        full = measure_from_spectral_data(sd)
        fam = enumerate_solutions(interior_data(m, _left_end(sd) - 1.0, tol), tol=tol)
        errs = [
            max(abs(p - q) for p, q in zip(got.points + got.omega + got.vee,
                                           full.points + full.omega + full.vee))
            for got in fam if got.n == full.n
        ]
        assert errs and min(errs) <= 1e-12, (k, [str(e) for _, e in fam.errors])


@settings(max_examples=300, deadline=None)
@given(
    lams=st.lists(st.tuples(st.floats(-150.0, 155.0), st.booleans()), min_size=1, max_size=8),
    phis=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-300.0, 150.0), st.booleans()),
                  min_size=8, max_size=8),
    a=st.floats(-800.0, 800.0),
)
# eigenvalues +-1e154 and 1: solution_count and enumerate_solutions raised
# OverflowError from the residues of -1/F
@example(lams=[(154.0, True), (0.0, False), (154.0, False)], phis=[(0.5, -1.0, False)] * 8, a=0.0)
def test_interior_routines_return_or_raise_a_peakon_error(lams, phis, a):
    # random interior data: |lambda| in 10^U(-150, 155), about 15% of phi
    # zero and the others 10^U(-300, 150) in size, anchors up to +-800
    eigs = sorted(-10.0 ** e if neg else 10.0 ** e for e, neg in lams)
    phi = [0.0 if u < 0.15 else (-10.0 ** e if neg else 10.0 ** e) for u, e, neg in phis]
    try:
        d = InteriorData(a, tuple(eigs), tuple(phi[:len(eigs)]))
    except ValidationError:  # repeated eigenvalue, or an overflowing phi term
        return
    for fn in (feasibility, modulus_family_count, solution_count, enumerate_solutions):
        try:
            fn(d)
        except PeakonError:
            pass


# eigenvalues 1e154 from the origin: a pole spacing whose square overflows
WIDE_SPECTRUM = InteriorData(0.0, (-1e154, 1.0, 1e154), (0.1, 0.5, 0.1))


@pytest.mark.parametrize("fn", [sum_weyl, pole_split, solution_count, enumerate_solutions],
                         ids=lambda fn: fn.__name__)
def test_a_pole_spacing_whose_square_overflows_is_a_peakon_error(fn):
    # the residues of -1/F summed (d - x)**2 over pole spacings d - x, which
    # raised OverflowError above 1.34e154
    with pytest.raises(PeakonError):
        fn(WIDE_SPECTRUM)


# 9 atoms, two with v, anchored 0.36 left of the support: the benchmark's
# cli_mix chain of seed 11, round 0 (its op 14).  phi_i(a) shot through the
# growing mode of phi_plus once turned its true branch into a DuplicatePoint
CLI_CHAIN_ANCHOR = -4.43442109368159
CLI_CHAIN_TRIPLES = [
    (-4.073536221262562, -2.1935265776613253, 0.0),
    (-2.9021480785186715, 1.6348213015174027, 1.2660240112269914),
    (-1.9081581303593191, 1.0658572118520364, 0.0),
    (-0.913040005479326, -0.4926686419668727, 0.0),
    (0.030267030150541274, -1.5772235909762344, 0.0),
    (0.9818925395003066, -2.460725831512929, 0.0),
    (1.982682286832624, 1.3266419097398108, 0.0),
    (2.900502950467571, -1.7847030773963402, 0.9595512206835948),
    (4.049935081541294, -1.4836828506347306, 0.9554219994918765),
]


def test_benchmark_chain_recovers_the_original_measure():
    m = validate(CLI_CHAIN_TRIPLES)
    fam = enumerate_solutions(interior_data(m, CLI_CHAIN_ANCHOR))
    errs = [
        max(abs(p - q) for p, q in zip(got.points + got.omega + got.vee,
                                       m.points + m.omega + m.vee))
        for got in fam if got.n == m.n
    ]
    assert errs and min(errs) < 1e-6, [str(e) for _, e in fam.errors]


# cli_mix chains of benchmark seeds 11-13 whose sums -1/F have a pole within
# rounding of an eigenvalue: only its rank tells which gap it lies in
RANK_CHAINS = {
    "s11r1n10": (4.1387945274015845, [
        (-4.568712127838837, 1.9286145704788027, 0.6316538858304581),
        (-3.4731925226250784, 2.1985807414588323, 1.4791835600698273),
        (-2.4743023218966163, -0.7793642682618793, 1.1853493258045396),
        (-1.485203925019972, -2.0573838482311944, 1.2531149942792705),
        (-0.45537102196927975, 2.0724003943269986, 1.0007484518082426),
        (0.4562780830972252, 1.320063771291302, 1.0047585579362195),
        (1.4089348224049345, 1.5210165485604457, 1.2029962726998347),
        (2.448156307327716, 1.5116196541639908, 0.0),
        (3.453742114462329, 2.1889088064435054, 1.1128933793191835),
        (4.410659704641185, -1.4236296175170327, 0.0)]),
    "s11r4n9": (-4.791992783086777, [
        (-3.9145371026092333, -1.969367419600877, 0.0),
        (-2.974550696915665, 2.087634185645717, 0.0),
        (-2.0914045925746554, 0.8459508696361806, 0.94870428124635),
        (-1.0747809530814925, 0.9289903816092782, 0.0),
        (-0.010607081674161578, -0.2592684482503579, 0.4261641593731219),
        (1.0354166268815772, 0.4187180957728531, 0.0),
        (2.09301240333299, 1.1050379584253838, 0.25957458248170173),
        (3.0180874092410583, 1.5566615368643937, 0.0),
        (3.9126243999523416, -0.21983465133302382, 0.0)]),
    "s12r3n10": (-5.171135226913487, [
        (-4.402957068219063, -2.044169735007409, 0.0),
        (-3.5034745012207424, 1.5548004053596245, 0.0),
        (-2.54411831840682, -1.0353977821651046, 1.398618963442934),
        (-1.5647208326691764, 0.4545707935148788, 1.4636914618391421),
        (-0.5867963305820445, 1.5644323145424603, 0.0),
        (0.5274808266225055, -1.7923682311949327, 0.0),
        (1.505637897067997, 1.2010855227369281, 0.2869921040195883),
        (2.46058040654426, -0.5355511301624103, 0.0),
        (3.5411121359047963, 2.3679016307270087, 0.0),
        (4.474692325625823, 0.7298127982174607, 0.0)]),
    "s12r3n7": (2.350422076172272, [
        (-3.0125974159937954, -2.456428124853978, 0.2446044382355319),
        (-2.063791425501312, 1.0368914115555115, 1.2904732653229878),
        (-1.0045716294530953, -1.7767679535257939, 0.0),
        (0.08074027655611773, 2.0384204876291223, 0.0),
        (0.9485737172125278, 0.44038551871362763, 0.8764876973512368),
        (1.9641405497015627, 1.4532767337900128, 0.5910850900739697),
        (2.930077566161502, 1.0681568167435527, 0.8514793310721149)]),
    "s13r4n9": (-4.688709460560708, [
        (-3.9711169392517376, 2.1372625569026416, 0.4567192550668428),
        (-2.98006828952792, -2.3043790136402995, 0.0),
        (-2.089890568690416, -2.118363429366653, 0.0),
        (-1.0113919271614882, 0.9009283221347806, 0.0),
        (0.046782536252656326, 1.7001520851424885, 0.7804240780014915),
        (1.0891452867509352, -1.8900657690592981, 0.20857243056019803),
        (2.084542794247019, -0.2656367862974248, 0.9343175017134537),
        (3.0904142497109905, 2.1556918502231235, 0.0),
        (4.057053820327529, -0.45492931152653343, 0.0)]),
}


@pytest.mark.parametrize("name", sorted(RANK_CHAINS))
def test_poles_placed_by_rank_recover_the_benchmark_chains(name):
    # unsnapped phi keeps every eigenvalue a pole of F, so the zero of F beside
    # a tiny residue lambda^2 phi^2 lies within rounding of that eigenvalue
    tol = DEFAULT.with_overrides(phi=0.0)
    a, triples = RANK_CHAINS[name]
    m = validate(triples)
    fam = enumerate_solutions(interior_data(m, a, tol), tol=tol)
    dx = min((max(abs(p - q) for p, q in zip(got.points, m.points))
              for got in fam if got.n == m.n), default=math.inf)
    assert dx < 1e-12, [str(e) for _, e in fam.errors]


def test_every_member_reproduces_its_data(rng):
    for _ in range(10):
        m = random_measure(rng, n=int(rng.integers(2, 5)))
        a = 0.5 * (m.points[0] + m.points[1])
        d = interior_data(m, a)
        fam = enumerate_solutions(d)
        count = solution_count(d)
        assert len(fam) + len(fam.errors) == count.branches
        for got in fam:
            back = interior_data(got, a)
            assert back.eigenvalues == pytest.approx(d.eigenvalues, rel=1e-6)
            assert back.phi == pytest.approx(d.phi, abs=1e-6)


@pytest.mark.parametrize("lam, phi", [(1.0, 1e308), (1e300, 1e10)])
def test_overflowing_phi_terms_are_rejected(lam, phi):
    # phi^2 or lambda*phi^2 overflows: alpha or beta would be infinite
    with pytest.raises(ValidationError):
        InteriorData.from_json_obj({"a": 0.0, "pairs": [{"lambda": lam, "phi": phi}]})
    with pytest.raises(ValidationError):
        InteriorData(0.0, (lam,), (phi,))


@pytest.mark.parametrize("a, lam, phi", [
    (math.nan, 1.0, 0.5), (0.0, math.nan, 0.5), (0.0, 1.0, math.inf), (math.inf, 1.0, 0.5),
])
def test_non_finite_interior_data_is_rejected(a, lam, phi):
    # a NaN a passed feasibility; a NaN lambda read as an overflowing phi term
    with pytest.raises(ValidationError, match="must be finite"):
        InteriorData(a, (lam,), (phi,))


def test_overflowing_residue_is_rejected_where_it_is_built():
    # lambda^2*phi^2 overflows only for a phi that survives the snap to 0
    d = InteriorData(0.0, (1e200,), (0.5,))
    with pytest.raises(ValidationError):
        sum_weyl(d)
    for phi in (0.0, 1e-300):  # lambda^2 alone overflows; phi is, or snaps to, 0
        d = InteriorData.from_json_obj(
            {"a": 0.0, "pairs": [{"lambda": 0.5, "phi": 0.6}, {"lambda": 1e200, "phi": phi}]}
        )
        assert all(map(math.isfinite, alpha_beta(d)))
        assert sum_weyl(d).poles
