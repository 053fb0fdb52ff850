"""Isospectral flow: exact spectral motion, reconstruction, collisions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peakons import (
    DEFAULT,
    ConsistencyFail,
    FlowState,
    Infeasible,
    NumericalError,
    PeakonError,
    SpectralData,
    TraceMismatch,
    collision_scan,
    evolve_spectral,
    measure_at,
    solution_at,
    spectral_data,
    sup_u,
    validate,
)

from conftest import MpForward, random_measure, rel_err
from peakons.evolution import _kernel_u


def _positive_measure(rng, n):
    return random_measure(rng, n=n, signs="positive", with_v=False)


# ------------------------------------------------------------------ spectral motion

def test_identity_at_start_time():
    m = validate([(0.0, 1.5, 0.0), (1.0, 0.7, 0.0)], DEFAULT)
    fs = FlowState.from_measure(m, t0=2.0)
    sd = evolve_spectral(fs, 2.0)
    assert sd.eigenvalues == fs.base.eigenvalues
    assert sd.norming == fs.base.norming
    back = measure_at(fs, 2.0)
    assert back.points == pytest.approx(m.points, abs=1e-9)
    assert back.omega == pytest.approx(m.omega, abs=1e-9)


def test_flow_composes(rng):
    m = random_measure(rng, n=3)
    fs = FlowState.from_measure(m)
    mid = evolve_spectral(fs, 1.3)
    fs2 = FlowState(mid, 1.3)
    direct = evolve_spectral(fs, 4.1)
    via = evolve_spectral(fs2, 4.1)
    assert via.eigenvalues == direct.eigenvalues
    assert via.norming == pytest.approx(direct.norming, rel=1e-14)


def test_measure_at_caches():
    m = validate([(0.0, 2.0, 0.0)], DEFAULT)
    fs = FlowState.from_measure(m)
    assert measure_at(fs, 0.5) is measure_at(fs, 0.5)


def test_measure_at_caches_per_tolerances():
    # an eigenvalue comes back 1 ulp off, which inv = 0 rejects; the cache once
    # returned that failure under the default tolerances too
    fs = FlowState.from_measure(validate([(0.0, 1.5, 0.0), (1.0, 0.7, 0.0), (2.5, 1.1, 0.0)]))
    with pytest.raises(Infeasible):
        measure_at(fs, 3.0, DEFAULT.with_overrides(inv=0.0))
    assert measure_at(fs, 3.0).n == 3
    with pytest.raises(Infeasible):
        measure_at(fs, 3.0, DEFAULT.with_overrides(inv=0.0))


def test_measure_at_keeps_only_the_last_reconstruction(monkeypatch):
    from peakons import inverse

    calls = []
    rebuild = inverse._reconstruct
    monkeypatch.setattr(inverse, "_reconstruct", lambda sd, tol: calls.append(sd) or rebuild(sd, tol))
    fs = FlowState.from_measure(validate([(0.0, 1.5, 0.0), (1.0, 0.7, 0.0)]))
    for t in (1.0, 1.0, 2.0, 1.0):
        measure_at(fs, t)
    assert len(calls) == 3


# ------------------------------------------------------------------ single peakon

def test_single_peakon_travels_at_its_height():
    fs = FlowState.from_measure(validate([(0.0, 2.0, 0.0)], DEFAULT))
    sd = evolve_spectral(fs, 1.0)
    assert sd.norming[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    for t in (0.0, 0.5, 1.0, 3.0):
        us, m = solution_at(fs, t, [t])
        assert m.points[0] == pytest.approx(t, abs=1e-9)   # position = speed * t
        assert us[0] == pytest.approx(1.0, abs=1e-9)       # height = speed
    assert sup_u(fs) == (pytest.approx(1.0), True)


# ------------------------------------------------------------------ conservation

def test_conserved_quantities_along_the_flow(rng):
    times = np.linspace(0.0, 10.0, 6)
    for _ in range(5):
        m = _positive_measure(rng, int(rng.integers(1, 5)))
        fs = FlowState.from_measure(m)
        base = fs.base
        p0 = sum(1.0 / lam for lam in base.eigenvalues)
        for t in times:
            got = measure_at(fs, float(t))
            back = spectral_data(got)
            drift = max(
                abs(a - b) / abs(a)
                for a, b in zip(base.eigenvalues, back.eigenvalues)
            )
            assert drift <= 1e-9
            assert sum(got.omega) == pytest.approx(p0, abs=1e-8)


def test_amplitude_bound_and_attainment(rng):
    xs = np.linspace(-12.0, 14.0, 80)
    for _ in range(5):
        m = _positive_measure(rng, int(rng.integers(2, 5)))
        fs = FlowState.from_measure(m)
        bound = sup_u(fs).value
        assert sup_u(fs).attained is False
        for t in (0.0, 2.5, 7.0):
            us, _ = solution_at(fs, t, xs)
            assert max(abs(u) for u in us) <= bound + 1e-9


def test_trace_route_agrees_on_mixed_measures(rng):
    # solution_at raises TraceMismatch internally if the two u routes differ
    xs = np.linspace(-8.0, 8.0, 33)
    for _ in range(5):
        m = random_measure(rng, n=int(rng.integers(1, 5)))
        fs = FlowState.from_measure(m)
        us, _ = solution_at(fs, 0.7, xs)
        assert all(math.isfinite(u) for u in us)


# 8 atoms: the benchmark generator's measure_triples(sub_rng(11, 5, 6, 5), 8)
TRACE_LEFT_TAIL_TRIPLES = [
    (-3.4833579148322737, -2.1533941897115914, 0.3102486343226675),
    (-2.5398296350432363, -0.7687572703530183, 0.5102516093571192),
    (-1.4071851328365645, 1.2357349040792793, 0.0),
    (-0.5415221676683583, 1.1706780671881607, 0.0),
    (0.400060738216686, 2.025681038579118, 0.0),
    (1.5295210031741593, 2.3653855308186205, 0.0),
    (2.5474341220360763, -1.4743623467178437, 0.37362420148729936),
    (3.4362698438389843, -2.098263828810851, 0.24608717137257874),
]


def test_trace_route_holds_far_left_of_the_support():
    # phi_plus alone rode its growing mode to a TraceMismatch at x = -20, t = 0
    fs = FlowState.from_measure(validate(TRACE_LEFT_TAIL_TRIPLES))
    us, _ = solution_at(fs, 0.0, [-20.0 + 0.5 * k for k in range(81)])
    assert all(math.isfinite(u) for u in us)


def test_every_reader_of_phi_contains_c_lam_out_of_float_range(monkeypatch):
    # one atom at x = -1000: c_lam = e^{x_1/2}/phi(x_1) = e^{-1000} underflows
    # to 0 and kappa = -lam W'/c_lam divides by it.  Every reader of phi raises
    # a PeakonError, not ZeroDivisionError; the flow reads phi once, in the
    # verification of a reconstruction that lands there
    from peakons import forward, inverse

    m0 = validate([(-1000.0, 2.0, 0.0)])
    monkeypatch.setattr(inverse, "_attempt", lambda sd, a, tol: m0)
    fs = FlowState(SpectralData((0.5,), (1.0,)))
    for step in (lambda: measure_at(fs, 0.0), lambda: solution_at(fs, 0.0, [0.0])):
        with pytest.raises(Infeasible) as info:
            step()
        assert type(info.value.__cause__) is NumericalError
        assert "c_lam = 0.0 out of float range" in str(info.value.__cause__)
    for read in (spectral_data, lambda m: forward.eigenfunction_zero_count(m, 0),
                 lambda m: forward.interior_data(m, 0.0)):
        with pytest.raises(NumericalError, match="c_lam"):
            read(m0)


# a flow step whose support is 80 wide at t = 80: the eigenfunctions read at
# the data's eigenvalues, not the reconstruction's, rode the plus sweep's
# growing mode to a TraceMismatch at x = -20 (2.6e-17 vs 7.4e-7)
WIDE_SUPPORT_TRIPLES = [
    (-0.9688402242916356, 1.9802756892727162, 0.0),
    (-0.03706939910611427, 1.047739054948053, 0.0),
    (1.0147939155878933, 0.737145769793768, 0.0),
]


def test_trace_route_reads_the_reconstruction_s_own_eigenpairs():
    fs = FlowState.from_measure(validate(WIDE_SUPPORT_TRIPLES))
    us, m = solution_at(fs, 80.0, [-20.0])
    assert m.points[-1] - m.points[0] > 50.0
    assert us == [_kernel_u(m, -20.0)]


def test_trace_route_checks_the_reconstruction_s_kappa_against_the_flow(monkeypatch):
    # a reconstruction of kappa (1 + 9e-8) passes the inverse's relative kappa
    # test (tol.inv = 1e-7), but not the trace over the flow's evolved kappa;
    # over m's own kappa the trace would only check the forward solver
    from peakons import inverse

    reconstruct = inverse._reconstruct
    monkeypatch.setattr(inverse, "_reconstruct", lambda sd, tol: reconstruct(
        SpectralData(sd.eigenvalues, tuple(k * (1 + 9e-8) for k in sd.norming)), tol))
    fs = FlowState.from_measure(validate([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)]))
    measure_at(fs, 0.0)
    with pytest.raises(TraceMismatch):
        solution_at(fs, 0.0, [0.0, 1.0])


def test_solution_at_reads_no_eigenfunction_after_measure_at(rng, monkeypatch):
    # the trace route reuses the eigenpairs that verified the reconstruction,
    # and reads all of them at a point by one _phi_at
    from peakons import forward

    reads, points = [], []
    read, phi_at = forward._eigenfunction, forward._phi_at
    monkeypatch.setattr(forward, "_eigenfunction", lambda *a: reads.append(a) or read(*a))
    monkeypatch.setattr(forward, "_phi_at", lambda m, atoms, x: points.append(x) or phi_at(m, atoms, x))
    for _ in range(5):
        fs = FlowState.from_measure(random_measure(rng, n=int(rng.integers(1, 6))))
        measure_at(fs, 1.5)
        del reads[:]
        solution_at(fs, 1.5, [-3.0, 0.0, 3.0])
        assert reads == [] and points == [-3.0, 0.0, 3.0]
        del points[:]


def _grid(m, probes):
    """Points of m's support (on), between its atoms (in) and beyond its ends (out)."""
    pts, xs = m.points, []
    for k, kind, f in probes:
        k %= len(pts)
        if kind == "on":
            xs.append(pts[k])
        elif kind == "in" and k + 1 < len(pts):
            xs.append(pts[k] + f * (pts[k + 1] - pts[k]))
        else:
            xs.append(pts[0] - 10.0 * f if k % 2 else pts[-1] + 10.0 * f)
    return xs


def _hex_outcome(f, *args):
    """f(*args) as (hex floats, measure), or the type and message of its PeakonError."""
    try:
        us, m = f(*args)
    except PeakonError as exc:
        return type(exc), str(exc)
    return [u.hex() for u in us], m


@settings(max_examples=60, deadline=None)
@given(
    atoms=st.lists(st.tuples(st.floats(0.05, 3.0), st.floats(0.2, 2.5), st.booleans(),
                             st.sampled_from([0.0, 0.3, 1.2])), min_size=1, max_size=6),
    t=st.floats(-5.0, 20.0),
    probes=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["on", "in", "out"]), st.floats(0.0, 1.0)),
                    min_size=1, max_size=12),
    trace=st.sampled_from([1e-8, 1e-14, 0.0]),
)
def test_solution_at_returns_the_floats_of_its_lsum_form(atoms, t, probes, trace):
    # the loop sums of the kernel and the trace route add what lsum added, in
    # its order: the same u, and the same TraceMismatch (at tol.trace = 0
    # nearly every point misses), as the frozen copy in evolution_reference.py
    import evolution_reference

    tol = DEFAULT.with_overrides(trace=trace)
    xs = itertools.accumulate(gap for gap, *_ in atoms)
    m0 = validate([(x, -w if neg else w, v) for x, (_, w, neg, v) in zip(xs, atoms)])
    try:
        fs = FlowState.from_measure(m0, 0.0, tol)
        grid = _grid(measure_at(fs, t, tol), probes)
    except PeakonError:  # a step that does not reconstruct
        return
    got = _hex_outcome(solution_at, fs, t, grid, tol)
    assert got == _hex_outcome(evolution_reference.solution_at, fs, t, grid, tol), grid


def test_a_corrupted_trace_weight_is_caught_at_every_point():
    # kappa_i lambda_i of the flow with their signs flipped turn the trace
    # route's u into -u: on an atom, between atoms and beyond either end, the
    # check raises at that point
    fs = FlowState.from_measure(validate([(-1.0, 1.0, 0.0), (0.5, 0.7, 0.4), (2.0, 1.5, 0.0)]))
    m = measure_at(fs, 1.0)
    grid = [*m.points, 0.0, 1.2, m.points[0] - 3.0, m.points[-1] + 3.0]
    assert solution_at(fs, 1.0, grid)[0] == [_kernel_u(m, x) for x in grid]
    key, (m, atoms, ws) = fs._last
    fs._last = (key, (m, atoms, [-w for w in ws]))
    for x in grid:
        with pytest.raises(TraceMismatch, match=f"at x={x}, t=1.0: "):
            solution_at(fs, 1.0, [x])


@pytest.mark.parametrize("sd, cause", [
    # the failing anchor of test_inverse, chained to a ConsistencyFail at tol.cons = 0
    (SpectralData((0.44942166003438744, 1.774610845127742, 5.6337372468186295),
                  (1.726086399315825e-49, 3.464143367094688e-12, 0.020992661617613928)),
     ConsistencyFail),
    # x_1 = -log kappa = 720: e^a overflows, a NumericalError chained to an OverflowError
    (SpectralData((1.0,), (1e-313,)), NumericalError),
])
def test_a_cached_flow_failure_keeps_its_cause(sd, cause):
    # the second call re-raised the cached failure with no cause
    fs = FlowState(sd)
    causes = []
    for _ in range(2):
        with pytest.raises(Infeasible) as info:
            measure_at(fs, 0.0, DEFAULT.with_overrides(cons=0.0))
        causes.append(info.value.__cause__)
    first, second = causes
    assert type(first) is type(second) is cause and first.args == second.args
    assert first.__traceback__ is not None  # the first report keeps its frames
    if cause is NumericalError:
        assert isinstance(first.__cause__, OverflowError)


# two seed-11 benchmark trajectories whose reconstructions at t = 150, about
# 370 wide, missed one tiny kappa (5e-153, 1e-52) by 8e-2 and 2e-2 relative
# while zeros 1e-161 from their poles, whose squares are subnormal, got
# residues off by up to 10%; inside the absolute test max(1, kappa) tol.inv
MISSED_KAPPA_TRIPLES = {
    "n3": [(-0.9252454119476535, 1.7213348549951428, 0.6066290449462793),
           (-0.09026312090957188, 2.475133892666191, 0.0),
           (0.9327058919969786, 2.2335902043624984, 0.0)],
    "n8": [(-3.5210720290556643, -0.42711897240661545, 1.2089921087533908),
           (-2.5103616279349965, 0.8607222264201781, 0.0),
           (-1.5757052084934466, -2.3957535114707045, 0.0),
           (-0.48318305255148913, -1.8616784722162214, 0.0),
           (0.590416900395317, 0.7035955093120345, 0.0),
           (1.4847281368500278, -0.9110174429893909, 1.4290245092363558),
           (2.4725662546931515, -0.6080800109728466, 0.9226125195644064),
           (3.55092938693416, 0.8760337428113028, 1.0324919770042102)],
}


@pytest.mark.parametrize("name", sorted(MISSED_KAPPA_TRIPLES))
def test_a_once_missed_tiny_kappa_reconstructs_to_the_oracle(name):
    from peakons import inverse

    fs = FlowState.from_measure(validate(MISSED_KAPPA_TRIPLES[name]))
    m = measure_at(fs, 150.0)
    # by the oracle, the reconstruction's own kappa meets the relative test
    sd = evolve_spectral(fs, 150.0)
    assert m == inverse._reconstruct(sd, DEFAULT)[0]
    refs = [ref for _, ref in MpForward(m).spectral(sd.eigenvalues)]
    assert max(rel_err(k, ref) for k, ref in zip(sd.norming, refs)) <= DEFAULT.inv


def test_norming_underflow_is_a_numerical_error():
    # lambda_1 = 0.049, so exp(-t/(2 lambda_1)) underflows to 0 at t = 200;
    # SpectralData rejected the zero as an input error
    fs = FlowState.from_measure(validate([(0.0, 20.0, 0.0), (1.0, 1.0, 0.0)]))
    with pytest.raises(NumericalError, match="underflows at t = 200"):
        evolve_spectral(fs, 200.0)
    with pytest.raises(NumericalError, match="underflows at t = 200"):
        measure_at(fs, 200.0)


def test_norming_overflow_is_a_numerical_error():
    fs = FlowState(SpectralData((-0.05, 1.0), (1.0, 1.0)))
    assert evolve_spectral(fs, 10.0).norming[0] == pytest.approx(math.exp(100.0))
    with pytest.raises(NumericalError, match="overflows at t = 100"):
        evolve_spectral(fs, 100.0)  # exp(1000)
    fs = FlowState(SpectralData((-0.5, 1.0), (1e300, 1.0)))
    with pytest.raises(NumericalError, match="overflows at t = 700"):
        evolve_spectral(fs, 700.0)  # exp(700) is finite, its product is not


# ------------------------------------------------------------------ collisions

def test_same_sign_peakons_never_collide(rng):
    times = np.linspace(0.0, 10.0, 11)
    for _ in range(3):
        m = _positive_measure(rng, int(rng.integers(2, 4)))
        fs = FlowState.from_measure(m)
        for rec in collision_scan(fs, times):
            assert rec.error is None
            assert rec.v_mass == 0.0


def test_peakon_antipeakon_switches_vee_on_at_the_collision():
    # kappas tuned so the symmetric pair collides exactly at t = 0
    base = SpectralData(
        (-1.0, 1.0),
        (2.0 * math.exp(-0.5), 2.0 * math.exp(0.5)),
    )
    fs = FlowState(base, t0=-1.0)
    times = [-1.0, -0.5, -0.01, 0.0, 0.01, 0.5, 1.0]
    recs = collision_scan(fs, times)
    assert all(r.error is None for r in recs)
    masses = [r.v_mass for r in recs]
    assert masses[3] > 1e-6                       # switched on at the instant
    assert all(v == 0.0 for i, v in enumerate(masses) if i != 3)

    before = measure_at(fs, -0.5)
    after = measure_at(fs, 0.5)
    # antisymmetric pair before, signs exchanged after
    assert before.n == after.n == 2
    assert before.omega[0] > 0.0 > before.omega[1]
    assert after.omega[0] < 0.0 < after.omega[1]
    assert before.points[0] == pytest.approx(-before.points[1], abs=1e-9)
    assert before.omega[0] == pytest.approx(-before.omega[1], abs=1e-9)
    assert after.points == pytest.approx(before.points, abs=1e-9)
    assert after.omega == pytest.approx(tuple(-w for w in before.omega), abs=1e-9)

    at0 = measure_at(fs, 0.0)
    assert at0.n == 1
    assert at0.points[0] == pytest.approx(0.0, abs=1e-9)
    assert at0.vee[0] == pytest.approx(1.0, rel=1e-9)


def test_failed_reconstruction_is_cached_across_scan_and_series(tmp_path, monkeypatch):
    # peakon evolve scans every t, then asks for its series: one inverse per t
    import json

    from peakons import Infeasible, inverse
    from peakons.cli import main

    calls = []

    def failing(sd, tol=DEFAULT):
        calls.append(sd)
        raise Infeasible("forced failure")

    monkeypatch.delenv("PEAKON_CONFIG", raising=False)
    monkeypatch.setattr(inverse, "_reconstruct", failing)
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"points": [{"x": 0.0, "w": 2.0, "v": 0.0}, {"x": 1.0, "w": -0.5, "v": 0.0}]}))
    out = tmp_path / "series.csv"
    assert main(["evolve", str(f), "--t", "0:200:50", "--x=0:1:1", "--out", str(out)]) == 0
    assert len(calls) == 5
    report = json.loads((tmp_path / "series.csv.report.json").read_text())
    assert [e["error"] for e in report["series_errors"]] == ["forced failure"] * 5
    assert [r[2] for r in report["collisions"]] == ["forced failure"] * 5
