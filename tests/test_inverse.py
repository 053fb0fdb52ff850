import math

import pytest

from conftest import random_measure
from peakons import (
    HerglotzRational,
    SpectralData,
    measure_from_spectral_data,
    measure_from_weyl,
    spectral_data,
    validate,
    weyl,
)
from peakons.errors import ValidationError


def test_free_minus_side_is_empty():
    h = HerglotzRational(0.0, 0.0, (0.0,), (0.5,))
    half = measure_from_weyl(h, -1.0, "minus")
    assert half.n == 0


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
    # kappa ratio heuristic must adapt: support far right of the default start
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
