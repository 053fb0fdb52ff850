import pytest
from hypothesis import given, strategies as st

from peakons import (
    DuplicatePoint,
    NegativeVee,
    NullPoint,
    PeakonMeasure,
    ValidationError,
    counts,
    validate,
)

finite = st.floats(-5.0, 5.0, allow_nan=False)


def test_sorts_and_freezes():
    m = validate([(1.0, 1.0, 0.0), (-1.0, -2.0, 0.5)])
    assert m.points == (-1.0, 1.0)
    assert m.omega == (-2.0, 1.0)
    assert m.vee == (0.5, 0.0)
    assert m.n == 2


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePoint):
        validate([(0.0, 1.0, 0.0), (1e-12, 1.0, 0.0)])


def test_negative_v_rejected():
    with pytest.raises(NegativeVee):
        validate([(0.0, 1.0, -0.1)])


def test_massless_point_rejected():
    with pytest.raises(NullPoint):
        validate([(0.0, 1e-14, 1e-14)])
    with pytest.raises(NullPoint):
        validate([])


@pytest.mark.parametrize(
    "triple", [(float("nan"), 1.0, 0.0), (0.0, float("inf"), 0.0), (0.0, 1.0, float("-inf"))]
)
def test_non_finite_entries_rejected(triple):
    with pytest.raises(ValidationError):
        validate([triple])


def test_tiny_weights_snap_to_zero():
    m = validate([(0.0, 1e-14, 1.0)])
    assert m.omega == (0.0,)
    assert m.vee == (1.0,)


def test_counts_split():
    m = validate([(-1.0, 1.0, 0.0), (0.0, -1.0, 0.0), (1.0, 0.0, 1.0), (2.0, -1.0, 0.5)])
    n_v, n_plus, n_minus = counts(m)
    assert (n_v, n_plus, n_minus) == (2, 1, 1)
    assert n_v + n_plus + n_minus == m.n


def test_json_roundtrip():
    m = validate([(0.0, 2.0, 0.0), (1.0, -1.0, 0.5)])
    assert PeakonMeasure.from_json_obj(m.to_json_obj()) == m


@given(
    st.lists(
        st.tuples(finite, st.floats(0.3, 3.0), st.floats(0.0, 2.0)),
        min_size=1,
        max_size=6,
    )
)
def test_validate_idempotent(raw):
    try:
        m = validate(raw)
    except (DuplicatePoint, NullPoint):
        return
    again = validate(list(zip(m.points, m.omega, m.vee)))
    assert again == m
    assert all(b > a for a, b in zip(m.points, m.points[1:]))
