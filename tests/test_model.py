"""Validation and certified-constant computation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physarum import (
    DiscreteConfig,
    FlowConfig,
    LinearProgram,
    _exact,
    compute_params,
    default_params,
    evaluate,
    integrate,
    solve,
    validate,
)
from physarum._exact import max_abs_subdeterminant
from physarum.errors import (
    DimensionMismatchError,
    InfeasibleStartError,
    NonPositiveCostError,
    NonPositiveStateError,
    RankDeficientError,
    TooLargeError,
)
from physarum.model import check_point, subdet_upper_bound
from tests.conftest import planted_instance


def test_validate_simple2(simple2):
    assert simple2.m == 1 and simple2.n == 2
    assert simple2.A_int.dtype == np.int64
    assert np.array_equal(simple2.A, [[1.0, 1.0]])
    assert np.array_equal(simple2.At, [[1.0], [1.0]])
    assert np.array_equal(simple2.b, [1.0])
    assert np.array_equal(simple2.c, [1.0, 2.0])


def test_validate_accepts_integral_floats():
    lp = validate(LinearProgram(A=np.array([[1.0, 2.0]]), b=np.array([3.0]), c=np.array([1.0, 1.0])))
    assert lp.A_int.dtype == np.int64
    assert np.array_equal(lp.A_int, [[1, 2]])


def test_validate_rejects_fractional_entries():
    with pytest.raises(DimensionMismatchError):
        validate(LinearProgram.from_lists([[0.5, 1]], [1], [1, 1]))


@pytest.mark.parametrize("which", ["A", "b", "c"])
def test_validate_rejects_uint64_beyond_int64(which):
    # 2**63 used to wrap to -2**63 in the int64 cast, silently.
    data = {"A": [[1, 1]], "b": [1], "c": [1, 1]}
    data[which] = np.array(data[which], dtype=np.uint64)
    data[which].flat[0] = 2**63
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match=f"{which} must contain integers"):
            validate(LinearProgram(**data))


def test_validate_accepts_uint64_below_2_63():
    A = np.array([[2**63 - 1, 1]], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = validate(LinearProgram(A=A, b=np.array([1], dtype=np.uint64), c=np.array([1, 2], dtype=np.uint64)))
    assert lp.A_int.dtype == np.int64
    assert lp.A_int.tolist() == [[2**63 - 1, 1]]
    assert lp.b_int.tolist() == [1] and lp.c_int.tolist() == [1, 2]


def test_validate_proves_full_rank_without_bareiss(monkeypatch):
    lp = planted_instance(np.random.default_rng(64), 64, 256)

    def refuse(rows):
        raise AssertionError("the rank modulo a prime should have decided")

    monkeypatch.setattr(_exact, "rank_bareiss", refuse)
    assert validate(LinearProgram(A=lp.A_int, b=lp.b_int, c=lp.c_int)).m == 64


def test_validate_finds_a_duplicated_row_through_bareiss(monkeypatch):
    lp = planted_instance(np.random.default_rng(48), 48, 192)
    A = lp.A_int.copy()
    A[-1] = A[0]
    calls = []
    bareiss = _exact.rank_bareiss
    monkeypatch.setattr(_exact, "rank_bareiss", lambda rows: calls.append(len(rows)) or bareiss(rows))
    with pytest.raises(RankDeficientError):
        validate(LinearProgram(A=A, b=lp.b_int, c=lp.c_int))
    assert calls == [48]


@pytest.mark.parametrize("which, value", [
    ("A", [[True, 1]]), ("A", ([1, np.True_],)), ("b", [False]), ("c", [1, True]),
])
def test_booleans_from_library_callers_are_not_integers(which, value):
    data = {"A": [[1, 1]], "b": [1], "c": [1, 1], which: value}
    with pytest.raises(DimensionMismatchError, match=f"{which} must contain integers"):
        LinearProgram.from_lists(data["A"], data["b"], data["c"])
    with pytest.raises(DimensionMismatchError, match=f"{which} must contain integers"):
        validate(LinearProgram(A=data["A"], b=data["b"], c=data["c"]))


@pytest.mark.parametrize("point", [
    [True, 0.5], (0.5, np.True_), np.array([True, True]), np.True_, ["a", 1], [1 + 1j, 1.0], [[1.0], [1.0, 2.0]],
])
def test_points_from_library_callers_must_hold_numbers(simple2, point):
    # A boolean would read as 1.0 or 0.0 and a string as a bare ValueError.
    with pytest.raises(DimensionMismatchError, match="state must contain numbers"):
        evaluate(simple2, point)
    with pytest.raises(DimensionMismatchError, match="x0 must contain numbers"):
        integrate(simple2, FlowConfig(x0=point, t_end=1.0))
    with pytest.raises(DimensionMismatchError, match="start must contain numbers"):
        solve(simple2, DiscreteConfig(start=point))
    with pytest.raises(DimensionMismatchError, match="anchor must contain numbers"):
        check_point(simple2, point, "anchor")


def test_numeric_strings_are_not_numbers(simple2):
    # np.asarray(..., dtype=float) parses "0.5" as 0.5, so these used to pass.
    for point in (
        ["0.5", "0.5"], ("0.5", 0.5), [0.5, b"0.5"], np.array(["0.5", "0.5"]), np.array([b"0.5", b"0.5"]),
        np.array(["0.5", 0.5], dtype=object), [np.str_("0.5"), 0.5], "0.5",
    ):
        with pytest.raises(DimensionMismatchError, match="state must contain numbers"):
            evaluate(simple2, point)
        with pytest.raises(DimensionMismatchError, match="anchor must contain numbers"):
            check_point(simple2, point, "anchor")
    for point in (
        [1, 0.5], (np.float32(0.5), np.int64(1)), np.array([1, 2], dtype=np.int8),
        np.array([0.5, 0.5], dtype=object),
    ):
        x = check_point(simple2, point, "anchor")
        assert x.dtype == np.float64
        assert np.array_equal(x, np.asarray(point, dtype=float))


POSITIVE = "anchor must be strictly positive and finite"


@pytest.mark.parametrize("point, feasible, error, message", [
    ([np.nan, 0.5], False, NonPositiveStateError, POSITIVE),
    ([0.5, np.nan], True, NonPositiveStateError, POSITIVE),
    ([np.inf, 0.5], False, NonPositiveStateError, POSITIVE),
    ([0.5, -np.inf], False, NonPositiveStateError, POSITIVE),
    ([0.0, 1.0], True, NonPositiveStateError, POSITIVE),
    ([1.0, -0.0], False, NonPositiveStateError, POSITIVE),
    ([1.5, -0.5], True, NonPositiveStateError, POSITIVE),
    ([5e-324, 1.0], True, None, None),
    ([0.5, 0.5 + 1e-6], False, None, None),
    ([0.5, 0.5 + 1e-6], True, InfeasibleStartError, "anchor violates A x = b (residual 1.000e-06)"),
], ids=["nan", "nan-feasible", "inf", "-inf", "zero", "-zero", "negative", "subnormal", "off-b-unchecked",
        "off-b"])
def test_check_point_decides_positivity_and_feasibility(simple2, point, feasible, error, message):
    # A NaN must fail even among positive entries: fmin and fmax would skip it.
    if error is None:
        x = check_point(simple2, point, "anchor", feasible=feasible)
        assert x.dtype == np.float64 and x.tobytes() == np.array(point).tobytes()
        return
    with pytest.raises(error) as info:
        check_point(simple2, point, "anchor", feasible=feasible)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("which, value", [("A", [["1", 1]]), ("b", [b"1"]), ("c", (1, np.str_("1")))])
def test_strings_from_library_callers_are_not_integers(which, value):
    data = {"A": [[1, 1]], "b": [1], "c": [1, 1], which: value}
    with pytest.raises(DimensionMismatchError, match=f"{which} must contain integers"):
        LinearProgram.from_lists(data["A"], data["b"], data["c"])


def test_validate_rejects_small_costs():
    with pytest.raises(NonPositiveCostError):
        validate(LinearProgram.from_lists([[1, 1]], [1], [0, 1]))
    with pytest.raises(NonPositiveCostError):
        validate(LinearProgram.from_lists([[1, 1]], [1], [-2, 1]))


def test_validate_rejects_rank_deficiency():
    with pytest.raises(RankDeficientError):
        validate(LinearProgram.from_lists([[1, 1], [2, 2]], [1, 2], [1, 1]))
    # more rows than columns can never have full row rank
    with pytest.raises(RankDeficientError):
        validate(LinearProgram.from_lists([[1], [2]], [1, 2], [1]))


def test_validate_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate(LinearProgram.from_lists([[1, 1]], [1, 2], [1, 1]))
    with pytest.raises(DimensionMismatchError):
        validate(LinearProgram.from_lists([[1, 1]], [1], [1, 1, 1]))


def test_params_simple2(simple2):
    p = compute_params(simple2)
    assert p.cost_sum == 3
    assert p.subdet_max == 1.0 and p.subdet_exact
    assert p.potential_ratio_bound == 4.0
    assert p.flux_bound == 2.0
    assert p.positivity_step_cap == 0.125


def test_params_identity2(identity2):
    p = compute_params(identity2)
    assert p.cost_sum == 2
    assert p.subdet_max == 1.0
    assert p.potential_ratio_bound == 3.0
    assert p.flux_bound == 10.0


def test_params_triangle(triangle):
    p = compute_params(triangle)
    assert p.cost_sum == 5
    assert p.subdet_max == 1.0
    assert p.potential_ratio_bound == 6.0
    assert p.flux_bound == 3.0


def test_subdeterminant_exact_value():
    lp = validate(LinearProgram.from_lists([[1, 2], [3, 4]], [1, 1], [1, 1]))
    p = compute_params(lp, mode="exact")
    assert p.subdet_max == 4.0
    loose = compute_params(lp, mode="bound")
    assert not loose.subdet_exact
    assert loose.subdet_max == pytest.approx(32.0)
    assert loose.subdet_max >= p.subdet_max


def test_exact_mode_refuses_wide_instances():
    n = 15
    lp = validate(LinearProgram(A=np.eye(n, dtype=int), b=np.ones(n, dtype=int), c=np.ones(n, dtype=int)))
    with pytest.raises(TooLargeError):
        compute_params(lp, mode="exact")
    p = default_params(lp)
    assert not p.subdet_exact
    assert p.subdet_max >= 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-4, 4), min_size=4, max_size=4),
            min_size=m,
            max_size=m,
        )
    )
)
def test_subdet_bound_dominates_exact(rows):
    mat = np.array(rows)
    exact = float(max_abs_subdeterminant(mat.tolist()))
    assert subdet_upper_bound(mat) >= exact - 1e-9
