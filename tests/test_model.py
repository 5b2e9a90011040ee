"""Validation and certified-constant computation."""

import warnings
from fractions import Fraction

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
    default_step,
    evaluate,
    integrate,
    solve,
    validate,
)
from physarum._exact import max_abs_subdeterminant
from physarum.discrete_solver import certify_trace
from physarum.dynamics import gradient_identity_residual
from physarum.errors import (
    DimensionMismatchError,
    InfeasibleStartError,
    NonPositiveCostError,
    NonPositiveStateError,
    RankDeficientError,
    TooLargeError,
    ValidationError,
)
from physarum.model import check_point, dual_lower_bound, exact_cost, max_subdeterminant, subdet_upper_bound
from tests.conftest import planted_instance


def test_validate_simple2(simple2):
    assert simple2.m == 1 and simple2.n == 2
    assert simple2.A_exact == ((1, 1),) and simple2.b_exact == (1,) and simple2.c_exact == (1, 2)
    assert np.array_equal(simple2.A, [[1.0, 1.0]])
    assert np.array_equal(simple2.At, [[1.0], [1.0]])
    assert np.array_equal(simple2.b, [1.0])
    assert np.array_equal(simple2.c, [1.0, 2.0])


def test_validate_accepts_integral_floats():
    lp = validate(LinearProgram(A=np.array([[1.0, 2.0]]), b=np.array([3.0]), c=np.array([1.0, 1.0])))
    assert lp.A_exact == ((1, 2),) and all(type(v) is int for v in lp.A_exact[0])


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
    assert lp.A_exact == ((2**63 - 1, 1),) and lp.b_exact == (1,) and lp.c_exact == (1, 2)
    assert all(type(v) is int for v in (*lp.A_exact[0], *lp.b_exact, *lp.c_exact))


def test_validate_proves_full_rank_without_bareiss(monkeypatch):
    lp = planted_instance(np.random.default_rng(64), 64, 256)

    def refuse(rows):
        raise AssertionError("the rank modulo a prime should have decided")

    monkeypatch.setattr(_exact, "rank_bareiss", refuse)
    assert validate(LinearProgram(A=np.array(lp.A_exact), b=np.array(lp.b_exact), c=np.array(lp.c_exact))).m == 64


def test_validate_finds_a_duplicated_row_through_bareiss(monkeypatch):
    lp = planted_instance(np.random.default_rng(48), 48, 192)
    A = np.array(lp.A_exact)
    A[-1] = A[0]
    calls = []
    bareiss = _exact.rank_bareiss
    monkeypatch.setattr(_exact, "rank_bareiss", lambda rows: calls.append(len(rows)) or bareiss(rows))
    with pytest.raises(RankDeficientError):
        validate(LinearProgram(A=A, b=np.array(lp.b_exact), c=np.array(lp.c_exact)))
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
    [True, False], [[1, 2], [3]],
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
    with pytest.raises(DimensionMismatchError, match="direction must contain numbers"):
        gradient_identity_residual(simple2, evaluate(simple2, [0.5, 0.5]), point)
    _, trace = solve(simple2, DiscreteConfig(start=[0.5, 0.5], max_iters=5))
    with pytest.raises(DimensionMismatchError, match="x_star must contain numbers"):
        certify_trace(simple2, trace, 1.0, trace.eps, trace.h, point)


def test_numeric_strings_are_not_numbers(simple2):
    # np.asarray(..., dtype=float) parses "0.5" as 0.5, so these used to pass.
    ev = evaluate(simple2, [0.5, 0.5])
    _, trace = solve(simple2, DiscreteConfig(start=[0.5, 0.5], max_iters=5))
    for point in (
        ["0.5", "0.5"], ("0.5", 0.5), [0.5, b"0.5"], np.array(["0.5", "0.5"]), np.array([b"0.5", b"0.5"]),
        np.array(["0.5", 0.5], dtype=object), [np.str_("0.5"), 0.5], "0.5", ["1", "-1"], "ab",
    ):
        with pytest.raises(DimensionMismatchError, match="state must contain numbers"):
            evaluate(simple2, point)
        with pytest.raises(DimensionMismatchError, match="anchor must contain numbers"):
            check_point(simple2, point, "anchor")
        with pytest.raises(DimensionMismatchError, match="direction must contain numbers"):
            gradient_identity_residual(simple2, ev, point)
        with pytest.raises(DimensionMismatchError, match="x_star must contain numbers"):
            certify_trace(simple2, trace, 1.0, trace.eps, trace.h, point)
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


RAGGED = ("setting an array element with a sequence. The requested array has an inhomogeneous shape after 1 "
          "dimensions. The detected shape was (2,) + inhomogeneous part.")
INTEGERS = "{} must contain integers"


def object_array(value):
    return np.array(value, dtype=object)


# One malformed input per row, with the error and the message validate
# gives for it, once with A, b and c as lists and once as arrays. The
# array form is np.array of the list unless the row names another; its
# error is the list form's unless the row gives one.
MALFORMED = [
    ("ragged A", {"A": [[1, 1], [1]], "b": [1, 1]}, ValueError, RAGGED,
     {"A": object_array([[1, 1], [1]]), "error": (DimensionMismatchError, "A must be a 2-d array, got ndim=1")}),
    ("1-d A", {"A": [1, 1]}, DimensionMismatchError, "A must be a 2-d array, got ndim=1", {}),
    ("3-d A", {"A": [[[1, 1]]]}, DimensionMismatchError, "A must be a 2-d array, got ndim=3", {}),
    ("b too long", {"b": [1, 2]}, DimensionMismatchError, "b has shape (2,), expected (1,)", {}),
    ("2-d b", {"b": [[1]]}, DimensionMismatchError, "b has shape (1, 1), expected (1,)", {}),
    ("c too long", {"c": [1, 1, 1]}, DimensionMismatchError, "c has shape (3,), expected (2,)", {}),
    ("A is None", {"A": None}, DimensionMismatchError, "A must be a 2-d array, got ndim=0", {}),
    ("None entry", {"A": [[None, 1]]}, DimensionMismatchError, INTEGERS.format("A"), {}),
    ("NaN", {"A": [[float("nan"), 1]]}, DimensionMismatchError, INTEGERS.format("A"), {}),
    ("inf", {"b": [float("inf")]}, DimensionMismatchError, INTEGERS.format("b"), {}),
    ("1.5", {"c": [1.5, 1]}, DimensionMismatchError, INTEGERS.format("c"), {}),
    ("1e20", {"A": [[1e20, 1]]}, DimensionMismatchError, INTEGERS.format("A"), {}),
    ("int 2**63", {"A": [[2**63, 1]]}, DimensionMismatchError, INTEGERS.format("A"), {}),
    ("int below -2**63", {"A": [[-(2**63) - 1, 1]]}, DimensionMismatchError, INTEGERS.format("A"), {}),
    ("uint64 2**63", {"c": [np.uint64(2**63), np.uint64(1)]}, DimensionMismatchError, INTEGERS.format("c"),
     {"c": np.array([2**63, 1], dtype=np.uint64)}),
    ("uint64 2**64 - 1", {"b": [np.uint64(2**64 - 1)]}, DimensionMismatchError, INTEGERS.format("b"),
     {"b": np.array([2**64 - 1], dtype=np.uint64)}),
    ("bool", {"A": [[True, 1]]}, DimensionMismatchError, INTEGERS.format("A"), {"A": np.array([[True, False]])}),
    ("numeric string", {"b": ["1"]}, DimensionMismatchError, INTEGERS.format("b"), {}),
    ("object entries", {"c": [1, 1]}, None, None,
     {"c": object_array([1, 1]), "error": (DimensionMismatchError, INTEGERS.format("c"))}),
    ("empty A", {"A": []}, DimensionMismatchError, "A must be a 2-d array, got ndim=1", {}),
    ("empty row", {"A": [[]]}, DimensionMismatchError, "A must have at least one row and one column", {}),
    ("zero cost", {"c": [0, 1]}, NonPositiveCostError, "all costs must be >= 1, got min 0", {}),
]


@pytest.mark.parametrize("form", ["lists", "arrays"])
@pytest.mark.parametrize("data, error, message, arrays", [pytest.param(*row[1:], id=row[0]) for row in MALFORMED])
def test_validate_gives_one_error_per_malformed_input(form, data, error, message, arrays):
    data = {"A": [[1, 1]], "b": [1], "c": [1, 1], **data}
    if form == "arrays":
        arrays = dict(arrays)
        error, message = arrays.pop("error", (error, message))
        data = {k: arrays[k] if k in arrays else np.array(v) for k, v in data.items()}
    if error is None:
        validate(LinearProgram(**data))
        return
    with pytest.raises(error) as info:
        validate(LinearProgram(**data))
    assert str(info.value) == message
    # numpy raised the ragged list's bare ValueError; its subclass
    # DimensionMismatchError carries the same message now.
    assert type(info.value) is error or (error is ValueError and type(info.value) is DimensionMismatchError)


def test_validate_keeps_large_integers_exact():
    # Python ints from the int64 range stay the ints they are, -2**63 too.
    lp = validate(LinearProgram.from_lists([[-(2**63), 2**63 - 1]], [2**62 + 1], [2**63 - 1, 1]))
    assert lp.A_exact == ((-(2**63), 2**63 - 1),) and lp.b_exact == (2**62 + 1,)
    # The float view rounds each int to nearest: 2**63 - 1 becomes 2.0**63.
    assert lp.A.tolist() == [[-(2.0**63), 2.0**63]]
    assert all(type(v) is int for v in (*lp.A_exact[0], *lp.b_exact, *lp.c_exact))


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


@settings(max_examples=60)
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


def test_flux_bound_sums_b_without_wrapping():
    # |b|_1 = 2**63 + 2 wrapped to a negative int64 sum.
    lp = validate(LinearProgram.from_lists([[1, 0], [0, 1]], [2**62 + 1, 2**62 + 1], [1, 1]))
    p = compute_params(lp)
    assert p.flux_bound == 2 * float(2**63 + 2) > 0


def test_cost_sum_does_not_wrap():
    # sum(c) = 2**63 wrapped to -2**63, which made P negative, the
    # positivity cap negative and the certified step wrong.
    lp = validate(LinearProgram.from_lists([[1, 1]], [1], [2**62, 2**62]))
    p = compute_params(lp)
    assert p.cost_sum == 2**63
    assert p.potential_ratio_bound == 2.0**63 + 1.0
    assert p.positivity_step_cap == 0.5 / 2.0**63 > 0
    assert default_step(p, 0.1) == 0.1 / (6.0 * p.potential_ratio_bound**2) > 0


def test_subdet_bound_reads_the_int64_minimum_as_its_absolute_value():
    # |-2**63| wrapped to -2**63 in int64, so the "bound" came out as 1.0,
    # below the exact maximum 2**63.
    lp = validate(LinearProgram.from_lists([[-(2**63), 1]], [1], [1, 1]))
    assert max_abs_subdeterminant(lp.A_exact) == 2**63
    A64 = np.array(lp.A_exact, dtype=np.int64)
    for A in (A64, A64.tolist()):
        assert subdet_upper_bound(A) == max_subdeterminant(A, "bound") == 2.0**63
    assert compute_params(lp, mode="bound").subdet_max == 2.0**63


def reference_dual_bound(lp, y):
    """b . y / max_i (a_i . y / c_i) in Fractions made straight from the floats; None when the max is <= 0."""
    ys = [Fraction(v) for v in y]
    r = max(sum(a * v for a, v in zip(col, ys)) / ci for col, ci in zip(zip(*lp.A_exact), lp.c_exact))
    return None if r <= 0 else sum(bi * v for bi, v in zip(lp.b_exact, ys)) / r


def two_rows(b, c):
    # Columns e_1, e_2 and e_1 + e_2.
    return validate(LinearProgram.from_lists([[1, 0, 1], [0, 1, 1]], b, c))


def test_dual_bound_scales_a_y_that_breaks_a_constraint():
    # opt = 5 at x = (2, 3, 0). y = (1, 4) has a_2 . y = 4 > c_2 = 1 and
    # b . y = 14 > opt; dividing by r = 4 gives a feasible dual.
    lp = two_rows([2, 3], [1, 1, 3])
    lb = dual_lower_bound(lp, [1.0, 4.0])
    assert lb == Fraction(7, 2) == reference_dual_bound(lp, [1.0, 4.0])
    assert lb <= 5
    # A feasible dual is taken as it is: y = (1, 1) is optimal.
    assert dual_lower_bound(lp, [1.0, 1.0]) == 5


@pytest.mark.parametrize("y", [[-1.0, -2.0], [0.0, 0.0], [-0.0, -5e-324]])
def test_dual_bound_is_none_when_no_column_is_positive(y):
    assert dual_lower_bound(two_rows([2, 3], [1, 1, 3]), y) is None


def test_dual_bound_may_be_negative():
    # Columns give 1, -1 and 0, so r = 1 and the bound is b . y = -1.
    assert dual_lower_bound(two_rows([2, 3], [1, 1, 3]), [1.0, -1.0]) == -1


@pytest.mark.parametrize("y", [[2.0**-1074, 1e300], [1e300, 2.0**-1074], [5e-324, 5e-324], [1e300, -1e300]])
def test_dual_bound_reads_extreme_floats_exactly(y):
    lp = two_rows([3, 1], [1, 1, 1])
    lb = dual_lower_bound(lp, y)
    assert lb == reference_dual_bound(lp, y)
    if y == [2.0**-1074, 1e300]:
        # (1e300 + 3 t) / (1e300 + t) for t = 2**-1074: above 1 by about
        # 2 t / 1e300, which every float evaluation rounds away.
        assert lb > 1 and float(lb) == 1.0
        assert lb - 1 == Fraction(2 * 2**-1074) / (Fraction(1e300) + Fraction(2**-1074))


@pytest.mark.parametrize("y", [[1.0], [3.0], [1e300], [2.0**-1074]])
def test_dual_bound_of_int64_limit_entries_does_not_overflow(y):
    # a . y and b . y pass the int64 range; the sums are made in Python ints.
    top = 2**63 - 1
    lp = validate(LinearProgram.from_lists([[top, 2**62]], [top], [top, 1]))
    lb = dual_lower_bound(lp, y)
    # opt = top / 2**62 at x = (0, top / 2**62), and y > 0 proves it.
    assert lb == reference_dual_bound(lp, y) == Fraction(top, 2**62)


def test_dual_bound_rejects_a_bad_y(simple2):
    with pytest.raises(DimensionMismatchError):
        dual_lower_bound(simple2, [1.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            dual_lower_bound(simple2, [bad])


@pytest.mark.parametrize("x", [[1.0], [0.5, 0.5, 7.0], [[0.5, 0.5]], 0.5, np.ones((2, 1))],
                         ids=["short", "long", "row", "scalar", "column"])
def test_exact_cost_rejects_a_vector_of_the_wrong_shape(simple2, x):
    # zip would truncate to the shorter of c and x.
    with pytest.raises(DimensionMismatchError, match=r"x has shape .*, expected \(2,\)"):
        exact_cost(simple2, x)


@pytest.mark.parametrize("read, name, length", [(exact_cost, "x", 2), (dual_lower_bound, "y", 1)],
                         ids=["exact_cost", "dual_lower_bound"])
@pytest.mark.parametrize("bad, error, match", [
    (np.nan, ValidationError, "must be finite"),
    (np.inf, ValidationError, "must be finite"),
    (-np.inf, ValidationError, "must be finite"),
    ("0.5", DimensionMismatchError, "must contain numbers"),
    (True, DimensionMismatchError, "must contain numbers"),
    (np.bool_(False), DimensionMismatchError, "must contain numbers"),
    (None, DimensionMismatchError, "must contain numbers"),
    (1j, DimensionMismatchError, "must contain numbers"),
    (object(), DimensionMismatchError, "must contain numbers"),
], ids=["nan", "inf", "-inf", "str", "bool", "np.bool_", "None", "complex", "object"])
def test_the_exact_layer_reads_only_finite_numbers(simple2, read, name, length, bad, error, match):
    vec = [0.5] * length
    vec[-1] = bad
    for value in (vec, np.array(vec, dtype=object)):
        with pytest.raises(error, match=f"{name} {match}") as info:
            read(simple2, value)
        assert type(info.value) is error


@pytest.mark.parametrize("x", [[2**53 + 1, 0], np.array([2**53 + 1, 0]), [10**400, 0]],
                         ids=["list", "int64", "beyond-float"])
def test_exact_cost_reads_ints_exactly(simple2, x):
    # float() would round 2**53 + 1 to 2**53 and overflow on 10**400; c = (1, 2).
    assert exact_cost(simple2, x) == int(x[0])


# Nonnegative finite floats from every range the dyadic reading meets:
# zero, subnormals, 1.0 and the top of the range.
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-1074 * 3, 2.0**-1022 - 2.0**-1074, 1.0, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=2.0**-1022, allow_subnormal=True),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 2**63 - 1), min_size=n, max_size=n),
    st.lists(EXTREME_FLOATS, min_size=n, max_size=n),
)))
def test_exact_cost_is_the_sum_of_exact_products(data):
    c, xs = data
    lp = validate(LinearProgram.from_lists([[1] * len(c)], [1], c))
    x = np.array(xs)
    assert exact_cost(lp, x) == sum(Fraction(ci) * Fraction(v) for ci, v in zip(c, x.tolist()))
