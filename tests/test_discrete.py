"""Damped iteration: stepping, stopping, and the progress certificate."""

import ast
import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from physarum import (
    DiscreteConfig,
    FlowConfig,
    LinearProgram,
    Solution,
    Trace,
    certified_step_search,
    certify_trace,
    compute_params,
    continuous_flow,
    default_step,
    discrete_solver,
    entropy_path,
    enumerate_polyhedron,
    integrate,
    interior_point,
    iteration_bound,
    linalg,
    solve,
    validate,
)
from physarum import _record
from physarum import oracle as oracle_mod
from physarum.discrete_solver import BASIS_EVERY, FIXED_POINT_TOL, ITERATION_HARD_CAP, PILOT_T_END, trace_dtype
from physarum.errors import (
    BadEpsError,
    BadStepError,
    DimensionMismatchError,
    FeasibilityLostError,
    InfeasibleStartError,
    MissingVerifyDataError,
    NoInteriorPointError,
    NonPositiveStateError,
    NotPositiveDefiniteError,
    NumericalError,
    PhysarumError,
    PositivityLostError,
    StepSizeUnderflowError,
    ValidationError,
)
from physarum.linalg import basis_dual, laplacian_solver
from physarum.model import check_point, default_params, dual_lower_bound
from tests.conftest import (
    CORPUS_EPS,
    overflowing_instance,
    planted_12x48,
    random_instances,
    ref_cholesky_solve,
    ref_step_search,
    ref_windowed_step_search,
)


def test_config_validation():
    with pytest.raises(BadEpsError):
        DiscreteConfig(eps=0.0)
    with pytest.raises(BadEpsError):
        DiscreteConfig(eps=0.5)
    with pytest.raises(BadStepError):
        DiscreteConfig(h=1.0)
    with pytest.raises(BadStepError):
        DiscreteConfig(h=-0.1)
    # Counts must be integers: a NaN cap never stopped the loop, max_iters=2.5
    # stopped at k = 3 and trace_every=2.5 recorded every 5th step.
    for name in ("max_iters", "trace_every"):
        for bad in (-1, float("nan"), 2.5, 3.0, True, "5", None):
            with pytest.raises(ValidationError, match=name):
                DiscreteConfig(**{name: bad})
        for good in (0, 7, np.int64(7)):
            assert getattr(DiscreteConfig(**{name: good}), name) == good


def test_config_rejects_a_trace_every_past_int64():
    # The trace's k column is int64: a larger trace_every raised OverflowError
    # when the record array was built.
    with pytest.raises(ValidationError, match="trace_every"):
        DiscreteConfig(trace_every=2**63)
    assert DiscreteConfig(trace_every=2**63 - 1).trace_every == 2**63 - 1


def test_default_step_simple2(simple2):
    params = compute_params(simple2)
    assert default_step(params, 0.1) == pytest.approx(1.0 / 960.0, rel=1e-15)


def test_iteration_bound_values():
    assert iteration_bound(1.0, 1.0, 0.1, 0.01) == 0
    assert iteration_bound(math.e**4, 1.0, 0.1, 1.0 / 960.0) == 8_847_360_000
    # halving the step quadruples the count when the spread term is absent
    four_to_one = iteration_bound(10.0, 1.0, 0.1, 0.001) / iteration_bound(10.0, 1.0, 0.1, 0.002)
    assert four_to_one == pytest.approx(4.0, rel=1e-6)
    # the certified step is near 1.4e-184 on planted m = 64, n = 256 instances; h^2 eps^2 underflows to 0
    assert iteration_bound(10.0, 1.0, 0.1, 1.4e-184) == ITERATION_HARD_CAP
    with pytest.raises(ValueError):
        iteration_bound(0.5, 1.0, 0.1, 0.01)
    with pytest.raises(BadStepError):
        iteration_bound(2.0, 1.0, 0.1, 0.0)


def test_step_values(simple2):
    sol, _ = solve(simple2, DiscreteConfig(eps=0.1, h=0.1, start=[0.5, 0.5], max_iters=1))
    assert sol.stop_reason == "UserCap"
    assert np.allclose(sol.x, [31.0 / 60.0, 29.0 / 60.0], rtol=1e-14)


def test_solve_simple2_certified_step(simple2):
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5])))
    assert sol.stop_reason == "Certified" and sol.lower_bound == 1
    assert sol.iterations == 3654
    assert sol.cost <= 1.1
    assert sol.h == pytest.approx(1.0 / 960.0)
    assert len(trace.entries) == sol.iterations + 1
    assert sol.residual_inf <= 1e-12


def test_solve_identity2_immediate_fixed_point(identity2):
    sol, trace = solve(identity2, DiscreteConfig(eps=0.1, start=np.array([2.0, 3.0])))
    assert sol.stop_reason == "FixedPoint"
    assert sol.iterations == 0
    assert sol.cost == pytest.approx(5.0)
    assert len(trace.entries) == 1


def test_a_subnormal_start_coordinate_stops_without_a_warning(simple2):
    # 1 / 1e-320 overflows to inf: the spread of the iteration bound is
    # taken in Python floats, which give no RuntimeWarning (the suite turns
    # one into an error). The start lies within 1e-9 of the fixed point
    # (0, 1), which is not optimal.
    x0 = np.array([1e-320, 1.0])
    sol, trace = solve(simple2, DiscreteConfig(start=x0))
    assert (sol.stop_reason, sol.iterations, len(trace.entries)) == ("FixedPoint", 0, 1)
    assert sol.x.tobytes() == x0.tobytes() and sol.cost == 2.0


def test_solve_zero_demands():
    lp = validate(LinearProgram.from_lists([[1, 1]], [0], [1, 1]))
    sol, trace = solve(lp, DiscreteConfig(eps=0.1))
    assert sol.stop_reason == "FixedPoint"
    assert sol.iterations == 0
    assert np.array_equal(sol.x, [0.0, 0.0]) and sol.cost == 0.0
    assert len(trace.entries) == 0


def test_solve_zero_demands_checks_a_given_start():
    lp = validate(LinearProgram.from_lists([[1, -1]], [0], [1, 1]))
    with pytest.raises(NonPositiveStateError):
        solve(lp, DiscreteConfig(start=np.array([-1.0, 5.0])))
    with pytest.raises(DimensionMismatchError):
        solve(lp, DiscreteConfig(start=np.array([1.0, 2.0, 3.0])))
    with pytest.raises(InfeasibleStartError):
        solve(lp, DiscreteConfig(start=np.array([1.0, 2.0])))


def test_solve_user_cap(simple2):
    sol, _ = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5]), max_iters=5))
    assert sol.stop_reason == "UserCap"
    assert sol.iterations == 5


def test_solve_rejects_oversized_step(simple2):
    # the positivity-safe cap for this instance is 1/(2 * 4) = 0.125
    with pytest.raises(BadStepError):
        solve(simple2, DiscreteConfig(eps=0.1, h=0.2, start=np.array([0.5, 0.5])))


def test_solve_warns_beyond_certified_step(simple2, caplog):
    with caplog.at_level("WARNING", logger="physarum.discrete_solver"):
        sol, _ = solve(simple2, DiscreteConfig(eps=0.1, h=0.01, start=np.array([0.5, 0.5])))
    assert any("certified" in rec.message for rec in caplog.records)
    assert sol.cost <= 1.1


def test_solve_warns_when_the_step_cannot_move_x(simple2, caplog):
    x0 = np.array([0.5, 0.5])
    with caplog.at_level("WARNING", logger="physarum.discrete_solver"):
        sol, _ = solve(simple2, DiscreteConfig(eps=0.1, h=1e-30, start=x0, max_iters=50))
    assert sol.stop_reason == "Stalled" and sol.iterations == 1
    assert np.array_equal(sol.x, x0) and not np.shares_memory(sol.x, x0)
    assert np.array_equal(x0, [0.5, 0.5])
    stalled = [rec for rec in caplog.records if "bit-identical" in rec.message]
    assert len(stalled) == 1
    assert "1.000e-30" in stalled[0].message and "after 1 iterations" in stalled[0].message
    assert "certified_step_search" in stalled[0].message

    caplog.clear()
    with caplog.at_level("WARNING", logger="physarum.discrete_solver"):
        sol, _ = solve(simple2, DiscreteConfig(eps=0.1, start=x0, max_iters=50))
    assert not np.array_equal(sol.x, x0)
    assert not any("bit-identical" in rec.message for rec in caplog.records)


def test_a_step_that_cannot_move_x_still_stops_in_order(simple2, identity2, caplog):
    # A start at rest stops at FixedPoint before the step is looked at.
    sol, trace = solve(identity2, DiscreteConfig(h=1e-30))
    assert (sol.stop_reason, sol.iterations, len(trace.entries)) == ("FixedPoint", 0, 1)

    # A cap of 0 stops before the step too.
    x0 = np.array([0.5, 0.5])
    with caplog.at_level("INFO", logger="physarum.discrete_solver"):
        sol, trace = solve(simple2, DiscreteConfig(h=1e-30, start=x0, max_iters=0))
    assert (sol.stop_reason, sol.iterations, len(trace.entries)) == ("UserCap", 0, 1)
    assert not caplog.records

    # The step is taken; the cap, tested first, stops the next one at 1.
    sol, trace = solve(simple2, DiscreteConfig(h=1e-30, start=x0, max_iters=1))
    assert (sol.stop_reason, sol.iterations, len(trace.entries)) == ("UserCap", 1, 2)

    # Otherwise the next step stops at Stalled, with no line but the warning.
    caplog.clear()
    with caplog.at_level("INFO", logger="physarum.discrete_solver"):
        sol, trace = solve(simple2, DiscreteConfig(h=1e-30, start=x0, max_iters=50, trace_every=7))
    assert (sol.stop_reason, sol.iterations, len(trace.entries)) == ("Stalled", 1, 1)
    assert list(trace.entries.k) == [0]
    assert [rec.levelname for rec in caplog.records] == ["WARNING"]

    # Past the certified count too: the stall, not the iteration bound, ends the run.
    sol, trace = solve(simple2, DiscreteConfig(h=1e-30, start=x0, max_iters=ITERATION_HARD_CAP + 1, trace_every=0))
    assert (sol.stop_reason, sol.iterations, len(trace.entries)) == ("Stalled", 1, 0)
    assert sol.x.tobytes() == x0.tobytes()


def test_a_step_that_cannot_move_x_is_solved_once(simple2, monkeypatch):
    from physarum import linalg

    calls = []

    def counting_dposv(*args):
        calls.append(1)
        return dposv(*args)

    dposv = linalg.dposv
    monkeypatch.setattr(linalg, "dposv", counting_dposv)

    # The step that cannot move x is solved once; the next step's solve finds
    # the same x, and the loop stops there.
    planted, x0 = planted_12x48()
    sol, _ = solve(planted, DiscreteConfig(start=x0, trace_every=0, max_iters=3000))
    assert (sol.stop_reason, sol.iterations) == ("Stalled", 1) and np.array_equal(sol.x, x0)
    assert len(calls) == 2

    calls.clear()
    sol, _ = solve(simple2, DiscreteConfig(start=np.array([0.5, 0.5])))
    assert sol.stop_reason == "Certified" and sol.iterations > 0
    assert len(calls) == sol.iterations + 1


def test_rows_after_a_late_exit_sit_where_a_run_to_the_cap_puts_them(simple2, monkeypatch):
    # No step of a moving run passes the real threshold, so this one is
    # raised: dev falls from 0.98 along this run, and h dev first drops to
    # 0.009 or below at step 176. That step is taken, and the run stops at
    # 177, two past a recorded step at trace_every=7: its rows are those of
    # the run to the cap up to there, and no row follows them.
    from physarum import discrete_solver

    config = DiscreteConfig(h=0.01, start=np.array([0.01, 0.99]), max_iters=203)
    _, every_step = solve(simple2, config)
    monkeypatch.setattr(discrete_solver, "NO_MOVE_HDEV", 0.009)
    for every in (1, 7):
        sol, trace = solve(simple2, _record.replace(config, trace_every=every))
        assert (sol.stop_reason, sol.iterations) == ("Stalled", 177)
        assert list(trace.entries.k) == list(range(0, 178, every))
        assert trace.entries.tobytes() == every_step.entries[0:178:every].tobytes()
        assert sol.x.tobytes() == every_step.entries[177].x.tobytes()


def test_a_cap_past_numpys_size_limit_stalls_after_one_step(simple2):
    # h = 1e-30 cannot move the start: the run stops after its first step,
    # whatever the cap, with the two rows it recorded.
    x0 = np.array([0.5, 0.5])
    sol, trace = solve(simple2, DiscreteConfig(h=1e-30, start=x0, max_iters=10**30))
    assert (sol.stop_reason, sol.iterations, len(trace.entries)) == ("Stalled", 1, 2)
    assert list(trace.entries.k) == [0, 1]
    assert trace.entries.x.tobytes() == np.stack([x0, x0]).tobytes()


def test_a_stalled_trace_holds_only_the_rows_it_recorded():
    # The certified step, about 8e-31 here, cannot move x: the trace holds
    # the two steps taken, not a row per step up to the cap. The run peaks
    # near 1 MB, mostly the 1024-row record buffer, where the 20,001 rows
    # to the cap would take 8.3 MB.
    planted, x0 = planted_12x48()
    solve(planted, DiscreteConfig(start=x0, trace_every=0, max_iters=0))  # binds SciPy first
    tracemalloc.start()
    try:
        sol, trace = solve(planted, DiscreteConfig(start=x0, trace_every=1, max_iters=20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sol.stop_reason, sol.iterations, len(trace.entries)) == ("Stalled", 1, 2)
    assert trace.entries.x.tobytes() == np.stack([x0, x0]).tobytes()
    assert peak <= 20_001 * trace_dtype(planted.n).itemsize / 4


def test_solve_start_validation(simple2):
    with pytest.raises(DimensionMismatchError):
        solve(simple2, DiscreteConfig(start=np.array([1.0, 1.0, 1.0])))
    with pytest.raises(InfeasibleStartError):
        solve(simple2, DiscreteConfig(start=np.array([1.0, 1.0])))  # violates A x = b
    with pytest.raises(NonPositiveStateError):
        solve(simple2, DiscreteConfig(start=np.array([1.0, -1.0])))
    lp = validate(LinearProgram.from_lists([[1, 0], [0, 1]], [0, 3], [1, 1]))
    with pytest.raises(NoInteriorPointError):
        solve(lp, DiscreteConfig())  # no strictly positive feasible point exists


def test_feasibility_drift_stays_at_float_noise(simple2):
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5])))
    scale = np.abs(simple2.b).max() + 1.0
    drift = max(float(np.abs(simple2.A @ e.x - simple2.b).max()) for e in trace.entries)
    assert drift <= 1e-12 * scale * 10


def test_cost_recurrence_along_trace(simple2):
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5])))
    for prev, nxt in zip(trace.entries[:2000], trace.entries[1:2001]):
        predicted = (1.0 - sol.h) * prev.cost + sol.h * prev.energy
        assert nxt.cost == pytest.approx(predicted, abs=1e-12)


def test_certify_clean_run(simple2):
    x_star = np.array([1.0, 0.0])
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5])))
    rep = certify_trace(simple2, trace, 1.0, 0.1, sol.h, x_star)
    assert rep.violations == 0
    assert rep.first_violation is None
    assert rep.steps_checked > 1000
    assert rep.worst_margin < 0.0
    # the combined potential phi(k) = 4 ln V(k) - (eps h / opt) B(k), with opt = 1
    supp = x_star > 0.0
    weights = simple2.c[supp] * x_star[supp]
    pots = [
        4.0 * math.log(e.cost) - 0.1 * sol.h * float(weights @ np.log(e.x[supp]))
        for e in trace.entries
        if e.cost > 1.1
    ]
    assert all(b <= a for a, b in zip(pots, pots[1:]))


def stalled_entries(ks):
    """Trace rows at steps ks that all hold the same state x = (2, 2)."""
    return np.rec.array([(k, [2.0, 2.0], 6.0, 6.0, 1.0) for k in ks], dtype=trace_dtype(2))


def certify_by_loop(lp, trace, opt, eps, h, x_star):
    """Step-by-step reference for certify_trace: (checked, violations, first, big, worst)."""
    supp = x_star > 0.0
    weights = lp.c[supp] * x_star[supp]

    def phi(e):
        return 4.0 * math.log(e.cost) - (eps * h / opt) * float(weights @ np.log(e.x[supp]))

    checked = violations = big = 0
    first, worst = None, -math.inf
    threshold = -(h * h * eps * eps) / 6.0
    for prev, nxt in zip(trace.entries, trace.entries[1:]):
        if prev.cost <= (1.0 + eps) * opt:
            continue
        checked += 1
        if prev.energy / prev.cost < 1.0 - eps / 3.0:
            big += 1
        drop = phi(nxt) - phi(prev)
        worst = max(worst, drop - threshold)
        if drop > threshold + 1e-10:
            violations += 1
            first = prev.k if first is None else first
    return checked, violations, first, big, worst if checked else 0.0


def test_certify_matches_step_by_step_reference(simple2, triangle):
    x_star = np.array([1.0, 0.0])
    stalled = Trace(entries=stalled_entries([0, 1, 2]), h=1.0 / 960.0, eps=0.1, trace_every=1)
    sol, clean = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5])))
    h, _ = certified_step_search(triangle, 0.05)
    _, searched = solve(triangle, DiscreteConfig(eps=0.05, h=h))
    cases = [
        (simple2, stalled, 1.0, 0.1, 1.0 / 960.0, x_star),
        (simple2, clean, 1.0, 0.1, sol.h, x_star),
        (triangle, searched, 2.0, 0.05, h, np.array([1.0, 1.0, 0.0])),
    ]
    for case in cases:
        rep = certify_trace(*case)
        *counts, worst = certify_by_loop(*case)
        got = [rep.steps_checked, rep.violations, rep.first_violation, rep.big_gap_steps]
        assert got == counts
        # log and dot products may round differently per element; phi is O(1)
        assert rep.worst_margin == pytest.approx(worst, rel=0.0, abs=1e-12)


def test_certify_weighs_the_potential_by_c_times_x_star(solve_runs):
    # An optimal vertex with entries other than 0 and 1 tells c * x_star from
    # c / x_star in the potential's weights; 21 of the corpus runs have one.
    runs = [run for run in solve_runs["runs"] if set(run["res"].optimal_vertices[0].tolist()) - {0.0, 1.0}]
    assert len(runs) == 21
    for run in runs:
        lp, trace, res = run["lp"], run["trace"], run["res"]
        case = (lp, trace, res.opt, CORPUS_EPS, run["h"], res.optimal_vertices[0])
        rep = certify_trace(*case)
        *counts, worst = certify_by_loop(*case)
        got = [rep.steps_checked, rep.violations, rep.first_violation, rep.big_gap_steps]
        assert got == counts, run["name"]
        assert rep.worst_margin == pytest.approx(worst, rel=0.0, abs=1e-12), run["name"]


@pytest.mark.parametrize("rows", [
    pytest.param(([[1, 0, 1], [-1, 1, 0]], [1, 0], [1, 1, 3]), id="triangle, opt 2"),
    pytest.param(([[2, 3]], [1], [1, 1]), id="opt 1/3"),
])
def test_certify_checks_only_the_steps_above_the_gap(rows):
    # The loop without its gap test runs on past the first row within
    # (1 + eps) opt, so rows below the gap, which certify_trace must not
    # check, follow the live ones; at an opt other than 1, (1 + eps) * opt
    # differs from (1 + eps) / opt. Both runs have live steps with a large
    # gap E / V and live steps without one.
    lp = validate(LinearProgram.from_lists(*rows))
    res = enumerate_polyhedron(lp)
    params = compute_params(lp)
    h, _ = certified_step_search(lp, CORPUS_EPS, params=params, oracle_result=res)
    sol, _ = solve(lp, DiscreteConfig(eps=CORPUS_EPS, h=h), params=params, oracle_result=res)
    config = DiscreteConfig(eps=CORPUS_EPS, h=h, max_iters=2 * sol.iterations + 50)
    _, trace = solve_by_loop(lp, config, params=params, oracle_result=res, gap=False)
    below = trace.entries.cost[:-1] <= (1.0 + CORPUS_EPS) * res.opt
    assert sol.stop_reason == "Certified" and below.sum() > sol.iterations // 2
    case = (lp, trace, res.opt, CORPUS_EPS, h, res.optimal_vertices[0])
    rep = certify_trace(*case)
    checked, violations, _, big, _ = certify_by_loop(*case)
    assert rep.steps_checked == checked == int((~below).sum()) == sol.iterations
    assert rep.big_gap_steps == big
    assert 0 < big < checked and rep.violations == violations == 0


def test_certify_allows_a_drop_short_of_the_threshold_by_at_most_1e_10(simple2):
    # Rows at one x, so only 4 ln V moves phi: the drops sit at the threshold
    # -(h eps)^2 / 6 minus 5e-11, plus 5e-11 and plus 1.5e-10. Only the last
    # is short of it by more than the 1e-10 allowance.
    h, eps = 0.1, 0.1
    threshold = -(h * h * eps * eps) / 6.0
    costs = [6.0]
    for drop in (threshold - 5e-11, threshold + 5e-11, threshold + 1.5e-10):
        costs.append(costs[-1] * math.exp(drop / 4.0))
    entries = np.rec.array([(k, [2.0, 2.0], v, v, 1.0) for k, v in enumerate(costs)], dtype=trace_dtype(2))
    assert np.allclose(np.diff(4.0 * np.log(entries.cost)) - threshold, [-5e-11, 5e-11, 1.5e-10], rtol=0.0, atol=1e-14)
    trace = Trace(entries=entries, h=h, eps=eps, trace_every=1)
    rep = certify_trace(simple2, trace, 1.0, eps, h, np.array([1.0, 0.0]))
    assert (rep.steps_checked, rep.violations, rep.first_violation) == (3, 1, 2)


def test_certify_holds_each_strict_inequality_at_equality(simple2):
    # A step is checked only while V(k) > (1 + eps) opt, is a big gap only
    # while E/V < 1 - eps/3, and is a violation only when its drop exceeds
    # threshold + 1e-10. This h makes threshold + 1e-10 exactly 0.0, the drop
    # between two rows at one x and one cost. Step 0 starts on the gap (and
    # climbs), step 1 sits on the big-gap bound, and step 2 just below it.
    h, eps = 9.797958971132712e-05, 0.25
    assert -(h * h * eps * eps) / 6.0 + 1e-10 == 0.0
    big = 1.0 - eps / 3.0
    rows = [(1.0 + eps, 0.5), (4.0, 4.0 * big), (4.0, 4.0 * math.nextafter(big, 0.0)), (4.0, 4.0)]
    entries = np.rec.array([(k, [2.0, 2.0], v, e, 1.0) for k, (v, e) in enumerate(rows)], dtype=trace_dtype(2))
    rep = certify_trace(simple2, Trace(entries=entries, h=h, eps=eps, trace_every=1), 1.0, eps, h, np.array([1.0, 0.0]))
    assert (rep.steps_checked, rep.big_gap_steps, rep.violations, rep.worst_margin) == (2, 1, 0, 1e-10)


def test_certify_searched_step(simple2):
    h, dev = certified_step_search(simple2, 0.1)
    params = compute_params(simple2)
    assert default_step(params, 0.1) < h < 0.5 / params.potential_ratio_bound
    # The pilot's deviation up to the sample after the cost first comes
    # within (1 + eps) opt; the flow's largest, 0.5, comes later.
    assert dev == pytest.approx(0.478906, abs=1e-6)
    x_star = np.array([1.0, 0.0])
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, h=h, start=np.array([0.5, 0.5])))
    assert sol.iterations < 2000  # orders of magnitude below the worst-case step
    rep = certify_trace(simple2, trace, 1.0, 0.1, h, x_star)
    assert rep.violations == 0
    assert sol.cost <= 1.1


def test_solve_triangle_with_searched_step(triangle):
    h, _ = certified_step_search(triangle, 0.05)
    sol, trace = solve(triangle, DiscreteConfig(eps=0.05, h=h))
    assert sol.stop_reason == "Certified" and sol.lower_bound == 2
    assert 2.0 <= sol.cost <= 2.1
    rep = certify_trace(triangle, trace, 2.0, 0.05, h, np.array([1.0, 1.0, 0.0]))
    assert rep.violations == 0


def test_step_search_never_returns_a_zero_step(monkeypatch):
    # P is inf at m = 18, so the positivity cap 1/(2 P) and the worst-case
    # step are both 0, whatever deviation the pilot measures.
    data = overflowing_instance(18)
    lp = validate(LinearProgram.from_lists(data["A"], data["b"], data["c"]))
    res = enumerate_polyhedron(lp, cap=lp.n)
    with pytest.raises(StepSizeUnderflowError, match="eps = 0.1, P = inf"):
        certified_step_search(lp, 0.1, oracle_result=res)

    def failing(*args, **kwargs):
        raise NumericalError("pilot failed")

    monkeypatch.setattr("physarum.entropy_path.flow_points", failing)
    with pytest.raises(StepSizeUnderflowError, match="eps = 0.1, P = inf, dev = inf"):
        certified_step_search(lp, 0.1, oracle_result=res)


def test_step_search_never_returns_a_step_that_cannot_move_the_start():
    # At m = 10, P is about 1e172: the search used to return h = 2.8e-173
    # with dev = 0.424 (1.01 over the whole pilot), and solve from the
    # start then never left it.
    data = overflowing_instance(10)
    lp = validate(LinearProgram.from_lists(data["A"], data["b"], data["c"]))
    res = enumerate_polyhedron(lp, cap=lp.n)
    with pytest.raises(StepSizeUnderflowError, match=r"h = 2\.\d+e-173 .* eps = 0\.1, P = .*, dev = 4\.24"):
        certified_step_search(lp, 0.1, oracle_result=res)

    # At a start that is already a fixed point solve stops at k = 0 whatever
    # the step, so a step below the ulp bound is still returned there
    # instead of raising. The pilot's samples are exact, so dev sits at its
    # 1e-12 floor.
    lp = validate(LinearProgram.from_lists([[10**5, 0], [0, 10**5]], [2 * 10**5, 3 * 10**5], [1, 1]))
    h, dev = certified_step_search(lp, 0.1)
    assert h * dev <= 2.0**-55
    sol, _ = solve(lp, DiscreteConfig(h=h))
    assert sol.stop_reason == "FixedPoint" and sol.iterations == 0


def test_step_search_outlives_a_pilot_that_fails_after_the_gap_closes():
    # The flow from the interior point closes the gap at t = 4, but its
    # Laplacian near t = 40 falls below the pivot floor (2.374e-12 against
    # 2.889e-12). A search over the whole pilot fell back to the worst-case
    # step 2.37e-7, and solve stopped at UserCap with cost 8.24 against opt 2.
    lp = validate(LinearProgram.from_lists(
        [[1, -3, 0, 0, -1], [1, -3, -3, 1, 1], [-3, 1, -2, 0, 3]], [-2, -1, 2], [2, 3, 3, 2, 1]))
    res = enumerate_polyhedron(lp)
    assert ref_step_search(lp, 0.1, oracle_result=res)[1] == math.inf
    h, dev = certified_step_search(lp, 0.1, oracle_result=res)
    assert dev == pytest.approx(1.48, abs=1e-6)
    sol, trace = solve(lp, DiscreteConfig(eps=0.1, h=h), oracle_result=res)
    assert sol.stop_reason == "Certified" and sol.cost <= 1.1 * res.opt
    assert certify_trace(lp, trace, res.opt, 0.1, h, res.optimal_vertices[0]).violations == 0


def test_step_search_is_no_smaller_than_the_whole_pilots(corpus):
    # The live samples are a prefix of the whole pilot's, so dev can only
    # fall and h only grow.
    for name, lp, res in corpus:
        params = compute_params(lp)
        h, dev = certified_step_search(lp, CORPUS_EPS, params=params, oracle_result=res)
        ref_h, ref_dev = ref_step_search(lp, CORPUS_EPS, params=params, oracle_result=res)
        assert h >= ref_h and dev <= ref_dev, (name, h, ref_h, dev, ref_dev)


def outcome(search, lp, eps, res):
    """The bytes of search's (h, dev) at eps, or the type and message of the error it raised."""
    try:
        return np.array(search(lp, eps, oracle_result=res)).tobytes()
    except PhysarumError as exc:
        return type(exc), str(exc)


def test_step_search_matches_the_windowed_reference_bit_for_bit(corpus):
    cases = [(lp, CORPUS_EPS, res) for _, lp, res in corpus]
    for seed in (101, 202, 303):
        pairs = random_instances(seed=seed, count=30, require_interior=True, skip_zero_b=True)
        cases += [(lp, eps, res) for lp, res in pairs for eps in (0.05, 0.1, 0.2)]
    got = [outcome(certified_step_search, *case) for case in cases]
    want = [outcome(ref_windowed_step_search, *case) for case in cases]
    assert got == want
    assert sum(isinstance(g, bytes) for g in got) == 28 + 270


def test_step_search_solves_no_sample_after_the_last_it_reads(simple2, monkeypatch):
    # simple2's flow first comes within (1 + eps) opt at t = 4.0, so the
    # step reads the samples up to t = 4.25. The windowed search's last
    # window, [0, 8], also solved t = 4.5, and a failure there gave the
    # worst-case step.
    newton = entropy_path._newton

    def failing_at_4_5(lp, log_s, mu, *args):
        if mu == 4.5:
            raise NotPositiveDefiniteError("pivot below the floor")
        return newton(lp, log_s, mu, *args)

    want = (0.04299934038353429, 0.4789058319442059)
    assert certified_step_search(simple2, 0.1) == want
    monkeypatch.setattr(entropy_path, "_newton", failing_at_4_5)
    assert ref_windowed_step_search(simple2, 0.1) == (default_step(compute_params(simple2), 0.1), math.inf)
    assert certified_step_search(simple2, 0.1) == want


def test_step_search_solves_each_sample_it_reads_and_no_other(corpus, monkeypatch):
    # min(first index within the gap + 2, 161) samples, each one rhs_log call.
    want = []
    for _, lp, res in corpus:
        cost = integrate(lp, FlowConfig(x0=interior_point(res), t_end=PILOT_T_END)).entries.cost
        within = np.flatnonzero(cost <= (1.0 + CORPUS_EPS) * res.opt)
        want.append(min(int(within[0]) + 2, len(cost)) if len(within) else len(cost))
    rhs_log, calls = continuous_flow.rhs_log, []

    def counted(*args):
        calls.append(None)
        return rhs_log(*args)

    monkeypatch.setattr(continuous_flow, "rhs_log", counted)
    got = []
    for _, lp, res in corpus:
        calls.clear()
        certified_step_search(lp, CORPUS_EPS, oracle_result=res)
        got.append(len(calls))
    assert got == want
    assert sum(got) == 292


def test_certify_rejects_eps_or_h_other_than_the_traces(triangle):
    h, _ = certified_step_search(triangle, 0.05)
    _, trace = solve(triangle, DiscreteConfig(eps=0.05, h=h))
    x_star = np.array([1.0, 1.0, 0.0])
    # h = 8.3 lies outside (0, 1); eps = 0.3 would check no step at all and pass vacuously.
    for eps, step in ((0.05, 8.3), (0.3, h), (0.05, h / 2)):
        with pytest.raises(ValidationError):
            certify_trace(triangle, trace, 2.0, eps, step, x_star)
    assert certify_trace(triangle, trace, 2.0, 0.05, h, x_star).violations == 0


@pytest.mark.parametrize("opt, x_star, message", [
    (math.nan, [1.0, 0.0], "optimal value must be finite and positive"),
    (math.inf, [1.0, 0.0], "optimal value must be finite and positive"),
    (-math.inf, [1.0, 0.0], "optimal value must be finite and positive"),
    (0.0, [1.0, 0.0], "optimal value must be finite and positive"),
    (-1.0, [1.0, 0.0], "optimal value must be finite and positive"),
    (1.0, [math.nan, 0.0], "x_star must be finite and nonnegative"),
    (1.0, [-1.0, 0.0], "x_star must be finite and nonnegative"),
    (1.0, [1.0, math.inf], "x_star must be finite and nonnegative"),
    (1.0, [1.0, -0.0], None),
])
def test_certify_rejects_an_unsound_optimum(simple2, opt, x_star, message):
    # A NaN or infinite opt would check no step and pass; x_star = [1, inf]
    # would give a NaN worst margin.
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5])))
    if message is None:
        assert certify_trace(simple2, trace, opt, 0.1, sol.h, np.array(x_star)).violations == 0
        return
    with pytest.raises(ValidationError, match=message) as info:
        certify_trace(simple2, trace, opt, 0.1, sol.h, np.array(x_star))
    assert type(info.value) is ValidationError


def test_certify_requires_full_trace(simple2):
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5]), trace_every=10))
    with pytest.raises(MissingVerifyDataError):
        certify_trace(simple2, trace, 1.0, 0.1, sol.h, np.array([1.0, 0.0]))


def test_certify_short_trace_is_vacuous(identity2):
    sol, trace = solve(identity2, DiscreteConfig(eps=0.1, start=np.array([2.0, 3.0])))
    rep = certify_trace(identity2, trace, 5.0, 0.1, sol.h, np.array([2.0, 3.0]))
    assert rep.steps_checked == 0 and rep.violations == 0


def test_certify_flags_doctored_trace(simple2):
    # a stalled state far from optimal makes zero progress: must be flagged
    trace = Trace(
        entries=stalled_entries([0, 1]),
        h=1.0 / 960.0,
        eps=0.1,
        trace_every=1,
    )
    rep = certify_trace(simple2, trace, 1.0, 0.1, 1.0 / 960.0, np.array([1.0, 0.0]))
    assert rep.steps_checked == 1
    assert rep.violations == 1
    assert rep.first_violation == 0


def test_certify_reports_the_largest_cost_rise(simple2):
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, start=np.array([0.5, 0.5])))
    assert certify_trace(simple2, trace, 1.0, 0.1, sol.h, np.array([1.0, 0.0])).max_cost_rise == 0.0
    entries = trace.entries.copy()
    entries.cost[10] = entries.cost[9] * (1.0 + 1e-9)
    doctored = _record.replace(trace, entries=entries)
    rep = certify_trace(simple2, doctored, 1.0, 0.1, sol.h, np.array([1.0, 0.0]))
    assert rep.max_cost_rise == pytest.approx(1e-9, rel=1e-6)
    # A one-row trace has no pair to compare.
    one = _record.replace(trace, entries=trace.entries[:1])
    assert certify_trace(simple2, one, 1.0, 0.1, sol.h, np.array([1.0, 0.0])).max_cost_rise == 0.0


def test_the_one_stop_rule_certifies_held_out_draws(monkeypatch):
    # 30 draws outside the corpus (seed 101), at eps = 0.1 with the searched
    # step. Each run is the loop cut short, and stops no later than the same
    # loop with the potentials' bound alone, which is solve with no basis
    # candidate.
    runs = []
    for lp, res in random_instances(seed=101, count=30, require_interior=True, skip_zero_b=True):
        params = compute_params(lp)
        h, _ = certified_step_search(lp, 0.1, params=params, oracle_result=res)
        config = DiscreteConfig(eps=0.1, h=h)
        sol, trace = solve(lp, config, params=params, oracle_result=res)
        runs.append((lp, res, params, config, sol))
        assert sol.cost <= 1.1 * res.opt
        assert_run_is_the_loop_cut_short(lp, config, params, res, sol, trace)
    assert {sol.stop_reason for *_, sol in runs} <= {"Certified", "FixedPoint"} and len(runs) == 30
    monkeypatch.setattr(linalg, "basis_dual", lambda lp, key: None)
    for lp, res, params, config, sol in runs:
        alone, _ = solve(lp, config, params=params, oracle_result=res)
        assert alone.bound_source in (None, "potentials")
        assert sol.iterations <= alone.iterations
        assert sol.stop_reason == alone.stop_reason


def test_certify_rejects_gapped_entries(simple2):
    trace = Trace(
        entries=stalled_entries([0, 2]),
        h=0.01,
        eps=0.1,
        trace_every=1,
    )
    with pytest.raises(MissingVerifyDataError):
        certify_trace(simple2, trace, 1.0, 0.1, 0.01, np.array([1.0, 0.0]))


def solve_by_loop(lp, config, params=None, oracle_result=None, gap=True):
    """Step-by-step reference for solve on a nonzero demand vector.

    Every value the loop reads is computed afresh each step by a reduction
    of its own on fresh arrays: fp_res, dev and max(x) before the stop test,
    the weak-duality bound b . p / max_i (a_i . p / c_i) and, once c . x is
    within (1 + eps) of it in floats, the exact test, an exact min(x) after
    every update, and a trace row assigned as a tuple. The potentials' float
    test runs on every step, with no gate. Every BASIS_EVERY steps it reads
    a basis candidate off the ratios a_i . p / c_i: B from a full argsort, y
    from LAPACK's dgesv on A[:, B].T (the routine of basis_dual, so y is the
    same bits at any m), and the bound b . y / max_i (a_i . y / c_i).
    The best one is kept, tested before the potentials, and its float bound
    becomes its exact one once that is formed. With gap=False the loop runs
    without either test, on to a fixed point, the cap or a stall. A step
    with h dev <= 2**-55 is taken like any other, and the next step stops
    at Stalled after its other tests. The warning that x never left the
    start is left out.
    """
    if params is None:
        params = default_params(lp)
    x = check_point(lp, oracle_mod.start_point(lp, config.start, oracle_result), "start", feasible=True)
    certified = default_step(params, config.eps)
    if config.h is None:
        h = certified
    else:
        h = config.h
        if h > 0.5 / params.potential_ratio_bound:
            raise BadStepError("step above the positivity-safe cap")

    v0 = float(lp.c @ x)
    opt_floor = float(min(lp.c_exact)) / params.subdet_max
    cost_ratio = max(v0 / opt_floor, 1.0)
    spread = max(float(x.max()), 1.0 / float(x.min()), 1.0)
    certified_cap = iteration_bound(cost_ratio, spread, config.eps, h)
    cap = min(config.max_iters, certified_cap)

    A, At, b, c = lp.A, lp.At, lp.b, lp.c
    inv_c = 1.0 / c
    buf = np.empty(1024 if config.trace_every else 0, dtype=trace_dtype(lp.n))
    rows = 0
    dev_max = 0.0
    k = 0
    stop = lower_bound = bound_source = None
    fp_res = math.inf
    basis_y, basis_lb, basis_exact, basis_formed = None, -math.inf, None, False  # the kept candidate
    stalled = False

    while True:
        w = x * inv_c
        p = ref_cholesky_solve((A * w) @ At, b)
        edge = At @ p
        q = w * edge
        diff = q - x
        abs_diff = np.abs(diff)
        fp_res = float(abs_diff.max())
        dev = float((abs_diff / x).max())
        if dev > dev_max:
            dev_max = dev

        if config.trace_every and k % config.trace_every == 0:
            if rows == len(buf):
                buf = np.concatenate((buf, np.empty_like(buf)))
            buf[rows] = (k, x, c @ x, b @ p, np.abs(edge).max())
            rows += 1

        if fp_res <= FIXED_POINT_TOL * (1.0 + float(x.max())):
            stop = "FixedPoint"
            break
        if gap:
            if k % BASIS_EVERY == 0:
                B = np.sort(np.argsort(edge / c, kind="stable")[-lp.m:])
                _, _, y, info = linalg.dgesv(A[:, B].T, c[B])
                if info == 0:
                    with np.errstate(all="ignore"):
                        y_r, y_dot = float(((At @ y) / c).max()), float(b @ y)
                    if 0.0 < y_r < math.inf and math.isfinite(y_dot) and math.isfinite(y_dot / y_r):
                        if y_dot / y_r > basis_lb:
                            basis_y, basis_lb, basis_exact, basis_formed = y, y_dot / y_r, None, False
            exact_cost = lambda: sum(ci * Fraction(v) for ci, v in zip(lp.c_exact, x.tolist()))
            if float(c @ x) <= (1.0 + config.eps) * basis_lb:
                if not basis_formed:
                    basis_exact, basis_formed = dual_lower_bound(lp, basis_y), True
                    basis_lb = float(basis_exact) if basis_exact is not None and basis_exact > 0 else -math.inf
                if basis_exact is not None and exact_cost() <= (1 + Fraction(config.eps)) * basis_exact:
                    stop, lower_bound, bound_source = "Certified", basis_exact, "basis"
                    break
            r = float((edge / c).max())
            if r > 0.0 and float(c @ x) <= (1.0 + config.eps) * (float(b @ p) / r):
                lb = dual_lower_bound(lp, p)
                if lb is not None and exact_cost() <= (1 + Fraction(config.eps)) * lb:
                    stop, lower_bound, bound_source = "Certified", lb, "potentials"
                    break
        if k >= cap:
            stop = "UserCap" if cap == config.max_iters and config.max_iters < certified_cap else "IterationBound"
            break
        if stalled:
            stop = "Stalled"
            break

        stalled = h * dev <= 2.0**-55
        x = x + h * diff
        if x.min() <= 0.0:
            raise PositivityLostError(f"coordinate became nonpositive at iteration {k + 1}")
        k += 1

    resid = float(np.abs(A @ x - b).max())
    if resid > 1e-6 * (float(np.abs(b).max()) + 1.0):
        raise FeasibilityLostError(f"feasibility drifted to {resid:.3e}")

    sol = Solution(
        x=x, cost=float(c @ x), iterations=k, stop_reason=stop, h=h, eps=config.eps,
        residual_inf=resid, fixed_point_residual=fp_res, dev_max=dev_max, lower_bound=lower_bound,
        bound_source=bound_source,
    )
    entries = buf[:rows].copy().view(np.recarray)
    return sol, Trace(entries=entries, h=h, eps=config.eps, trace_every=config.trace_every)


def test_solve_matches_step_by_step_reference(simple2, triangle, identity2):
    cases = []
    for lp, res in [
        (simple2, enumerate_polyhedron(simple2)),
        (triangle, enumerate_polyhedron(triangle)),
        (identity2, enumerate_polyhedron(identity2)),
        *(pair for i, pair in enumerate(random_instances(
            seed=20240801, count=13, require_interior=True, skip_zero_b=True)) if i in (2, 3, 4, 6, 8, 10)),
        # random7 of the corpus, A = [[-3, -2, -3, -2], [-2, 3, 1, 0], [-2, -3, 3, 0]],
        # b = [-3, 3, -3], c = [2, 3, 1, 3]: its basis candidate read off the ratios
        # proves the gap at step 670, the first within (1 + eps) opt.
        random_instances(seed=20240801, count=8, require_interior=True, skip_zero_b=True)[7],
    ]:
        params = compute_params(lp)
        h, _ = certified_step_search(lp, 0.1, params=params, oracle_result=res)
        cases.append((lp, DiscreteConfig(eps=0.1, h=h), params, res))
    lp, config, params, res = cases[6]
    cases.append((lp, _record.replace(config, trace_every=7), params, res))
    # triangle at its certified step proves the gap after 7,968 steps, 1,139 rows at trace_every=7.
    lp, _, params, res = cases[1]
    cases.append((lp, DiscreteConfig(eps=0.1, trace_every=7), params, res))

    planted, x0 = planted_12x48()
    params = default_params(planted)
    h = 0.999 * 0.5 / params.potential_ratio_bound
    cases.append((planted, DiscreteConfig(h=h, start=x0, trace_every=0, max_iters=3000), params, None))
    # Traced, its cost and energy columns are compared with c @ x at n = 48,
    # where ddot takes its blocked path, and with b @ p over m = 12 terms.
    cases.append((planted, DiscreteConfig(h=h, start=x0, max_iters=3000), params, None))
    # The certified step, about 8e-31 here, cannot move x: the first step is
    # taken and the second stops at Stalled, unless a cap of 0 or 1 stops
    # the run first.
    for every, cap in ((0, 3000), (1, 3000), (7, 3001), (1, 0), (1, 1)):
        cases.append((planted, DiscreteConfig(start=x0, trace_every=every, max_iters=cap), params, None))

    # Params that understate P admit a step past the true positivity cap.
    # Near the vertex (0, 1), q / x - 1 is large at the small coordinate: h dev
    # starts at 0.554, so the first ten steps take the exact positivity check
    # and the rest the h dev < 0.5 shortcut.
    params = _record.replace(compute_params(simple2), potential_ratio_bound=0.9)
    h = 0.999 * 0.5 / params.potential_ratio_bound
    start = np.array([1e-3, 1 - 1e-3])
    cases.append((simple2, DiscreteConfig(h=h, start=start, max_iters=200), params, None))

    rows = []
    for lp, config, params, res in cases:
        start = oracle_mod.start_point(lp, config.start, res)
        config = _record.replace(config, start=start)
        before = start.copy()
        sol, trace = solve(lp, config, params=params, oracle_result=res)
        # solve steps on buffers of its own: the start is left as it was and
        # the result owns its memory, shared with neither the start nor the trace.
        assert start.tobytes() == before.tobytes()
        assert sol.x.base is None
        assert not np.shares_memory(sol.x, start) and not np.shares_memory(sol.x, trace.entries)
        rows.append((config.trace_every, len(trace.entries)))
        ref, ref_trace = solve_by_loop(lp, config, params=params, oracle_result=res)
        assert repr(sol) == repr(ref)
        for name in _record.fields(Solution):
            got, want = getattr(sol, name), getattr(ref, name)
            if name == "lower_bound":  # an exact Fraction or None
                assert got == want
            else:
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        assert (trace.h, trace.eps, trace.trace_every) == (ref_trace.h, ref_trace.eps, ref_trace.trace_every)
        assert trace.entries.dtype == ref_trace.entries.dtype
        assert trace.entries.tobytes() == ref_trace.entries.tobytes()
    assert cases[-1][1].h * sol.dev_max >= 0.5
    # The trace buffer starts at 1024 rows and doubles: one traced-every-step
    # case doubles it at least twice and the trace_every=7 case at least once.
    assert max(n for every, n in rows if every == 1) > 2048
    assert max(n for every, n in rows if every == 7) > 1024


def test_solve_and_reference_lose_positivity_at_the_same_iteration():
    # A = [1, -1] makes a_2 . p negative, so q_2 < 0. With P understated,
    # the largest step under the claimed cap 1/(2P) drives x_2 below zero.
    lp = validate(LinearProgram.from_lists([[1, -1]], [1], [1, 1]))
    params = _record.replace(compute_params(lp), potential_ratio_bound=0.9)
    h = 0.999 * 0.5 / params.potential_ratio_bound
    # At eps = 0.1 the gap closes at the first step, before x_2 goes negative.
    config = DiscreteConfig(eps=0.01, h=h, start=np.array([1.2, 0.2]), max_iters=200)
    with pytest.raises(PositivityLostError) as got:
        solve(lp, config, params=params)
    with pytest.raises(PositivityLostError) as want:
        solve_by_loop(lp, config, params=params)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == "coordinate became nonpositive at iteration 2"


_steps = st.floats(min_value=1e-12, max_value=1.0, exclude_max=True)
_positive = st.floats(min_value=0.0, max_value=1e200, exclude_min=True)


@settings(max_examples=300)
@given(
    st.lists(st.tuples(_positive, st.floats(min_value=-1.0, max_value=1.0)), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=0.5), _steps,
)
@example([(5e-324, -1.0)], 0.49999999999999994, 0.49999999999999994)
@example([(1.0, -1.0), (1.5e-323, -1.0)], 0.49999999999999994, 0.49999999999999994)
@example([(2.0**-1022, -1.0), (1.0, 0.5)], 0.49999999999999994, 0.3)
def test_small_step_keeps_every_coordinate_positive(pairs, scale, h):
    # solve skips the exact min(x) check after an update when h dev < 0.5.
    # diff_i = ratio_i x_i scale / h puts h dev near scale, up to the
    # boundary; subnormal coordinates are drawn too.
    x, ratios = np.array(pairs).T
    diff = ratios * x * (scale / h)
    dev = float(np.maximum.reduce(np.abs(diff) / x))
    assume(h * dev < 0.5)
    assert np.minimum.reduce(x + h * diff) > 0.0


def test_positivity_verdict_with_nan_diff_matches_the_exact_check():
    # A NaN in diff makes dev NaN, which fails h dev < 0.5, so the exact
    # check runs and gives the same verdict as always reading min(x): NaN
    # propagates through the minimum, so neither raises here.
    x = np.array([1.0, 2.0, 3.0])
    diff = np.array([np.nan, -100.0, 0.0])
    h = 0.1
    dev = float(np.maximum.reduce(np.abs(diff) / x))
    new = x + h * diff
    exact = bool(new.min() <= 0.0)
    shortcut = (not h * dev < 0.5) and bool(np.minimum.reduce(new) <= 0.0)
    assert math.isnan(dev) and shortcut == exact


_any_float = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1.0, -1.0]),
)


@st.composite
def _gate_cases(draw):
    """edge, c, bp, cost, j and eps for the potentials' gate, cost often on the test's own threshold.

    cost is drawn freely, or set to one_eps (bp / r_j) or one_eps (bp / r),
    the thresholds of the gate and of the test, or one ulp to either side.
    """
    n = draw(st.integers(1, 6))
    edge = draw(st.lists(_any_float, min_size=n, max_size=n))
    c = draw(st.lists(st.one_of(_any_float, st.floats(0.25, 4.0)), min_size=n, max_size=n))
    bp = draw(_any_float)
    j = draw(st.integers(0, n - 1))
    eps = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    with np.errstate(all="ignore"):
        ratio = np.multiply(edge, 1.0 / np.array(c))
    threshold = draw(st.sampled_from([None, ratio.item(j), float(np.maximum.reduce(ratio))]))
    if threshold is None:
        cost = draw(_any_float)
    else:
        cost = (1.0 + eps) * (bp / threshold) if threshold else math.nan
        cost = math.nextafter(cost, draw(st.sampled_from([-math.inf, cost, math.inf])))
    return np.array(edge), np.array(c), bp, cost, j, eps


@settings(max_examples=1000)
@given(_gate_cases())
# r_j < 0 < r: the gate must not read a negative r_j as a bound.
@example((np.array([-1.0, 1.0]), np.array([1.0, 1.0]), 1.0, 1.0, 0, 0.1))
# bp < 0 and r_j < r: bp / r_j lies below bp / r.
@example((np.array([0.5, 2.0]), np.array([1.0, 1.0]), -1.0, -1.0, 0, 0.1))
# cost exactly on the threshold with r_j = r: the test holds with equality.
@example((np.array([2.0, 1.0]), np.array([1.0, 1.0]), 4.0, 1.5 * (4.0 / 2.0), 0, 0.5 - 2.0**-53))
def test_the_potentials_gate_rejects_only_steps_whose_float_test_fails(case):
    # solve skips the potentials' float test when _potentials_cannot_close
    # holds for the ratio at a stale argmax j, r_j = edge_j * (1 / c_j); the
    # test r > 0 and cost <= (1 + eps) (bp / r), r = max_i ratio_i, must then
    # fail, for every float input, NaN, inf, -0 and subnormals included.
    edge, c, bp, cost, j, eps = case
    one_eps = 1.0 + eps
    with np.errstate(all="ignore"):
        inv_c = 1.0 / c
        r = float(np.maximum.reduce(np.multiply(edge, inv_c)))
    r_j = edge.item(j) * inv_c.tolist()[j]
    if discrete_solver._potentials_cannot_close(r_j, bp, cost, one_eps):
        assert not (r > 0.0 and cost <= one_eps * (bp / r))


@pytest.mark.parametrize("r_j, bp, cost, want", [
    (1.0, 0.0, 1.0, True),  # bp = 0: the float test would need cost <= 0
    (1.0, 1.0, 1.1, False),  # cost on one_eps bp / r_j: the test may hold
    (1.0, 1.0, math.nextafter(1.1, 2.0), True),
    (0.0, 1.0, 1.0, False),  # r_j = 0 bounds nothing, and bp / r_j is not formed
])
def test_the_potentials_gate_at_its_boundaries(r_j, bp, cost, want):
    # The property test above checks that the gate is sound; these pin that
    # it skips the float test wherever its three conditions hold, edges included.
    assert discrete_solver._potentials_cannot_close(r_j, bp, cost, 1.1) is want


def test_a_step_of_h_dev_at_2_to_the_minus_55_cannot_move():
    # _cannot_move's bound is inclusive: at h dev = 2**-55 each |h (q_i - x_i)|
    # <= 2**-55 x_i is under half an ulp of x_i, so x + h (q - x) is x.
    assert discrete_solver._cannot_move(2.0**-55, 1.0) and discrete_solver._cannot_move(2.0**-56, 2.0)
    assert not discrete_solver._cannot_move(2.0**-55, math.nextafter(1.0, 2.0))
    rng = np.random.default_rng(55)
    x = rng.uniform(1.0, 2.0, 1000) * 2.0 ** rng.integers(-1000, 1000, 1000)
    assert np.array_equal(x + 2.0**-55 * x, x) and np.array_equal(x - 2.0**-55 * x, x)


def test_the_steps_reduceat_gives_four_row_maxima_bit_for_bit():
    # solve reads fp_res, dev, edge_potential_inf and max(x) with one
    # maximum.reduceat over the flat |R|, starts 0, n, 2n, 3n. Each must be
    # its row's own maximum, NaN included, for every kind of float.
    pool = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0**-1030,
                     -(2.0**-1040), 1.0, -2.5, 1e300, -1e-300])
    rng = np.random.default_rng(11)
    for n in range(1, 8):
        starts = np.arange(0, 4 * n, n)
        for _ in range(400):
            R = rng.choice(pool, size=(4, n))
            R_abs = np.absolute(R)
            got = np.maximum.reduceat(R_abs.reshape(-1), starts)
            want = np.array([np.maximum.reduce(row) for row in R_abs])
            assert got.tobytes() == want.tobytes() == np.maximum.reduce(R_abs, 1).tobytes()
    rows = np.array([[np.nan, 1.0, 5e-324], [0.0, -0.0, 0.0], [-np.inf, np.nan, 2.0], [5e-324, -(2.0**-1030), 0.0]])
    got = np.maximum.reduceat(np.absolute(rows).reshape(-1), np.arange(0, 12, 3)).tolist()
    assert math.isnan(got[0]) and math.isnan(got[2]) and got[1] == 0.0 and got[3] == 2.0**-1030


def test_the_step_and_newton_loops_pass_out_positionally_and_call_no_max_method():
    # In these loops, run once per step and once per Newton iteration, a
    # keyword out= costs up to about 0.1 us a call and ndarray.max() about
    # 0.3 us more than np.maximum.reduce.
    def function(module, name):
        tree = ast.parse(inspect.getsource(module))
        return next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)

    step_loops = [node for node in ast.walk(function(discrete_solver, "solve")) if isinstance(node, ast.While)]
    assert len(step_loops) == 1
    found = []
    for where, root in (("solve", step_loops[0]), ("_newton", function(entropy_path, "_newton"))):
        for node in ast.walk(root):
            if isinstance(node, ast.keyword) and node.arg == "out":
                found.append((where, node.lineno, "out="))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "max":
                found.append((where, node.lineno, ".max()"))
    assert found == []


def test_the_step_loop_computes_cost_and_energy_once_and_the_solver_calls_no_vecdot():
    # A trace row holds the c . x and b . p that the step's gap tests read.
    # A second computation of either, in the loop or over the trace after
    # it, is a second place that must round the same way.
    tree = ast.parse(inspect.getsource(discrete_solver))
    solve_fn = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "solve")
    (loop,) = [node for node in ast.walk(solve_fn) if isinstance(node, ast.While)]
    calls = [ast.unparse(node) for node in ast.walk(loop) if isinstance(node, ast.Call)]
    assert calls.count("c.dot(x)") == 1 and calls.count("b.dot(p)") == 1
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "vecdot" not in names


def assert_run_is_the_loop_cut_short(lp, config, params, res, sol, trace):
    """Check a run (sol, trace) of solve against the reference loop without the gap test, run to the same k.

    The gap stop moves no step: the trace must be that loop's rows byte
    for byte and x its last x. A Certified stop carries an exact bound at
    most opt whose (1 + eps) multiple covers the exact cost of x; any other
    stop is the loop's own. The certificate finds no violation and no
    rise of the cost.
    """
    k = sol.iterations
    ref, ref_trace = solve_by_loop(
        lp, _record.replace(config, max_iters=k), params=params, oracle_result=res, gap=False)
    assert ref.iterations == k
    assert trace.entries.tobytes() == ref_trace.entries.tobytes()
    assert sol.x.tobytes() == ref.x.tobytes()
    rep = certify_trace(lp, trace, res.opt, config.eps, sol.h, res.optimal_vertices[0])
    assert rep.violations == 0 and rep.max_cost_rise == 0.0
    if sol.stop_reason == "Certified":
        exact_cost = sum(ci * Fraction(v) for ci, v in zip(lp.c_exact, sol.x.tolist()))
        assert sol.lower_bound <= res.opt_exact
        assert exact_cost <= (1 + Fraction(config.eps)) * sol.lower_bound
    else:
        assert (sol.stop_reason, sol.lower_bound) == (ref.stop_reason, None)


def test_the_certified_stop_cuts_the_corpus_runs_short_and_moves_no_step(solve_runs):
    # Criterion 1's runs, reused: only the reference loops are paid for here.
    stops = []
    for run in solve_runs["runs"]:
        config = DiscreteConfig(eps=run["sol"].eps, h=run["h"])
        assert_run_is_the_loop_cut_short(run["lp"], config, run["params"], run["res"], run["sol"], run["trace"])
        stops.append(run["sol"].stop_reason)
    # identity2 starts at rest; every other run proves its gap.
    assert stops.count("FixedPoint") == 1 and stops.count("Certified") == 27


def test_the_certified_stop_cuts_the_verify_runs_short_and_moves_no_step(shipped):
    # verify's runs: the certified step from the oracle's interior point.
    iterations = {}
    for name, (lp, params, res) in shipped.items():
        config = DiscreteConfig(eps=0.1)
        sol, trace = solve(lp, config, params=params, oracle_result=res)
        assert_run_is_the_loop_cut_short(lp, config, params, res, sol, trace)
        iterations[name] = (sol.stop_reason, sol.iterations)
    assert iterations == {
        "simple2": ("Certified", 3654),
        "identity2": ("FixedPoint", 0),
        "triangle": ("Certified", 7968),
    }


def test_a_basis_candidate_that_overstates_its_bound_never_certifies_above_opt(shipped, monkeypatch):
    # A doctored candidate: the optimal basis dual times 1.5, so a_i . y > c_i
    # on the basis columns, paired with b . y as if it met every constraint:
    # a float bound of 1.5 opt. At the start 1.1 opt < c . x <= 1.65 opt, so
    # its float test holds while the exact one, scaled by r = 1.5, refutes.
    lp, params, res = shipped["triangle"]
    y, _ = linalg.basis_dual(lp, res.optimal_vertices[0])
    y = 1.5 * y
    assert (lp.At @ y / lp.c).max() == 1.5 and float(lp.b @ y) == 1.5 * res.opt
    x0 = oracle_mod.start_point(lp, None, res)
    assert 1.1 * res.opt < lp.c @ x0 <= 1.65 * res.opt
    candidates, formed = [], []
    monkeypatch.setattr(linalg, "basis_dual", lambda lp, key: candidates.append(key) or (y, float(lp.b @ y)))
    monkeypatch.setattr(discrete_solver, "dual_lower_bound",
                        lambda lp, v: formed.append(v is y) or dual_lower_bound(lp, v))
    config = DiscreteConfig(eps=0.1)
    sol, trace = solve(lp, config, params=params, oracle_result=res)
    assert (sol.stop_reason, sol.bound_source) == ("Certified", "basis")
    assert sol.lower_bound == dual_lower_bound(lp, y) <= res.opt_exact
    # Each candidate's exact bound is formed at most once.
    assert 1 <= formed.count(True) <= len(candidates) == sol.iterations // BASIS_EVERY + 1
    assert_run_is_the_loop_cut_short(lp, config, params, res, sol, trace)


def test_every_certified_corpus_run_stops_at_its_first_row_within_the_gap(solve_runs):
    # The potentials' test runs on every step its float form could pass, and
    # the basis candidate read off a . p / c proves the rest: each Certified
    # run of criterion 1, traced at every step, stops at the first row whose
    # cost is within (1 + eps) opt.
    stops = {}
    for run in solve_runs["runs"]:
        sol, cost = run["sol"], run["trace"].entries.cost
        if sol.stop_reason == "Certified":
            first = int(np.flatnonzero(cost <= (1.0 + sol.eps) * run["res"].opt)[0])
            stops[run["name"]] = (first, sol.iterations)
    assert len(stops) == 27
    assert {name: pair for name, pair in stops.items() if pair[0] != pair[1]} == {}


def test_dual_bounds_along_the_corpus_traces_stay_below_the_optimum(solve_runs):
    # The potentials and the basis candidate keyed by a . p / c, as solve
    # keys it, at every 16th recorded x of criterion 1's traces.
    # b . p = p^T A W A^T p > 0 and b . p = sum_i x_i a_i . p, so some
    # a_i . p is positive and every point forms a bound; a basis candidate
    # forms one whenever basis_dual returns it. About 2,742 points are
    # checked, 2,672 of them with a basis candidate; if either falls under
    # the guard, shorten the stride rather than lower the guard.
    checked = from_basis = 0
    for run in solve_runs["runs"]:
        lp, opt = run["lp"], run["res"].opt_exact
        for x in run["trace"].entries.x[::16]:
            p = laplacian_solver(lp)(x / lp.c, lp.b)
            lb = dual_lower_bound(lp, p)
            assert lb is not None and lb <= opt, (run["name"], lb, opt)
            found = basis_dual(lp, lp.At.dot(p) / lp.c)
            if found is not None:
                lb = dual_lower_bound(lp, found[0])
                assert lb is not None and lb <= opt, (run["name"], lb, opt)
                from_basis += 1
            checked += 1
    assert checked > 2000 and from_basis > 2000
