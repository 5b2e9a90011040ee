"""Damped iteration: stepping, stopping, and the progress certificate."""

import math

import numpy as np
import pytest

from physarum import (
    DiscreteConfig,
    LinearProgram,
    Trace,
    certified_step_search,
    certify_trace,
    compute_params,
    default_step,
    iteration_bound,
    solve,
    validate,
)
from physarum.discrete_solver import ITERATION_HARD_CAP, trace_dtype
from physarum.errors import (
    BadEpsError,
    BadStepError,
    DimensionMismatchError,
    InfeasibleStartError,
    MissingVerifyDataError,
    NoInteriorPointError,
    NonPositiveStateError,
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
    assert sol.stop_reason == "FixedPoint"
    assert sol.iterations == 36_453
    assert sol.cost == pytest.approx(1.0, abs=1e-7)
    assert sol.cost <= 1.1 + 1e-12
    assert sol.h == pytest.approx(1.0 / 960.0)
    assert len(trace.entries) == sol.iterations + 1
    assert sol.residual_inf <= 1e-12


def test_solve_identity2_immediate_fixed_point(identity2):
    sol, trace = solve(identity2, DiscreteConfig(eps=0.1, start=np.array([2.0, 3.0])))
    assert sol.stop_reason == "FixedPoint"
    assert sol.iterations == 0
    assert sol.cost == pytest.approx(5.0)
    assert len(trace.entries) == 1


def test_solve_zero_demands():
    lp = validate(LinearProgram.from_lists([[1, 1]], [0], [1, 1]))
    sol, trace = solve(lp, DiscreteConfig(eps=0.1))
    assert sol.stop_reason == "FixedPoint"
    assert sol.iterations == 0
    assert np.array_equal(sol.x, [0.0, 0.0]) and sol.cost == 0.0
    assert len(trace.entries) == 0


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
    assert sol.stop_reason == "UserCap" and sol.iterations == 50
    assert np.array_equal(sol.x, x0)
    stalled = [rec for rec in caplog.records if "bit-identical" in rec.message]
    assert len(stalled) == 1
    assert "1.000e-30" in stalled[0].message and "certified_step_search" in stalled[0].message

    caplog.clear()
    with caplog.at_level("WARNING", logger="physarum.discrete_solver"):
        sol, _ = solve(simple2, DiscreteConfig(eps=0.1, start=x0, max_iters=50))
    assert not np.array_equal(sol.x, x0)
    assert not any("bit-identical" in rec.message for rec in caplog.records)


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


def test_solve_allow_infeasible_start(simple2):
    cfg = DiscreteConfig(eps=0.1, start=np.array([1.0, 1.0]), allow_infeasible=True, max_iters=2000)
    sol, _ = solve(simple2, cfg)
    # the iteration pulls the state onto the constraint set as it runs
    assert sol.residual_inf < 0.5


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
    assert rep.big_gap_steps + rep.small_gap_steps == rep.steps_checked
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
    """Step-by-step reference for certify_trace: (checked, violations, first, big, small, worst)."""
    supp = x_star > 0.0
    weights = lp.c[supp] * x_star[supp]

    def phi(e):
        return 4.0 * math.log(e.cost) - (eps * h / opt) * float(weights @ np.log(e.x[supp]))

    checked = violations = big = small = 0
    first, worst = None, -math.inf
    threshold = -(h * h * eps * eps) / 6.0
    for prev, nxt in zip(trace.entries, trace.entries[1:]):
        if prev.cost <= (1.0 + eps) * opt:
            continue
        checked += 1
        if prev.energy / prev.cost < 1.0 - eps / 3.0:
            big += 1
        elif prev.energy > (1.0 + eps / 3.0) * opt:
            small += 1
        drop = phi(nxt) - phi(prev)
        worst = max(worst, drop - threshold)
        if drop > threshold + 1e-10:
            violations += 1
            first = prev.k if first is None else first
    return checked, violations, first, big, small, worst if checked else 0.0


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
        got = [rep.steps_checked, rep.violations, rep.first_violation, rep.big_gap_steps, rep.small_gap_steps]
        assert got == counts
        # log and dot products may round differently per element; phi is O(1)
        assert rep.worst_margin == pytest.approx(worst, rel=0.0, abs=1e-12)


def test_certify_searched_step(simple2):
    h, dev = certified_step_search(simple2, 0.1)
    params = compute_params(simple2)
    assert default_step(params, 0.1) < h < 0.5 / params.potential_ratio_bound
    assert dev == pytest.approx(0.5, abs=1e-6)
    x_star = np.array([1.0, 0.0])
    sol, trace = solve(simple2, DiscreteConfig(eps=0.1, h=h, start=np.array([0.5, 0.5])))
    assert sol.iterations < 2000  # orders of magnitude below the worst-case step
    rep = certify_trace(simple2, trace, 1.0, 0.1, h, x_star)
    assert rep.violations == 0
    assert sol.cost <= 1.1


def test_solve_triangle_with_searched_step(triangle):
    h, _ = certified_step_search(triangle, 0.05)
    sol, trace = solve(triangle, DiscreteConfig(eps=0.05, h=h))
    assert sol.stop_reason == "FixedPoint"
    assert 2.0 <= sol.cost <= 2.1
    rep = certify_trace(triangle, trace, 2.0, 0.05, h, np.array([1.0, 1.0, 0.0]))
    assert rep.violations == 0


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


def test_certify_rejects_gapped_entries(simple2):
    trace = Trace(
        entries=stalled_entries([0, 2]),
        h=0.01,
        eps=0.1,
        trace_every=1,
    )
    with pytest.raises(MissingVerifyDataError):
        certify_trace(simple2, trace, 1.0, 0.1, 0.01, np.array([1.0, 0.0]))
