"""Entropy-regularized dual: Newton point solves and the path-flow identity."""

import numpy as np
import pytest

from physarum import FlowConfig, LinearProgram, follow_path, integrate, solve_point, validate
from physarum.entropy_path import dual_value_and_derivatives
from physarum.errors import DualOverflowError, InfeasibleStartError, NonPositiveStateError, ValidationError


def test_anchor_is_the_zero_parameter_point(simple2):
    pt = solve_point(simple2, np.array([0.5, 0.5]), 0.0)
    assert pt.newton_iters == 0
    assert np.array_equal(pt.y, [0.0])
    assert np.allclose(pt.x, [0.5, 0.5])
    assert pt.dual_value == pytest.approx(-1.5)


def test_single_point_feasible_set_is_pinned(identity2):
    for mu in (0.0, 1.0, 5.0):
        pt = solve_point(identity2, np.array([2.0, 3.0]), mu)
        assert np.allclose(pt.x, [2.0, 3.0], atol=1e-9)
        assert pt.newton_iters <= 10


def test_path_approaches_the_optimal_vertex(simple2):
    pt = solve_point(simple2, np.array([0.5, 0.5]), 10.0)
    assert pt.x[0] == pytest.approx(1.0, abs=1e-2)
    assert pt.x[1] < 1e-2


def test_derivative_structure(simple2):
    s = np.array([0.5, 0.5])
    y = np.array([0.3])
    value, grad, x = dual_value_and_derivatives(simple2, s, 1.5, y)
    assert value == pytest.approx(float(y @ simple2.b - simple2.c @ x))
    assert np.allclose(grad, simple2.b - simple2.A @ x, atol=1e-14)


def test_path_matches_flow_in_time(simple2):
    s = np.array([0.5, 0.5])
    mus = np.arange(0.0, 10.25, 0.25)
    pts = follow_path(simple2, s, mus)
    trace = integrate(simple2, FlowConfig(x0=s, t_end=10.0, sample_dt=0.25))
    assert len(pts) == len(trace.entries)
    worst = max(np.abs(p.x - e.x).max() for p, e in zip(pts, trace.entries))
    assert worst <= 1e-7


def test_cost_rescaling_substitution(simple2):
    """Scaling coordinates by their costs reduces to the unit-cost instance.

    With z = C x the (A, b, c) trajectory maps onto the trajectory of the
    all-ones-cost instance (A C^{-1} scaled to integers, b), point by point.
    """
    s = np.array([0.5, 0.5])
    C = np.array([1.0, 2.0])
    unit = validate(LinearProgram.from_lists([[2, 1]], [2], [1, 1]))
    mus = np.arange(0.0, 8.5, 0.5)
    pts = follow_path(simple2, s, mus)
    pts_unit = follow_path(unit, C * s, mus)
    worst = max(np.abs(pu.x - C * p.x).max() for pu, p in zip(pts_unit, pts))
    assert worst <= 1e-9


def test_warm_start_keeps_newton_cheap(triangle):
    pts = follow_path(triangle, np.array([0.5, 0.5, 0.5]), np.arange(0.0, 10.25, 0.25))
    assert all(p.newton_iters <= 12 for p in pts[1:])


def test_anchor_validation(simple2):
    with pytest.raises(InfeasibleStartError):
        solve_point(simple2, np.array([1.0, 1.0]), 1.0)
    with pytest.raises(NonPositiveStateError):
        solve_point(simple2, np.array([1.5, -0.5]), 1.0)
    with pytest.raises(ValueError):
        solve_point(simple2, np.array([0.5, 0.5]), -1.0)


def test_mu_must_be_finite(simple2):
    # A mu that is not finite is a bad argument, not a numerical failure.
    s = np.array([0.5, 0.5])
    for mu in (np.inf, np.nan):
        with pytest.raises(ValidationError):
            solve_point(simple2, s, mu)
    with pytest.raises(ValidationError):
        follow_path(simple2, s, [0.0, np.inf])


def test_dual_overflow_guard(simple2):
    with pytest.raises(DualOverflowError):
        solve_point(simple2, np.array([0.5, 0.5]), 0.0, y0=np.array([1000.0]))


def test_grid_validation(simple2):
    s = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        follow_path(simple2, s, [1.0, 0.5])
    with pytest.raises(ValueError):
        follow_path(simple2, s, [-1.0, 0.5])
    with pytest.raises(ValueError):
        follow_path(simple2, s, [0.0, np.nan])
    assert follow_path(simple2, s, []) == []
