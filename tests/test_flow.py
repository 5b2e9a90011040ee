"""ODE integration of the flow and measurement of its decay rates."""

import numpy as np
import pytest

from physarum import FlowConfig, enumerate_polyhedron, evaluate, integrate, rate_report, rhs_log
from physarum.errors import (
    DimensionMismatchError,
    InsufficientTraceError,
    NonPositiveStateError,
    ValidationError,
)


def test_rhs_log_values(simple2, identity2):
    du = rhs_log(simple2, np.log([0.5, 0.5]))
    assert np.allclose(du, [1.0 / 3.0, -1.0 / 3.0])
    assert np.allclose(rhs_log(identity2, np.log([2.0, 3.0])), 0.0, atol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(x0=np.array([1.0]), t_end=0.0)
    with pytest.raises(ValueError):
        FlowConfig(x0=np.array([1.0]), t_end=1.0, sample_dt=0.0)
    with pytest.raises(ValueError):
        FlowConfig(x0=np.array([1.0]), t_end=np.nan)
    for t_end in (np.inf, float("inf")):
        with pytest.raises(ValidationError):
            FlowConfig(x0=np.array([1.0]), t_end=t_end)
    for sample_dt in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            FlowConfig(x0=np.array([1.0]), t_end=1.0, sample_dt=sample_dt)


def test_integrate_input_validation(simple2):
    with pytest.raises(NonPositiveStateError):
        integrate(simple2, FlowConfig(x0=np.array([1.0, 0.0]), t_end=1.0))
    with pytest.raises(DimensionMismatchError):
        integrate(simple2, FlowConfig(x0=np.array([1.0]), t_end=1.0))


def test_integrate_simple2_feasible_start(simple2):
    trace = integrate(simple2, FlowConfig(x0=np.array([0.5, 0.5]), t_end=20.0))
    assert trace.entries[0].t == 0.0
    assert trace.final.t == 20.0
    # grid spacing is sample_dt
    assert trace.entries[1].t - trace.entries[0].t == pytest.approx(0.25)
    # trajectory approaches the optimal vertex (1, 0)
    assert trace.final.x[0] == pytest.approx(1.0, abs=1e-4)
    assert trace.final.x[1] < 1e-4
    assert trace.final.feas_residual < 1e-9
    assert all(e.x_bound_ok for e in trace.entries)
    costs = [e.cost for e in trace.entries]
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
    # deviation_inf is max |q_i / x_i - 1| of the dynamics at each sample
    devs = [float(np.abs(ev.flux / ev.x - 1.0).max()) for ev in (evaluate(simple2, e.x) for e in trace.entries)]
    assert trace.entries.deviation_inf.tolist() == devs
    assert trace.entries[0].deviation_inf == pytest.approx(1.0 / 3.0)


def test_integrate_infeasible_start_contracts(simple2):
    trace = integrate(simple2, FlowConfig(x0=np.array([2.0, 2.0]), t_end=30.0))
    # A(x(t) - e^{-t} x0) = (1 - e^{-t}) b along the whole trajectory
    assert max(e.feas_residual for e in trace.entries) < 1e-6
    assert trace.final.x[0] == pytest.approx(1.0, abs=1e-4)


def test_rate_report_simple2(simple2):
    res = enumerate_polyhedron(simple2)
    trace = integrate(simple2, FlowConfig(x0=np.array([0.5, 0.5]), t_end=20.0))
    rep = rate_report(trace, res.opt, res)
    # the instance decay rate: dropping the nonoptimal vertex (0, 1) costs
    # gap 1 against barrier weight c_2 = 2, hence rate 1/2
    assert rep.nu_hat == pytest.approx(0.5, abs=5e-3)
    assert rep.xn_slope == pytest.approx(0.5, abs=5e-3)
    assert rep.xj_min > 0.9
    assert rep.gap_samples >= 30
    assert not rep.degenerate


def test_rate_report_triangle(triangle):
    res = enumerate_polyhedron(triangle)
    trace = integrate(triangle, FlowConfig(x0=np.array([0.5, 0.5, 0.5]), t_end=40.0))
    rep = rate_report(trace, res.opt, res)
    # vertex (0, 0, 1): gap 1 against barrier weight c_3 = 3, hence rate 1/3
    assert rep.nu_hat == pytest.approx(1.0 / 3.0, abs=5e-3)
    assert rep.xn_slope == pytest.approx(1.0 / 3.0, abs=5e-3)
    assert rep.xj_min > 0.9


def test_rate_report_needs_long_trace(simple2):
    res = enumerate_polyhedron(simple2)
    trace = integrate(simple2, FlowConfig(x0=np.array([0.5, 0.5]), t_end=5.0))
    with pytest.raises(InsufficientTraceError):
        rate_report(trace, res.opt, res)


def test_limit_settles_at_long_horizon(triangle):
    long = integrate(triangle, FlowConfig(x0=np.array([0.5, 0.5, 0.5]), t_end=80.0))
    x80 = long.final.x
    x40 = next(e.x for e in long.entries if e.t == 80.0 / 2.0)
    assert np.abs(x80 - x40).max() < 1e-4
    # the slow 1/3 rate means the trajectory has NOT settled to 1e-4 by t=40
    x20 = next(e.x for e in long.entries if e.t == 20.0)
    assert np.abs(x40 - x20).max() > 1e-4


def test_fixed_point_stays_put(identity2):
    trace = integrate(identity2, FlowConfig(x0=np.array([2.0, 3.0]), t_end=15.0))
    assert np.abs(trace.final.x - np.array([2.0, 3.0])).max() < 1e-6
    assert trace.final.direction_inf < 1e-6
