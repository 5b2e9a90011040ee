"""ODE integration of the flow and measurement of its decay rates."""

import numpy as np
import pytest

from physarum import (
    FlowConfig,
    entropy_path,
    enumerate_polyhedron,
    evaluate,
    follow_path,
    integrate,
    rhs_log,
)
from physarum.errors import (
    DimensionMismatchError,
    NonPositiveStateError,
    ValidationError,
)
from physarum.model import default_params
from tests.conftest import gap_decay_rate, planted_12x48


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
    # A grid longer than numpy's array size limit is refused before it is built.
    for t_end, sample_dt in ((1e308, 0.25), (1.0, 1e-300)):
        with pytest.raises(ValidationError, match="t_end / sample_dt") as excinfo:
            FlowConfig(x0=np.array([1.0]), t_end=t_end, sample_dt=sample_dt)
        assert f"t_end={t_end!r}, sample_dt={sample_dt!r}" in str(excinfo.value)


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


def _entries_row_by_row(lp, x0, ts, dtype):
    """integrate's record array built one tuple per row, from the same path points."""
    cap = np.maximum(x0, default_params(lp).flux_bound) * (1.0 + 1e-6)
    entries = np.recarray(len(ts), dtype=dtype)
    for row, (t, point) in enumerate(zip(ts, entropy_path.flow_points(lp, x0, ts))):
        x, r = point.x, rhs_log(lp, entropy_path.exponent(lp, np.log(x0), point.mu, point.y))
        edge = lp.c * (r + 1.0)
        decay = np.exp(-t)
        resid = np.abs(lp.A @ (x - decay * x0) - (1.0 - decay) * lp.b).max()
        entries[row] = (
            t, x, lp.c.dot(x), (x / lp.c).dot(edge * edge), resid, np.abs(edge).max(),
            np.abs(x * r).max(), np.abs(r).max(), np.all(x <= cap),
        )
    return entries


@pytest.mark.parametrize("case", ["infeasible", "planted12x48"])
def test_integrate_fills_each_column_with_the_per_row_values(case, simple2):
    # Columns filled from the stacked rows hold the bytes that assigning
    # one tuple per row gives.
    if case == "infeasible":
        lp, x0 = simple2, np.array([2.0, 0.3])
        assert not np.array_equal(lp.A @ x0, lp.b)
    else:
        lp, x0 = planted_12x48()
    got = integrate(lp, FlowConfig(x0=x0, t_end=30.0)).entries
    assert got.tobytes() == _entries_row_by_row(lp, x0, got.t, got.dtype).tobytes()


def test_a_flow_sweep_binds_one_laplacian_solver(simple2, monkeypatch):
    # flow_points shares one bound solver across its samples; solve_point,
    # and so follow_path, binds one per point.
    real, binds = entropy_path.laplacian_solver, []

    def counting(lp):
        binds.append(lp)
        return real(lp)

    monkeypatch.setattr(entropy_path, "laplacian_solver", counting)
    x0 = np.array([2.0, 0.3])
    trace = integrate(simple2, FlowConfig(x0=x0, t_end=10.0))
    assert len(binds) == 1 and len(trace.entries) == 41
    binds.clear()
    points = follow_path(simple2, np.array([0.5, 0.5]), np.arange(0.0, 10.25, 0.25))
    assert len(binds) == len(points) == 41


def _tail(trace, res):
    """Times, largest vanishing and smallest supported coordinate over the trace's second half."""
    e = trace.entries[trace.entries.t >= trace.final.t / 2.0]
    return e.t, e.x[:, list(res.N)].max(axis=1), e.x[:, list(res.J)].min()


def test_rate_report_simple2(simple2):
    res = enumerate_polyhedron(simple2)
    trace = integrate(simple2, FlowConfig(x0=np.array([0.5, 0.5]), t_end=20.0))
    ts, xn, xj_min = _tail(trace, res)
    # the instance decay rate: dropping the nonoptimal vertex (0, 1) costs
    # gap 1 against barrier weight c_2 = 2, hence rate 1/2
    assert gap_decay_rate(trace, res.opt) == pytest.approx(0.5, abs=5e-3)
    assert -np.polyfit(ts, np.log(xn), 1)[0] == pytest.approx(0.5, abs=5e-3)
    assert xj_min > 0.9


def test_rate_report_triangle(triangle):
    res = enumerate_polyhedron(triangle)
    trace = integrate(triangle, FlowConfig(x0=np.array([0.5, 0.5, 0.5]), t_end=40.0))
    ts, xn, xj_min = _tail(trace, res)
    # vertex (0, 0, 1): gap 1 against barrier weight c_3 = 3, hence rate 1/3
    assert gap_decay_rate(trace, res.opt) == pytest.approx(1.0 / 3.0, abs=5e-3)
    assert -np.polyfit(ts, np.log(xn), 1)[0] == pytest.approx(1.0 / 3.0, abs=5e-3)
    assert xj_min > 0.9


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
