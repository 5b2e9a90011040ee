"""Entropy-regularized dual: Newton point solves and the path-flow identity."""

import numpy as np
import pytest

from physarum import (
    FlowConfig,
    LinearProgram,
    certified_step_search,
    compute_params,
    continuous_flow,
    entropy_path,
    follow_path,
    integrate,
    interior_point,
    solve_point,
    validate,
)
from physarum.entropy_path import _newton, dual_value_and_derivatives, flow_points
from physarum.errors import (
    DualOverflowError,
    InfeasibleStartError,
    NonPositiveStateError,
    NumericalError,
    ValidationError,
)
from physarum.linalg import laplacian_solver
from tests.conftest import (
    planted_12x48,
    planted_with_start,
    random_instances,
    ref_flow_points,
    ref_follow_path,
    ref_integrate,
)


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
    value, grad, x = dual_value_and_derivatives(simple2, np.log(s), 1.5, y, simple2.b)
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
    for mus in ([0.0, np.inf], [0.0, 1.0, np.inf]):
        with pytest.raises(ValidationError):
            follow_path(simple2, s, mus)


def test_dual_overflow_guard(simple2):
    with pytest.raises(DualOverflowError):
        _newton(simple2, np.log([0.5, 0.5]), 0.0, np.array([1000.0]), None, laplacian_solver(simple2))


def test_grid_validation(simple2):
    s = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        follow_path(simple2, s, [1.0, 0.5])
    with pytest.raises(ValueError):
        follow_path(simple2, s, [-1.0, 0.5])
    with pytest.raises(ValueError):
        follow_path(simple2, s, [0.0, np.nan])
    assert follow_path(simple2, s, []) == []


@pytest.mark.parametrize("mus", [np.linspace(0.0, 256.0, 6), [0.0, 1.0, 4.0, 16.0, 64.0, 256.0]],
                         ids=["linspace", "geometric"])
@pytest.mark.parametrize("name", ["simple2", "triangle", "identity2"])
def test_coarse_grids_reach_the_vertex(shipped, name, mus):
    # Steps of 51.2 or more in mu stalled Newton from the previous y; the
    # predicted start brings each point within a few dozen steps.
    lp, _, res = shipped[name]
    pts = follow_path(lp, interior_point(res), mus)
    assert [p.mu for p in pts] == [float(m) for m in mus]
    assert sum(p.newton_iters for p in pts) <= 40
    costs = [float(lp.c @ p.x) for p in pts]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert costs[-1] == pytest.approx(float(res.opt), abs=1e-9)
    for p in pts:
        assert np.abs(lp.A @ p.x - lp.b).max() <= 1e-9
    if name == "identity2":
        assert all(p.newton_iters == 0 for p in pts)


def test_prediction_halves_the_newton_steps_on_a_planted_instance():
    # Stepping from the previous y took 640 Newton steps on this grid.
    planted, x0 = planted_12x48()
    pts = follow_path(planted, x0, np.arange(0.0, 40.25, 0.25))
    assert sum(p.newton_iters for p in pts) <= 320


@pytest.mark.parametrize("name", ["planted12x48", "simple2", "triangle"])
def test_flow_samples_are_the_path_points_bit_for_bit(name, shipped):
    # Where A x0 == b holds exactly the flow's right-hand side b_t is b, so
    # each sample is the path point at mu = t, computed the same way.
    if name == "planted12x48":
        lp, x0 = planted_12x48()
    else:
        lp, _, res = shipped[name]
        x0 = interior_point(res)
    assert np.array_equal(lp.A @ x0, lp.b)
    ts = np.arange(0.0, 40.25, 0.25)
    flow = integrate(lp, FlowConfig(x0=x0, t_end=40.0, sample_dt=0.25)).entries.x
    path = np.array([p.x for p in follow_path(lp, x0, ts)])
    assert flow.tobytes() == path.tobytes()


def test_linear_dual_path_needs_no_newton_step(identity2):
    # With A = I the path is pinned at b and y(mu) = mu p, so both the
    # tangent and the extrapolation land on it.
    pts = follow_path(identity2, np.array([2.0, 3.0]), np.arange(0.0, 10.25, 0.25))
    assert [p.newton_iters for p in pts] == [0] * len(pts)
    for p in pts:
        assert np.allclose(p.x, [2.0, 3.0], rtol=0, atol=1e-9)


def test_repeated_mu_reproduces_the_point_before_it(triangle):
    pts = follow_path(triangle, np.array([0.5, 0.5, 0.5]), [0.0, 0.5, 0.5, 1.0])
    repeat, before = pts[2], pts[1]
    assert repeat.newton_iters == 0
    assert repeat.mu == before.mu
    assert np.array_equal(repeat.y, before.y) and np.array_equal(repeat.x, before.x)
    assert repeat.dual_value == before.dual_value
    # The repeat adds no node: mu = 1.0 extrapolates through mu = 0 and 0.5.
    alone = follow_path(triangle, np.array([0.5, 0.5, 0.5]), [0.0, 0.5, 1.0])
    assert np.array_equal(pts[3].y, alone[2].y)


def test_overflowing_prediction_falls_back_to_the_previous_y(simple2, monkeypatch):
    s = np.array([0.5, 0.5])
    real = entropy_path.dual_value_and_derivatives
    raised = []

    def overflow_once_at_mu_2(lp, log_s, mu, y, rhs):
        if mu == 2.0 and not raised:
            raised.append(np.array(y, dtype=float))
            raise DualOverflowError("injected")
        return real(lp, log_s, mu, y, rhs)

    monkeypatch.setattr(entropy_path, "dual_value_and_derivatives", overflow_once_at_mu_2)
    pts = follow_path(simple2, s, [0.0, 1.0, 2.0])
    monkeypatch.undo()
    assert len(raised) == 1
    assert not np.array_equal(raised[0], pts[1].y)  # the overflow hit the predicted start
    want = _newton(simple2, np.log(s), 2.0, pts[1].y, None, laplacian_solver(simple2))
    assert np.array_equal(pts[2].y, want.y) and np.array_equal(pts[2].x, want.x)
    assert pts[2].newton_iters == want.newton_iters


ENGINE_CASES = ["simple2", "identity2", "triangle", *(f"random{i}" for i in range(25)),
                "planted12x48", "planted48x192"]


@pytest.fixture(scope="module")
def corpus(shipped):
    """Criterion 1's 28 instances, name -> (lp, oracle result)."""
    out = {name: (lp, res) for name, (lp, _, res) in shipped.items()}
    pairs = random_instances(seed=20240801, count=25, require_interior=True, skip_zero_b=True)
    out.update((f"random{i}", pair) for i, pair in enumerate(pairs))
    return out


@pytest.fixture(scope="module")
def engine_instances(corpus):
    """The corpus with interior starts, and two planted instances with their planted points."""
    out = {name: (lp, interior_point(res)) for name, (lp, res) in corpus.items()}
    out["planted12x48"] = planted_12x48()
    out["planted48x192"] = planted_with_start(np.random.default_rng(5), 48, 192)
    return out


def outcome(fn, *args):
    """fn(*args), or the type and message of the NumericalError it raised."""
    try:
        return fn(*args)
    except NumericalError as exc:
        return type(exc), str(exc)


def same_points(got, want):
    if not isinstance(want, list):
        return got == want
    return len(got) == len(want) and all(
        np.array([g.mu, g.dual_value, g.newton_iters]).tobytes()
        == np.array([w.mu, w.dual_value, w.newton_iters]).tobytes()
        and g.y.tobytes() == w.y.tobytes() and g.x.tobytes() == w.x.tobytes()
        for g, w in zip(got, want)
    )


def same_trace(got, want):
    if not isinstance(want, continuous_flow.FlowTrace):
        return got == want
    return got.entries.dtype == want.entries.dtype and got.entries.tobytes() == want.entries.tobytes()


@pytest.mark.parametrize("name", ENGINE_CASES)
def test_engine_matches_the_plain_reference_bit_for_bit(engine_instances, name):
    # The fine grid is the benchmark's. The coarse one repeats a point and
    # extrapolates over long steps, so line searches accept t < 1; the jump
    # to 64 overflows trial points and predictions, and on some instances
    # ends in the same NumericalError both ways.
    lp, x0 = engine_instances[name]
    fine = np.arange(0.0, 40.25, 0.25)
    for mus in (fine, [0.0, 0.5, 0.5, 1.0, 3.0, 8.0, 16.0], [0.0, 1.0, 64.0]):
        assert same_points(outcome(follow_path, lp, x0, mus), outcome(ref_follow_path, lp, x0, mus))
    # 1.5 x0 starts off A x = b by b / 2, so every sample carries a shift.
    for start in (x0, 1.5 * x0):
        got = outcome(lambda: list(flow_points(lp, start, fine)))
        assert same_points(got, outcome(ref_flow_points, lp, start, fine))
        for config in (FlowConfig(x0=start, t_end=40.0), FlowConfig(x0=start, t_end=10.1, sample_dt=0.5)):
            assert same_trace(outcome(integrate, lp, config), outcome(ref_integrate, lp, config))


def test_step_search_pilot_matches_the_plain_reference(corpus, monkeypatch):
    # Criterion 1's 28 calls: the pilot's deviation and the step it gives.
    # The reference solves the whole pilot to t = 40, which succeeds on all
    # 28, so it hands the search the same samples.
    def search_all():
        return [certified_step_search(lp, 0.1, params=compute_params(lp), oracle_result=res)
                for lp, res in corpus.values()]

    got = search_all()
    monkeypatch.setattr(entropy_path, "flow_points", ref_flow_points)
    want = search_all()
    assert len(got) == 28
    assert np.array(got).tobytes() == np.array(want).tobytes()
