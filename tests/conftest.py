"""Shared fixtures: the three shipped instances, instance factories and plain reference engines."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

# No test run writes bytecode under src/: a tree the suite has run in then
# imports the package from source, as a fresh checkout does.
sys.dont_write_bytecode = True

import numpy as np
import pytest
from hypothesis import settings

import physarum
from physarum import (
    DiscreteConfig,
    FlowConfig,
    FlowTrace,
    LinearProgram,
    PathPoint,
    certified_step_search,
    compute_params,
    default_params,
    default_step,
    enumerate_polyhedron,
    integrate,
    interior_point,
    rhs_log,
    solve,
    validate,
)
from physarum._exact import rank_int
from physarum.discrete_solver import FIXED_POINT_TOL, PILOT_T_END, STEP_SAFETY, _cannot_move
from physarum.entropy_path import ARMIJO_SLOPE, EXP_CAP, EXPONENT_STEP_CAP, MAX_BACKTRACKS, MAX_NEWTON_ITERS
from physarum.errors import (
    DualOverflowError,
    NewtonStalledError,
    NoInteriorPointError,
    NumericalError,
    StepSizeUnderflowError,
    ValidationError,
)
from physarum.linalg import laplacian_solver
from physarum.oracle import SAMPLE_MIN_WEIGHT, SAMPLE_RAY_SCALE

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

# Every property test draws the same examples on every run and writes no
# example database; a test's own @settings sets only its max_examples.
settings.register_profile("physarum", deadline=None, derandomize=True, database=None)
settings.load_profile("physarum")


def load_instance(name):
    with open(INSTANCE_DIR / f"{name}.json") as fh:
        data = json.load(fh)
    lp = validate(LinearProgram.from_lists(data["A"], data["b"], data["c"]))
    start = np.array(data["start"], dtype=float) if "start" in data else None
    return lp, start


@pytest.fixture(scope="session")
def simple2():
    return load_instance("simple2")[0]


@pytest.fixture(scope="session")
def identity2():
    return load_instance("identity2")[0]


@pytest.fixture(scope="session")
def triangle():
    return load_instance("triangle")[0]


@pytest.fixture(scope="session")
def shipped(simple2, identity2, triangle):
    """name -> (lp, params, oracle_result) for everything under instances/."""
    out = {}
    for name, lp in [("simple2", simple2), ("identity2", identity2), ("triangle", triangle)]:
        out[name] = (lp, compute_params(lp), enumerate_polyhedron(lp))
    return out


# The acceptance corpus: the shipped instances and 25 random ones, all
# solved at eps = CORPUS_EPS with a searched step.
CORPUS_SEED = 20240801
CORPUS_EPS = 0.1


@pytest.fixture(scope="session")
def corpus(shipped):
    insts = [(name, lp, res) for name, (lp, _, res) in shipped.items()]
    random_part = random_instances(
        seed=CORPUS_SEED, count=25, require_interior=True, skip_zero_b=True
    )
    insts += [(f"random{i}", lp, res) for i, (lp, res) in enumerate(random_part)]
    return insts


@pytest.fixture(scope="session")
def solve_runs(corpus):
    """Criterion 1's 28 discrete solves; later criteria and the gap-stop tests reuse the traces."""
    runs = []
    t0 = time.time()
    for name, lp, res in corpus:
        params = compute_params(lp)
        h, _ = certified_step_search(lp, CORPUS_EPS, params=params, oracle_result=res)
        sol, trace = solve(lp, DiscreteConfig(eps=CORPUS_EPS, h=h), params=params, oracle_result=res)
        runs.append({"name": name, "lp": lp, "res": res, "sol": sol, "trace": trace, "h": h, "params": params})
    elapsed = time.time() - t0
    return {"runs": runs, "elapsed": elapsed}


def random_instances(
    seed,
    count,
    m_range=(1, 3),
    n_range=(2, 6),
    entry_hi=3,
    cost_hi=3,
    require_feasible=True,
    require_interior=False,
    skip_zero_b=False,
):
    """Rejection-sample small integer instances, deterministically from seed.

    Returns a list of (lp, oracle_result) pairs. A is resampled until it has
    full row rank; infeasible draws are skipped when require_feasible is set.
    """
    rng = np.random.default_rng(seed)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 200 * count:
            raise RuntimeError("rejection sampling is not terminating; loosen the filters")
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        n = int(rng.integers(max(n_range[0], m + 1), n_range[1] + 1))
        A = rng.integers(-entry_hi, entry_hi + 1, size=(m, n))
        if rank_int(A.tolist()) < m:
            continue
        b = rng.integers(-entry_hi, entry_hi + 1, size=m)
        if skip_zero_b and not b.any():
            continue
        c = rng.integers(1, cost_hi + 1, size=n)
        lp = validate(LinearProgram(A=A, b=b, c=c))
        result = enumerate_polyhedron(lp)
        if require_feasible and result.status != "optimal":
            continue
        if require_interior:
            try:
                interior_point(result)
            except NoInteriorPointError:
                continue
        out.append((lp, result))
    return out


def planted_instance(rng, m, n):
    """A full-rank A in [-3, 3] with b = A x0 for an integer x0 in [1, 3], costs in [1, 3].

    Drawn the way the benchmark draws its planted instances.
    """
    return planted_with_start(rng, m, n)[0]


def planted_with_start(rng, m, n):
    """``planted_instance``'s draw together with its planted point x0, as floats (A x0 = b exactly)."""
    while True:
        A = rng.integers(-3, 4, size=(m, n))
        if rank_int(A.tolist()) == m:
            break
    x0 = rng.integers(1, 4, size=n)
    return validate(LinearProgram(A=A, b=A @ x0, c=rng.integers(1, 4, size=n))), x0.astype(float)


def planted_12x48():
    """A planted (12, 48) instance and its integer interior point; its certified step is about 1e-30."""
    rng = np.random.default_rng(3)
    A, x0 = rng.integers(-3, 4, size=(12, 48)), rng.integers(1, 4, size=48).astype(float)
    return validate(LinearProgram(A=A, b=A @ x0, c=rng.integers(1, 4, size=48))), x0


def rk45_flow(lp, x0, ts):
    """Reference samples of the flow at the times ts, one row each.

    Integrates u = ln x through the vector field ``rhs_log`` with SciPy's
    RK45 (rtol 1e-8, atol 1e-10), independently of the entropy-path Newton
    solves that ``integrate`` samples the flow with.
    """
    from scipy.integrate import solve_ivp

    ts = np.asarray(ts, dtype=float)
    result = solve_ivp(
        lambda _t, u: rhs_log(lp, u), (ts[0], ts[-1]), np.log(x0), method="RK45",
        t_eval=ts, rtol=1e-8, atol=1e-10,
    )
    assert result.success, result.message
    return np.exp(result.y.T)


def gap_decay_rate(trace, opt):
    """Fitted decay rate of the cost gap c.x(t) - opt over the second half of a flow trace.

    Gaps at or below the trace's noise floor 1e-8 (|opt| + 1) are left out
    of the fit of log(gap) against t; None when fewer than 5 samples remain.
    """
    e = trace.entries
    tail = e.t >= e.t[0] + 0.5 * (e.t[-1] - e.t[0])
    ts, gaps = e.t[tail], e.cost[tail] - opt
    usable = gaps > 1e-8 * (abs(opt) + 1.0)
    if usable.sum() < 5:
        return None
    return float(-np.polyfit(ts[usable], np.log(gaps[usable]), 1)[0])


def overflowing_instance(m):
    """Problem-file data with entries up to 1e17 and the start x = 1.

    P^2 overflows at m = 10 (exact D) and m = 16 (bounded D), and the bound
    on D itself exceeds the float range at m = 18.
    """
    rng = np.random.default_rng(0)
    A = rng.integers(-10**17, 10**17, size=(m, m + 1))
    b = A @ np.ones(m + 1, dtype=np.int64)
    return {"A": A.tolist(), "b": b.tolist(), "c": [1] * (m + 1), "start": [1.0] * (m + 1)}


@pytest.fixture(scope="session")
def fuzz_corpus():
    return random_instances


def rand_positive(rng, n, lo=1e-4, hi=1e4):
    """Log-uniform strictly positive vector, the stress corpus for the bounds."""
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def run_child(args, env):
    """Run a child interpreter that imports the same physarum as this process.

    This process may find the package only through pytest's ``pythonpath``
    setting or an install, neither of which a child inherits. The child
    turns RuntimeWarnings into errors, as pyproject.toml's filter does here,
    and (-B) writes no bytecode into the source tree, whatever ``env`` holds.
    """
    package_root = str(Path(physarum.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-B", "-W", "error::RuntimeWarning", *args],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": package_root},
    )


def ref_cholesky_solve(M, rhs):
    """Solve M p = rhs by LAPACK's Cholesky factor and solve (dpotrf, dpotrs), reading M's lower triangle.

    These are the Fortran routines dposv calls in turn, so a package solve
    must give these bytes.
    """
    from scipy.linalg import lapack

    low, info = lapack.dpotrf(M, lower=1)
    assert info == 0, info
    sol, info = lapack.dpotrs(low, rhs, lower=1)
    assert info == 0, info
    return sol


# The entropy-path engine written the plain way, as a reference that
# integrate, flow_points and follow_path must match bit for bit: every dual
# evaluation adds its shift (zeros for A x = b itself), the line search
# recomputes y + t d after accepting t, and each flow row takes its
# statistics one numpy call each. The exponent ln s + A^T y / c - mu and
# the vector field are spelled out here rather than imported, so a change
# to either in the package shows.


def ref_newton(lp, log_s, mu, y0, shift, laplacian):
    """Damped Newton ascent on the dual for A x = b + shift, from y0 (zeros when None)."""
    y = np.zeros(lp.m) if y0 is None else np.asarray(y0, dtype=float).copy()

    def evaluate_dual(y):
        expo = log_s + lp.At.dot(y) / lp.c - mu
        if expo.max() > EXP_CAP:
            raise DualOverflowError("reference dual exponent past the cap")
        x = np.exp(expo)
        value = float(y.dot(lp.b) - lp.c.dot(x))
        return value + float(y.dot(shift)), lp.b - lp.A.dot(x) + shift, x

    # A shift far past b raises the floor to 1e-13 |shift|, its gradient's rounding.
    tol = max(1e-10 * (float(np.abs(lp.b).max()) + 1.0), 1e-13 * float(np.abs(shift).max()))
    value, grad, x = evaluate_dual(y)
    for it in range(MAX_NEWTON_ITERS):
        if float(np.abs(grad).max()) <= tol:
            return PathPoint(mu=float(mu), y=y, x=x, dual_value=value, newton_iters=it)
        d = laplacian(x / lp.c, grad)
        slope = float(grad.dot(d))
        noise = 1e-13 * (abs(float(y.dot(lp.b))) + abs(float(lp.c.dot(x))) + 1.0)
        # After the full step, the next trial moves no exponent a_i . y / c_i by more than EXPONENT_STEP_CAP.
        reach = float(np.abs(lp.At.dot(d) / lp.c).max())
        capped = min(0.5, EXPONENT_STEP_CAP / reach) if 0.0 < reach < np.inf else 0.5
        t = 1.0
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            try:
                cand = evaluate_dual(y + t * d)
            except DualOverflowError:
                t = capped if t == 1.0 else 0.5 * t
                continue
            if cand[0] >= value + ARMIJO_SLOPE * t * slope - noise:
                accepted = cand
                break
            t = capped if t == 1.0 else 0.5 * t
        if accepted is None:
            raise NewtonStalledError(f"line search exhausted {MAX_BACKTRACKS} halvings at mu={mu}")
        y = y + t * d
        value, grad, x = accepted
    raise NewtonStalledError(f"no convergence in {MAX_NEWTON_ITERS} Newton steps at mu={mu}")


def ref_sweep(lp, mus, solve):
    """solve(mu, y0) along the grid from the tangent, then the three-point extrapolation."""
    mus = [float(m) for m in mus]
    if not mus:
        return []
    if not (mus[0] >= 0.0 and mus[-1] < math.inf and all(a <= b for a, b in zip(mus, mus[1:]))):
        raise ValidationError("the mu grid must be finite, nonnegative and nondecreasing")
    points = [solve(mus[0], None)]
    nodes = points[:]
    for mu in mus[1:]:
        last = nodes[-1]
        if mu == last.mu:
            y0 = last.y
        elif len(nodes) == 1:
            y0 = last.y + (mu - last.mu) * laplacian_solver(lp)(last.x / lp.c, lp.b)
        else:
            y0 = 0.0
            for j in nodes[-3:]:
                weight = 1.0
                for k in nodes[-3:]:
                    if k is not j:
                        weight *= (mu - k.mu) / (j.mu - k.mu)
                y0 = y0 + weight * j.y
        try:
            point = solve(mu, y0)
        except NumericalError:
            point = solve(mu, last.y)
        points.append(point)
        if mu > last.mu:
            nodes.append(point)
    return points


def ref_follow_path(lp, s, mus):
    """follow_path for a feasible positive anchor s, with a fresh Laplacian solver per point."""
    log_s = np.log(np.asarray(s, dtype=float))
    return ref_sweep(lp, mus, lambda mu, y0: ref_newton(lp, log_s, mu, y0, np.zeros(lp.m), laplacian_solver(lp)))


def ref_flow_points(lp, x0, ts):
    """flow_points: each sample solves for b + e^{-t} (A x0 - b), the shift zero when x0 is feasible."""
    offset = lp.A @ x0 - lp.b
    log_x0 = np.log(x0)
    laplacian = laplacian_solver(lp)
    return ref_sweep(lp, ts, lambda t, y0: ref_newton(lp, log_x0, t, y0, math.exp(-t) * offset, laplacian))


def ref_sample_feasible(result, rng, count):
    """sample_feasible drawn the vectorised way, by a numpy Generator's uniform: all weights, then all ray coefficients."""
    weights = rng.uniform(SAMPLE_MIN_WEIGHT, 1.0, size=(count, len(result.vertices)))
    weights /= weights.sum(axis=1, keepdims=True)
    pts = weights @ result.vertices
    if len(result.rays):
        pts = pts + rng.uniform(0.0, SAMPLE_RAY_SCALE, size=(count, len(result.rays))) @ result.rays
    return pts


def ref_integrate(lp, config, params=None):
    """integrate for a positive x0, one row per sample with its statistics one at a time."""
    params = default_params(lp) if params is None else params
    A, b, c = lp.A, lp.b, lp.c
    x0 = np.asarray(config.x0, dtype=float)
    ts = np.arange(0.0, config.t_end + 0.5 * config.sample_dt, config.sample_dt)
    if ts[-1] < config.t_end:
        ts = np.append(ts, config.t_end)
    else:
        ts[-1] = config.t_end
    points = ref_flow_points(lp, x0, ts)
    cap = np.maximum(x0, params.flux_bound) * (1.0 + 1e-6)
    log_x0 = np.log(x0)
    rows = []
    for t, point in zip(ts, points):
        x = point.x
        u = log_x0 + lp.At.dot(point.y) / c - point.mu
        r = lp.At.dot(laplacian_solver(lp)(np.exp(u) / c, b)) / c - 1.0
        edge = c * (r + 1.0)
        decay = np.exp(-t)
        resid = np.abs(A.dot(x - decay * x0) - (1.0 - decay) * b).max()
        rows.append((
            t, x, c.dot(x), (x / c * edge).dot(edge), resid, np.abs(edge).max(),
            np.abs(x * r).max(), np.abs(r).max(), np.all(x <= cap),
        ))
    entries = np.array(rows, dtype=[
        ("t", float), ("x", float, (lp.n,)), ("cost", float), ("energy", float), ("feas_residual", float),
        ("edge_potential_inf", float), ("direction_inf", float), ("deviation_inf", float), ("x_bound_ok", bool),
    ]).view(np.recarray)
    return FlowTrace(entries=entries)


def ref_step_search(lp, eps, params=None, oracle_result=None):
    """certified_step_search with dev over the whole pilot to PILOT_T_END: (h, dev).

    The search's samples are a prefix of this pilot's, so its dev is at
    most this dev and its h at least this h. A pilot that fails
    anywhere gives the worst-case step and dev = inf. The underflow check
    is left out.
    """
    params = default_params(lp) if params is None else params
    start = interior_point(enumerate_polyhedron(lp) if oracle_result is None else oracle_result)
    h_auto = default_step(params, eps)
    try:
        e = integrate(lp, FlowConfig(x0=start, t_end=PILOT_T_END), params=params).entries
    except NumericalError:
        return h_auto, math.inf
    dev = max(1e-12, float(np.fmax.reduce(e.deviation_inf)))
    return min(0.999 * params.positivity_step_cap, max(h_auto, eps / (6.0 * (STEP_SAFETY * dev) ** 2))), dev


def ref_windowed_step_search(lp, eps, params=None, oracle_result=None):
    """certified_step_search as it ran its pilot through integrate, over restarted windows: (h, dev).

    Each window t_end = 1, 2, 4, ... up to PILOT_T_END starts again at
    t = 0, so its samples are the first samples of the next window's, bit
    for bit. The search stops at the first window holding a sample of cost
    at most (1 + eps) opt and one sample after it, and takes dev up to and
    including that sample. A window that fails with a NumericalError gives
    the worst-case step and dev = inf, also where the failing sample lies
    after every sample dev reads.
    """
    if params is None:
        params = default_params(lp)
    if oracle_result is None:
        oracle_result = enumerate_polyhedron(lp)
    pos_cap = params.positivity_step_cap
    h_auto = default_step(params, eps)
    start = interior_point(oracle_result)
    gap_cost = (1.0 + eps) * oracle_result.opt
    t_end = 1.0
    try:
        while True:
            e = integrate(lp, FlowConfig(x0=start, t_end=t_end), params=params).entries
            within = np.flatnonzero(e.cost <= gap_cost)
            if len(within) and within[0] + 1 < len(e):
                e = e[:within[0] + 2]
                break
            if t_end == PILOT_T_END:
                break
            t_end = min(2.0 * t_end, PILOT_T_END)
    except NumericalError:
        h, dev, at_rest = h_auto, math.inf, False
    else:
        dev = max(1e-12, float(np.fmax.reduce(e.deviation_inf)))
        h = min(0.999 * pos_cap, max(h_auto, eps / (6.0 * (STEP_SAFETY * dev) ** 2)))
        at_rest = e.direction_inf[0] <= FIXED_POINT_TOL * (1.0 + e.x[0].max())
    if h == 0.0 or (_cannot_move(h, dev) and not at_rest):
        raise StepSizeUnderflowError(
            f"the searched step h = {h:.3e} cannot move the start at eps = {eps}, "
            f"P = {params.potential_ratio_bound:.3e}, dev = {dev:.3e} (h dev is 0 or at most 2**-55)"
        )
    return h, dev
