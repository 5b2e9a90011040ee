"""Shared fixtures: the three shipped instances and a random-instance factory."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from physarum import LinearProgram, compute_params, enumerate_polyhedron, interior_point, rhs_log, validate
from physarum._exact import rank_int
from physarum.errors import NoInteriorPointError

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


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
    while True:
        A = rng.integers(-3, 4, size=(m, n))
        if rank_int(A.tolist()) == m:
            break
    x0 = rng.integers(1, 4, size=n)
    return validate(LinearProgram(A=A, b=A @ x0, c=rng.integers(1, 4, size=n)))


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
