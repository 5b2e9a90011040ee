"""Shared fixtures: the three shipped instances and a random-instance factory."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from physarum import LinearProgram, compute_params, enumerate_polyhedron, interior_point, validate
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
