"""The continuous flow x' = q - x, sampled by the paper's theorem.

In log coordinates u = ln x the flow is u' = (A^T p)/c - 1 (``rhs_log``),
so u(t) = ln x0 + A^T Y(t)/c - t with Y' = p. Along any trajectory the
constraint error contracts like e^{-t}:

    A x(t) - b = e^{-t} (A x(0) - b),

equivalently A(x(t) - e^{-t} x(0)) = (1 - e^{-t}) b, which is what the
trace records as the feasibility residual (exactly zero in exact
arithmetic, any start). So x(t) = e^{-t} x0 exp(A^T Y/c) is the
cost-weighted entropy projection of e^{-t} x0 onto A x = b_t with
b_t = b + e^{-t}(A x0 - b): each sample is one dual Newton solve on the
entropy path (``entropy_path.flow_points``), started from the path's
tangent or extrapolation, and no error builds up between samples. On
feasible trajectories the cost is non-increasing and converges to the
optimum; the per-coordinate decay toward the limit face is what
rate_report measures.

The trace is one numpy record array with a row per sample time and the
fields t, x (shape (n,)), cost, energy, feas_residual, edge_potential_inf,
direction_inf, deviation_inf (max |q_i / x_i - 1|) and x_bound_ok. Each
row reads the vector field once: r = rhs_log(u) at the Newton's own
exponent u, and every column but cost and the residual follows from it
(q = x (r + 1), A^T p = c (r + 1), energy b . p = sum (x/c) (A^T p)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import entropy_path
# evaluate is not called here, but bench/spans.py records spans by
# rebinding continuous_flow.evaluate, so the name stays bound.
from .dynamics import evaluate  # noqa: F401
from .errors import InsufficientTraceError, ValidationError
from .linalg import laplacian_solve
from .model import Params, ValidatedLP, check_point, default_params


def rhs_log(lp: ValidatedLP, u) -> np.ndarray:
    """Time derivative of u = ln x along the flow, evaluated at x = exp(u).

    Equals (A^T p)/c - 1 with p the potentials at x; zero exactly at the
    fixed points of the dynamics.
    """
    p = laplacian_solve(lp, np.exp(np.asarray(u, dtype=float)) / lp.c, lp.b)
    return lp.At.dot(p) / lp.c - 1.0


@dataclass(frozen=True)
class FlowConfig:
    x0: np.ndarray
    t_end: float
    sample_dt: float = 0.25

    def __post_init__(self):
        for name in ("t_end", "sample_dt"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class FlowTrace:
    entries: np.recarray  # one row per sample time, fields as in the module docstring
    # The trace's noise floor: rate_report fits no cost gap below rel_tol (|opt| + 1).
    rel_tol: ClassVar[float] = 1e-8

    @property
    def final(self) -> np.record:
        return self.entries[-1]


def integrate(lp: ValidatedLP, config: FlowConfig, params: Params | None = None) -> FlowTrace:
    """Run the flow from a strictly positive start and sample it on a grid.

    The start does not need to satisfy A x = b; infeasibility decays like
    e^{-t} on its own. A sample whose Newton solve fails raises that
    solve's NumericalError (NewtonStalledError, or NotPositiveDefiniteError
    from the Laplacian's pivot floor).
    """
    if params is None:
        params = default_params(lp)
    x0 = check_point(lp, config.x0, "x0")

    A, b, c = lp.A, lp.b, lp.c

    ts = np.arange(0.0, config.t_end + 0.5 * config.sample_dt, config.sample_dt)
    if ts[-1] < config.t_end:
        ts = np.append(ts, config.t_end)
    else:
        ts[-1] = config.t_end
    points = entropy_path.flow_points(lp, x0, ts)

    cap = np.maximum(x0, params.flux_bound) * (1.0 + 1e-6)
    entries = np.recarray(len(ts), dtype=[
        ("t", float), ("x", float, (lp.n,)), ("cost", float), ("energy", float), ("feas_residual", float),
        ("edge_potential_inf", float), ("direction_inf", float), ("deviation_inf", float), ("x_bound_ok", bool),
    ])
    for row, (t, point) in enumerate(zip(ts, points)):
        x = point.x
        r = rhs_log(lp, entropy_path.exponent(lp, x0, point.mu, point.y))
        edge = c * (r + 1.0)
        decay = np.exp(-t)
        resid = np.abs(A @ (x - decay * x0) - (1.0 - decay) * b).max()
        entries[row] = (
            t, x, c.dot(x), (x / c).dot(edge * edge), resid, np.abs(edge).max(),
            np.abs(x * r).max(), np.abs(r).max(), np.all(x <= cap),
        )
    return FlowTrace(entries=entries)


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured asymptotics of a flow trace against an exact optimum."""

    nu_hat: float | None
    gap_samples: int
    xn_slope: float | None
    xj_min: float
    degenerate: bool


def rate_report(trace: FlowTrace, opt: float, oracle_result) -> ConvergenceReport:
    """Fit exponential decay rates over the tail of a flow trace.

    nu_hat is the fitted rate of the cost gap V(t) - opt. When the optimal
    basis B is unique and nondegenerate, the rate is the smallest
    reduced-cost ratio (c_i - a_i.y*)/c_i over the coordinates that vanish,
    with y* = B^-T c_B. By Cramer's rule each numerator is at least 1/D,
    so the rate is at least 1/(D c_max).

    xn_slope is the rate at which the coordinates outside the optimal
    support vanish; xj_min the smallest value any supported coordinate
    takes in the tail (it must stay bounded away from zero). Samples whose
    gap is below the trace's noise floor, rel_tol * (|opt| + 1), are
    excluded from the fit; nu_hat is None when fewer than 5 remain. Needs
    at least 10 time units of trace.
    """
    entries = trace.entries
    if len(entries) == 0 or entries.t[-1] - entries.t[0] < 10.0:
        raise InsufficientTraceError("rate fitting needs a trace at least 10 time units long")

    t_all = entries.t
    tail = t_all >= t_all[0] + 0.5 * (t_all[-1] - t_all[0])
    ts, xs = t_all[tail], entries.x[tail]

    gaps = entries.cost[tail] - opt
    usable = gaps > trace.rel_tol * (abs(opt) + 1.0)
    nu_hat = None
    if usable.sum() >= 5:
        slope = np.polyfit(ts[usable], np.log(gaps[usable]), 1)[0]
        nu_hat = float(-slope)

    n = xs.shape[1]
    j_set = sorted(oracle_result.J)
    n_set = sorted(set(range(n)) - set(j_set))

    xn_slope = None
    if n_set:
        xn = xs[:, n_set].max(axis=1)
        pos = xn > 1e-300
        if pos.sum() >= 5:
            xn_slope = float(-np.polyfit(ts[pos], np.log(xn[pos]), 1)[0])

    xj_min = float(xs[:, j_set].min()) if j_set else 0.0
    return ConvergenceReport(
        nu_hat=nu_hat,
        gap_samples=int(usable.sum()),
        xn_slope=xn_slope,
        xj_min=xj_min,
        degenerate=len(oracle_result.optimal_indices) > 1,
    )
