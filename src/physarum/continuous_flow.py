"""High-accuracy integration of the continuous flow x' = q - x.

Integrated in log coordinates u = ln x, where the right-hand side is
(A^T p)/c - 1 and positivity is automatic. Along any trajectory the
constraint error contracts like e^{-t}:

    A x(t) - b = e^{-t} (A x(0) - b),

equivalently A(x(t) - e^{-t} x(0)) = (1 - e^{-t}) b, which is what the
trace records as the feasibility residual (exactly zero in exact
arithmetic, any start). On feasible trajectories the cost is
non-increasing and converges to the optimum; the per-coordinate decay
toward the limit face is what rate_report measures.

The trace is one numpy record array with a row per sample time and the
fields t, x (shape (n,)), cost, energy, feas_residual, edge_potential_inf,
direction_inf, deviation_inf (max |q_i / x_i - 1|) and x_bound_ok.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import evaluate
from .errors import InsufficientTraceError, StepSizeUnderflowError, ValidationError
from .linalg import spd_solve
from .model import Params, ValidatedLP, check_point, default_params

# Absolute tolerance of the integrator on u = ln x.
ABS_TOL = 1e-10


def rhs_log(lp: ValidatedLP, u) -> np.ndarray:
    """Time derivative of u = ln x along the flow, evaluated at x = exp(u).

    Equals (A^T p)/c - 1 with p the potentials at x; zero exactly at the
    fixed points of the dynamics.
    """
    x = np.exp(np.asarray(u, dtype=float))
    w = x / lp.c
    p = spd_solve((lp.A * w).dot(lp.At), lp.b)
    return lp.At.dot(p) / lp.c - 1.0


@dataclass(frozen=True)
class FlowConfig:
    x0: np.ndarray
    t_end: float
    rel_tol: float = 1e-8
    sample_dt: float = 0.25

    def __post_init__(self):
        for name in ("t_end", "sample_dt", "rel_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class FlowTrace:
    entries: np.recarray  # one row per sample time, fields as in the module docstring
    rel_tol: float  # the integrator's relative tolerance; sets the trace's noise floor

    @property
    def final(self) -> np.record:
        return self.entries[-1]


def integrate(lp: ValidatedLP, config: FlowConfig, params: Params | None = None) -> FlowTrace:
    """Run the flow from a strictly positive start and sample it on a grid.

    The start does not need to satisfy A x = b; infeasibility decays like
    e^{-t} on its own. Integration failures (stiffness driving the adaptive
    step to zero) surface as StepSizeUnderflowError.
    """
    if params is None:
        params = default_params(lp)
    x0 = check_point(lp, config.x0, "x0")

    A, b = lp.A, lp.b

    def rhs(_t, u):
        return rhs_log(lp, u)

    ts = np.arange(0.0, config.t_end + 0.5 * config.sample_dt, config.sample_dt)
    if ts[-1] < config.t_end:
        ts = np.append(ts, config.t_end)
    else:
        ts[-1] = config.t_end

    # Imported here, not at module load: SciPy is most of a cold start and
    # only this function needs scipy.integrate (linalg binds scipy.linalg on
    # its first solve the same way).
    from scipy.integrate import solve_ivp

    result = solve_ivp(
        rhs, (0.0, config.t_end), np.log(x0), method="RK45",
        t_eval=ts, rtol=config.rel_tol, atol=ABS_TOL,
    )
    if not result.success:
        raise StepSizeUnderflowError(f"flow integration failed: {result.message}")

    cap = np.maximum(x0, params.flux_bound) * (1.0 + 1e-6)
    entries = np.recarray(len(result.t), dtype=[
        ("t", float), ("x", float, (lp.n,)), ("cost", float), ("energy", float), ("feas_residual", float),
        ("edge_potential_inf", float), ("direction_inf", float), ("deviation_inf", float), ("x_bound_ok", bool),
    ])
    for row, (t, u) in enumerate(zip(result.t, result.y.T)):
        x = np.exp(u)
        ev = evaluate(lp, x)
        decay = np.exp(-t)
        resid = np.abs(A @ (x - decay * x0) - (1.0 - decay) * b).max()
        entries[row] = (
            t, x, ev.cost, ev.energy, resid, ev.edge_potential_inf,
            np.abs(ev.direction).max(), np.abs(ev.flux / ev.x - 1.0).max(), np.all(x <= cap),
        )
    return FlowTrace(entries=entries, rel_tol=config.rel_tol)


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
    gap is below the integrator's noise floor, rel_tol * (|opt| + 1), are
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
