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
entropy path, yielded one at a time by ``entropy_path.flow_points`` and
started from the path's tangent or extrapolation, and no error builds up
between samples; ``integrate`` solves them all before it builds a row.
Where A x0 = b holds exactly, b_t is b and the solves are follow_path's. On
feasible trajectories the cost is non-increasing and converges to the
optimum, the gap decaying exponentially (README, criterion 8).

The trace is one numpy record array with a row per sample time and the
fields t, x (shape (n,)), cost, energy, feas_residual, edge_potential_inf,
direction_inf, deviation_inf (max |q_i / x_i - 1|) and x_bound_ok. Each
row reads the vector field once: r = rhs_log(u) at the Newton's own
exponent u, and every column but cost and the residual follows from it
(q = x (r + 1), A^T p = c (r + 1), energy b . p = sum (x/c) (A^T p)^2).
Rows are built one at a time, each with its own numpy calls: the three
max-norms |A^T p|, |x r| and |r| are written into the rows of one
(3, n) buffer that every row reuses and reduced in one call, and the
record array is built from the rows at the end. No stacked
(samples x n) temporary is formed.
"""

from __future__ import annotations

import math

import numpy as np

from . import entropy_path
from ._record import record
# evaluate is not called here, but bench/spans.py records spans by
# rebinding continuous_flow.evaluate, so the name stays bound.
from .dynamics import evaluate  # noqa: F401
from .errors import ValidationError
from .linalg import laplacian_solver
from .model import Params, ValidatedLP, check_point, default_params


def rhs_log(lp: ValidatedLP, u) -> np.ndarray:
    """Time derivative of u = ln x along the flow, evaluated at x = exp(u).

    Equals (A^T p)/c - 1 with p the potentials at x; zero exactly at the
    fixed points of the dynamics.
    """
    p = laplacian_solver(lp)(np.exp(np.asarray(u, dtype=float)) / lp.c, lp.b)
    return lp.At.dot(p) / lp.c - 1.0


@record
class FlowConfig:
    x0: np.ndarray
    t_end: float
    sample_dt: float = 0.25

    def __post_init__(self):
        for name in ("t_end", "sample_dt"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
        # numpy's own limit on an array's length; the grid is never built past it.
        if self.t_end / self.sample_dt > np.iinfo(np.intp).max:
            raise ValidationError(
                f"t_end / sample_dt must be at most {np.iinfo(np.intp).max} samples, "
                f"got t_end={self.t_end!r}, sample_dt={self.sample_dt!r}"
            )


@record
class FlowTrace:
    entries: np.recarray  # one row per sample time, fields as in the module docstring

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
    points = list(entropy_path.flow_points(lp, x0, ts))

    cap = np.maximum(x0, params.flux_bound) * (1.0 + 1e-6)
    # As in entropy_path._newton, the reductions are ufunc methods and the
    # products ndarray.dot: ndarray.max(), np.all and @ reach the same
    # calls, bit for bit, with more Python-level overhead. The buffer's
    # rows are made absolute in place before their one reduction, so the
    # energy reads |edge|, whose products are edge's bit for bit. It weights
    # edge before the dot, as (x / c * edge).dot(edge): from a start near
    # 1e-160, edge * edge overflows where the energy is finite. The record array
    # is built once from the rows, which costs about half of assigning them
    # one at a time. The three maxima go in as numpy scalars: as Python
    # floats (.tolist()), at the same speed, the corpus benchmark's peak RSS
    # read about 0.5 MB higher, and 4.5 MB higher on some orders.
    maxr, absolute, multiply = np.maximum.reduce, np.absolute, np.multiply
    log_x0 = np.log(x0)
    inf_norms = np.empty((3, lp.n))
    edge, direction, deviation = inf_norms
    signed = inf_norms[:2]
    rows = []
    for t, point in zip(ts, points):
        x = point.x
        r = rhs_log(lp, entropy_path.exponent(lp, log_x0, point.mu, point.y))
        np.add(r, 1.0, edge)
        multiply(c, edge, edge)
        multiply(x, r, direction)
        absolute(r, deviation)
        absolute(signed, signed)
        decay = np.exp(-t)
        resid = maxr(absolute(A.dot(x - decay * x0) - (1.0 - decay) * b))
        edge_inf, direction_inf, deviation_inf = maxr(inf_norms, 1)
        rows.append((
            t, x, c.dot(x), (x / c * edge).dot(edge), resid, edge_inf, direction_inf, deviation_inf,
            np.logical_and.reduce(x <= cap),
        ))
    entries = np.array(rows, dtype=[
        ("t", float), ("x", float, (lp.n,)), ("cost", float), ("energy", float), ("feas_residual", float),
        ("edge_potential_inf", float), ("direction_inf", float), ("deviation_inf", float), ("x_bound_ok", bool),
    ]).view(np.recarray)
    return FlowTrace(entries=entries)
