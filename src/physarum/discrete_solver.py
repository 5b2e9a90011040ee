"""Damped discrete iteration with a convergence certificate.

From a feasible positive start the update

    x(k+1) = (1 - h) x(k) + h q(k)

keeps A x = b exactly and, for a small enough step, comes with a proof of
progress: whenever the cost V(k) = c . x(k) still exceeds (1 + eps) times
the optimum, the combined potential

    phi(k) = 4 ln V(k) - (eps h / opt) B(k),      B(k) = sum_i c_i x*_i ln x_i(k)

drops by at least h^2 eps^2 / 6 per step. The guaranteed step size is
eps / (6 P^2) where P bounds |a_i . p / c_i - 1| over the feasible region;
larger steps up to 1/(2P) keep the iterates positive but void the a-priori
certificate (an a-posteriori check is still available via certify_trace).

The trace is one numpy record array with a row per recorded step and the
fields k, x (shape (n,)), cost, energy and edge_potential_inf, so the
certificate is checked column-wise rather than step by step.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import oracle as oracle_mod
from .errors import (
    BadEpsError,
    BadStepError,
    DimensionMismatchError,
    FeasibilityLostError,
    MissingVerifyDataError,
    NumericalError,
    PositivityLostError,
    ValidationError,
)
# evaluate is not called here, but bench/spans.py records spans by
# rebinding discrete_solver.evaluate, so the name stays bound.
from .dynamics import evaluate  # noqa: F401
from .linalg import spd_solve
from .model import Params, ValidatedLP, check_point, default_params

logger = logging.getLogger(__name__)

ITERATION_HARD_CAP = 10**18

# solve stops at FixedPoint once |q - x| <= FIXED_POINT_TOL (1 + |x|).
FIXED_POINT_TOL = 1e-9

# certified_step_search integrates its pilot flow up to PILOT_T_END and
# inflates the deviation it measures by STEP_SAFETY.
PILOT_T_END = 40.0
STEP_SAFETY = 1.3

# Relative margin by which solve's running bound on max(x) is widened per
# step to cover the rounding of the update and of the bound itself.
X_CAP_MARGIN = 1.0 + 1e-12


@dataclass(frozen=True)
class DiscreteConfig:
    """Solver knobs. ``h=None`` selects the certified step automatically."""

    eps: float = 0.1
    h: float | None = None
    start: np.ndarray | None = None
    max_iters: int = 1_000_000
    trace_every: int = 1
    allow_infeasible: bool = False

    def __post_init__(self):
        if not (0.0 < self.eps < 0.5):
            raise BadEpsError(f"eps must lie in (0, 1/2), got {self.eps}")
        if self.h is not None and not (0.0 < self.h < 1.0):
            raise BadStepError(f"h must lie in (0, 1), got {self.h}")
        for name in ("max_iters", "trace_every"):
            value = getattr(self, name)
            # A NaN cap would never stop the loop and a fraction would round
            # up (max_iters) or skip rows (trace_every).
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")


def trace_dtype(n: int) -> np.dtype:
    """Row layout of a discrete trace for an instance with n variables."""
    return np.dtype([
        ("k", np.int64), ("x", float, (n,)), ("cost", float), ("energy", float), ("edge_potential_inf", float),
    ])


@dataclass(frozen=True)
class Trace:
    entries: np.recarray  # one row per recorded step, fields as in trace_dtype
    h: float
    eps: float
    trace_every: int


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    cost: float
    iterations: int
    stop_reason: str
    h: float
    eps: float
    residual_inf: float
    fixed_point_residual: float
    dev_max: float


def _columns(buf: np.ndarray) -> tuple[np.ndarray, ...]:
    """One view per field of a trace buffer, in trace_dtype order."""
    return tuple(buf[name] for name in buf.dtype.names)


def default_step(params: Params, eps: float) -> float:
    """The certified step size eps / (6 P^2)."""
    if not (0.0 < eps < 0.5):
        raise BadEpsError(f"eps must lie in (0, 1/2), got {eps}")
    return eps / (6.0 * params.potential_ratio_bound**2)


def iteration_bound(cost_ratio: float, spread: float, eps: float, h: float) -> int:
    """Worst-case step count until the cost is within (1 + eps) of optimal.

    ``cost_ratio`` bounds V(0) / opt and ``spread`` bounds both every start
    coordinate and its reciprocal. The potential starts at most
    4 ln cost_ratio + eps h ln spread above its floor and loses
    h^2 eps^2 / 6 per step, which gives

        ceil( 6 (4 ln cost_ratio + 2 eps h ln spread) / (h^2 eps^2) ).
    """
    if not (0.0 < eps < 0.5):
        raise BadEpsError(f"eps must lie in (0, 1/2), got {eps}")
    if not (0.0 < h < 1.0):
        raise BadStepError(f"h must lie in (0, 1), got {h}")
    if cost_ratio < 1.0 or spread < 1.0:
        raise ValidationError("cost_ratio and spread must be at least 1")
    num = 6.0 * (4.0 * math.log(cost_ratio) + 2.0 * eps * h * math.log(spread))
    den = h * h * eps * eps
    if den == 0.0:  # h eps below about 1e-162 underflows; the bound is past any cap
        return ITERATION_HARD_CAP
    return int(math.ceil(min(num / den, float(ITERATION_HARD_CAP))))


def solve(
    lp: ValidatedLP,
    config: DiscreteConfig,
    params: Params | None = None,
    oracle_result=None,
) -> tuple[Solution, Trace]:
    """Run the damped iteration to a numerical fixed point.

    Stops at FixedPoint when |q - x| is below FIXED_POINT_TOL * (1 + |x|),
    at IterationBound when the certified worst-case count is exhausted, or
    at UserCap when max_iters is hit first.

    A zero demand vector is a special case: x = 0 is optimal and the
    dynamics are never entered. A step so small that the iterates never
    leave the start is logged as a warning once the loop ends.
    """
    if params is None:
        params = default_params(lp)

    if not np.any(lp.b_int):
        x = np.zeros(lp.n)
        sol = Solution(
            x=x, cost=0.0, iterations=0, stop_reason="FixedPoint", h=config.h or 0.0,
            eps=config.eps, residual_inf=0.0, fixed_point_residual=0.0, dev_max=0.0,
        )
        entries = np.recarray(0, dtype=trace_dtype(lp.n))
        return sol, Trace(entries=entries, h=config.h or 0.0, eps=config.eps, trace_every=config.trace_every)

    x = x0 = check_point(
        lp, oracle_mod.start_point(lp, config.start, oracle_result), "start",
        feasible=not config.allow_infeasible,
    )

    certified = default_step(params, config.eps)
    if config.h is None:
        h = certified
    else:
        h = config.h
        pos_cap = 0.5 / params.potential_ratio_bound
        if h > pos_cap:
            raise BadStepError(
                f"h={h:.3e} exceeds the positivity-safe cap 1/(2 P) = {pos_cap:.3e}"
            )
        if h > certified:
            logger.warning(
                "step %.3e exceeds the certified %.3e; the a-priori progress bound no longer applies",
                h, certified,
            )

    v0 = float(lp.c @ x)
    opt_floor = float(lp.c_int.min()) / params.subdet_max
    cost_ratio = max(v0 / opt_floor, 1.0)
    spread = max(float(x.max()), float(1.0 / x.min()), 1.0)
    certified_cap = iteration_bound(cost_ratio, spread, config.eps, h)
    cap = min(config.max_iters, certified_cap)

    A, At, b, c = lp.A, lp.At, lp.b, lp.c
    inv_c = 1.0 / c
    maxr, minr, dot = np.maximum.reduce, np.minimum.reduce, np.dot
    mul, sub, add, div, absolute = np.multiply, np.subtract, np.add, np.divide, np.absolute
    trace_every = config.trace_every
    # Grown by doubling and trimmed once at the end; rows are written field
    # by field through column views, rebound whenever the buffer grows.
    buf = np.empty(1024 if trace_every else 0, dtype=trace_dtype(lp.n))
    col_k, col_x, col_cost, col_energy, col_edge = _columns(buf)
    rows = 0
    dev_max = 0.0
    k = 0
    stop = None
    fp_res = math.inf
    x_cap = float(maxr(x))

    # The update is written out rather than calling evaluate: a step needs
    # one Laplacian solve, not evaluate's state checks and result object.
    # x stays positive (proved or checked after each update), so |x| is x and
    # |q - x| / x is |(q - x) / x| without a second abs.
    #
    # At m <= 3 a step costs its numpy calls, not their arithmetic, so every
    # per-step array is written with out= into a buffer allocated here, the
    # small products use np.dot (the same BLAS call as @, without matmul's
    # dispatch), and |q - x|, |q - x| / x and, on traced rows, |A^T p| fill
    # the rows of R so that one max-reduction yields fp_res, dev and the
    # trace's edge_potential_inf. The maximum is exact and propagates NaN,
    # so each value is the one three separate reductions would give. Row 2
    # is stale on untraced rows and its maximum unused. x alternates between
    # two buffers; the caller's start is never written.
    #
    # Two exact checks run only when a cheaper bound cannot decide them.
    # Positivity: each new coordinate is x_i + h diff_i with |diff_i| <= dev x_i,
    # so h dev < 0.5 keeps it near x_i / 2 or above (rounding moves it by an
    # ulp, and at the smallest subnormal |diff_i| / x_i is exact); otherwise,
    # or when dev is NaN or inf, min(x) is read. Fixed point: x_cap >= max(x)
    # holds exactly at the start and after each read of max(x), and an update
    # multiplies no coordinate by more than 1 + h dev, widened by X_CAP_MARGIN
    # for rounding. While fp_res > FIXED_POINT_TOL (1 + x_cap) the exact test
    # fails too, so max(x) is read only once fp_res is within that bound.
    x, x_next = x.copy(), np.empty_like(x)
    w, edge, q, diff, step = (np.empty_like(x) for _ in range(5))
    Aw, lap = np.empty_like(A), np.empty((lp.m, lp.m))
    R = np.zeros((3, lp.n))
    abs_diff, rel_diff, abs_edge = R
    h_arr = np.array(h)  # a 0-d array multiplies faster than a Python float
    while True:
        mul(x, inv_c, out=w)
        mul(A, w, out=Aw)
        p = spd_solve(dot(Aw, At, out=lap), b)
        dot(At, p, out=edge)
        mul(w, edge, out=q)
        sub(q, x, out=diff)
        absolute(diff, out=abs_diff)
        div(abs_diff, x, out=rel_diff)
        traced = trace_every and k % trace_every == 0
        if traced:
            absolute(edge, out=abs_edge)
        fp_res, dev, edge_inf = maxr(R, 1).tolist()
        if dev > dev_max:
            dev_max = dev

        if traced:
            if rows == len(buf):
                buf = np.concatenate((buf, np.empty_like(buf)))
                col_k, col_x, col_cost, col_energy, col_edge = _columns(buf)
            col_k[rows] = k
            col_x[rows] = x
            col_cost[rows] = dot(c, x)
            col_energy[rows] = dot(b, p)
            col_edge[rows] = edge_inf
            rows += 1

        if not fp_res > FIXED_POINT_TOL * (1.0 + x_cap):
            x_cap = float(maxr(x))
            if fp_res <= FIXED_POINT_TOL * (1.0 + x_cap):
                stop = "FixedPoint"
                break
        if k >= cap:
            stop = "UserCap" if cap == config.max_iters and config.max_iters < certified_cap else "IterationBound"
            break

        mul(diff, h_arr, out=step)
        x, x_next = add(x, step, out=x_next), x
        if not h * dev < 0.5 and minr(x) <= 0.0:
            raise PositivityLostError(f"coordinate became nonpositive at iteration {k + 1}")
        x_cap *= (1.0 + h * dev) * X_CAP_MARGIN
        k += 1

    if k > 0 and np.array_equal(x, x0):
        logger.warning(
            "step h=%.3e left x bit-identical to the start after %d iterations (h (q - x) is below "
            "an ulp of x); certified_step_search can supply a larger step",
            h, k,
        )

    resid = float(np.abs(A @ x - b).max())
    if not config.allow_infeasible and resid > 1e-6 * (float(np.abs(b).max()) + 1.0):
        raise FeasibilityLostError(f"feasibility drifted to {resid:.3e}")

    sol = Solution(
        x=x, cost=float(c @ x), iterations=k, stop_reason=stop, h=h, eps=config.eps,
        residual_inf=resid, fixed_point_residual=fp_res, dev_max=dev_max,
    )
    entries = buf[:rows].copy().view(np.recarray)
    return sol, Trace(entries=entries, h=h, eps=config.eps, trace_every=config.trace_every)


@dataclass(frozen=True)
class CertReport:
    """Outcome of the a-posteriori progress check on a trace."""

    steps_checked: int
    violations: int
    first_violation: int | None
    big_gap_steps: int
    small_gap_steps: int
    worst_margin: float
    drop_threshold: float


def certify_trace(lp: ValidatedLP, trace: Trace, opt: float, eps: float, h: float, x_star) -> CertReport:
    """Check the per-step potential drop against the guaranteed amount.

    For every consecutive pair with V(k) > (1 + eps) opt the drop in
    phi must be at least h^2 eps^2 / 6 (minus a 1e-10 float allowance).
    Also labels which sufficient condition held at the earlier point: a
    large energy/cost gap (E/V < 1 - eps/3) or energy still well above
    optimal (E > (1 + eps/3) opt); one of the two always must.
    Requires a trace recorded at every step.
    """
    if trace.trace_every != 1:
        raise MissingVerifyDataError("certification needs a trace recorded at every step")
    if opt <= 0.0:
        raise ValidationError("the optimal value must be positive to form the potential")
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (lp.n,):
        raise DimensionMismatchError(f"x_star has shape {x_star.shape}, expected ({lp.n},)")
    supp = x_star > 0.0
    w_supp = lp.c[supp] * x_star[supp]

    e = trace.entries
    if np.any(np.diff(e.k) != 1):
        raise MissingVerifyDataError("trace entries are not consecutive")
    threshold = -(h * h * eps * eps) / 6.0
    allowance = 1e-10

    phi = 4.0 * np.log(e.cost) - (eps * h / opt) * (np.log(e.x[:, supp]) @ w_supp)
    # Step k -> k+1 is checked while V(k) is still above (1 + eps) opt.
    live = e.cost[:-1] > (1.0 + eps) * opt
    cost, energy = e.cost[:-1][live], e.energy[:-1][live]
    big = energy / cost < 1.0 - eps / 3.0
    small = ~big & (energy > (1.0 + eps / 3.0) * opt)
    drop = np.diff(phi)[live]
    bad = np.flatnonzero(drop > threshold + allowance)
    checked = int(live.sum())

    return CertReport(
        steps_checked=checked,
        violations=len(bad),
        first_violation=int(e.k[:-1][live][bad[0]]) if len(bad) else None,
        big_gap_steps=int(big.sum()),
        small_gap_steps=int(small.sum()),
        worst_margin=float((drop - threshold).max()) if checked else 0.0,
        drop_threshold=threshold,
    )


def certified_step_search(
    lp: ValidatedLP,
    eps: float,
    params: Params | None = None,
    oracle_result=None,
    start: np.ndarray | None = None,
) -> tuple[float, float]:
    """Pick a step the a-posteriori certificate is expected to accept.

    The guaranteed step divides eps by six times the square of a worst-case
    potential bound, which is wildly pessimistic on most instances: the
    progress argument only needs the deviation |q_i/x_i - 1| actually seen
    along the trajectory. A cheap ODE integration of the same dynamics
    measures that deviation; the returned step inflates it by STEP_SAFETY
    and never exceeds the positivity cap. certify_trace stays the arbiter.

    Returns the step together with the measured deviation.
    """
    from . import continuous_flow

    if params is None:
        params = default_params(lp)
    pos_cap = 0.5 / params.potential_ratio_bound
    h_auto = default_step(params, eps)
    start = oracle_mod.start_point(lp, start, oracle_result)
    try:
        trace = continuous_flow.integrate(
            lp, continuous_flow.FlowConfig(x0=start, t_end=PILOT_T_END), params=params,
        )
        # fmax skips a NaN sample, as a running max() over the samples would.
        dev = max(1e-12, float(np.fmax.reduce(trace.entries.deviation_inf)))
    except NumericalError as exc:
        logger.warning("pilot integration failed (%s); falling back to the worst-case step", exc)
        return h_auto, math.inf
    h = min(0.999 * pos_cap, max(h_auto, eps / (6.0 * (STEP_SAFETY * dev) ** 2)))
    return h, dev
