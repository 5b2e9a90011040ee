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
certificate is checked column-wise rather than step by step. A recorded
step keeps only what it already holds: x, the potentials p and the
largest |a_i . p|. The record array is built once after the loop: k from
the row index, and cost = c . x and energy = b . p with one ddot per row.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import continuous_flow
from . import oracle as oracle_mod
from .errors import (
    BadEpsError,
    BadStepError,
    DimensionMismatchError,
    FeasibilityLostError,
    MissingVerifyDataError,
    NumericalError,
    PositivityLostError,
    StepSizeUnderflowError,
    ValidationError,
)
from . import linalg
from .dynamics import evaluate
from .model import Params, ValidatedLP, check_point, default_params

logger = logging.getLogger(__name__)

ITERATION_HARD_CAP = 10**18

# solve stops at FixedPoint once |q - x| <= FIXED_POINT_TOL (1 + |x|).
FIXED_POINT_TOL = 1e-9

# A step with h dev at or below NO_MOVE_HDEV leaves x as it is (_cannot_move).
NO_MOVE_HDEV = 2.0**-55

# certified_step_search samples its pilot flow up to PILOT_T_END and
# inflates the deviation it measures by STEP_SAFETY.
PILOT_T_END = 40.0
STEP_SAFETY = 1.3


@dataclass(frozen=True)
class DiscreteConfig:
    """Solver knobs. ``h=None`` selects the certified step automatically."""

    eps: float = 0.1
    h: float | None = None
    start: np.ndarray | None = None
    max_iters: int = 1_000_000
    trace_every: int = 1

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


def _cannot_move(h: float, dev: float) -> bool:
    """Whether a step h leaves a point of deviation dev = max |q_i / x_i - 1| as it is.

    At that point each |h (q_i - x_i)| <= h dev x_i, so h dev at or below
    2**-55 keeps every step under half an ulp of x_i, with a factor 2 for
    rounding: solve from there would return the point bit for bit.
    """
    return h * dev <= NO_MOVE_HDEV


def default_step(params: Params, eps: float) -> float:
    """The certified step size eps / (6 P^2); 0.0 when P^2 exceeds the float range."""
    if not (0.0 < eps < 0.5):
        raise BadEpsError(f"eps must lie in (0, 1/2), got {eps}")
    try:
        return eps / (6.0 * params.potential_ratio_bound**2)
    except OverflowError:
        return 0.0


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

    The start must be strictly positive and satisfy A x = b, else
    check_point raises: the progress certificate and the positivity cap
    1/(2P) both rest on it. Params that understate P can still drive a
    coordinate to zero, which raises PositivityLostError.

    A step that cannot move x (h dev <= 2**-55, see _cannot_move) ends the
    loop at once: every later step would recompute it bit for bit, so solve
    fills the trace rows up to the cap with it and stops there, with the
    result and trace that running to the cap gives. The skipped steps are
    logged at INFO.

    A zero demand vector is a special case: x = 0 is optimal and the
    dynamics are never entered. A step so small that the iterates never
    leave the start is logged as a warning once the loop ends.
    """
    if not np.any(lp.b_int):
        if config.start is not None:
            check_point(lp, config.start, "start", feasible=True)
        x = np.zeros(lp.n)
        sol = Solution(
            x=x, cost=0.0, iterations=0, stop_reason="FixedPoint", h=config.h or 0.0,
            eps=config.eps, residual_inf=0.0, fixed_point_residual=0.0, dev_max=0.0,
        )
        entries = np.recarray(0, dtype=trace_dtype(lp.n))
        return sol, Trace(entries=entries, h=config.h or 0.0, eps=config.eps, trace_every=config.trace_every)

    if params is None:
        params = default_params(lp)
    x0 = check_point(lp, oracle_mod.start_point(lp, config.start, oracle_result), "start", feasible=True)

    certified = default_step(params, config.eps)
    pos_cap = params.positivity_step_cap
    if config.h is None:
        if certified == 0.0:
            if pos_cap == 0.0:
                remedy = "no step h > 0 (--h) stays under it: the instance's worst-case bounds exceed the float range"
            else:
                ev = evaluate(lp, x0)
                dev = float(np.abs(ev.direction / ev.x).max())
                if _cannot_move(pos_cap, dev):
                    remedy = (
                        f"no step h (--h) up to it moves the start: there dev = max |q_i / x_i - 1| is {dev:.3e}, "
                        "so h dev <= 2**-55 keeps every update below half an ulp of x"
                    )
                else:
                    remedy = "pass a step h (--h) up to it, or search for one with certified_step_search"
            raise StepSizeUnderflowError(
                f"the certified step eps / (6 P^2) underflows to 0 at eps = {config.eps}, "
                f"P = {params.potential_ratio_bound:.3e}, and the positivity cap 1/(2 P) is {pos_cap:.3e}; "
                + remedy
            )
        h = certified
    else:
        h = config.h
        if h > pos_cap:
            raise BadStepError(
                f"h={h:.3e} exceeds the positivity-safe cap 1/(2 P) = {pos_cap:.3e}"
            )
        if h > certified:
            logger.warning(
                "step %.3e exceeds the certified %.3e; the a-priori progress bound no longer applies",
                h, certified,
            )

    v0 = float(lp.c @ x0)
    opt_floor = float(lp.c_int.min()) / params.subdet_max
    cost_ratio = max(v0 / opt_floor, 1.0)
    spread = max(float(x0.max()), float(1.0 / x0.min()), 1.0)
    certified_cap = iteration_bound(cost_ratio, spread, config.eps, h)
    cap = min(config.max_iters, certified_cap)
    cap_stop = "UserCap" if config.max_iters < certified_cap else "IterationBound"

    A, At, b, c = lp.A, lp.At, lp.b, lp.c
    inv_c = 1.0 / c
    maxr, minr = np.maximum.reduce, np.minimum.reduce
    mul, sub, add, div, absolute = np.multiply, np.subtract, np.add, np.divide, np.absolute
    check_pivots = linalg._check_pivots
    trace_every = config.trace_every
    # A recorded step stores x, p and edge_inf side by side in one row of
    # rec, grown by doubling from 1024 rows; the trace's record array is
    # built from rec after the loop. One buffer rather than one per value:
    # three buffers doubled apart raised the peak RSS of the benchmark's
    # corpus by about 4 MB through allocator fragmentation, although they
    # allocated less at their peak.
    n = lp.n
    rec = np.empty((0, n + lp.m + 1))
    rows = 0
    dev_max = 0.0
    k = 0

    # The update is written out rather than calling evaluate: a step needs
    # one Laplacian solve, not evaluate's state checks and result object.
    # That solve is one dposv call on lap and linalg's pivot rule, the body of
    # linalg.laplacian_solve without its frame, which costs a few % per step.
    # dposv is looked up in linalg on each step: until the first LAPACK call
    # of the process it is a stub that binds SciPy, and a local name would
    # keep the stub.
    #
    # At m <= 3 a step costs its numpy calls, not their arithmetic, so every
    # per-step array is written with out= into a buffer allocated here, and
    # the small products use the ndarray.dot method (the same BLAS call as @
    # and np.dot, without matmul's or the numpy function's dispatch). The
    # four rows of R hold q - x, (q - x) / x, A^T p and x itself, which is
    # updated in place there; the caller's start is never written. One
    # absolute over R and one max-reduction of the result yield fp_res, dev,
    # the trace's edge_potential_inf and max(x). The maximum is exact and
    # propagates NaN, so each value is the one four separate reductions
    # would give. x stays positive (proved or checked after each update), so
    # |x| is x and |(q - x) / x| is |q - x| / x bit for bit: dividing by a
    # positive number commutes with the sign.
    #
    # Positivity is the one check a cheaper bound decides: each new
    # coordinate is x_i + h diff_i with |diff_i| <= dev x_i, so h dev < 0.5
    # keeps it near x_i / 2 or above (rounding moves it by an ulp, and at the
    # smallest subnormal |diff_i| / x_i is exact); otherwise, or when dev is
    # NaN or inf, min(x) is read.
    #
    # The same product h dev decides whether the update moves x at all. At
    # or below NO_MOVE_HDEV it is the identity in floating point
    # (_cannot_move), so every step up to the cap would recompute this one
    # bit for bit. The loop then writes this step's trace row for each
    # recorded k' in (k, cap], growing rec once to the exact size, and stops
    # at the cap as running there would. The test comes after the stop
    # tests, so a start at rest still stops at FixedPoint.
    w = np.empty_like(x0)
    Aw, lap = np.empty_like(A), np.empty((lp.m, lp.m))
    R, R_abs = np.empty((4, lp.n)), np.empty((4, lp.n))
    diff, rel_diff, edge, x = R
    x[:] = x0
    h_arr = np.array(h)  # a 0-d array multiplies faster than a Python float
    while True:
        mul(x, inv_c, out=w)
        mul(A, w, out=Aw)
        Aw.dot(At, out=lap)
        low, p, info = linalg.dposv(lap, b, 1)
        check_pivots(lap, low, info)
        At.dot(p, out=edge)
        mul(w, edge, out=diff)
        sub(diff, x, out=diff)
        div(diff, x, out=rel_diff)
        absolute(R, out=R_abs)
        fp_res, dev, edge_inf, x_max = maxr(R_abs, 1).tolist()
        if dev > dev_max:
            dev_max = dev

        if trace_every and k % trace_every == 0:
            if rows == len(rec):
                rec = np.concatenate((rec, np.empty((max(rows, 1024), rec.shape[1]))))
                xs, ps, edges = rec[:, :n], rec[:, n:-1], rec[:, -1]
            xs[rows] = x
            ps[rows] = p
            edges[rows] = edge_inf
            rows += 1

        if fp_res <= FIXED_POINT_TOL * (1.0 + x_max):
            stop = "FixedPoint"
            break
        if k >= cap:
            stop = cap_stop
            break

        h_dev = h * dev
        if h_dev <= NO_MOVE_HDEV:
            if trace_every:
                end = rows + cap // trace_every - k // trace_every
                if end > len(rec):
                    rec = np.concatenate((rec, np.empty((end - len(rec), rec.shape[1]))))
                    xs, ps, edges = rec[:, :n], rec[:, n:-1], rec[:, -1]
                xs[rows:end] = x
                ps[rows:end] = p
                edges[rows:end] = edge_inf
                rows = end
            logger.info(
                "step %d cannot move x (h dev = %.3e <= 2**-55); stopping at the cap %d "
                "without recomputing the %d identical steps up to it",
                k, h_dev, cap, cap - k,
            )
            k, stop = cap, cap_stop
            break
        mul(diff, h_arr, out=diff)
        add(x, diff, out=x)
        if not h_dev < 0.5 and minr(x) <= 0.0:
            raise PositivityLostError(f"coordinate became nonpositive at iteration {k + 1}")
        k += 1

    if k > 0 and np.array_equal(x, x0):
        logger.warning(
            "step h=%.3e left x bit-identical to the start after %d iterations (h (q - x) is below "
            "an ulp of x); certified_step_search can supply a larger step",
            h, k,
        )

    resid = float(np.abs(A @ x - b).max())
    if resid > 1e-6 * (float(np.abs(b).max()) + 1.0):
        raise FeasibilityLostError(f"feasibility drifted to {resid:.3e}")

    sol = Solution(
        x=x.copy(), cost=float(c @ x), iterations=k, stop_reason=stop, h=h, eps=config.eps,
        residual_inf=resid, fixed_point_residual=fp_res, dev_max=dev_max,
    )
    # np.vecdot makes one ddot call per row, the call c.dot(x) and b.dot(p)
    # make, so each entry is that row's dot product bit for bit; a
    # matrix-vector product (xs @ c) need not be.
    entries = np.recarray(rows, dtype=trace_dtype(n))
    entries.k = np.arange(rows) * trace_every
    xs, ps = rec[:rows, :n], rec[:rows, n:-1]
    entries.x = xs
    entries.cost = np.vecdot(xs, c)
    entries.energy = np.vecdot(ps, b)
    entries.edge_potential_inf = rec[:rows, -1]
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
    Requires a trace recorded at every step, and eps and h equal to the
    trace's own: the drop the certificate demands is the one those values
    promise for the run that produced the trace.
    """
    if trace.trace_every != 1:
        raise MissingVerifyDataError("certification needs a trace recorded at every step")
    if eps != trace.eps or h != trace.h:
        raise ValidationError(f"eps={eps!r}, h={h!r} differ from the trace's eps={trace.eps!r}, h={trace.h!r}")
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
) -> tuple[float, float]:
    """Pick a step the a-posteriori certificate is expected to accept.

    The guaranteed step divides eps by six times the square of a worst-case
    potential bound, which is wildly pessimistic on most instances: the
    progress argument only needs the deviation |q_i/x_i - 1| actually seen
    along the trajectory. A pilot run of the continuous flow, sampled by
    ``continuous_flow.integrate`` (one entropy-path Newton solve per
    sample), measures that deviation; the returned step inflates it by
    STEP_SAFETY and never exceeds the positivity cap. certify_trace stays
    the arbiter. The pilot starts at the oracle's interior point; a pilot
    that fails with a NumericalError falls back to the worst-case step.

    Returns the step together with the measured deviation. A step of 0
    (P beyond the float range), or one too small to move the start, raises
    StepSizeUnderflowError.
    """
    if params is None:
        params = default_params(lp)
    pos_cap = params.positivity_step_cap
    h_auto = default_step(params, eps)
    start = oracle_mod.start_point(lp, None, oracle_result)
    try:
        trace = continuous_flow.integrate(
            lp, continuous_flow.FlowConfig(x0=start, t_end=PILOT_T_END), params=params,
        )
    except NumericalError as exc:
        logger.warning("pilot integration failed (%s); falling back to the worst-case step", exc)
        h, dev, at_rest = h_auto, math.inf, False
    else:
        e = trace.entries
        # fmax skips a NaN sample, as a running max() over the samples would.
        dev = max(1e-12, float(np.fmax.reduce(e.deviation_inf)))
        h = min(0.999 * pos_cap, max(h_auto, eps / (6.0 * (STEP_SAFETY * dev) ** 2)))
        # solve stops at k = 0, whatever h is, at a start that passes its FixedPoint test.
        at_rest = e.direction_inf[0] <= FIXED_POINT_TOL * (1.0 + e.x[0].max())
    if h == 0.0 or (_cannot_move(h, dev) and not at_rest):
        raise StepSizeUnderflowError(
            f"the searched step h = {h:.3e} cannot move the start at eps = {eps}, "
            f"P = {params.potential_ratio_bound:.3e}, dev = {dev:.3e} (h dev is 0 or at most 2**-55)"
        )
    return h, dev
