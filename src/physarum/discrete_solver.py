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

The cost never rises, at any step h that keeps x positive. The flow
q = W A^T p, with W = diag(x / c) and (A W A^T) p = b, minimises the
energy E(f) = sum_i c_i f_i^2 / x_i over A f = b; x is such a flow, so
E(q) <= E(x) = c . x, and by Cauchy-Schwarz

    c . q = sum_i (sqrt(c_i / x_i) q_i) (sqrt(c_i x_i)) <= sqrt(E(q) c . x) <= c . x,

so c . x(k+1) = c . x(k) - h (c . x(k) - c . q(k)) <= c . x(k). This is
the discrete form of the paper's reading of Physarum as steepest descent.
certify_trace checks it on the float costs of a trace.

The paper's result counts steps until V(k) <= (1 + eps) opt, and solve
stops at the first step that provably gets there. Any y with
r = max_i (a_i . y / c_i) > 0 gives a dual feasible y / r, so by weak
duality

    lb(y) = b . y / r <= opt,

and c . x <= (1 + eps) lb(y) proves the gap without knowing opt. Two
candidate duals feed it. Every step holds the Laplacian potentials p.
And at k = 0 and every BASIS_EVERY steps after, linalg.basis_dual reads
a basis off the ratios a_i . p / c_i: B is the m columns where they are
largest, the coordinates the step grows fastest (q_i / x_i is the
ratio), and y solves A_B^T y = c_B. At the limit the ratio is 1 on the
support and below it where the reduced cost is positive, so B is the
support that complementary slackness points to, an optimal basis, and
lb(y) = opt, where the potentials' bound can still sit a few percent
below it. Dividing by r makes the bound sound for any B, optimal or
not; the best basis candidate so far is kept. The test is made in
floats first and, once it holds, again exactly, by model.dual_lower_bound
and model.exact_cost over the integer data and the dyadic floats. The
stop changes no step, so the trajectory and trace are those of the same
loop without the test, cut short; as the cost never rises, every later
step would stay within (1 + eps) opt.

The potentials' float test, r > 0 and c . x <= (1 + eps) (b . p / r),
needs r = max_i ratio_i, a product and a reduction over n entries, yet
it can hold only near the stop. So a step first reads one ratio,
r_j = a_j . p / c_j at the argmax j of the last ratio vector formed,
the same IEEE product, so r_j <= r. When r_j > 0, b . p >= 0 and
c . x > (1 + eps) (b . p / r_j), the test fails
(_potentials_cannot_close): b . p / r <= b . p / r_j, and division and
multiplication by a positive number round monotonically. Only otherwise
is the ratio vector formed, j refreshed, and the test made. The gate
skips only steps whose test fails, so the stops are those of the test
made on every step.

The trace is one numpy record array with a row per recorded step and the
fields k, x (shape (n,)), cost, energy and edge_potential_inf, so the
certificate is checked column-wise rather than step by step. Every step
computes V(k) = c . x and E(k) = b . p once, for its gap tests; a
recorded step writes them into its row with x and max |a_i . p|, and k
is filled in from the row index after the loop.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from . import oracle as oracle_mod
from ._record import record
from .errors import (
    BadEpsError,
    BadStepError,
    FeasibilityLostError,
    MissingVerifyDataError,
    NumericalError,
    PositivityLostError,
    StepSizeUnderflowError,
    ValidationError,
)
from . import linalg
from .dynamics import evaluate
from .model import Params, ValidatedLP, _float_vector, check_point, default_params, default_step, dual_lower_bound, exact_cost


def _warn(msg: str, *args) -> None:
    """Log a warning on this module's logger; logging loads only here, as most runs never warn."""
    import logging

    logging.getLogger(__name__).warning(msg, *args, stacklevel=2)


ITERATION_HARD_CAP = 10**18

# solve stops at FixedPoint once |q - x| <= FIXED_POINT_TOL (1 + |x|).
FIXED_POINT_TOL = 1e-9

# solve reads a basis dual off x (linalg.basis_dual) at k = 0 and every
# BASIS_EVERY steps after.
BASIS_EVERY = 64

# A step with h dev at or below NO_MOVE_HDEV leaves x as it is (_cannot_move).
NO_MOVE_HDEV = 2.0**-55

# certified_step_search samples its pilot flow in one pass up to at most
# PILOT_T_END and inflates the deviation it measures by STEP_SAFETY.
PILOT_T_END = 40.0
STEP_SAFETY = 1.3

# The cost never rises in exact arithmetic (module docstring); a relative rise up to
# COST_RISE_TOL between consecutive steps is taken for rounding.
COST_RISE_TOL = 1e-12


@record
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
        # The trace's k column is int64; max_iters has no such limit, as the
        # loop stops at ITERATION_HARD_CAP.
        if self.trace_every > np.iinfo(np.int64).max:
            raise ValidationError(f"trace_every must be at most {np.iinfo(np.int64).max}, got {self.trace_every}")


def trace_dtype(n: int) -> np.dtype:
    """Row layout of a discrete trace for an instance with n variables."""
    return np.dtype([
        ("k", np.int64), ("x", float, (n,)), ("cost", float), ("energy", float), ("edge_potential_inf", float),
    ])


@record
class Trace:
    entries: np.recarray  # one row per recorded step, fields as in trace_dtype
    h: float
    eps: float
    trace_every: int


@record
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
    lower_bound: Fraction | None = None  # the exact dual bound that proved the stop Certified
    bound_source: str | None = None  # the dual that formed it: "potentials" or "basis"


def _cannot_move(h: float, dev: float) -> bool:
    """Whether a step h leaves a point of deviation dev = max |q_i / x_i - 1| as it is.

    At that point each |h (q_i - x_i)| <= h dev x_i, so h dev at or below
    2**-55 keeps every step under half an ulp of x_i, with a factor 2 for
    rounding: solve from there would return the point bit for bit.
    """
    return h * dev <= NO_MOVE_HDEV


def _potentials_cannot_close(r_j: float, bp: float, cost: float, one_eps: float) -> bool:
    """Whether the potentials' float gap test is sure to fail, read off one ratio r_j.

    The test is r > 0 and cost <= one_eps (bp / r), where r is the largest
    ratio a_i . p / c_i and bp = b . p. r_j is one of those ratios formed
    as the same IEEE product, so r_j <= r. With r_j > 0 and bp >= 0,
    bp / r <= bp / r_j, and dividing and then multiplying by the positive
    one_eps round monotonically, so one_eps (bp / r) <= one_eps (bp / r_j)
    in floats as well: a cost above the latter fails the test. A NaN makes
    a comparison false and so the answer False, which only lets the test
    run.
    """
    return r_j > 0.0 and bp >= 0.0 and cost > one_eps * (bp / r_j)


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
    """Run the damped iteration to a proved gap or a numerical fixed point.

    Stops at FixedPoint when |q - x| is below FIXED_POINT_TOL * (1 + |x|),
    else at Certified, tested next and before the cap, once
    c . x <= (1 + eps) lb for a weak-duality bound
    lb = b . y / max_i (a_i . y / c_i) of one of two candidate duals y:
    the kept basis candidate, read by linalg.basis_dual at k = 0 and
    every BASIS_EVERY steps, with B the m columns of largest ratio
    a_i . p / c_i, and replaced when a later one bounds higher; and the
    step's potentials p. Testing both is testing against the larger
    bound. The Solution then carries lb as an exact Fraction in
    lower_bound and names its dual in bound_source, "basis" or
    "potentials" (both None for every other stop). Each test is made in
    floats first, and only when it holds is it made exactly
    (model.dual_lower_bound and model.exact_cost): the exact check
    builds Python ints and Fractions over all of A and costs more than a
    whole step, while the float test costs a few numpy calls and decides
    nothing on its own. A float test that the exact one refutes just lets
    the run go on. The basis candidate is tested first: its exact bound is
    formed at most once, and then also replaces its float one, so a
    candidate whose float bound overstates it cannot hold the test open.
    The potentials are tested whenever the basis does not prove the gap
    and their float test can hold, so no run stops later than with the
    potentials' bound alone: a step skips the test only when one ratio,
    at the argmax of the last ratio vector formed, proves it fails
    (_potentials_cannot_close). The stop moves no step, so the trace is
    the first rows of the same loop's without the test, bit for bit.
    Failing both, it stops at IterationBound when the certified
    worst-case count is exhausted, or at UserCap when max_iters is hit
    first. Failing all of these, it stops at Stalled after a step that
    cannot move x (h dev <= 2**-55, see _cannot_move): that step is taken
    and leaves x bit for bit as it was, so every later step would repeat
    it. iterations counts the steps taken, and the trace holds the rows
    recorded up to the stop.

    The start must be strictly positive and satisfy A x = b, else
    check_point raises: the progress certificate and the positivity cap
    1/(2P) both rest on it. Params that understate P can still drive a
    coordinate to zero, which raises PositivityLostError.

    A zero demand vector is a special case: x = 0 is optimal and the
    dynamics are never entered. A step so small that the iterates never
    leave the start is logged as a warning once the loop ends.
    """
    if not any(lp.b_exact):
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
            _warn(
                "step %.3e exceeds the certified %.3e; the a-priori progress bound no longer applies",
                h, certified,
            )

    v0 = float(lp.c @ x0)
    opt_floor = float(min(lp.c_exact)) / params.subdet_max
    cost_ratio = max(v0 / opt_floor, 1.0)
    spread = max(float(x0.max()), 1.0 / float(x0.min()), 1.0)
    certified_cap = iteration_bound(cost_ratio, spread, config.eps, h)
    cap = min(config.max_iters, certified_cap)
    cap_stop = "UserCap" if config.max_iters < certified_cap else "IterationBound"

    A, At, b, c = lp.A, lp.At, lp.b, lp.c
    inv_c = 1.0 / c
    maxr_at, minr = np.maximum.reduceat, np.minimum.reduce
    mul, sub, add, div, absolute = np.multiply, np.subtract, np.add, np.divide, np.absolute
    laplacian = linalg.laplacian_solver(lp)
    trace_every = config.trace_every
    # A recorded step writes x, cost, bp and edge_inf, as its tests read
    # them, into its row of rec, a record array of trace_dtype(n) grown by
    # doubling from 1024 rows; the trace is an exact-size copy with k filled
    # in. One buffer, not one per field: three buffers doubled apart raised
    # the peak RSS of the benchmark's corpus by about 4 MB through allocator
    # fragmentation, although they allocated less at their peak.
    n = lp.n
    rec = np.empty(0, dtype=trace_dtype(n))
    rows = 0
    dev_max = 0.0
    k = 0

    # The update is written out rather than calling evaluate: a step needs
    # one Laplacian solve, not evaluate's state checks and result object.
    #
    # At m <= 3 a step costs its numpy calls, not their arithmetic, so every
    # per-step array is written into a buffer allocated here, passed as the
    # positional out argument (a keyword out= costs up to about 0.1 us more
    # per call), and the small products use the ndarray.dot method (the same
    # BLAS call as @ and np.dot, without matmul's or the numpy function's
    # dispatch). The four rows of R hold q - x, (q - x) / x, A^T p and x
    # itself, which is updated in place there; the caller's start is never
    # written. One absolute over R and one maximum.reduceat over its flat
    # rows (starts 0, n, 2n, 3n; about 60% of the cost of a reduce along
    # axis 1 at this size) yield fp_res, dev, the trace's
    # edge_potential_inf and max(x). The maximum is exact and propagates
    # NaN in reduceat as in reduce, so each value is the one four separate
    # reductions would give.
    # x stays positive (proved or checked after each update), so |x| is x
    # and |(q - x) / x| is |q - x| / x bit for bit: dividing by a positive
    # number commutes with the sign.
    #
    # Positivity is the one check a cheaper bound decides: each new
    # coordinate is x_i + h diff_i with |diff_i| <= dev x_i, so h dev < 0.5
    # keeps it near x_i / 2 or above (rounding moves it by an ulp, and at the
    # smallest subnormal |diff_i| / x_i is exact); otherwise, or when dev is
    # NaN or inf, min(x) is read.
    #
    # The gap stop reads edge (A^T p), p and x and writes only its own
    # buffer ratio (basis_dual writes nothing of the loop's), so it moves
    # no step's bits. ratio = a . p / c is formed at k = 0 and every
    # BASIS_EVERY steps, as basis_dual's key, and on the steps where the
    # potentials' test can pass. On every other step the gate
    # _potentials_cannot_close reads one entry of it, at the argmax j of
    # the last ratio formed, as one Python product of the same two floats,
    # so r_j <= max ratio and the gate rejects only a test that fails: it
    # saves the product, the reduction and their conversions (about
    # 1.3 us a step) for one index, one product and one call.
    #
    # The same product h dev decides whether the update moves x at all. At
    # or below NO_MOVE_HDEV it is the identity in floating point
    # (_cannot_move), so every later step would repeat this one bit for
    # bit: the loop stops at Stalled at the next step, after its other
    # stop tests.
    w = np.empty_like(x0)
    R, R_abs = np.empty((4, n)), np.empty((4, n))
    diff, rel_diff, edge, x = R
    R_flat, row_starts = R_abs.reshape(-1), np.arange(0, 4 * n, n)
    x[:] = x0
    h_arr = np.array(h)  # a 0-d array multiplies faster than a Python float
    # The gap stop's state: ratio holds a_i . p / c_i as last formed, j its
    # argmax, and inv_c_list the r_j factor that the gate reads by index.
    ratio, inv_c_list = np.empty(n), inv_c.tolist()
    one_eps, exact_one_eps = 1.0 + config.eps, 1 + Fraction(config.eps)
    lower_bound = bound_source = None
    # The kept basis candidate: its dual, its float bound and, once formed,
    # its exact bound, which then also replaces the float one. A bound that
    # is None or <= 0 proves nothing (c . x > 0) and becomes -inf; so no
    # Fraction past the float range is converted.
    basis_dual, basis_y, basis_lb, basis_exact = linalg.basis_dual, None, -math.inf, None
    stalled = False
    while True:
        mul(x, inv_c, w)
        p = laplacian(w, b)
        At.dot(p, edge)
        mul(w, edge, diff)
        sub(diff, x, diff)
        div(diff, x, rel_diff)
        absolute(R, R_abs)
        fp_res, dev, edge_inf, x_max = maxr_at(R_flat, row_starts).tolist()
        if dev > dev_max:
            dev_max = dev
        cost = float(c.dot(x))
        bp = float(b.dot(p))

        if trace_every and k % trace_every == 0:
            if rows == len(rec):
                rec = np.concatenate((rec, np.empty(max(rows, 1024), dtype=rec.dtype)))
                xs, costs, energies, edges = rec["x"], rec["cost"], rec["energy"], rec["edge_potential_inf"]
            xs[rows] = x
            costs[rows] = cost
            energies[rows] = bp
            edges[rows] = edge_inf
            rows += 1

        if fp_res <= FIXED_POINT_TOL * (1.0 + x_max):
            stop = "FixedPoint"
            break
        if not k % BASIS_EVERY:
            mul(edge, inv_c, ratio)
            j = ratio.argmax().item()
            found = basis_dual(lp, ratio)
            if found is not None and found[1] > basis_lb:
                (basis_y, basis_lb), basis_exact = found, None
        if cost <= one_eps * basis_lb:
            if basis_exact is None:
                basis_exact = dual_lower_bound(lp, basis_y)
                basis_lb = float(basis_exact) if basis_exact is not None and basis_exact > 0 else -math.inf
            if basis_exact is not None and exact_cost(lp, x) <= exact_one_eps * basis_exact:
                lower_bound, bound_source, stop = basis_exact, "basis", "Certified"
                break
        if not _potentials_cannot_close(edge.item(j) * inv_c_list[j], bp, cost, one_eps):
            mul(edge, inv_c, ratio)
            j = ratio.argmax().item()
            r = ratio.item(j)
            if r > 0.0 and cost <= one_eps * (bp / r):
                lb = dual_lower_bound(lp, p)
                if lb is not None and exact_cost(lp, x) <= exact_one_eps * lb:
                    lower_bound, bound_source, stop = lb, "potentials", "Certified"
                    break
        if k >= cap:
            stop = cap_stop
            break
        if stalled:
            stop = "Stalled"
            break

        h_dev = h * dev
        stalled = h_dev <= NO_MOVE_HDEV
        mul(diff, h_arr, diff)
        add(x, diff, x)
        if not h_dev < 0.5 and minr(x) <= 0.0:
            raise PositivityLostError(f"coordinate became nonpositive at iteration {k + 1}")
        k += 1

    if k > 0 and np.array_equal(x, x0):
        _warn(
            "step h=%.3e left x bit-identical to the start after %d iterations (h (q - x) is below "
            "an ulp of x); certified_step_search can supply a larger step",
            h, k,
        )

    resid = float(np.abs(A @ x - b).max())
    if resid > 1e-6 * (float(np.abs(b).max()) + 1.0):
        raise FeasibilityLostError(f"feasibility drifted to {resid:.3e}")

    sol = Solution(
        x=x.copy(), cost=cost, iterations=k, stop_reason=stop, h=h, eps=config.eps,
        residual_inf=resid, fixed_point_residual=fp_res, dev_max=dev_max, lower_bound=lower_bound,
        bound_source=bound_source,
    )
    entries = rec[:rows].copy().view(np.recarray)
    np.multiply(np.arange(rows), trace_every, entries.k)
    return sol, Trace(entries=entries, h=h, eps=config.eps, trace_every=config.trace_every)


@record
class CertReport:
    """Outcome of the a-posteriori progress check on a trace."""

    steps_checked: int
    violations: int
    first_violation: int | None
    big_gap_steps: int
    worst_margin: float
    drop_threshold: float
    max_cost_rise: float  # largest (V(k+1) - V(k)) / V(k) over the trace, 0.0 when the cost never rises


def certify_trace(lp: ValidatedLP, trace: Trace, opt: float, eps: float, h: float, x_star) -> CertReport:
    """Check the per-step potential drop against the guaranteed amount.

    For every consecutive pair with V(k) > (1 + eps) opt the drop in
    phi must be at least h^2 eps^2 / 6 (minus a 1e-10 float allowance).
    Also counts the steps whose earlier point had a large energy/cost gap
    (E/V < 1 - eps/3), the first of the drop's two sufficient conditions.
    The second, E > (1 + eps/3) opt, needs no count: every other checked
    step has E >= (1 - eps/3) V > (1 - eps/3)(1 + eps) opt > (1 + eps/3) opt
    for 0 < eps < 1. Over every consecutive pair it reports the largest
    relative rise of the cost, which the monotone-cost lemma puts at 0 up
    to rounding (COST_RISE_TOL).
    Requires a trace recorded at every step, and eps and h equal to the
    trace's own: the drop the certificate demands is the one those values
    promise for the run that produced the trace. opt must be finite and
    positive and x_star finite and nonnegative, else ValidationError.
    """
    if trace.trace_every != 1:
        raise MissingVerifyDataError("certification needs a trace recorded at every step")
    if eps != trace.eps or h != trace.h:
        raise ValidationError(f"eps={eps!r}, h={h!r} differ from the trace's eps={trace.eps!r}, h={trace.h!r}")
    if not (0.0 < opt < math.inf):
        raise ValidationError(f"the optimal value must be finite and positive to form the potential, got {opt!r}")
    x_star = _float_vector(x_star, "x_star", lp.n)
    if not np.all((0.0 <= x_star) & (x_star < math.inf)):
        raise ValidationError(f"x_star must be finite and nonnegative, got {x_star.tolist()!r}")
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
    drop = np.diff(phi)[live]
    bad = np.flatnonzero(drop > threshold + allowance)
    checked = int(live.sum())

    return CertReport(
        steps_checked=checked,
        violations=len(bad),
        first_violation=int(e.k[:-1][live][bad[0]]) if len(bad) else None,
        big_gap_steps=int(big.sum()),
        worst_margin=float((drop - threshold).max()) if checked else 0.0,
        drop_threshold=threshold,
        max_cost_rise=float(np.max(np.diff(e.cost) / e.cost[:-1], initial=0.0)),
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
    progress argument only needs the deviation dev = max |q_i/x_i - 1|
    where certify_trace reads it, at the steps whose cost is still above
    (1 + eps) opt. A pilot run of the continuous flow from the oracle's
    interior point, sampled every 0.25 by ``entropy_path.flow_points`` (one
    entropy-path Newton solve per sample), measures dev there; the
    returned step eps / (6 (STEP_SAFETY dev)^2) never falls below the
    worst-case step or exceeds the positivity cap. certify_trace stays the
    arbiter.

    The pilot is one pass over t = 0, 0.25, ..., PILOT_T_END that stops
    right after the sample following the first one of cost at most
    (1 + eps) opt. From the feasible start the flow's cost does not
    increase, so the live samples, those above the gap, are a prefix: dev
    is the largest deviation |rhs_log| up to and including that sample,
    measured as ``continuous_flow.integrate`` measures its deviation_inf.
    A gap still open at PILOT_T_END takes dev over every sample. opt comes
    from oracle_result, which is enumerated once when None.

    A sample that fails with a NumericalError falls back to the
    worst-case step and reports dev = inf. Returns the step together with
    dev. A step of 0 (P beyond the float range), or one too small to move
    the start, raises StepSizeUnderflowError.
    """
    # The pilot is this module's only use of the flow and the path, so a
    # process that only solves never loads them.
    from . import continuous_flow, entropy_path

    if params is None:
        params = default_params(lp)
    if oracle_result is None:
        oracle_result = oracle_mod.enumerate_polyhedron(lp)
    pos_cap = params.positivity_step_cap
    h_auto = default_step(params, eps)
    start = oracle_mod.interior_point(oracle_result)
    gap_cost = (1.0 + eps) * oracle_result.opt
    log_start = np.log(start)
    devs, within = [], False  # each read sample's deviation; whether the last read lies within the gap
    try:
        for point in entropy_path.flow_points(lp, start, np.arange(0.0, PILOT_T_END + 0.125, 0.25)):
            r = continuous_flow.rhs_log(lp, entropy_path.exponent(lp, log_start, point.mu, point.y))
            if not devs:
                # solve stops at k = 0, whatever h is, at a start that passes its FixedPoint test.
                at_rest = np.abs(point.x * r).max() <= FIXED_POINT_TOL * (1.0 + point.x.max())
            devs.append(np.abs(r).max())
            # The sample after the first within the gap is the last one dev reads.
            if within:
                break
            within = lp.c.dot(point.x) <= gap_cost
    except NumericalError as exc:
        _warn("pilot integration failed (%s); falling back to the worst-case step", exc)
        h, dev, at_rest = h_auto, math.inf, False
    else:
        # fmax skips a NaN sample, as a running max() over the samples would.
        dev = max(1e-12, float(np.fmax.reduce(devs)))
        h = min(0.999 * pos_cap, max(h_auto, eps / (6.0 * (STEP_SAFETY * dev) ** 2)))
    if h == 0.0 or (_cannot_move(h, dev) and not at_rest):
        raise StepSizeUnderflowError(
            f"the searched step h = {h:.3e} cannot move the start at eps = {eps}, "
            f"P = {params.potential_ratio_bound:.3e}, dev = {dev:.3e} (h dev is 0 or at most 2**-55)"
        )
    return h, dev
