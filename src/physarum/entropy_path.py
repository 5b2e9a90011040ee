"""The entropy-regularized central path and its dual Newton solver.

For a strictly positive feasible anchor s and a path parameter mu >= 0,
the primal point x(mu) minimizes the cost-weighted relative entropy to
the rescaled anchor e^{-mu} s over the affine feasible set. Its dual is
the smooth concave problem

    maximize  g(y) = y . b - sum_i c_i s_i exp(a_i . y / c_i - mu)

whose maximizer y recovers the primal as x_i = s_i exp(a_i . y / c_i - mu):
the gradient b - A x(y) vanishing is exactly feasibility. The Hessian is
-A W A^T with W = diag(x/c), the same weighted Laplacian the flow solves
against, and the path coincides with the flow trajectory through s when
mu is read as time. From any positive start, feasible or not, the flow is
such a path for the moving right-hand side b + e^{-mu}(A s - b), which
``flow_points`` solves for. The Newton loop solves against that Laplacian
once per step, at the iterate it steps from; line-search trial points need
only the value and the gradient. One sweep serves ``follow_path``, its
one-point grid ``solve_point`` and ``flow_points``: it takes the anchor's
log and binds one Laplacian solver, and runs the loop at each point from
there; ``follow_path`` checks the anchor first.

Differentiating A x(mu) = b along the path gives (A W A^T) y'(mu) = b:
the dual point moves with the Physarum potentials, y'(mu) = p(x(mu)).
The sweep uses this as a predictor. After one solved point it starts
Newton from the tangent y + dmu p(x), solved with the sweep's own
Laplacian solver; afterwards from the Lagrange extrapolation through
the last three solved points. Newton with
its line search stays the corrector, so each point meets the same
tolerance as a cold solve.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from ._record import record
from .errors import (
    DualOverflowError,
    NewtonStalledError,
    NumericalError,
    ValidationError,
)
# spd_factor is not called here, but bench/spans.py records spans by
# rebinding entropy_path.spd_factor, so the name stays bound.
from .linalg import laplacian_solver, spd_factor  # noqa: F401
from .model import ValidatedLP, check_point

EXP_CAP = 700.0
ARMIJO_SLOPE = 0.25
MAX_BACKTRACKS = 60
MAX_NEWTON_ITERS = 200
# Once a full Newton step is rejected, the next trial moves no exponent
# a_i . y / c_i by more than EXPONENT_STEP_CAP.
EXPONENT_STEP_CAP = 30.0


@record
class PathPoint:
    mu: float
    y: np.ndarray
    x: np.ndarray
    dual_value: float
    newton_iters: int


def dual_value_and_derivatives(lp: ValidatedLP, log_s, mu: float, y):
    """Evaluate g, its gradient and the primal point x(y) at a dual point y.

    ``log_s`` is ln s of the anchor, taken once by the caller for all its
    evaluations. The Hessian -A W A^T is not formed here: the Newton loop
    solves against A W A^T at each iterate it steps from.
    """
    y = np.asarray(y, dtype=float)
    expo = exponent(lp, log_s, mu, y)
    top = np.maximum.reduce(expo)
    if top > EXP_CAP:
        raise DualOverflowError(
            f"dual exponent reached {top:.1f}; the path point does not exist "
            "or the Newton iterate wandered off"
        )
    x = np.exp(expo)
    value = float(y.dot(lp.b) - lp.c.dot(x))
    grad = lp.b - lp.A.dot(x)
    return value, grad, x


def exponent(lp: ValidatedLP, log_s, mu: float, y) -> np.ndarray:
    """ln x(y) = ln s + (A^T y)/c - mu, the exponent of the primal point at the float array y.

    ``log_s`` is ln s, which stays fixed while y and mu move, so callers
    take it once.
    """
    return log_s + lp.At.dot(y) / lp.c - mu


def solve_point(lp: ValidatedLP, s, mu: float) -> PathPoint:
    """Find the one point x(mu) by damped Newton ascent on the dual, from y = 0.

    The Newton direction solves (A W A^T) d = grad, i.e. the same kind of
    weighted Laplacian system as everywhere else; a quarter-slope
    backtracking line search guards global convergence. Sixty rejected
    halvings in one line search, or two hundred outer iterations, raise
    NewtonStalledError. This is ``follow_path`` on the one-point grid
    [mu], so a bad anchor or mu raises as it does there.
    """
    return follow_path(lp, s, [mu])[0]


def _newton(lp: ValidatedLP, log_s, mu: float, y0, shift, laplacian) -> PathPoint:
    """The Newton loop for the right-hand side b + shift, from the anchor's log and y0 (zeros when None).

    The shift moves the constraint to A x = b + shift, which adds
    y . shift to g and shift to its gradient; the Laplacian and the line
    search do not depend on it, and the tolerance is b's while |shift|
    stays within 1000 (|b| + 1). A shift of
    None is the unshifted problem A x = b: the dual evaluations are used
    as they come, with no y . 0 or + 0 arithmetic, which is what
    ``follow_path`` and a feasible start of ``flow_points`` solve (a zero
    shift added every time would cost each evaluation two numpy calls).
    laplacian is a bound ``laplacian_solver(lp)``; a sweep shares one
    across its points.

    At m <= 3 numpy's call overhead sets the cost of each iteration, so
    here and in the dual evaluation the maxima are np.maximum.reduce calls
    (ndarray.max() reaches the same reduction through numpy's Python-level
    wrapper, about 0.3 us more a call at n = 3) and the products use
    ndarray.dot (the BLAS call @ makes, without matmul's dispatch). Both
    give the same bits.

    The dual's terms are exponentials, so a step is trustworthy only while
    it moves each exponent a_i . y / c_i by O(1). From a tiny start the
    weights x / c are tiny and the direction huge (|d| near 1e49 at
    x = 1e-50), and halving from t = 1 would not reach a useful step in
    MAX_BACKTRACKS tries. So after a rejected full step the line search
    goes on from min(1/2, EXPONENT_STEP_CAP / max_i |a_i . d / c_i|),
    halving from there; an accepted full step costs nothing extra.
    """
    maxr, absolute = np.maximum.reduce, np.absolute
    y = np.zeros(lp.m) if y0 is None else y0.copy()

    b, c = lp.b, lp.c

    def evaluate_dual(y):
        value, grad, x = dual_value_and_derivatives(lp, log_s, mu, y)
        if shift is None:
            return value, grad, x
        return value + float(y.dot(shift)), grad + shift, x

    # Rounding in the shifted gradient grows like 1e-16 |shift|, so a shift
    # far past b raises the floor; from a start far off A x = b, b's own
    # tolerance is out of reach and Newton stalls at t = 0.
    tol = 1e-10 * (float(maxr(absolute(b))) + 1.0)
    if shift is not None:
        tol = max(tol, 1e-13 * float(maxr(absolute(shift))))
    value, grad, x = evaluate_dual(y)
    for it in range(MAX_NEWTON_ITERS):
        if float(maxr(absolute(grad))) <= tol:
            return PathPoint(mu=float(mu), y=y, x=x, dual_value=value, newton_iters=it)
        d = laplacian(x / c, grad)
        slope = float(grad.dot(d))
        # g is computed as y.b - c.x, so its increments are only trustworthy
        # above the cancellation noise of those two dot products; without
        # this allowance the endgame rejects exact Newton steps forever.
        noise = 1e-13 * (abs(float(y.dot(b))) + abs(float(c.dot(x))) + 1.0)
        # The accepted trial point becomes the iterate as it is; y + d is
        # y + 1.0 * d bit for bit, so the full step needs no product.
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = y + d if t == 1.0 else y + t * d
            try:
                cand = evaluate_dual(trial)
            except DualOverflowError:
                t = _next_trial(lp, d, t)
                continue
            if cand[0] >= value + ARMIJO_SLOPE * t * slope - noise:
                break
            t = _next_trial(lp, d, t)
        else:
            raise NewtonStalledError(
                f"line search exhausted {MAX_BACKTRACKS} halvings at mu={mu}"
            )
        y = trial
        value, grad, x = cand
    raise NewtonStalledError(f"no convergence in {MAX_NEWTON_ITERS} Newton steps at mu={mu}")


def _next_trial(lp: ValidatedLP, d, t: float) -> float:
    """The line search's next step after rejecting t: half of it, capped after the full step.

    A reach of 0, inf or nan gives no cap to take, so the search halves
    from 1/2 as it did before the cap; a step of EXPONENT_STEP_CAP / inf
    = 0 would be accepted without moving y.
    """
    if t != 1.0:
        return 0.5 * t
    reach = float(np.maximum.reduce(np.absolute(lp.At.dot(d) / lp.c)))
    return min(0.5, EXPONENT_STEP_CAP / reach) if 0.0 < reach < math.inf else 0.5


def follow_path(lp: ValidatedLP, s, mus) -> list[PathPoint]:
    """Solve x(mu) along a nondecreasing grid, each Newton solve from a predicted y.

    The prediction is the tangent after one solved point and the Lagrange
    extrapolation through the last three (or two) of distinct mu after
    that. A repeated mu starts from, and so reproduces, the point before
    it. A prediction from which Newton fails with a NumericalError is
    retried from the previous y.

    The anchor is checked once, before the grid, so a bad anchor raises
    even with an empty grid.
    """
    return list(_sweep(lp, check_point(lp, s, "anchor", feasible=True), mus))


def flow_points(lp: ValidatedLP, x0, ts) -> Iterator[PathPoint]:
    """Yield the flow from a positive x0, feasible or not, at the times ts, by ``follow_path``'s sweep.

    x(t) = e^{-t} x0 exp(A^T Y(t)/c) with Y' = p, and A x(t) = b_t with
    b_t = b + e^{-t} (A x0 - b). So x(t) is the path point with anchor x0
    and mu = t for the right-hand side b_t, and Y(t) its dual point.
    Differentiating A x(t) = b_t gives (A W A^T) Y' = b again, so the
    tangent predictor is unchanged. x0 must have passed check_point; where
    A x0 == b exactly the points are follow_path's, bit for bit. Each point
    is solved, and the grid checked, only when the iterator reaches it.
    """
    offset = lp.A.dot(x0) - lp.b
    return _sweep(lp, x0, ts, offset if offset.any() else None)


def _sweep(lp: ValidatedLP, x0, mus, offset=None) -> Iterator[PathPoint]:
    """Yield the points from the checked anchor x0 along the grid, from follow_path's predicted starts.

    Each point solves A x = b + e^{-mu} offset (A x = b when offset is None).
    """
    mus = [float(m) for m in mus]
    if not mus:
        return
    if not (mus[0] >= 0.0 and mus[-1] < math.inf and all(a <= b for a, b in zip(mus, mus[1:]))):
        raise ValidationError("the mu grid must be finite, nonnegative and nondecreasing")
    log_x0 = np.log(x0)
    laplacian = laplacian_solver(lp)

    def solve(mu, y0):
        shift = None if offset is None else math.exp(-mu) * offset
        return _newton(lp, log_x0, mu, y0, shift, laplacian)

    nodes = [solve(mus[0], None)]  # the solved points of distinct mu, in order
    yield nodes[0]
    for mu in mus[1:]:
        last = nodes[-1]
        if mu == last.mu:
            y0 = last.y
        elif len(nodes) == 1:
            # y'(mu) = p(x(mu)), the Physarum potentials at the path point.
            y0 = last.y + (mu - last.mu) * laplacian(last.x / lp.c, lp.b)
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
        yield point
        if mu > last.mu:
            nodes.append(point)
