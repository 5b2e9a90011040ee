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
``flow_points`` solves for. ``solve_point`` solves against that Laplacian
once per Newton step, at the iterate it steps from; line-search trial
points need only the value and the gradient.

Differentiating A x(mu) = b along the path gives (A W A^T) y'(mu) = b:
the dual point moves with the Physarum potentials, y'(mu) = p(x(mu)).
``follow_path`` uses this as a predictor. After one solved point it
starts Newton from the tangent y + dmu p(x); afterwards from the
Lagrange extrapolation through the last three solved points. Newton with
its line search stays the corrector, so each point meets the same
tolerance as a cold solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DualOverflowError,
    NewtonStalledError,
    ValidationError,
)
# spd_factor is not called here, but bench/spans.py records spans by
# rebinding entropy_path.spd_factor, so the name stays bound.
from .linalg import laplacian_solve, laplacian_solver, spd_factor  # noqa: F401
from .model import ValidatedLP, check_point

EXP_CAP = 700.0
ARMIJO_SLOPE = 0.25
MAX_BACKTRACKS = 60
MAX_NEWTON_ITERS = 200


@dataclass(frozen=True)
class PathPoint:
    mu: float
    y: np.ndarray
    x: np.ndarray
    dual_value: float
    newton_iters: int


def dual_value_and_derivatives(lp: ValidatedLP, log_s, mu: float, y):
    """Evaluate g, its gradient and the primal point x(y) at a dual point y.

    ``log_s`` is ln s of the anchor, taken once by the caller for all its
    evaluations. The Hessian -A W A^T is not formed here: ``solve_point``
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


def solve_point(lp: ValidatedLP, s, mu: float, y0=None) -> PathPoint:
    """Find x(mu) by damped Newton ascent on the dual.

    The Newton direction solves (A W A^T) d = grad, i.e. the same kind of
    weighted Laplacian system as everywhere else; a quarter-slope
    backtracking line search guards global convergence. Sixty rejected
    halvings in one line search, or two hundred outer iterations, raise
    NewtonStalledError.
    """
    if not 0.0 <= mu < math.inf:
        raise ValidationError(f"mu must be nonnegative and finite, got {mu}")
    s = check_point(lp, s, "anchor", feasible=True)
    return _newton(lp, np.log(s), mu, y0, np.zeros(lp.m), laplacian_solver(lp))


def _newton(lp: ValidatedLP, log_s, mu: float, y0, shift, laplacian) -> PathPoint:
    """``solve_point``'s Newton loop for the right-hand side b + shift, from the anchor's log.

    The shift moves the constraint to A x = b + shift, which adds
    y . shift to g and shift to its gradient; the Laplacian, the line
    search and the tolerance (set by b) do not depend on it. laplacian is
    a bound ``laplacian_solver(lp)``; ``flow_points`` shares one across
    its samples.

    At m <= 3 numpy's call overhead sets the cost of each iteration, so
    here and in the dual evaluation the maxima are np.maximum.reduce calls
    (ndarray.max() reaches the same reduction through numpy's Python-level
    wrapper, about 0.3 us more a call at n = 3) and the products use
    ndarray.dot (the BLAS call @ makes, without matmul's dispatch). Both
    give the same bits.
    """
    maxr, absolute = np.maximum.reduce, np.absolute
    y = np.zeros(lp.m) if y0 is None else np.asarray(y0, dtype=float).copy()
    if y.shape != (lp.m,):
        raise DimensionMismatchError(f"y0 has shape {y.shape}, expected ({lp.m},)")

    def evaluate_dual(y):
        value, grad, x = dual_value_and_derivatives(lp, log_s, mu, y)
        return value + float(y.dot(shift)), grad + shift, x

    tol = 1e-10 * (float(maxr(absolute(lp.b))) + 1.0)
    value, grad, x = evaluate_dual(y)
    for it in range(MAX_NEWTON_ITERS):
        if float(maxr(absolute(grad))) <= tol:
            return PathPoint(mu=float(mu), y=y, x=x, dual_value=value, newton_iters=it)
        d = laplacian(x / lp.c, grad)
        slope = float(grad.dot(d))
        # g is computed as y.b - c.x, so its increments are only trustworthy
        # above the cancellation noise of those two dot products; without
        # this allowance the endgame rejects exact Newton steps forever.
        noise = 1e-13 * (abs(float(y.dot(lp.b))) + abs(float(lp.c.dot(x))) + 1.0)
        t = 1.0
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            try:
                cand = evaluate_dual(y + t * d)
            except DualOverflowError:
                t *= 0.5
                continue
            if cand[0] >= value + ARMIJO_SLOPE * t * slope - noise:
                accepted = cand
                break
            t *= 0.5
        if accepted is None:
            raise NewtonStalledError(
                f"line search exhausted {MAX_BACKTRACKS} halvings at mu={mu}"
            )
        y = y + t * d
        value, grad, x = accepted
    raise NewtonStalledError(f"no convergence in {MAX_NEWTON_ITERS} Newton steps at mu={mu}")


def follow_path(lp: ValidatedLP, s, mus) -> list[PathPoint]:
    """Solve x(mu) along a nondecreasing grid, each Newton solve from a predicted y.

    The prediction is the tangent after one solved point and the Lagrange
    extrapolation through the last three (or two) of distinct mu after
    that. A repeated mu starts from, and so reproduces, the point before
    it. A prediction whose dual overflows is retried from the previous y.
    """
    return _sweep(lp, mus, lambda mu, y0: solve_point(lp, s, mu, y0=y0))


def flow_points(lp: ValidatedLP, x0, ts) -> list[PathPoint]:
    """The flow from a positive x0, feasible or not, at the times ts, by ``follow_path``'s sweep.

    x(t) = e^{-t} x0 exp(A^T Y(t)/c) with Y' = p, and A x(t) = b_t with
    b_t = b + e^{-t} (A x0 - b). So x(t) is the path point with anchor x0
    and mu = t for the right-hand side b_t, and Y(t) its dual point.
    Differentiating A x(t) = b_t gives (A W A^T) Y' = b again, so the
    tangent predictor is unchanged. x0 must have passed check_point; where
    A x0 == b exactly the points are follow_path's, bit for bit.
    """
    offset = lp.A @ x0 - lp.b
    log_x0 = np.log(x0)
    laplacian = laplacian_solver(lp)
    return _sweep(lp, ts, lambda t, y0: _newton(lp, log_x0, t, y0, math.exp(-t) * offset, laplacian))


def _sweep(lp: ValidatedLP, mus, solve) -> list[PathPoint]:
    """Call solve(mu, y0) along the grid with follow_path's predicted starts."""
    mus = [float(m) for m in mus]
    if not mus:
        return []
    if not (mus[0] >= 0.0 and mus[-1] < math.inf and all(a <= b for a, b in zip(mus, mus[1:]))):
        raise ValidationError("the mu grid must be finite, nonnegative and nondecreasing")
    points = [solve(mus[0], None)]
    nodes = points[:]  # the solved points of distinct mu, in order
    for mu in mus[1:]:
        last = nodes[-1]
        if mu == last.mu:
            y0 = last.y
        elif len(nodes) == 1:
            # y'(mu) = p(x(mu)), the Physarum potentials at the path point.
            y0 = last.y + (mu - last.mu) * laplacian_solve(lp, last.x / lp.c, lp.b)
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
        except DualOverflowError:
            point = solve(mu, last.y)
        points.append(point)
        if mu > last.mu:
            nodes.append(point)
    return points
