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
mu is read as time. ``solve_point`` forms that Laplacian once per Newton
step, at the iterate it steps from; line-search trial points need only
the value and the gradient.

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
from .linalg import spd_factor, spd_solve  # noqa: F401
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


def dual_value_and_derivatives(lp: ValidatedLP, s, mu: float, y):
    """Evaluate g, its gradient and the primal point x(y) at a dual point y.

    The Hessian -A W A^T is not formed here: ``solve_point`` builds A W A^T
    from x at each iterate it steps from.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    expo = np.log(s) + (lp.At @ y) / lp.c - mu
    if expo.max() > EXP_CAP:
        raise DualOverflowError(
            f"dual exponent reached {expo.max():.1f}; the path point does not exist "
            "or the Newton iterate wandered off"
        )
    x = np.exp(expo)
    value = float(y @ lp.b - lp.c @ x)
    grad = lp.b - lp.A @ x
    return value, grad, x


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
    y = np.zeros(lp.m) if y0 is None else np.asarray(y0, dtype=float).copy()
    if y.shape != (lp.m,):
        raise DimensionMismatchError(f"y0 has shape {y.shape}, expected ({lp.m},)")

    tol = 1e-10 * (float(np.abs(lp.b).max()) + 1.0)
    value, grad, x = dual_value_and_derivatives(lp, s, mu, y)
    for it in range(MAX_NEWTON_ITERS):
        if float(np.abs(grad).max()) <= tol:
            return PathPoint(mu=float(mu), y=y, x=x, dual_value=value, newton_iters=it)
        d = spd_solve((lp.A * (x / lp.c)).dot(lp.At), grad)
        slope = float(grad @ d)
        # g is computed as y.b - c.x, so its increments are only trustworthy
        # above the cancellation noise of those two dot products; without
        # this allowance the endgame rejects exact Newton steps forever.
        noise = 1e-13 * (abs(float(y @ lp.b)) + abs(float(lp.c @ x)) + 1.0)
        t = 1.0
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            try:
                cand = dual_value_and_derivatives(lp, s, mu, y + t * d)
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
    mus = [float(m) for m in mus]
    if not mus:
        return []
    if not (mus[0] >= 0.0 and mus[-1] < math.inf and all(a <= b for a, b in zip(mus, mus[1:]))):
        raise ValidationError("the mu grid must be finite, nonnegative and nondecreasing")
    points = [solve_point(lp, s, mus[0])]
    nodes = points[:]  # the solved points of distinct mu, in order
    for mu in mus[1:]:
        last = nodes[-1]
        if mu == last.mu:
            y0 = last.y
        elif len(nodes) == 1:
            # y'(mu) = p(x(mu)), the Physarum potentials at the path point.
            y0 = last.y + (mu - last.mu) * spd_solve((lp.A * (last.x / lp.c)).dot(lp.At), lp.b)
        else:
            y0 = 0.0
            for j in nodes[-3:]:
                weight = 1.0
                for k in nodes[-3:]:
                    if k is not j:
                        weight *= (mu - k.mu) / (j.mu - k.mu)
                y0 = y0 + weight * j.y
        try:
            point = solve_point(lp, s, mu, y0=y0)
        except DualOverflowError:
            point = solve_point(lp, s, mu, y0=last.y)
        points.append(point)
        if mu > last.mu:
            nodes.append(point)
    return points
