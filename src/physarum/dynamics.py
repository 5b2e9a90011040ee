"""Core slime-mold network dynamics for a standard-form LP.

State is a positive vector x. Each coordinate behaves like a tube whose
conductance is w_i = x_i / c_i. Node potentials p solve the weighted
Laplacian system

    (A W A^T) p = b,       W = diag(x / c),

and the flux induced by those potentials is q = W A^T p. The dynamics move
the state toward its own flux:

    dx/dt = q - x.

This module evaluates all derived quantities at a point with one Laplacian
solve and checks the worst-case bounds that the derived parameters promise.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._record import record
from .errors import DimensionMismatchError, NotInKernelError, ValidationError
# spd_factor is not called here, but bench/spans.py records spans by
# rebinding dynamics.spd_factor, so the name stays bound.
from .linalg import laplacian_solver, spd_factor  # noqa: F401
from .model import Params, ValidatedLP, check_point

BOUND_RTOL = 1e-8


@record
class DynamicsEval:
    """Everything the dynamics know at one state.

    x           state (positive)
    weights     w = x / c
    potentials  p, solution of (A W A^T) p = b
    edge_potentials  A^T p, one entry per coordinate
    flux        q = W A^T p; satisfies A q = b identically
    direction   q - x, the instantaneous motion
    energy      b . p, also equal to the quadratic form q . (q / w)
    cost        c . x
    energy_flux quadratic-form recomputation of the energy

    edge_potential_inf and energy_flux are computed on first read.
    """

    x: np.ndarray
    weights: np.ndarray
    potentials: np.ndarray
    edge_potentials: np.ndarray
    flux: np.ndarray
    direction: np.ndarray
    energy: float
    cost: float

    @cached_property
    def edge_potential_inf(self) -> float:
        return float(np.abs(self.edge_potentials).max())

    @cached_property
    def energy_flux(self) -> float:
        return float(self.flux @ (self.flux / self.weights))


def evaluate(lp: ValidatedLP, x) -> DynamicsEval:
    """Evaluate the dynamics at a positive state (feasibility not required).

    The state is copied, so the frozen result never shares the caller's array.
    """
    x = check_point(lp, x, "state").copy()
    w = x / lp.c
    p = laplacian_solver(lp)(w, lp.b)
    edge = lp.At.dot(p)
    q = w * edge
    return DynamicsEval(
        x=x,
        weights=w,
        potentials=p,
        edge_potentials=edge,
        flux=q,
        direction=q - x,
        energy=float(lp.b.dot(p)),
        cost=float(lp.c.dot(x)),
    )


def gradient_identity_residual(lp: ValidatedLP, ev: DynamicsEval, h) -> float:
    """Residual of the metric-gradient identity along a kernel direction.

    In the metric H(x) = diag(c / x) the gradient of the cost restricted to
    the affine space {A x = b} is x - q, so for any h with A h = 0

        c . h  =  h . H(x) (x - q)

    holds exactly. Returns the absolute difference between the two sides.
    Raises ValidationError when h has an entry that is not finite (the
    kernel test below cannot see a NaN), and NotInKernelError when h is
    not (numerically) in the kernel of A.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (lp.n,):
        raise DimensionMismatchError(f"direction has shape {h.shape}, expected ({lp.n},)")
    if not np.isfinite(h).all():
        raise ValidationError(f"direction must be finite, got {h.tolist()!r}")
    a_norm = float(np.abs(lp.A).sum(axis=1).max())
    h_norm = float(np.abs(h).max())
    if float(np.abs(lp.A @ h).max()) > 1e-10 * a_norm * h_norm:
        raise NotInKernelError("direction is not in the kernel of A")
    metric_grad = (lp.c / ev.x) * (ev.x - ev.flux)
    return float(abs(lp.c @ h - h @ metric_grad))


@record
class BoundReport:
    """Measured values versus the worst-case bounds from the parameters."""

    flux_inf: float
    flux_bound: float
    flux_ok: bool
    edge_potential_inf: float
    edge_potential_bound: float
    edge_potential_ok: bool


def check_bounds(lp: ValidatedLP, ev: DynamicsEval, params: Params) -> BoundReport:
    """Check the flux bound and the potential bound at a feasible state.

    The potential bound holds only where A x = b, so check_point rejects an
    infeasible state (InfeasibleStartError) before either bound is reported.
    """
    check_point(lp, ev.x, "state", feasible=True)
    flux_inf = float(np.abs(ev.flux).max())
    pot_bound = params.subdet_max * params.cost_sum
    return BoundReport(
        flux_inf=flux_inf,
        flux_bound=params.flux_bound,
        flux_ok=flux_inf <= params.flux_bound * (1.0 + BOUND_RTOL),
        edge_potential_inf=ev.edge_potential_inf,
        edge_potential_bound=pot_bound,
        edge_potential_ok=ev.edge_potential_inf <= pot_bound * (1.0 + BOUND_RTOL),
    )
