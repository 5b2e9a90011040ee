"""Slime-mold inspired dynamics for linear programs in standard form.

The package solves min c.x subject to A x = b, x >= 0 (integer data,
costs at least one, full row rank) by simulating the network flow
dynamics x' = q - x, where q is the weighted least-squares flow meeting
the demands b through conductances x/c. Three interchangeable engines
expose the same trajectory: a damped discrete iteration with a provable
per-step progress certificate, a high-accuracy ODE integration, and an
entropy-regularized path solved point-wise by Newton's method. An exact
rational vertex enumerator serves as the ground-truth oracle for all of
them.
"""

from .continuous_flow import ConvergenceReport, FlowConfig, FlowTrace, integrate, rate_report, rhs_log
from .discrete_solver import (
    CertReport,
    DiscreteConfig,
    Solution,
    Trace,
    certified_step_search,
    certify_trace,
    default_step,
    iteration_bound,
    solve,
)
from .dynamics import BoundReport, DynamicsEval, check_bounds, evaluate, gradient_identity_residual
from .entropy_path import PathPoint, follow_path, solve_point
from .errors import (
    LimitError,
    NumericalError,
    PhysarumError,
    ProblemFileError,
    ValidationError,
)
from .model import LinearProgram, Params, ValidatedLP, compute_params, default_params, validate
from .oracle import OracleResult, enumerate_polyhedron, interior_point, max_subdeterminant, sample_feasible

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertReport",
    "ConvergenceReport",
    "DiscreteConfig",
    "DynamicsEval",
    "FlowConfig",
    "FlowTrace",
    "LimitError",
    "LinearProgram",
    "NumericalError",
    "OracleResult",
    "Params",
    "PathPoint",
    "PhysarumError",
    "ProblemFileError",
    "Solution",
    "Trace",
    "ValidatedLP",
    "ValidationError",
    "certified_step_search",
    "certify_trace",
    "check_bounds",
    "compute_params",
    "default_params",
    "default_step",
    "enumerate_polyhedron",
    "evaluate",
    "follow_path",
    "gradient_identity_residual",
    "integrate",
    "interior_point",
    "iteration_bound",
    "max_subdeterminant",
    "rate_report",
    "rhs_log",
    "sample_feasible",
    "solve",
    "solve_point",
    "validate",
    "__version__",
]
