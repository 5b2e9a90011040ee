"""Slime-mold inspired dynamics for linear programs in standard form.

The package solves min c.x subject to A x = b, x >= 0 (integer data,
costs at least one, full row rank) by simulating the network flow
dynamics x' = q - x, where q is the weighted least-squares flow meeting
the demands b through conductances x/c. Three interchangeable engines
expose the same trajectory: a damped discrete iteration with a provable
per-step progress certificate, the continuous flow sampled on a time
grid, and an entropy-regularized path solved point-wise by Newton's
method; by the paper's theorem the flow is such a path, so its samples
are Newton solves too. An exact rational vertex enumerator serves as the
ground-truth oracle for all of them.

Importing the package loads the problem model, the exact kernels, the
errors and the frozen-record helper only, and neither numpy nor
dataclasses: the model and the exact layer run on Python ints, and the
result and config classes are ``_record`` records, with a frozen
dataclass's fields, repr, equality and hash (``_record.replace`` builds a
changed copy). Each engine, the dynamics evaluation and the oracle load
on first access to one of their names here, or on an import of their
module; the oracle still runs without numpy.
"""

import importlib

from .errors import (
    LimitError,
    NumericalError,
    PhysarumError,
    ProblemFileError,
    ValidationError,
)
from .model import (
    LinearProgram,
    Params,
    ValidatedLP,
    compute_params,
    default_params,
    default_step,
    max_subdeterminant,
    validate,
)

# The defining module of each name that __getattr__ (PEP 562) resolves on
# first access; a process that never runs an engine never imports it.
_LAZY = {
    **dict.fromkeys(("FlowConfig", "FlowTrace", "integrate", "rhs_log"), "continuous_flow"),
    **dict.fromkeys(("CertReport", "DiscreteConfig", "Solution", "Trace", "certified_step_search",
                     "certify_trace", "iteration_bound", "solve"), "discrete_solver"),
    **dict.fromkeys(("BoundReport", "DynamicsEval", "check_bounds", "evaluate", "gradient_identity_residual"),
                    "dynamics"),
    **dict.fromkeys(("PathPoint", "follow_path", "solve_point"), "entropy_path"),
    **dict.fromkeys(("OracleResult", "enumerate_polyhedron", "interior_point", "sample_feasible"), "oracle"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertReport",
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
    "rhs_log",
    "sample_feasible",
    "solve",
    "solve_point",
    "validate",
    "__version__",
]
