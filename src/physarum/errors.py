"""Exception taxonomy for the physarum package.

Each failure has one class, grouped so the command line tool can map it
onto a stable exit code: problem files that cannot be read or parsed (2),
ValidationError (3) and the remaining PhysarumErrors (4), which are
numerical failures and size limits. A ValidationError is bad problem
data, a bad argument, a bad caller-supplied point, or a trace that
certify_trace cannot check (MissingVerifyDataError). ValidationError is
also a ValueError, so callers that catch ValueError for a bad argument
keep working. model.check_point checks a caller's state, start or anchor
(DimensionMismatchError, NonPositiveStateError, InfeasibleStartError),
model._finite_numbers exact_cost's x and dual_lower_bound's y, and
gradient_identity_residual and certify_trace their own h and x_star.
"""

from __future__ import annotations


class PhysarumError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PhysarumError, ValueError):
    """The problem data or a call argument violates a documented precondition."""


class RankDeficientError(ValidationError):
    pass


class NonPositiveCostError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class NonPositiveStateError(ValidationError):
    pass


class NotInKernelError(ValidationError):
    pass


class BadEpsError(ValidationError):
    pass


class BadStepError(ValidationError):
    pass


class InfeasibleStartError(ValidationError):
    pass


class MissingVerifyDataError(ValidationError):
    """certify_trace got a trace not recorded at every step, or with gaps."""


class NumericalError(PhysarumError):
    """A computation failed for numerical reasons at runtime."""


class NotPositiveDefiniteError(NumericalError):
    pass


class PositivityLostError(NumericalError):
    pass


class FeasibilityLostError(NumericalError):
    pass


class StepSizeUnderflowError(NumericalError):
    pass


class NewtonStalledError(NumericalError):
    pass


class DualOverflowError(NumericalError):
    """A dual exponent exceeded the safe range; the caller must damp its step."""


class NoInteriorPointError(NumericalError):
    pass


class LimitError(PhysarumError):
    """The instance exceeds a documented size cap for an exact routine."""


class TooLargeError(LimitError):
    pass


class ProblemFileError(PhysarumError):
    """Base class for problem-file reading failures."""


class ProblemIOError(ProblemFileError):
    pass


class MalformedProblemError(ProblemFileError):
    pass
