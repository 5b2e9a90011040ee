"""Exception taxonomy for the physarum package.

Each failure has one class, grouped so the command line tool can map it
onto a stable exit code: problem files that cannot be read or parsed (2),
bad problem data, bad arguments and bad caller-supplied points
(ValidationError, 3), and numerical failures, size limits and the
remaining PhysarumErrors (4). ValidationError is also a ValueError, so
callers that catch ValueError for a bad argument keep working. Every
caller-supplied point is checked by model.check_point, which raises
DimensionMismatchError, NonPositiveStateError or InfeasibleStartError
whichever engine receives it.
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


class InsufficientTraceError(PhysarumError):
    pass


class MissingVerifyDataError(PhysarumError):
    pass


class ProblemFileError(PhysarumError):
    """Base class for problem-file reading failures."""


class ProblemIOError(ProblemFileError):
    pass


class MalformedProblemError(ProblemFileError):
    pass
