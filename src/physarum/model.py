"""Problem representation, validation, and derived worst-case parameters.

A problem is the standard form

    minimize    c . x
    subject to  A x = b,  x >= 0

with integer data, strictly positive costs, and A of full row rank. The
derived parameters collected in :class:`Params` bound how hard the dynamics
can kick: the subdeterminant maximum controls potentials and fluxes, and
from it come the safe step size and the a-priori bound on any flux vector.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _exact
from .errors import (
    DimensionMismatchError,
    InfeasibleStartError,
    NonPositiveCostError,
    NonPositiveStateError,
    RankDeficientError,
    TooLargeError,
    ValidationError,
)

# Exact subdeterminant enumeration is exponential; beyond this column count
# callers must settle for the closed-form bound.
EXACT_SUBDET_CAP = 14


@dataclass(frozen=True)
class LinearProgram:
    """Raw instance data, as parsed: integer A (m x n), b (m), c (n)."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str = ""

    @classmethod
    def from_lists(cls, A, b, c, name: str = "") -> "LinearProgram":
        """Build an instance from nested lists; a boolean or string entry raises DimensionMismatchError."""
        _reject_non_numbers(A, b, c)
        return cls(np.asarray(A), np.asarray(b), np.asarray(c), name)


def _holds_non_number(value) -> bool:
    """Whether value is, or is a (nested) list, tuple or array that holds, a boolean or a string.

    np.asarray reads True as 1 and, with dtype=float, parses "0.5" as 0.5,
    so these entries are caught before any conversion.
    """
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "bSU" or (
            value.dtype == object and any(map(_holds_non_number, value.flat))
        )
    return isinstance(value, (bool, np.bool_, str, bytes)) or (
        isinstance(value, (list, tuple)) and any(map(_holds_non_number, value))
    )


def _reject_non_numbers(A, b, c) -> None:
    for name, value in (("A", A), ("b", b), ("c", c)):
        if _holds_non_number(value):
            raise DimensionMismatchError(f"{name} must contain integers")


@dataclass(frozen=True)
class ValidatedLP:
    """An instance that passed :func:`validate`. Downstream code expects this.

    Integer arrays are canonical; float views are cached for numerics.
    """

    A_int: np.ndarray
    b_int: np.ndarray
    c_int: np.ndarray
    name: str = ""

    @property
    def m(self) -> int:
        return self.A_int.shape[0]

    @property
    def n(self) -> int:
        return self.A_int.shape[1]

    @cached_property
    def A(self) -> np.ndarray:
        return np.ascontiguousarray(self.A_int, dtype=float)

    @cached_property
    def At(self) -> np.ndarray:
        return np.ascontiguousarray(self.A.T)

    @cached_property
    def b(self) -> np.ndarray:
        return self.b_int.astype(float)

    @cached_property
    def c(self) -> np.ndarray:
        return self.c_int.astype(float)


@dataclass(frozen=True)
class Params:
    """Worst-case parameters derived from the instance data.

    cost_sum
        Sum of all cost coefficients.
    subdet_max
        Maximum absolute determinant over square submatrices of A; exact
        integer when ``subdet_exact`` is True, otherwise an upper bound.
    potential_ratio_bound
        Bound on |a_i.p / c_i - 1| over the feasible region,
        ``cost_sum * subdet_max + 1``.
    flux_bound
        Bound on any flux vector's max-norm, ``subdet_max**2 * n * |b|_1``.
    """

    cost_sum: int
    subdet_max: float
    subdet_exact: bool
    potential_ratio_bound: float
    flux_bound: float

    @property
    def positivity_step_cap(self) -> float:
        """The largest step 1/(2P) that keeps every iterate positive."""
        return 0.5 / self.potential_ratio_bound


def validate(lp: LinearProgram) -> ValidatedLP:
    """Check shapes, integrality, positivity of costs, and full row rank.

    Entries must be integers or integral floats in the int64 range. The
    rank is proved exactly by ``_exact.rank_int``: an elimination modulo a
    prime in numpy int64 arithmetic accepts a full-rank A from
    ``_exact.MODULAR_MIN_DIM`` rows on, and Bareiss on Python ints decides
    small or rank-deficient matrices. Booleans and strings are not integers here.
    """
    _reject_non_numbers(lp.A, lp.b, lp.c)
    A = np.asarray(lp.A)
    b = np.asarray(lp.b)
    c = np.asarray(lp.c)
    if A.ndim != 2:
        raise DimensionMismatchError(f"A must be a 2-d array, got ndim={A.ndim}")
    m, n = A.shape
    if m == 0 or n == 0:
        raise DimensionMismatchError("A must have at least one row and one column")
    if b.shape != (m,):
        raise DimensionMismatchError(f"b has shape {b.shape}, expected ({m},)")
    if c.shape != (n,):
        raise DimensionMismatchError(f"c has shape {c.shape}, expected ({n},)")
    if m > n:
        raise RankDeficientError(f"more rows than columns ({m} > {n}); rows cannot be independent")
    for name, arr in (("A", A), ("b", b), ("c", c)):
        if np.issubdtype(arr.dtype, np.integer):
            # Unsigned values from 2**63 up would wrap in the int64 cast.
            ok = arr.dtype.kind == "i" or int(arr.max()) < 2**63
        else:
            # The range test also rules out NaN and inf, and keeps the int64 cast exact.
            ok = (np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr))
                  and np.all((arr >= -(2.0**63)) & (arr < 2.0**63)))
        if not ok:
            raise DimensionMismatchError(f"{name} must contain integers")
    A_int = A.astype(np.int64)
    b_int = b.astype(np.int64)
    c_int = c.astype(np.int64)
    if np.any(c_int < 1):
        raise NonPositiveCostError(f"all costs must be >= 1, got min {c_int.min()}")
    if _exact.rank_int(A_int.tolist()) != m:
        raise RankDeficientError("A does not have full row rank")
    return ValidatedLP(A_int=A_int, b_int=b_int, c_int=c_int, name=lp.name)


def check_point(lp: ValidatedLP, x, what: str, feasible: bool = False) -> np.ndarray:
    """Return a caller-supplied point as a float vector, or raise its one error.

    DimensionMismatchError when an entry is a boolean, a string or not a
    number or the shape is not (n,), NonPositiveStateError when an entry is not
    strictly positive and finite, and, only when ``feasible`` is set,
    InfeasibleStartError when |A x - b|_inf exceeds 1e-8 (|b|_inf + 1).
    ``what`` names the point in the message.
    """
    # Booleans and numeric strings are caught before the conversion would
    # read them as 1.0, 0.0 or the number they spell.
    if _holds_non_number(x):
        raise DimensionMismatchError(f"{what} must contain numbers")
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{what} must contain numbers") from exc
    if x.shape != (lp.n,):
        raise DimensionMismatchError(f"{what} has shape {x.shape}, expected ({lp.n},)")
    # Every path point re-checks its anchor, so positivity and finiteness
    # take one reduction each way: np.minimum and np.maximum propagate a
    # NaN, which then fails both comparisons (fmin and fmax would skip it).
    # ndarray.dot and the ufunc reductions give the bits of @ and
    # ndarray.max() with less call overhead.
    if not (np.minimum.reduce(x) > 0.0 and np.maximum.reduce(x) < math.inf):
        raise NonPositiveStateError(f"{what} must be strictly positive and finite")
    if feasible:
        maxr, absolute = np.maximum.reduce, np.absolute
        resid = float(maxr(absolute(lp.A.dot(x) - lp.b)))
        if resid > 1e-8 * (float(maxr(absolute(lp.b))) + 1.0):
            raise InfeasibleStartError(f"{what} violates A x = b (residual {resid:.3e})")
    return x


def dual_lower_bound(lp: ValidatedLP, y) -> Fraction | None:
    """The exact weak-duality bound b . y / r <= opt, r = max_i a_i . y / c_i; None when r <= 0.

    y / r satisfies a_i . (y / r) <= c_i for every column a_i of A, so for
    any feasible x >= 0, b . (y / r) = sum_i x_i a_i . (y / r) <= c . x.
    Each float of y is read as the dyadic rational it is, scaled to
    integers over one power of two that cancels between b . y and r, and
    every sum and comparison is made in Python ints over A_int, b_int and
    c_int: no rounding enters the bound or the test r <= 0, and no int64
    product can overflow. y must hold m finite numbers, else
    DimensionMismatchError or ValidationError.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (lp.m,):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({lp.m},)")
    if not np.all(np.isfinite(y)):
        raise ValidationError(f"y must be finite, got {y.tolist()!r}")
    ratios = [v.as_integer_ratio() for v in y.tolist()]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    Y = [num * (den // d) for num, d in ratios]
    # a_i . Y / c_i for every column i, compared as exact rationals.
    r = max(Fraction(sum(map(operator.mul, col, Y)), ci)
            for col, ci in zip(lp.A_int.T.tolist(), lp.c_int.tolist()))
    if r <= 0:
        return None
    return sum(map(operator.mul, lp.b_int.tolist(), Y)) / r


def subdet_upper_bound(A_int: np.ndarray) -> float:
    """Closed-form bound on the subdeterminant maximum.

    For a k x k submatrix every row has 2-norm at most sqrt(k) * max|A_ij|,
    so the determinant is at most (sqrt(k) * max|A_ij|)**k. An integer
    max|A_ij| is at least 1, so the bound grows with k and k = min(m, n)
    bounds every size. Always at least the exact value and cheap at any
    size; math.inf when it exceeds the float range.
    """
    a = int(np.abs(A_int).max())
    if a == 0:
        return 0.0
    k = min(A_int.shape)
    try:
        return (math.sqrt(k) * a) ** k
    except OverflowError:
        return math.inf


def max_subdeterminant(A_int: np.ndarray, mode: str = "exact") -> float:
    """Maximum absolute subdeterminant of an integer matrix, exact or bounded.

    ``mode="exact"`` enumerates all square submatrices (only permitted for
    n <= EXACT_SUBDET_CAP); ``mode="bound"`` uses the closed form.
    """
    A_int = np.asarray(A_int)
    if mode == "bound":
        return subdet_upper_bound(A_int)
    if mode != "exact":
        raise ValidationError(f"mode must be 'exact' or 'bound', got {mode!r}")
    if A_int.shape[1] > EXACT_SUBDET_CAP:
        raise TooLargeError(f"exact enumeration capped at n <= {EXACT_SUBDET_CAP}, got n={A_int.shape[1]}")
    return float(_exact.max_abs_subdeterminant(A_int.tolist()))


def compute_params(lp: ValidatedLP, mode: str = "exact") -> Params:
    """Derive the worst-case parameters, with exact or bounded subdeterminants (see max_subdeterminant)."""
    d = float(max_subdeterminant(lp.A_int, mode))
    cost_sum = int(lp.c_int.sum())
    return Params(
        cost_sum=cost_sum,
        subdet_max=d,
        subdet_exact=mode == "exact",
        potential_ratio_bound=cost_sum * d + 1.0,
        flux_bound=d * d * lp.n * float(np.abs(lp.b_int).sum()),
    )


def default_params(lp: ValidatedLP) -> Params:
    """Exact parameters when the instance is small enough, else the bound."""
    mode = "exact" if lp.n <= EXACT_SUBDET_CAP else "bound"
    return compute_params(lp, mode)
