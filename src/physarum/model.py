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
import sys
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

from . import _exact
from ._record import record
from .errors import (
    BadEpsError,
    DimensionMismatchError,
    InfeasibleStartError,
    NonPositiveCostError,
    NonPositiveStateError,
    RankDeficientError,
    TooLargeError,
    ValidationError,
)

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

# Exact subdeterminant enumeration is exponential; beyond this column count
# callers must settle for the closed-form bound.
EXACT_SUBDET_CAP = 14

# The default column cap of the exact vertex enumeration (oracle --cap).
ENUMERATION_CAP = 16

# Integer data must lie in the int64 range, numpy's default integer dtype.
INT64_MIN, INT64_END = -(2**63), 2**63


@record
class LinearProgram:
    """Raw instance data, as given: integer A (m x n), b (m), c (n) as nested lists or arrays."""

    A: object
    b: object
    c: object
    name: str = ""

    @classmethod
    def from_lists(cls, A, b, c, name: str = "") -> "LinearProgram":
        """Build an instance from nested lists, kept as given.

        A boolean or string entry raises DimensionMismatchError.
        """
        _reject_non_numbers(A, b, c)
        return cls(A, b, c, name)


def _holds_non_number(value) -> bool:
    """Whether value is, or is a (nested) list, tuple or array that holds, a boolean or a string.

    np.asarray reads True as 1 and, with dtype=float, parses "0.5" as 0.5,
    so these entries are caught before any conversion.
    """
    np = sys.modules.get("numpy")  # an array or a numpy scalar exists only once numpy is loaded
    non_numbers = (bool, str, bytes) if np is None else (bool, np.bool_, str, bytes)
    pending = [value]
    while pending:
        v = pending.pop()
        if np is not None and isinstance(v, np.ndarray):
            if v.dtype.kind in "bSU":
                return True
            if v.dtype == object:
                pending.extend(v.flat)
        elif isinstance(v, non_numbers):
            return True
        elif isinstance(v, (list, tuple)):
            pending.extend(v)
    return False


def _reject_non_numbers(A, b, c) -> None:
    for name, value in (("A", A), ("b", b), ("c", c)):
        if _holds_non_number(value):
            raise DimensionMismatchError(f"{name} must contain integers")


def _plain(value):
    """value.tolist() for an array or a numpy scalar, else value itself."""
    tolist = getattr(value, "tolist", None)
    return value if tolist is None else tolist()


def _read(value) -> tuple[tuple[int, ...], list | None]:
    """The shape np.asarray gives value, and its entries in row-major order as Python values.

    An array gives its own shape, and its entries only when its dtype is
    an integer or a float one (None otherwise, as numpy holds no number
    there). Lists and tuples nest, arrays and numpy scalars in them read
    as their tolist(), and anything else is one entry. A nesting whose
    lengths or depths differ raises DimensionMismatchError, a ValueError,
    with the message of the ValueError np.asarray raises.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        return value.shape, value.ravel().tolist() if value.dtype.kind in "iuf" else None
    shape, level = [], [_plain(value)]
    while True:
        nested = [isinstance(v, (list, tuple)) for v in level]
        if not any(nested):
            return tuple(shape), level
        lengths = set(map(len, level)) if all(nested) else ()
        if len(lengths) != 1:
            raise DimensionMismatchError(
                "setting an array element with a sequence. The requested array has an inhomogeneous "
                f"shape after {len(shape)} dimensions. The detected shape was {tuple(shape)} + inhomogeneous part.")
        shape.append(lengths.pop())
        level = [_plain(v) for v in chain.from_iterable(level)]


def _integers(name: str, value, entries: list | None) -> list[int]:
    """value's entries (from _read) as Python ints.

    DimensionMismatchError unless each is an integer or integral float in
    the int64 range. An array of a signed integer dtype holds nothing
    else, so its entries are returned unchecked.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray) and value.dtype.kind == "i":
        return entries
    if entries is not None:
        out = []
        for v in entries:
            if isinstance(v, float) and v.is_integer():
                v = int(v)
            elif not isinstance(v, int):
                break
            if not INT64_MIN <= v < INT64_END:
                break
            out.append(v)
        else:
            return out
    raise DimensionMismatchError(f"{name} must contain integers")


@record
class ValidatedLP:
    """An instance that passed :func:`validate`. Downstream code expects this.

    ``A_exact`` (rows), ``b_exact`` and ``c_exact`` hold the data as
    tuples of Python ints, which no sum or product overflows; the exact
    layer reads only these. The float arrays ``A``, ``At``, ``b``, ``c``
    for the numerics are built from them on first access; each int rounds
    to the nearest float, as an int64 array's conversion would round it.
    """

    A_exact: tuple[tuple[int, ...], ...]
    b_exact: tuple[int, ...]
    c_exact: tuple[int, ...]
    name: str = ""

    @property
    def m(self) -> int:
        return len(self.A_exact)

    @property
    def n(self) -> int:
        return len(self.A_exact[0])

    @cached_property
    def A(self) -> np.ndarray:
        return _float_array(self.A_exact)

    @cached_property
    def At(self) -> np.ndarray:
        return self.A.T.copy()

    @cached_property
    def b(self) -> np.ndarray:
        return _float_array(self.b_exact)

    @cached_property
    def c(self) -> np.ndarray:
        return _float_array(self.c_exact)


def _float_array(data) -> np.ndarray:
    import numpy as np

    return np.array(data, dtype=float)


@record
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


def default_step(params: Params, eps: float) -> float:
    """The certified step size eps / (6 P^2); 0.0 when P^2 exceeds the float range."""
    if not (0.0 < eps < 0.5):
        raise BadEpsError(f"eps must lie in (0, 1/2), got {eps}")
    try:
        return eps / (6.0 * params.potential_ratio_bound**2)
    except OverflowError:
        return 0.0


def validate(lp: LinearProgram) -> ValidatedLP:
    """Check shapes, integrality, positivity of costs, and full row rank.

    A, b and c may be nested lists or arrays. Entries must be integers or
    integral floats in the int64 range; booleans and strings are not
    integers here. The checks, their order and their messages are those
    of reading each through np.asarray, without numpy. The rank is proved
    exactly by ``_exact.rank_int``: an elimination modulo a prime in
    numpy int64 arithmetic accepts a full-rank A from
    ``_exact.MODULAR_MIN_DIM`` rows on, and Bareiss on Python ints decides
    small or rank-deficient matrices.
    """
    _reject_non_numbers(lp.A, lp.b, lp.c)
    (a_shape, A), (b_shape, b), (c_shape, c) = map(_read, (lp.A, lp.b, lp.c))
    if len(a_shape) != 2:
        raise DimensionMismatchError(f"A must be a 2-d array, got ndim={len(a_shape)}")
    m, n = a_shape
    if m == 0 or n == 0:
        raise DimensionMismatchError("A must have at least one row and one column")
    if b_shape != (m,):
        raise DimensionMismatchError(f"b has shape {b_shape}, expected ({m},)")
    if c_shape != (n,):
        raise DimensionMismatchError(f"c has shape {c_shape}, expected ({n},)")
    if m > n:
        raise RankDeficientError(f"more rows than columns ({m} > {n}); rows cannot be independent")
    A, b, c = _integers("A", lp.A, A), _integers("b", lp.b, b), _integers("c", lp.c, c)
    if min(c) < 1:
        raise NonPositiveCostError(f"all costs must be >= 1, got min {min(c)}")
    rows = tuple(tuple(A[i:i + n]) for i in range(0, m * n, n))
    if _exact.rank_int(rows) != m:
        raise RankDeficientError("A does not have full row rank")
    return ValidatedLP(A_exact=rows, b_exact=tuple(b), c_exact=tuple(c), name=lp.name)


def _float_vector(x, what: str, length: int) -> np.ndarray:
    """x as a float vector of `length` entries, else DimensionMismatchError naming it ``what``."""
    # Booleans and numeric strings are caught before the conversion would
    # read them as 1.0, 0.0 or the number they spell.
    if _holds_non_number(x):
        raise DimensionMismatchError(f"{what} must contain numbers")
    import numpy as np

    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{what} must contain numbers") from exc
    if x.shape != (length,):
        raise DimensionMismatchError(f"{what} has shape {x.shape}, expected ({length},)")
    return x


def check_point(lp: ValidatedLP, x, what: str, feasible: bool = False) -> np.ndarray:
    """Return a caller-supplied point as a float vector, or raise its one error.

    DimensionMismatchError when an entry is a boolean, a string or not a
    number or the shape is not (n,), NonPositiveStateError when an entry is not
    strictly positive and finite, and, only when ``feasible`` is set,
    InfeasibleStartError when |A x - b|_inf exceeds 1e-8 (|b|_inf + 1).
    ``what`` names the point in the message.
    """
    import numpy as np

    x = _float_vector(x, what, lp.n)
    # `verify` checks every sample state twice (evaluate, check_bounds),
    # so positivity and finiteness take one reduction each way:
    # np.minimum and np.maximum propagate a NaN, which then fails both
    # comparisons (fmin and fmax would skip it).
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


def _finite_numbers(value, what: str, length: int) -> list[int | float]:
    """value's `length` entries as ints and finite floats, read without numpy, else DimensionMismatchError or ValidationError."""
    if _holds_non_number(value):
        raise DimensionMismatchError(f"{what} must contain numbers")
    shape, entries = _read(_plain(value))
    if shape != (length,):
        raise DimensionMismatchError(f"{what} has shape {shape}, expected ({length},)")
    try:
        nums = [v if isinstance(v, int) else float(v) for v in entries]  # float() rounds an int above 2**53
    except (TypeError, ValueError) as exc:  # None, a complex number or any object float() cannot read
        raise DimensionMismatchError(f"{what} must contain numbers") from exc
    if not all(isinstance(v, int) or math.isfinite(v) for v in nums):
        raise ValidationError(f"{what} must be finite, got {nums!r}")
    return nums


def _dyadic(values: list[int | float]) -> tuple[list[int], int]:
    """Ints and finite floats as integers over one power of two: values[i] == nums[i] / den exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    return [num * (den // d) for num, d in ratios], den


def exact_cost(lp: ValidatedLP, x) -> Fraction:
    """c . x exactly: x's n ints and finite floats read as integers over one power of two, as dual_lower_bound reads y."""
    from fractions import Fraction

    X, den = _dyadic(_finite_numbers(x, "x", lp.n))
    return Fraction(sum(map(operator.mul, lp.c_exact, X)), den)


def dual_lower_bound(lp: ValidatedLP, y) -> Fraction | None:
    """The exact weak-duality bound b . y / r <= opt, r = max_i a_i . y / c_i; None when r <= 0.

    y / r satisfies a_i . (y / r) <= c_i for every column a_i of A, so for
    any feasible x >= 0, b . (y / r) = sum_i x_i a_i . (y / r) <= c . x.
    Each float of y is read as the dyadic rational it is, scaled to
    integers over one power of two that cancels between b . y and r, and
    every sum and comparison is made in Python ints over A_exact, b_exact
    and c_exact: no rounding enters the bound or the test r <= 0. y must
    hold m finite numbers, else DimensionMismatchError or ValidationError.
    fractions loads here, not with the module: `params` builds no Fraction.
    """
    from fractions import Fraction

    Y, _ = _dyadic(_finite_numbers(y, "y", lp.m))  # the common denominator cancels between b . Y and r
    # a_i . Y / c_i for every column i, compared as exact rationals.
    r = max(Fraction(sum(map(operator.mul, col, Y)), ci) for col, ci in zip(zip(*lp.A_exact), lp.c_exact))
    if r <= 0:
        return None
    return sum(map(operator.mul, lp.b_exact, Y)) / r


def subdet_upper_bound(A) -> float:
    """Closed-form bound on the subdeterminant maximum of an integer matrix (nested lists or an array).

    For a k x k submatrix every row has 2-norm at most sqrt(k) * max|A_ij|,
    so the determinant is at most (sqrt(k) * max|A_ij|)**k. An integer
    max|A_ij| is at least 1, so the bound grows with k and k = min(m, n)
    bounds every size. Always at least the exact value and cheap at any
    size; math.inf when it exceeds the float range. max|A_ij| is a Python
    int, so -2**63 counts as 2**63.
    """
    rows = _plain(A)
    a = max(map(abs, chain.from_iterable(rows)))
    if a == 0:
        return 0.0
    k = min(len(rows), len(rows[0]))
    try:
        return (math.sqrt(k) * a) ** k
    except OverflowError:
        return math.inf


def max_subdeterminant(A, mode: str = "exact") -> float:
    """Maximum absolute subdeterminant of an integer matrix (nested lists or an array), exact or bounded.

    ``mode="exact"`` enumerates all square submatrices (only permitted for
    n <= EXACT_SUBDET_CAP); ``mode="bound"`` uses the closed form.
    """
    if mode == "bound":
        return subdet_upper_bound(A)
    if mode != "exact":
        raise ValidationError(f"mode must be 'exact' or 'bound', got {mode!r}")
    rows = _plain(A)
    if len(rows[0]) > EXACT_SUBDET_CAP:
        raise TooLargeError(f"exact enumeration capped at n <= {EXACT_SUBDET_CAP}, got n={len(rows[0])}")
    return float(_exact.max_abs_subdeterminant(rows))


def compute_params(lp: ValidatedLP, mode: str = "exact") -> Params:
    """Derive the worst-case parameters, with exact or bounded subdeterminants (see max_subdeterminant).

    The sums are Python ints, so no cost or demand sum wraps.
    """
    d = float(max_subdeterminant(lp.A_exact, mode))
    cost_sum = sum(lp.c_exact)
    return Params(
        cost_sum=cost_sum,
        subdet_max=d,
        subdet_exact=mode == "exact",
        potential_ratio_bound=cost_sum * d + 1.0,
        flux_bound=d * d * lp.n * float(sum(map(abs, lp.b_exact))),
    )


def default_params(lp: ValidatedLP) -> Params:
    """Exact parameters when the instance is small enough, else the bound."""
    mode = "exact" if lp.n <= EXACT_SUBDET_CAP else "bound"
    return compute_params(lp, mode)
