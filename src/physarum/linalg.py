"""Dense linear-algebra kernels: the weighted Laplacian solve and kernel bases.

laplacian_solve is the package's one entry point for the weighted
Laplacian system (A diag(w) A^T) p = rhs. It forms the matrix itself, so
no caller builds the Laplacian or knows its format, solves in one LAPACK
Cholesky call (dposv) and applies one failure policy, _check_pivots: a
pivot floor relative to the mean diagonal. LAPACK alone only refuses
pivots that are not positive, which lets a Laplacian that has collapsed
onto a boundary face through to a solve whose potentials are rounding
noise.

The one other call site is the step loop of discrete_solver.solve, which
forms its Laplacian in preallocated buffers with out= and calls dposv and
_check_pivots on them itself: routing each step through laplacian_solve
gave identical iterates but cost 1 to 4% per step over the 28 traced
corpus solves at m <= 3 (about 17 us a step, 2-vCPU Xeon).

spd_factor (dpotrf, then dpotrs through SpdFactorization.solve) applies
the same pivot rule and gives the bytes of laplacian_solve. Nothing in
the package calls it; it stays only because the benchmark times it.

SciPy is not imported with this module. Loading scipy.linalg takes about
two thirds of a cold `import physarum`, and the commands that never solve
a Laplacian (`params`, `oracle`) should not pay for it. The names dposv,
dpotrf, dpotrs and qr start out as stubs; the first call of any of them
imports SciPy and rebinds all four module globals to SciPy's own routine
objects, so every later call reaches LAPACK through one global lookup,
as an eager import would.

At m <= 3 call overhead, not arithmetic, sets the cost of a solve. The
LAPACK routines take positional arguments (a keyword lower=True adds about
40% to a 1.7 us dposv at m = 3), and the pivot rule reads each diagonal
once as a Python list. The Laplacian is formed with the ndarray.dot
method, which reaches the same BLAS routine as @ and np.dot without
matmul's or the numpy function's dispatch, and is a square float64
ndarray that reaches LAPACK without a conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, RankDeficientError, ValidationError
from .model import ValidatedLP

# A pivot this small relative to the mean diagonal means the matrix has
# effectively collapsed onto a boundary face.
PIVOT_RTOL = 1e-12


def _bind_scipy() -> None:
    """Replace the stubs below with SciPy's routines, once."""
    global dposv, dpotrf, dpotrs, qr
    from scipy.linalg import qr
    from scipy.linalg.lapack import dposv, dpotrf, dpotrs


def _stub(name: str):
    def first_call(*args, **kwargs):
        _bind_scipy()
        return globals()[name](*args, **kwargs)

    return first_call


dposv, dpotrf, dpotrs, qr = map(_stub, ("dposv", "dpotrf", "dpotrs", "qr"))


@dataclass(frozen=True)
class SpdFactorization:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix."""

    lower: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against a vector or against the columns of a matrix."""
        sol, info = dpotrs(self.lower, rhs, 1)
        if info:
            raise ValueError(f"dpotrs rejected argument {-info}")
        return sol


_FLOAT = np.dtype(float)


def _check_pivots(M: np.ndarray, low: np.ndarray, info: int) -> None:
    """Apply the pivot rule to the Cholesky factor LAPACK returned for M.

    Raises NotPositiveDefiniteError when LAPACK refused a pivot or when a
    pivot L_jj^2 falls at or below ``PIVOT_RTOL * trace / m``.
    """
    if info:
        raise NotPositiveDefiniteError(f"pivot at index {info - 1} is not positive")
    diag = low.diagonal().tolist()
    tol = PIVOT_RTOL * sum(M.diagonal().tolist()) / len(diag)
    # dpotrf and dposv let a NaN pivot through and min() can step over it;
    # the sum of the pivots cannot.
    total = sum(diag)
    if not (min(diag) ** 2 > tol and total == total):
        j = int(low.diagonal().argmin())
        raise NotPositiveDefiniteError(f"pivot {low[j, j] ** 2:.3e} at index {j} (tolerance {tol:.3e})")


def spd_factor(mat: np.ndarray) -> SpdFactorization:
    """Factor a symmetric positive definite matrix, reading its lower triangle.

    Raises NotPositiveDefiniteError when a pivot L_jj^2 falls at or below
    ``PIVOT_RTOL * trace / m``. A square float64 ndarray is used as is.
    """
    M = mat if type(mat) is np.ndarray and mat.dtype is _FLOAT else np.asarray(mat, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    low, info = dpotrf(M, 1)
    _check_pivots(M, low, info)
    return SpdFactorization(lower=low)


def laplacian_solve(lp: ValidatedLP, w, rhs: np.ndarray) -> np.ndarray:
    """Solve (A diag(w) A^T) p = rhs for a vector or the columns of a matrix.

    One dposv call, then spd_factor's pivot rule, so a rejected Laplacian
    raises NotPositiveDefiniteError and its solution is never returned.
    The weights are the caller's to check.
    """
    L = (lp.A * w).dot(lp.At)
    low, sol, info = dposv(L, rhs, 1)
    _check_pivots(L, low, info)
    return sol


def kernel_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of A, as columns.

    Uses a column-pivoted orthogonal triangularization of A transpose; the
    trailing n - m columns of the orthogonal factor span the kernel. Raises
    RankDeficientError when A does not have full row rank.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    q, r, _ = qr(A.T, pivoting=True)
    diag = np.abs(np.diag(r)[:m]) if m else np.array([])
    scale = max(n, m) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    if m and (diag.size < m or np.any(diag <= max(scale, 0.0))):
        raise RankDeficientError("A does not have full row rank")
    return q[:, m:]
