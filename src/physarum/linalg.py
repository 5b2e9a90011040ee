"""Dense linear-algebra kernels: SPD solves and kernel bases.

Every weighted Laplacian system (A W A^T) p = b in the package is solved
through spd_factor, so the whole package shares one failure policy: LAPACK
Cholesky (dpotrf/dpotrs) plus a pivot floor relative to the mean diagonal.
LAPACK alone only refuses pivots that are not positive, which lets a
Laplacian that has collapsed onto a boundary face through to a solve whose
potentials are rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NotPositiveDefiniteError, RankDeficientError, ValidationError

# A pivot this small relative to the mean diagonal means the matrix has
# effectively collapsed onto a boundary face.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class SpdFactorization:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix."""

    lower: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against a vector or against the columns of a matrix."""
        sol, info = dpotrs(self.lower, rhs, lower=True)
        if info:
            raise ValueError(f"dpotrs rejected argument {-info}")
        return sol


def spd_factor(mat: np.ndarray) -> SpdFactorization:
    """Factor a symmetric positive definite matrix, reading its lower triangle.

    Raises NotPositiveDefiniteError when a pivot L_jj^2 falls at or below
    ``PIVOT_RTOL * trace / m``.
    """
    M = np.asarray(mat, dtype=float)
    m = M.shape[0]
    if M.shape != (m, m):
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    low, info = dpotrf(M, lower=True)
    if info:
        raise NotPositiveDefiniteError(f"pivot at index {info - 1} is not positive")
    diag = low.diagonal().tolist()
    pivot = min(diag) ** 2
    tol = PIVOT_RTOL * sum(M.diagonal().tolist()) / m
    # dpotrf lets a NaN pivot through and min() can step over it; the sum
    # of the pivots cannot.
    total = sum(diag)
    if not (pivot > tol and total == total):
        j = int(low.diagonal().argmin())
        raise NotPositiveDefiniteError(f"pivot {low[j, j] ** 2:.3e} at index {j} (tolerance {tol:.3e})")
    return SpdFactorization(lower=low)


def kernel_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of A, as columns.

    Uses a column-pivoted orthogonal triangularization of A transpose; the
    trailing n - m columns of the orthogonal factor span the kernel. Raises
    RankDeficientError when A does not have full row rank.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    q, r, _ = scipy.linalg.qr(A.T, pivoting=True)
    diag = np.abs(np.diag(r)[:m]) if m else np.array([])
    scale = max(n, m) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    if m and (diag.size < m or np.any(diag <= max(scale, 0.0))):
        raise RankDeficientError("A does not have full row rank")
    return q[:, m:]
