"""Dense linear-algebra kernels: the weighted Laplacian solve and kernel bases.

laplacian_solver(lp) holds the package's one body for the weighted
Laplacian system (A diag(w) A^T) p = rhs. Its solve(w, rhs), bound once
per LP by a loop and per call by laplacian_solve, forms the matrix in
buffers it owns, so no caller builds the Laplacian or knows its format,
solves in one LAPACK Cholesky call (dposv) and applies one failure
policy, _check_pivots: a pivot floor relative to the mean diagonal. LAPACK
alone refuses only pivots that are not positive, which lets a Laplacian
collapsed onto a boundary face through to a solve of rounding noise.

spd_factor(M) returns the lower Cholesky factor of M, by the same dposv
with no right-hand side and the same pivot rule. Nothing in the package
calls it; it stays only as the benchmark's timing hook for the factor.

SciPy is not imported with this module, and the scipy.linalg package is
not imported at all. dposv, the one LAPACK routine the package calls,
starts out as a stub; its first call runs `import scipy` (about 0.01 s;
it sets up the wheel's bundled OpenBLAS), loads SciPy's LAPACK extension
scipy.linalg._flapack, from which scipy.linalg.lapack takes the same
routine, and rebinds the module global dposv to that module's routine
object. So every later call, a bound solver's included, reaches LAPACK
through one global lookup, as an eager import would. The extension is
registered in sys.modules under its own name: a later
`import scipy.linalg` reuses it, and one loaded earlier is used as it is.
Importing scipy.linalg would cost about 0.2 s of CPU more per process
(2-vCPU Xeon), mostly in SciPy's array-API shim, which probes every name
in numpy and so imports numpy's lazy f2py and testing modules; a
`physarum verify` process loads 276 modules instead of 555. The commands
that never solve a Laplacian (`params`, `oracle`) import no SciPy at all.
kernel_basis uses numpy's QR and basis_dual numpy's LU solve; neither
loads SciPy.

At m <= 3 call overhead, not arithmetic, sets the cost of a solve. The
LAPACK routines take positional arguments (a keyword lower=True adds about
40% to a 1.7 us dposv at m = 3), as do the product and the dot that fill
the buffers (a keyword out= costs up to about 0.1 us a call), and the pivot
rule reads each diagonal once as a Python list: the factor's, and the
Laplacian's through a view of the L buffer that the solver binds once.
ndarray.dot reaches the same BLAS routine as @ and np.dot without
matmul's or the numpy function's dispatch, and the square float64
Laplacian it forms reaches LAPACK without a conversion.
"""

from __future__ import annotations

import math
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import NotPositiveDefiniteError, RankDeficientError, ValidationError
from .model import ValidatedLP

# A pivot this small relative to the mean diagonal means the matrix has
# effectively collapsed onto a boundary face.
PIVOT_RTOL = 1e-12


def _bind_scipy() -> None:
    """Replace the dposv stub below with the routine of SciPy's LAPACK extension, once."""
    global dposv
    import scipy

    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        finder = FileFinder(scipy.__path__[0] + "/linalg", (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        flapack = sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(flapack)
    dposv = flapack.dposv


def dposv(*args):
    """A stub: its first call binds SciPy's dposv to this name, then makes the call."""
    _bind_scipy()
    return dposv(*args)


_FLOAT = np.dtype(float)


def _check_pivots(m_diag: np.ndarray, low: np.ndarray, info: int) -> None:
    """Apply the pivot rule to the Cholesky factor LAPACK returned for a matrix M.

    m_diag is M's diagonal (a view of it will do). Raises
    NotPositiveDefiniteError when LAPACK refused a pivot or when a pivot
    L_jj^2 falls at or below ``PIVOT_RTOL * trace / m``.
    """
    if info:
        raise NotPositiveDefiniteError(f"pivot at index {info - 1} is not positive")
    diag = low.diagonal().tolist()
    # The trace is summed left to right over a Python list; ndarray.trace()
    # sums in numpy's unrolled order, which from m = 8 on often differs in
    # the last bits.
    tol = PIVOT_RTOL * sum(m_diag.tolist()) / len(diag)
    # dposv lets a NaN pivot through and min() can step over it;
    # the sum of the pivots cannot.
    total = sum(diag)
    if not (min(diag) ** 2 > tol and total == total):
        j = int(low.diagonal().argmin())
        raise NotPositiveDefiniteError(f"pivot {low[j, j] ** 2:.3e} at index {j} (tolerance {tol:.3e})")


def spd_factor(mat: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of a symmetric positive definite matrix M, reading its lower triangle.

    L's strict upper triangle is zero, so L @ L.T rebuilds M. Raises
    NotPositiveDefiniteError when a pivot L_jj^2 falls at or below
    ``PIVOT_RTOL * trace / m``. A square float64 ndarray is used as is.
    """
    M = mat if type(mat) is np.ndarray and mat.dtype is _FLOAT else np.asarray(mat, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    # With no right-hand side dposv only factors; it leaves M's strict upper
    # triangle above the factor.
    low, _, info = dposv(M, np.empty((len(M), 0)), 1)
    _check_pivots(M.diagonal(), low, info)
    return np.tril(low)


def laplacian_solver(lp: ValidatedLP):
    """Bind to lp a solve(w, rhs) of (A diag(w) A^T) p = rhs, rhs a vector or a matrix.

    Each solution is a fresh array (dposv copies its inputs). A rejected
    Laplacian raises NotPositiveDefiniteError. Weights are not checked.
    """
    A, At = lp.A, lp.At
    Aw, L = np.empty_like(A), np.empty((len(A), len(A)))
    L_diag = L.diagonal()  # a view: it reads each new Laplacian in L
    mul = np.multiply

    def solve(w, rhs: np.ndarray) -> np.ndarray:
        mul(A, w, Aw)
        Aw.dot(At, L)
        low, sol, info = dposv(L, rhs, 1)
        _check_pivots(L_diag, low, info)
        return sol

    return solve


def laplacian_solve(lp: ValidatedLP, w, rhs: np.ndarray) -> np.ndarray:
    """Solve (A diag(w) A^T) p = rhs once: laplacian_solver(lp)(w, rhs)."""
    return laplacian_solver(lp)(w, rhs)


def basis_dual(lp: ValidatedLP, x: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The dual y of the basis B that x's m largest coordinates name, with its float bound.

    Solves A_B^T y = c_B and returns y with b . y / r, r = max_i a_i . y / c_i:
    y / r satisfies every dual constraint, so by weak duality the bound is
    at most opt (up to rounding in floats; model.dual_lower_bound forms it
    exactly) for any B, optimal or not. Ties among x's coordinates are
    broken as np.argpartition breaks them, and B is sorted. None when A_B
    is singular, y or the bound is not finite, or r <= 0: a guess that
    cannot bound anything raises and warns nothing.
    """
    B = np.sort(np.argpartition(x, -lp.m)[-lp.m:])
    try:
        y = np.linalg.solve(lp.At[B], lp.c[B])
    except np.linalg.LinAlgError:
        return None
    # A near-singular A_B gives a y whose products overflow; that is no bound.
    with np.errstate(all="ignore"):
        r = float(np.maximum.reduce(lp.At.dot(y) / lp.c))
        dot = float(lp.b.dot(y))
    if not (r > 0.0 and math.isfinite(r) and math.isfinite(dot)):
        return None
    bound = dot / r
    return (y, bound) if math.isfinite(bound) else None


def kernel_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of A, as columns.

    The trailing n - m columns of the orthogonal factor of a complete QR
    factorization of A transpose span the kernel. Raises
    RankDeficientError when A does not have full row rank.
    """
    A = np.asarray_chkfinite(A, dtype=float)
    m, n = A.shape
    if m > n:
        raise RankDeficientError("A does not have full row rank")
    Q, R = np.linalg.qr(A.T, mode="complete")
    diag = np.abs(R.diagonal())
    if m and np.any(diag <= n * np.finfo(float).eps * diag.max()):
        raise RankDeficientError("A does not have full row rank")
    return Q[:, m:]
