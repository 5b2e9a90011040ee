"""Cholesky factorization, the Laplacian solve and kernel bases."""

import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physarum import DiscreteConfig, LinearProgram, evaluate, linalg, rhs_log, solve, validate
from physarum._exact import rank_int
from physarum.errors import NotPositiveDefiniteError, RankDeficientError
from physarum.linalg import PIVOT_RTOL, kernel_basis, laplacian_solver, spd_factor
from tests.conftest import planted_instance, rand_positive, ref_cholesky_solve, run_child


def _random_spd(rng, m):
    B = rng.standard_normal((m, m + 2))
    return B @ B.T + 0.1 * np.eye(m)


def _factor_then_solve(M, rhs):
    """spd_factor's verdict on M, then the reference solve."""
    spd_factor(M)
    return ref_cholesky_solve(M, rhs)


def _forming(M):
    """An A and w with A diag(w) A^T == M exactly, for a symmetric M of small integers or a diagonal.

    M is the sum of M_ij (e_i + e_j)(e_i + e_j)^T over i < j and of
    (M_ii - sum_{j != i} M_ij) e_i e_i^T: A is [I | e_i + e_j] and w holds
    those coefficients, negative ones included.
    """
    M = np.asarray(M, dtype=float)
    m = len(M)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    A = np.zeros((m, m + len(pairs)))
    A[:, :m] = np.eye(m)
    for col, (i, j) in enumerate(pairs, start=m):
        A[i, col] = A[j, col] = 1.0
    off = M - np.diag(M.diagonal())
    w = np.concatenate((M.diagonal() - off.sum(axis=1), [M[i, j] for i, j in pairs]))
    assert (A * w).dot(A.T).tobytes() == M.tobytes()
    return A, w


def _laplacian_solve(M, rhs):
    A, w = _forming(M)
    return laplacian_solver(SimpleNamespace(A=A, At=A.T))(w, rhs)


# The two entry points share one pivot rule, so every rejection test runs
# through both. laplacian_solver forms each matrix from an A and w.
SPD_SOLVES = (_factor_then_solve, _laplacian_solve)


def test_factor_reconstructs():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 5, 8):
        M = _random_spd(rng, m)
        L = spd_factor(M)
        assert not np.triu(L, 1).any()
        assert np.allclose(L @ L.T, M, atol=1e-10 * np.abs(M).max())


@pytest.mark.parametrize("m", [1, 3, 12, 48, 64])
def test_factor_is_lapacks_cholesky_factor(m):
    # dposv with no right-hand side factors as dpotrf does, bit for bit;
    # the strict upper triangle, which dposv leaves as M's, reads zero.
    from scipy.linalg import lapack

    rng = np.random.default_rng(m)
    for _ in range(5):
        M = _random_spd(rng, m)
        M[np.triu_indices(m, 1)] = np.nan  # never read
        assert spd_factor(M).tobytes() == lapack.dpotrf(M, lower=1)[0].tobytes()


def test_factor_rejects_singular():
    for spd in SPD_SOLVES:
        with pytest.raises(NotPositiveDefiniteError):
            spd(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))


def test_factor_rejects_indefinite():
    for spd in SPD_SOLVES:
        with pytest.raises(NotPositiveDefiniteError):
            spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


def test_factor_pivot_threshold_is_relative():
    # The floor is PIVOT_RTOL * trace / m, here about 5e-13: LAPACK alone
    # accepts both matrices.
    for spd in SPD_SOLVES:
        with pytest.raises(NotPositiveDefiniteError):
            spd(np.diag([1.0, 1e-13]), np.ones(2))
        assert np.allclose(spd(np.diag([1.0, 1e-11]), np.array([1.0, 1e-11])), [1.0, 1.0])


@pytest.mark.parametrize("m", [2, 4, 9])
def test_factor_pivot_floor_is_the_mean_diagonal(m):
    # diag(1, ..., 1, d) has its smallest pivot squared equal to d and a
    # floor of PIVOT_RTOL * (m - 1 + d) / m, below the largest diagonal.
    floor = PIVOT_RTOL * (m - 1) / m
    for spd in SPD_SOLVES:
        spd(np.diag([1.0] * (m - 1) + [floor * (1 + 1e-6)]), np.ones(m))
        with pytest.raises(NotPositiveDefiniteError, match=f"index {m - 1}"):
            spd(np.diag([1.0] * (m - 1) + [floor * (1 - 1e-6)]), np.ones(m))


@pytest.mark.parametrize(
    "mat",
    [
        [[4.0, np.nan], [np.nan, 4.0]],
        [[1.0, 0.0], [0.0, np.nan]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, np.nan], [0.0, np.nan, 1.0]],
    ],
)
def test_factor_rejects_nan_pivots(mat, monkeypatch):
    # dposv returns these factors with info 0; the first has a
    # finite diagonal, so only the NaN pivot can reject it. No real A and w
    # form these matrices, so laplacian_solver, on the identity, gets LAPACK's
    # own factor of each through a patched dposv.
    M, rhs = np.array(mat), np.ones(len(mat))
    with pytest.raises(NotPositiveDefiniteError, match="nan"):
        _factor_then_solve(M, rhs)
    dposv = linalg.dposv
    monkeypatch.setattr(linalg, "dposv", lambda L, b, lower: dposv(M, b, lower))
    with pytest.raises(NotPositiveDefiniteError, match="nan"):
        _laplacian_solve(np.eye(len(M)), rhs)


def _reference_pivot_rule(M, low, info):
    """The pivot rule read off the whole matrix M: None to accept, else the rejection message."""
    if info:
        return f"pivot at index {info - 1} is not positive"
    diag = low.diagonal().tolist()
    tol = PIVOT_RTOL * sum(M.diagonal().tolist()) / len(diag)
    total = sum(diag)
    if not (min(diag) ** 2 > tol and total == total):
        j = int(low.diagonal().argmin())
        return f"pivot {low[j, j] ** 2:.3e} at index {j} (tolerance {tol:.3e})"
    return None


def _verdict(solve, *args):
    try:
        solve(*args)
    except NotPositiveDefiniteError as exc:
        return str(exc)
    return None


def test_both_entry_points_give_the_reference_verdict_and_message(monkeypatch):
    # The floor reads a view of the bound solver's own L buffer, so one
    # binding meets four Laplacians in turn: just above the floor, just
    # below it, a NaN pivot (LAPACK's factor of a NaN matrix, through a
    # patched dposv, as no real A and w form one) and a pivot LAPACK
    # refuses (info > 0).
    from scipy.linalg import lapack

    floor = PIVOT_RTOL * 2 / 3
    cases = [
        (np.diag([1.0, 1.0, floor * (1 + 1e-9)]), None),
        (np.diag([1.0, 1.0, floor * (1 - 1e-9)]), None),
        (np.eye(3), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]])),
        (np.array([[2.0, 0.0, 3.0], [0.0, 1.0, 0.0], [3.0, 0.0, 2.0]]), None),
    ]
    A, _ = _forming(np.eye(3))
    bound = laplacian_solver(SimpleNamespace(A=A, At=A.T))
    dposv, rhs = linalg.dposv, np.ones(3)
    verdicts = []
    for M, nan_matrix in cases:
        formed, w = _forming(M)
        assert np.array_equal(formed, A)  # one A forms all four
        if nan_matrix is None:
            low, info = lapack.dpotrf(M, 1)
            assert _verdict(spd_factor, M) == _reference_pivot_rule(M, low, info)
        else:
            low, info = lapack.dpotrf(nan_matrix, 1)
            assert _verdict(spd_factor, nan_matrix) == _reference_pivot_rule(nan_matrix, low, info)
            monkeypatch.setattr(linalg, "dposv", lambda L, b, lower: dposv(nan_matrix, b, lower))
        verdicts.append(_reference_pivot_rule(M, low, info))
        assert _verdict(bound, w, rhs) == verdicts[-1]
        monkeypatch.setattr(linalg, "dposv", dposv)
    assert verdicts[0] is None
    assert verdicts[1].startswith("pivot ") and verdicts[1].endswith("at index 2 (tolerance 6.667e-13)")
    assert "nan" in verdicts[2] and verdicts[3] == "pivot at index 2 is not positive"


def test_factor_rejects_non_square():
    # laplacian_solver forms its own matrix, which is always square.
    with pytest.raises(ValueError):
        spd_factor(np.ones((2, 3)))


@pytest.mark.parametrize("m", [1, 3, 12, 48])
def test_laplacian_solve_is_bitwise_factor_then_solve(m):
    rng = np.random.default_rng(m)
    lp = planted_instance(rng, m, 2 * m + 2)
    for _ in range(20):
        w = rand_positive(rng, lp.n)
        L = (lp.A * w).dot(lp.At)
        for rhs in (rng.standard_normal(m), rng.standard_normal((m, 3)), lp.A):
            assert laplacian_solver(lp)(w, rhs).tobytes() == ref_cholesky_solve(L, rhs).tobytes()


@pytest.mark.parametrize("m", [1, 3, 12, 48])
def test_a_bound_solver_gives_the_bytes_of_fresh_solves(m):
    # One binding reuses its Laplacian buffers across calls; every result is
    # a fresh solve's and keeps its bytes after later calls.
    rng = np.random.default_rng(100 + m)
    lp = planted_instance(rng, m, 2 * m + 2)
    bound = laplacian_solver(lp)
    kept = []
    for _ in range(10):
        w = rand_positive(rng, lp.n)
        for rhs in (rng.standard_normal(m), rng.standard_normal((m, lp.n))):
            got = bound(w, rhs)
            assert got.tobytes() == laplacian_solver(lp)(w, rhs).tobytes()
            kept.append((got, got.tobytes()))
    assert all(got.tobytes() == raw for got, raw in kept)


def test_a_bound_solver_rejects_a_collapsed_laplacian_and_solves_on():
    # The collapsed face of test_one_pivot_policy_for_every_laplacian_solve,
    # between two good solves on one binding.
    lp = validate(LinearProgram.from_lists([[1, 0, 1], [0, 1, 1]], [1, 1], [1, 1, 1]))
    bound = laplacian_solver(lp)
    good = np.array([0.5, 0.5, 0.5])
    want = laplacian_solver(lp)(good, lp.b).tobytes()
    assert bound(good, lp.b).tobytes() == want
    with pytest.raises(NotPositiveDefiniteError):
        bound(np.array([1e-14, 1e-14, 1.0]), lp.b)
    assert bound(good, lp.b).tobytes() == want


def test_spd_factor_converts_its_input():
    # Only a square float64 ndarray skips the conversion; every other input
    # is converted and checked, and the answer is that of its float64 copy.
    rng = np.random.default_rng(5)
    M = _random_spd(rng, 4)
    ints = np.array([[4, 1, 0], [1, 3, 1], [0, 1, 2]])
    for mat in (M.tolist(), ints, np.asfortranarray(M), M.T, M.astype(">f8"), np.array([[2.5]])):
        want = spd_factor(np.array(mat, dtype=float))
        assert spd_factor(mat).tobytes() == want.tobytes()
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor([[1, 1], [1, 1]])
    for bad in (np.ones(3), np.ones((1, 2, 2)), [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="square"):
            spd_factor(bad)


def test_one_pivot_policy_for_every_laplacian_solve():
    # Two coordinates at 1e-14 collapse the Laplacian onto a face. Every
    # engine must give the same verdict on that state.
    lp = validate(LinearProgram.from_lists([[1, 0, 1], [0, 1, 1]], [1, 1], [1, 1, 1]))
    x = np.array([1e-14, 1e-14, 1.0])
    with pytest.raises(NotPositiveDefiniteError):
        laplacian_solver(lp)(x / lp.c, lp.b)
    with pytest.raises(NotPositiveDefiniteError):
        evaluate(lp, x)
    with pytest.raises(NotPositiveDefiniteError):
        rhs_log(lp, np.log(x))
    with pytest.raises(NotPositiveDefiniteError):
        solve(lp, DiscreteConfig(start=x))


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_factor_solve_roundtrip(seed, m):
    rng = np.random.default_rng(seed)
    M = _random_spd(rng, m)
    x = rng.standard_normal(m)
    # A forward and a back substitution with the factor L solve L L^T p = M x.
    L = spd_factor(M)
    got = np.linalg.solve(L.T, np.linalg.solve(L, M @ x))
    assert np.allclose(got, x, atol=1e-7)


def test_kernel_basis_shape_and_orthogonality(triangle):
    K = kernel_basis(triangle.A)
    assert K.shape == (3, 1)
    assert np.allclose(triangle.A @ K, 0.0, atol=1e-12)
    assert np.allclose(K.T @ K, np.eye(1), atol=1e-12)


def test_kernel_basis_square_matrix_is_empty(identity2):
    K = kernel_basis(identity2.A)
    assert K.shape == (2, 0)


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(11)
    A = np.array([[1.0, 2.0, -1.0, 0.0], [0.0, 1.0, 1.0, 3.0]])
    K = kernel_basis(A)
    assert K.shape == (4, 2)
    assert np.allclose(A @ K, 0.0, atol=1e-12)
    # any kernel vector must be reproduced by its projection onto the basis
    v = K @ rng.standard_normal(2)
    assert np.allclose(K @ (K.T @ v), v, atol=1e-12)


def test_kernel_basis_rejects_rank_deficiency():
    with pytest.raises(RankDeficientError):
        kernel_basis(np.array([[1.0, 1.0], [2.0, 2.0]]))


@pytest.mark.parametrize("A", [
    pytest.param(np.ones((3, 2)), id="m > n"),
    pytest.param(np.random.default_rng(4).standard_normal((4, 3)), id="m > n random"),
    pytest.param(np.random.default_rng(4).integers(-3, 4, (12, 30))[[*range(11), 0]], id="repeated row"),
])
def test_kernel_basis_rejects_more_rows_than_columns_and_dependent_rows(A):
    with pytest.raises(RankDeficientError):
        kernel_basis(A)


@pytest.mark.parametrize("m", [1, 2, 3, 12, 48])
@pytest.mark.parametrize("integer", [False, True], ids=["float", "integer"])
def test_kernel_basis_is_an_orthonormal_basis_of_the_kernel(m, integer):
    # n from m (square A) to 4m; integer draws of lower rank must raise.
    rng = np.random.default_rng(m)
    for n in range(m, 4 * m + 1):
        A = rng.integers(-3, 4, (m, n)) if integer else rng.standard_normal((m, n))
        if integer and rank_int(A.tolist()) < m:
            with pytest.raises(RankDeficientError):
                kernel_basis(A)
            continue
        K = kernel_basis(A)
        assert K.shape == (n, n - m)
        assert np.abs(A @ K).max(initial=0.0) <= 1e-13, (m, n)
        assert np.abs(K.T @ K - np.eye(n - m)).max(initial=0.0) <= 1e-13, (m, n)


def test_kernel_basis_loads_no_scipy():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from physarum import linalg\n"
        "K = linalg.kernel_basis(np.random.default_rng(5).standard_normal((3, 8)))\n"
        "print(*K.shape, 'scipy' in sys.modules)\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8", "5", "False"]


def test_basis_dual_at_an_optimal_vertex_bounds_by_the_optimum(simple2, triangle):
    # Keyed by the optimal vertex, the m largest entries name the optimal
    # basis, whose dual meets every constraint, so r = 1 and the bound is opt.
    for lp, vertex, opt, y_opt in ((simple2, [1.0, 0.0], 1.0, [1.0]), (triangle, [1.0, 1.0, 0.0], 2.0, [2.0, 1.0])):
        y, bound = linalg.basis_dual(lp, np.array(vertex))
        assert y.tolist() == y_opt and bound == opt


def test_basis_dual_scales_its_bound_by_the_largest_ratio():
    # min x1 + x2 on x1 + 2 x2 = 3. Keyed to column 0, B = {0} gives y = 1,
    # which column 1 violates by a factor r = 2: the bound is b . y / r = 3 / 2,
    # here opt, not b . y or b . y * r.
    lp = validate(LinearProgram.from_lists([[1, 2]], [3], [1, 1]))
    y, bound = linalg.basis_dual(lp, np.array([1.0, 0.0]))
    assert y.tolist() == [1.0] and bound == 1.5


def _overflowing_basis(m=17, K=2**62):
    """An LP whose first m columns form a basis with a dual near K**(m - 1), and one column more.

    Column j has 1 in row j and -K in row j - 1, so A_B^T y = 1 gives
    y_j = 1 + K y_{j-1}; the last column holds K in the last row, where
    a . y is K**m, past the float range from m = 17 at K = 2**62.
    """
    A = np.zeros((m, m + 1), dtype=np.int64)
    A[np.arange(m), np.arange(m)] = 1
    A[np.arange(m - 1), np.arange(1, m)] = -K
    A[m - 1, m] = K
    return validate(LinearProgram.from_lists(A.tolist(), [1] * m, [1] * (m + 1)))


@pytest.mark.parametrize("case", ["singular", "overflow", "r <= 0", "r == 0"])
def test_a_basis_guess_that_cannot_bound_returns_none_silently(case, monkeypatch):
    if case == "singular":
        # Columns 0 and 1 are equal and hold the key's two largest entries.
        lp = validate(LinearProgram.from_lists([[1, 1, 0], [2, 2, 1]], [3, 7], [1, 1, 1]))
        x = np.array([5.0, 4.0, 1.0])
    elif case == "overflow":
        lp = _overflowing_basis()
        x = np.r_[np.full(lp.m, 2.0), 1.0]
        y = np.linalg.solve(lp.At[:lp.m], lp.c[:lp.m])
        assert np.all(np.isfinite(y)) and y.max() > 1e297
    else:
        # The basis columns meet A_B^T y = c_B > 0, so in exact arithmetic
        # r >= 1; only a solve spoiled by rounding can give r <= 0, and a
        # stand-in dgesv returns such a y. At y = 0, r is 0 exactly and
        # b . y / r would divide by zero.
        lp = validate(LinearProgram.from_lists([[1, 2]], [1], [1, 1]))
        x = np.array([0.5, 0.25])
        y = np.full(lp.m, -1.0 if case == "r <= 0" else 0.0)
        monkeypatch.setattr(linalg, "dgesv", lambda M, v: (M, None, y, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.basis_dual(lp, x) is None


def test_basis_dual_loads_no_scipy(triangle):
    # basis_dual solves through the dgesv of SciPy's LAPACK extension,
    # which loads without the scipy package or any other part of SciPy.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from physarum import LinearProgram, linalg, validate\n"
        f"lp = validate(LinearProgram.from_lists({triangle.A_exact}, {triangle.b_exact}, {triangle.c_exact}))\n"
        "y, bound = linalg.basis_dual(lp, np.array([1.0, 1.0, 0.5]))\n"
        "print(bound, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2.0 ['scipy.linalg._flapack']"


def test_scipy_linalg_imported_first_serves_the_same_routines():
    # A process that imports scipy.linalg before the package's first LAPACK
    # call: linalg binds the extension module scipy.linalg already loaded.
    script = (
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from scipy.linalg import lapack\n"
        "from physarum import linalg\n"
        "linalg.spd_factor(np.diag([1.0, 2.0]))\n"
        "print(linalg.dposv is lapack.dposv, *(hasattr(linalg, r) for r in ('dpotrf', 'dpotrs')))\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False"]


def test_a_failed_direct_load_falls_back_to_import_scipy():
    # linalg loads SciPy's LAPACK extension without running scipy/__init__.
    # When that load fails (here: the first lookup of SciPy's directory
    # finds nothing), it imports scipy and retries once, and binds the same
    # routines scipy.linalg.lapack serves. The lookup is patched before the
    # import, as the load runs when linalg is imported.
    script = (
        "import importlib.util, sys\n"
        "import numpy as np\n"
        "real, misses = importlib.util.find_spec, []\n"
        "def find_spec(name, *args):\n"
        "    if not misses:\n"
        "        misses.append(name)\n"
        "        return None\n"
        "    return real(name, *args)\n"
        "importlib.util.find_spec = find_spec\n"
        "from physarum import linalg\n"
        "importlib.util.find_spec = real\n"
        "loaded = 'scipy' in sys.modules\n"
        "M = np.array([[4.0, 2.0], [2.0, 3.0]])\n"
        "got = linalg.spd_factor(M)\n"
        "import scipy.linalg\n"
        "from scipy.linalg import lapack\n"
        "want = lapack.dpotrf(M, lower=True)[0]\n"
        "print(misses, loaded, linalg.dposv is lapack.dposv, linalg.dgesv is lapack.dgesv,"
        " got.tobytes() == want.tobytes())\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy'] True True True True"


def test_importing_linalg_binds_the_extensions_routines():
    # The routines are bound when linalg is imported, before any call, to
    # the objects of the one SciPy module loaded: the LAPACK extension.
    script = (
        "import sys\n"
        "import physarum.linalg as linalg\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "print(linalg.dposv is flapack.dposv, linalg.dgesv is flapack.dgesv,"
        " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True True ['scipy.linalg._flapack']"
