"""Cholesky factorization, the Laplacian solve and kernel bases."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physarum import DiscreteConfig, LinearProgram, evaluate, rhs_log, solve, validate
from physarum.errors import NotPositiveDefiniteError, RankDeficientError
from physarum.linalg import PIVOT_RTOL, kernel_basis, laplacian_solve, spd_factor
from tests.conftest import planted_instance, rand_positive


def _random_spd(rng, m):
    B = rng.standard_normal((m, m + 2))
    return B @ B.T + 0.1 * np.eye(m)


def _factor_then_solve(M, rhs):
    return spd_factor(M).solve(rhs)


class _GivenLaplacian:
    """Stands in for an LP's A: A * w is itself and its dot with At is M.

    The pivot-rule tests feed laplacian_solve matrices that no real A and
    positive w form (indefinite, NaN), so the matrix is handed over whole.
    """

    def __init__(self, M):
        self.M = np.asarray(M, dtype=float)

    def __mul__(self, w):
        return self

    def dot(self, At):
        return self.M


def _laplacian_solve(M, rhs):
    return laplacian_solve(SimpleNamespace(A=_GivenLaplacian(M), At=None), None, rhs)


# The two entry points share one pivot rule, so every rejection test runs
# through both.
SPD_SOLVES = (_factor_then_solve, _laplacian_solve)


def test_factor_reconstructs():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 5, 8):
        M = _random_spd(rng, m)
        fac = spd_factor(M)
        assert np.allclose(fac.lower @ fac.lower.T, M, atol=1e-10 * np.abs(M).max())


def test_solve_matches_lapack():
    rng = np.random.default_rng(8)
    M = _random_spd(rng, 4)
    rhs = rng.standard_normal(4)
    assert np.allclose(spd_factor(M).solve(rhs), np.linalg.solve(M, rhs))


def test_solve_matrix_rhs():
    rng = np.random.default_rng(9)
    M = _random_spd(rng, 3)
    R = rng.standard_normal((3, 5))
    assert np.allclose(spd_factor(M).solve(R), np.linalg.solve(M, R))


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
def test_factor_rejects_nan_pivots(mat):
    # dpotrf and dposv return these factors with info 0; the first has a
    # finite diagonal, so only the NaN pivot can reject it.
    for spd in SPD_SOLVES:
        with pytest.raises(NotPositiveDefiniteError, match="nan"):
            spd(np.array(mat), np.ones(len(mat)))


def test_factor_rejects_non_square():
    # laplacian_solve forms its own matrix, which is always square.
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
            assert laplacian_solve(lp, w, rhs).tobytes() == spd_factor(L).solve(rhs).tobytes()


def test_spd_factor_converts_its_input():
    # Only a square float64 ndarray skips the conversion; every other input
    # is converted and checked, and the answer is that of its float64 copy.
    rng = np.random.default_rng(5)
    M = _random_spd(rng, 4)
    rhs = rng.standard_normal(4)
    ints = np.array([[4, 1, 0], [1, 3, 1], [0, 1, 2]])
    cases = [
        (M.tolist(), rhs),
        (ints, rhs[:3]),
        (np.asfortranarray(M), rhs),
        (M.T, rhs),
        (M.astype(">f8"), rhs),
        (np.array([[2.5]]), np.array([1.5])),
    ]
    for mat, b in cases:
        want = spd_factor(np.array(mat, dtype=float)).solve(b)
        assert spd_factor(mat).solve(b).tobytes() == want.tobytes()
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
        laplacian_solve(lp, x / lp.c, lp.b)
    with pytest.raises(NotPositiveDefiniteError):
        evaluate(lp, x)
    with pytest.raises(NotPositiveDefiniteError):
        rhs_log(lp, np.log(x))
    with pytest.raises(NotPositiveDefiniteError):
        solve(lp, DiscreteConfig(start=x))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_factor_solve_roundtrip(seed, m):
    rng = np.random.default_rng(seed)
    M = _random_spd(rng, m)
    x = rng.standard_normal(m)
    got = spd_factor(M).solve(M @ x)
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
