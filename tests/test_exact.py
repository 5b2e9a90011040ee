"""The exact integer kernels against the eliminations they replaced.

The references below are kept as they were: rational row reduction for
the rank, rational Gauss-Jordan for a unique solution, the oracle's basis
loop built on the two (one solve per column basis, which the basis
screen replaced), one fraction-free determinant per square submatrix
for the largest subdeterminant, and the numpy object-array kernels that
the list kernels replaced. Every kernel answer must equal the
reference's exactly. The general basis screen ``feasible_bases`` (any
rank, any right-hand side), which the oracle ran once per system before
its one-pass screen, is kept in tests/test_oracle.py; it runs on the
package's expansion kernels, and the tests here hold it to the rational
and object-array screens.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physarum import LinearProgram, _exact, enumerate_polyhedron, oracle, validate
from physarum._exact import (
    MODULAR_MIN_DIM,
    PRIME,
    RANK_WINDOW_EXTRA,
    _colex_level,
    max_abs_subdeterminant,
    rank_int,
    rank_mod_prime,
    solve_unique,
)
from tests.conftest import load_instance, planted_instance, random_instances
from tests.test_oracle import assert_same_result, feasible_bases, two_pass_enumerate

BIG = 2**40


def ref_rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    row = 0
    for col in range(n_cols):
        piv = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def ref_solve_unique(mat, rhs):
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    aug = [[Fraction(mat[i][j]) for j in range(n_cols)] + [Fraction(rhs[i])] for i in range(n_rows)]
    row = 0
    for col in range(n_cols):
        piv = next((r for r in range(row, n_rows) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [a / pv for a in aug[row]]
        for r in range(n_rows):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        row += 1
    for r in range(row, n_rows):
        if aug[r][n_cols] != 0:
            return None
    return [aug[i][n_cols] for i in range(n_cols)]


def ref_basic_solutions(mat, rhs):
    n_rows = len(mat)
    n_cols = len(mat[0])
    r = ref_rank(mat)
    found = {}
    for cols in combinations(range(n_cols), r):
        block = [[mat[i][j] for j in cols] for i in range(n_rows)]
        sol = ref_solve_unique(block, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        point = [Fraction(0)] * n_cols
        for k, j in enumerate(cols):
            point[j] = sol[k]
        found.setdefault(tuple(point))
    return sorted(found)


def ref_feasible_bases(mat, rhs):
    """Every basis of ref_basic_solutions' loop with a nonnegative solution, duplicates included."""
    bases = []
    for cols in combinations(range(len(mat[0])), ref_rank(mat)):
        sol = ref_solve_unique([[row[j] for j in cols] for row in mat], rhs)
        if sol is not None and all(v >= 0 for v in sol):
            bases.append(cols)
    return bases


def ref_det(rows):
    """Determinant by rational elimination with row swaps."""
    m = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def bareiss_det(rows):
    """Determinant of a square integer matrix (fraction-free elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [[int(v) for v in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def ref_max_abs_subdeterminant(A):
    """One fresh elimination per square submatrix."""
    m = len(A)
    n = len(A[0]) if m else 0
    best = 0
    for k in range(1, min(m, n) + 1):
        for rows in combinations(range(m), k):
            sub = [A[r] for r in rows]
            for cols in combinations(range(n), k):
                d = bareiss_det([[row[c] for c in cols] for row in sub])
                if abs(d) > best:
                    best = abs(d)
    return best


# The kernels this module ran before it moved to lists of Python ints,
# kept as they were: numpy object arrays of minors over index arrays. The
# list kernels must give their answers exactly, in the same order.


def np_colex_level(cols: np.ndarray, drops: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The object-array kernel: the next colex level of column subsets, one subset per row."""
    k = cols.shape[1]
    total = comb(width, k + 1)
    # The smallest index type that holds the largest level's size.
    index = np.min_scalar_type(comb(width, width // 2))
    next_cols = np.empty((total, k + 1), dtype=index)
    next_drops = np.empty((total, k + 1), dtype=index)
    start = 0
    for c in range(k, width):
        block = comb(c, k)
        stop = start + block
        next_cols[start:stop, :k] = cols[:block]
        next_cols[start:stop, k] = c
        next_drops[start:stop, :k] = drops[:block] + block
        next_drops[start:stop, k] = np.arange(block)
        start = stop
    return next_cols, next_drops


def np_expand(minors: np.ndarray, entries: np.ndarray, cols: np.ndarray, drops: np.ndarray) -> np.ndarray:
    """The object-array kernel: one more row's k-minors, as a numpy object array."""
    k = cols.shape[1]
    child = np.zeros(len(cols), dtype=object)
    for j in range(k):
        term = entries[cols[:, j]] * minors[drops[:, j]]
        # Cofactor sign (-1)**(k - 1 + j) along the last of k rows.
        child = child - term if (k - 1 + j) % 2 else child + term
    return child


def np_max_abs_subdeterminant(A: list[list[int]]) -> int:
    """The object-array kernel: the depth-first walk over numpy object arrays of minors."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [np.array([int(v) for v in r], dtype=object) for r in A]
    depth = min(m, n)
    levels = [(np.empty((1, 0), dtype=np.intp),) * 2]
    for _ in range(depth):
        levels.append(np_colex_level(*levels[-1], n))
    best = 0

    def descend(minors: np.ndarray, k: int, start: int) -> None:
        nonlocal best
        for r in range(start, m):
            child = np_expand(minors, rows[r], *levels[k + 1])
            hi, lo = child.max(), child.min()
            if hi or lo:
                best = max(best, hi, -lo)
                if k + 1 < depth:
                    descend(child, k + 1, r + 1)

    if depth:
        descend(np.ones(1, dtype=object), 0, 0)
    return best


def np_feasible_bases(mat, rhs) -> list[tuple[int, ...]]:
    """The object-array kernel: the basis screen over numpy object arrays of minors."""
    n = len(mat[0]) if mat else 0
    minors = np.ones(1, dtype=object)
    cols = drops = np.empty((1, 0), dtype=np.intp)
    ahead = None  # the next level's subsets, kept while rows turn out dependent
    for row, b in zip(mat, rhs):
        if ahead is None:
            ahead = np_colex_level(cols, drops, n + 1)
        child = np_expand(minors, np.array([int(v) for v in row] + [int(b)], dtype=object), *ahead)
        if np.count_nonzero(child[:comb(n, cols.shape[1] + 1)]):
            minors, (cols, drops), ahead = child, ahead, None
        elif np.count_nonzero(child):
            return []
    r = cols.shape[1]
    n_bases = comb(n, r)
    det = minors[:n_bases]
    pos, neg = det > 0, det < 0
    keep = pos | neg
    for j in range(r):
        num = minors[n_bases + drops[:n_bases, j]]
        # rhs moves from the last of r places to the j-th: r - 1 - j swaps.
        num_pos, num_neg = (num < 0, num > 0) if (r - 1 - j) % 2 else (num > 0, num < 0)
        keep &= ~((num_pos & neg) | (num_neg & pos))
    return [tuple(int(c) for c in cols[i]) for i in np.flatnonzero(keep)]


def as_fractions(sol):
    if sol is None:
        return None
    num, det = sol
    assert det > 0
    return [Fraction(v, det) for v in num]


@st.composite
def int_matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 8)):
    """Integer matrices that are often rank deficient.

    Entries are either in [-2, 2] or up to 2**40 in size. Optionally a
    column is zeroed or made a multiple of another (a pivot column
    Bareiss must skip) and a row is made a combination of two others.
    """
    n_rows, n_cols = draw(rows), draw(cols)
    entry = st.integers(-BIG, BIG) if draw(st.booleans()) else st.integers(-2, 2)
    mat = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        j = draw(st.integers(0, n_cols - 1))
        scale = draw(st.integers(-3, 3))
        for r in mat:
            r[j] = scale * r[0]
    if n_rows > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
    return mat


@st.composite
def systems(draw):
    """(mat, rhs) with at least as many rows as columns.

    The right-hand side is free, or mat @ z for an integer z (consistent
    also when overdetermined), or that plus a unit vector.
    """
    k = draw(st.integers(1, 5))
    mat = draw(int_matrices(rows=st.integers(k, k + 2), cols=st.just(k)))
    z = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    rhs = [sum(a * v for a, v in zip(row, z)) for row in mat]
    mode = draw(st.sampled_from(["free", "consistent", "perturbed"]))
    if mode == "free":
        rhs = draw(st.lists(st.integers(-BIG, BIG), min_size=len(mat), max_size=len(mat)))
    elif mode == "perturbed":
        rhs[draw(st.integers(0, len(mat) - 1))] += 1
    return mat, rhs


@settings(max_examples=300)
@given(int_matrices())
def test_rank_matches_rational_elimination(mat):
    assert rank_int(mat) == ref_rank(mat)


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda k: int_matrices(rows=st.just(k), cols=st.just(k))))
def test_det_matches_rational_elimination(mat):
    # The subdeterminant reference is only as good as its determinant.
    assert bareiss_det(mat) == ref_det(mat)


@st.composite
def subdet_matrices(draw):
    """int_matrices, taller than wide as often as wider, sometimes with a zero row
    and sometimes with a row of ones appended (the [A; 1^T] of criterion 10)."""
    mat = draw(int_matrices(rows=st.integers(1, 7), cols=st.integers(1, 7)))
    if draw(st.booleans()):
        mat[draw(st.integers(0, len(mat) - 1))] = [0] * len(mat[0])
    if draw(st.booleans()):
        mat.append([1] * len(mat[0]))
    return mat


@settings(max_examples=300)
@given(subdet_matrices())
def test_max_subdeterminant_matches_one_elimination_per_submatrix(mat):
    assert max_abs_subdeterminant(mat) == ref_max_abs_subdeterminant(mat)


@pytest.mark.parametrize(
    "mat, want",
    [
        ([[0, 0], [0, 0]], 0),
        ([[2, 0], [0, 0], [0, 3]], 6),  # a zero row between the two that matter
        ([[1, 1], [1, 1], [1, -1]], 2),  # the first two rows are dependent, the first and third are not
        ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 1),  # a permutation matrix, det = -1
        ([[BIG, BIG + 1], [BIG - 1, BIG]], BIG + 1),  # a 1-minor beats the determinant 1
        ([[BIG, -BIG], [BIG, BIG]], 2 * BIG * BIG),
    ],
)
def test_max_subdeterminant_examples(mat, want):
    assert max_abs_subdeterminant(mat) == want == ref_max_abs_subdeterminant(mat)


def with_ones(A):
    return A + [[1] * len(A[0])]


def test_max_subdeterminant_on_fuzz_and_acceptance_corpora():
    instances = [lp for lp, _ in random_instances(seed=20240801, count=200, require_feasible=False)]
    instances += [lp for lp, _ in random_instances(seed=20240801, count=25, require_interior=True, skip_zero_b=True)]
    instances += [load_instance(name)[0] for name in ("simple2", "identity2", "triangle")]
    for lp in instances:
        A = [list(row) for row in lp.A_exact]
        for mat in (A, with_ones(A)):
            assert max_abs_subdeterminant(mat) == ref_max_abs_subdeterminant(mat), mat


@pytest.mark.parametrize("m, n", [(4, 10), (5, 12), (6, 14)])
def test_max_subdeterminant_on_planted(m, n):
    A = [list(row) for row in planted_instance(np.random.default_rng(m), m, n).A_exact]
    for mat in (A, with_ones(A)):
        assert max_abs_subdeterminant(mat) == ref_max_abs_subdeterminant(mat)


@pytest.mark.parametrize("width", range(1, 12))
def test_colex_levels_match_the_object_array_kernel(width):
    cols, drops = [], []
    np_cols = np_drops = np.empty((1, 0), dtype=np.intp)
    for k in range(1, width + 1):
        cols, drops = _colex_level(cols, drops, width)
        np_cols, np_drops = np_colex_level(np_cols, np_drops, width)
        assert len(cols) == k and len(cols[0]) == comb(width, k)
        assert cols == np_cols.T.tolist() and drops == np_drops.T.tolist()


@st.composite
def shaped_systems(draw):
    """(mat, rhs) tall, square or wide, entries up to 2**40 in size or in [-2, 2].

    Sometimes a row or a column of mat is zero. The right-hand side is
    free, or mat @ z for a nonnegative z with zeros, so that some bases
    have a nonnegative solution.
    """
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    entry = st.integers(-BIG, BIG) if draw(st.booleans()) else st.integers(-2, 2)
    mat = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        mat[draw(st.integers(0, n_rows - 1))] = [0] * n_cols
    if draw(st.booleans()):
        j = draw(st.integers(0, n_cols - 1))
        for row in mat:
            row[j] = 0
    if draw(st.booleans()):
        rhs = draw(st.lists(entry, min_size=n_rows, max_size=n_rows))
    else:
        z = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=n_cols, max_size=n_cols))
        rhs = [sum(a * v for a, v in zip(row, z)) for row in mat]
    return mat, rhs


@settings(max_examples=300)
@given(shaped_systems())
def test_list_kernels_match_the_object_array_kernels(system):
    mat, rhs = system
    assert max_abs_subdeterminant(mat) == np_max_abs_subdeterminant(mat)
    assert feasible_bases(mat, rhs) == np_feasible_bases(mat, rhs)


def test_list_kernels_match_the_object_array_kernels_on_fuzz_and_planted():
    instances = [lp for lp, _ in random_instances(seed=20240801, count=200, require_feasible=False)]
    instances += [planted_instance(np.random.default_rng(m), m, n) for m, n in [(4, 10), (5, 12), (6, 14)]]
    for lp in instances:
        A, b = [list(row) for row in lp.A_exact], list(lp.b_exact)
        for mat, rhs in ((A, b), (with_ones(A), [0] * lp.m + [1])):
            assert max_abs_subdeterminant(mat) == np_max_abs_subdeterminant(mat), mat
            assert feasible_bases(mat, rhs) == np_feasible_bases(mat, rhs), (mat, rhs)


@settings(max_examples=400)
@given(systems())
def test_solve_unique_matches_rational_gauss_jordan(system):
    mat, rhs = system
    sol = solve_unique(mat, rhs)
    assert as_fractions(sol) == ref_solve_unique(mat, rhs)
    if sol is not None and len(mat) == len(mat[0]):
        # Square: the common denominator is |det| itself, not a multiple.
        assert sol[1] == abs(ref_det(mat))


@pytest.mark.parametrize(
    "mat, rank",
    [
        ([[0, 1, 2], [0, 2, 4], [0, 0, 1]], 2),  # first column has no pivot
        ([[1, 2, 3], [2, 4, 6], [0, 0, 0]], 1),  # dependent and zero rows
        ([[1, 2, 5], [2, 4, 7]], 2),  # second column has no pivot after the first step
        ([[40000, 1], [1, 40000]], 2),
        ([[BIG, BIG + 1], [BIG - 1, BIG]], 2),  # determinant 1 from entries near 2**40
        ([[0, 0], [0, 0]], 0),
    ],
)
def test_rank_examples(mat, rank):
    assert rank_int(mat) == rank == ref_rank(mat)


EXTREMES = [2**63 - 1, -(2**63 - 1), -(2**63), 2**63, 2**64 + 3, -(2**70), PRIME, 3 * PRIME]


@st.composite
def modular_matrices(draw):
    """Matrices with at least MODULAR_MIN_DIM rows and columns, so rank_int tries
    the rank modulo PRIME first.

    Up to four times as many columns as rows, so the window of the first
    rows + RANK_WINDOW_EXTRA columns is often narrower than the matrix.
    Entries are in [-3, 3]. Where the matrix is wide enough, the leading
    columns may be zeroed or made copies of the first, too many for the
    window to keep full rank while the columns after them can. Then a few
    entries are replaced by values at and beyond the int64 range or by
    multiples of PRIME, and a row is left alone, zeroed, duplicated, or
    made a combination of two others.
    """
    n_rows = draw(st.integers(MODULAR_MIN_DIM, MODULAR_MIN_DIM + 3))
    n_cols = draw(st.integers(MODULAR_MIN_DIM, 4 * n_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.integers(-3, 4, size=(n_rows, n_cols)).tolist()
    # Leaves the window at most rows - 1 independent columns.
    short = RANK_WINDOW_EXTRA + 2
    leading = draw(st.sampled_from(["free", "zero", "repeat"]))
    if leading != "free" and n_cols - n_rows >= short:
        k = draw(st.integers(short, n_cols - n_rows))
        for row in mat:
            row[:k] = [0 if leading == "zero" else row[0]] * k
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        mat[i][j] = draw(st.sampled_from(EXTREMES))
    target = draw(st.integers(2, n_rows - 1))
    kind = draw(st.sampled_from(["free", "zero", "duplicate", "combination"]))
    if kind == "zero":
        mat[target] = [0] * n_cols
    elif kind == "duplicate":
        mat[target] = list(mat[0])
    elif kind == "combination":
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat[target] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
    return mat


@settings(max_examples=60)
@given(modular_matrices())
def test_rank_on_the_modular_route_matches_rational_elimination(mat):
    assert rank_int(mat) == ref_rank(mat)


@pytest.mark.parametrize("zero_leading, widths", [(0, [20]), (9, [20, 48])])
def test_rank_mod_prime_widens_a_short_window_to_every_column(monkeypatch, zero_leading, widths):
    # With 9 zero leading columns the first 20 hold at most 11 independent ones.
    m, n = MODULAR_MIN_DIM, 4 * MODULAR_MIN_DIM
    mat = [list(row) for row in planted_instance(np.random.default_rng(7), m, n).A_exact]
    for row in mat:
        row[:zero_leading] = [0] * zero_leading
    seen = []
    eliminate = _exact._eliminate_mod_prime
    monkeypatch.setattr(_exact, "_eliminate_mod_prime", lambda a: seen.append(a.shape[1]) or eliminate(a))
    assert rank_mod_prime(mat) == m == ref_rank(mat)
    assert seen == widths


def test_rank_falls_back_when_prime_divides_every_maximal_minor():
    # A row of multiples of PRIME vanishes mod PRIME, so only Bareiss can return m.
    m, n = MODULAR_MIN_DIM, 4 * MODULAR_MIN_DIM
    mat = [list(row) for row in planted_instance(np.random.default_rng(7), m, n).A_exact]
    mat[0] = [PRIME * v for v in mat[0]]
    assert rank_mod_prime(mat) == m - 1
    assert rank_int(mat) == m == ref_rank(mat)


@pytest.mark.parametrize(
    "mat, rhs, want",
    [
        ([[0, 1], [1, 0]], [3, 5], ([5, 3], 1)),  # determinant -1: signs flip onto the numerators
        ([[2, 1], [1, -1]], [1, 2], ([3, -3], 3)),  # det -3, z = (1, -1): numerators are not reduced
        ([[2, 0], [0, 3]], [1, 1], ([3, 2], 6)),
        ([[2, 4], [1, 2]], [1, 1], None),  # singular block
        ([[1], [1]], [2, 2], ([2], 1)),  # overdetermined, consistent
        ([[1], [1]], [1, 2], None),  # overdetermined, inconsistent
        ([[0, 1], [0, 2], [1, 0]], [1, 2, 3], ([6, 2], 2)),  # pivots off the first rows, consistent
        ([[0, 1], [0, 2], [1, 0]], [1, 3, 3], None),  # same block, inconsistent leftover row
        ([[40000, 1]], [40000], None),  # more unknowns than equations: not unique
    ],
)
def test_solve_unique_examples(mat, rhs, want):
    assert solve_unique(mat, rhs) == want
    assert as_fractions(want) == ref_solve_unique(mat, rhs)


@st.composite
def screened_systems(draw):
    """(mat, rhs) for the basis screen, beyond what a validated LP reaches.

    Entries are in [-2, 2], with a few replaced by values at and beyond
    the int64 range. Optionally a column is zeroed and the last row is
    made a combination of earlier rows, so mat is rank deficient. The
    right-hand side is free, or mat @ z for a nonnegative z with zeros (a
    vertex, degenerate and shared by several bases when z has fewer
    nonzeros than the rank), or that plus one on the last row (then
    inconsistent whenever the last row is dependent).
    """
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    mat = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n_cols, max_size=n_cols),
                        min_size=n_rows, max_size=n_rows))
    for _ in range(draw(st.integers(0, 3))):
        mat[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, n_cols - 1))] = draw(st.sampled_from(EXTREMES))
    if draw(st.booleans()):
        j = draw(st.integers(0, n_cols - 1))
        for row in mat:
            row[j] = 0
    if n_rows > 1 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[min(1, n_rows - 2)])]
    z = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=n_cols, max_size=n_cols))
    rhs = [sum(a * v for a, v in zip(row, z)) for row in mat]
    mode = draw(st.sampled_from(["free", "vertex", "perturbed"]))
    if mode == "free":
        rhs = draw(st.lists(st.integers(-3, 3), min_size=n_rows, max_size=n_rows))
    elif mode == "perturbed":
        rhs[-1] += 1
    return mat, rhs


@settings(max_examples=400)
@given(screened_systems())
def test_basis_screen_matches_one_rational_solve_per_basis(system):
    mat, rhs = system
    bases = feasible_bases(mat, rhs)
    assert sorted(bases) == ref_feasible_bases(mat, rhs)
    # The oracle's assembly: one solve per basis, points over one denominator.
    points, den = oracle._basic_solutions(mat, rhs, bases)
    assert [tuple(Fraction(v, den) for v in point) for point in points] == ref_basic_solutions(mat, rhs)


def reference_result(lp):
    """enumerate_polyhedron as the rational basis loop gives it."""
    return two_pass_enumerate(lp, ref_basic_solutions)


def test_enumeration_matches_reference_on_fuzz_corpus():
    corpus = random_instances(seed=20240801, count=200, require_feasible=False)
    for lp, res in corpus:
        assert_same_result(res, reference_result(lp))


@pytest.mark.parametrize("m, n", [(4, 10), (5, 12)])
def test_enumeration_matches_reference_on_planted(m, n):
    lp = planted_instance(np.random.default_rng(m), m, n)
    res = enumerate_polyhedron(lp)
    assert res.status == "optimal" and len(res.vertices) > 0
    assert_same_result(res, reference_result(lp))


def test_enumeration_with_ones_in_the_row_space():
    """1^T = sum of A's rows, so the ray system is overdetermined and has no solution."""
    lp = validate(LinearProgram.from_lists([[1, 1, 0, 0], [0, 0, 1, 1]], [2, 3], [1, 2, 3, 1]))
    res = enumerate_polyhedron(lp)
    assert res.rays.shape == (0, 4)
    assert res.opt_exact == 5
    assert_same_result(res, reference_result(lp))
