"""Exact integer kernels for small systems.

Everything here answers exactly, at any entry size. The kernels work on
plain Python ints, which have no word-size limit (held in numpy object
arrays where a whole level of minors is computed at once), so the
brute-force oracle and the structural checks run without rounding.
Elimination is fraction-free: each division by the previous pivot is
exact (Sylvester's identity), so no Fraction is built inside a loop.

Neither the largest subdeterminant nor the oracle's basis screen runs an
elimination per submatrix. Every k-minor comes from (k-1)-minors by
Laplace expansion along the newest row, over column subsets indexed by
colex rank, with each "drop one column" index found by arithmetic
(``_colex_level``, ``_expand``). The subdeterminant walks row subsets
depth first. The screen adds the rows of [mat | rhs] once, holding two
levels of minors at a time, so its memory is two binomial levels and not
a table per level; Cramer's rule on the signs of those minors picks the
bases with a nonnegative solution, and only those reach an elimination.

The one kernel that meets larger matrices is the rank check, at a few
hundred rows: it first eliminates modulo a prime in numpy int64
arithmetic, which proves full rank when it finds it, and runs the
Python-int elimination only when that cannot decide.
"""

from __future__ import annotations

from math import comb

import numpy as np

# A prime below 2**31. Residues stay below it, so a product of two fits
# in 62 bits and an int64 elimination step cannot overflow.
PRIME = 2147483629

# Smallest min(rows, columns) at which the modular rank check runs before
# Bareiss: below it the numpy calls per pivot cost more than Bareiss's
# Python arithmetic (measured; see CHANGES.md).
MODULAR_MIN_DIM = 12


def _colex_level(cols: np.ndarray, drops: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The next level of column subsets of range(width), in colex order.

    ``cols`` lists the k-subsets, one ascending row each, and ``drops[i, j]``
    is the colex rank among (k-1)-subsets of subset i without its j-th
    column. The (k+1)-subsets with largest column c are the k-subsets T
    of range(c), the first comb(c, k) in colex order, each with c appended:
    dropping c leaves T, and dropping T's j-th column leaves a k-subset
    with largest column c, of rank comb(c, k) plus that of T's j-th drop.
    """
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


def _expand(minors: np.ndarray, entries: np.ndarray, cols: np.ndarray, drops: np.ndarray) -> np.ndarray:
    """The k-minors of one more row, each expanded along that row.

    ``minors`` are the (k-1)-minors of the rows before it, indexed by colex
    rank, ``entries`` the new row as an object array of Python ints, and
    ``cols``, ``drops`` the k-subsets from ``_colex_level``. Each product
    is a Python int, so no minor is rounded or wraps.
    """
    k = cols.shape[1]
    child = np.zeros(len(cols), dtype=object)
    for j in range(k):
        term = entries[cols[:, j]] * minors[drops[:, j]]
        # Cofactor sign (-1)**(k - 1 + j) along the last of k rows.
        child = child - term if (k - 1 + j) % 2 else child + term
    return child


def max_abs_subdeterminant(A: list[list[int]]) -> int:
    """Largest absolute determinant over all square submatrices of A.

    Exhaustive over every row subset and column subset of equal size, but
    no minor is computed twice: row subsets are walked depth first, rows
    added in increasing order, and the k-minors of a row prefix over every
    k-subset of columns are each a k-term expansion along the newest row
    over the (k-1)-minors its parent prefix holds (``_expand``). One walk
    path holds at most one minor per column subset (2**n), and the index
    arrays of every level n * 2**(n-1) small ints. A prefix whose minors
    are all zero has dependent rows, and so has every prefix below it,
    which the walk skips. Exponential in the smaller dimension; callers
    cap the instance size.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [np.array([int(v) for v in r], dtype=object) for r in A]
    depth = min(m, n)
    levels = [(np.empty((1, 0), dtype=np.intp),) * 2]
    for _ in range(depth):
        levels.append(_colex_level(*levels[-1], n))
    best = 0

    def descend(minors: np.ndarray, k: int, start: int) -> None:
        nonlocal best
        for r in range(start, m):
            child = _expand(minors, rows[r], *levels[k + 1])
            hi, lo = child.max(), child.min()
            if hi or lo:
                best = max(best, hi, -lo)
                if k + 1 < depth:
                    descend(child, k + 1, r + 1)

    if depth:
        descend(np.ones(1, dtype=object), 0, 0)
    return best


def rank_int(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix.

    From MODULAR_MIN_DIM rows and columns on, the rank modulo PRIME comes
    first. A rank mod p of min(rows, columns) is the exact rank: a minor
    that is nonzero mod p is a nonzero integer. Anything less may be
    p dividing every maximal minor, so Bareiss decides; no verdict is
    ever probabilistic.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    full = min(n_rows, n_cols)
    if full >= MODULAR_MIN_DIM and rank_mod_prime(rows) == full:
        return full
    return rank_bareiss(rows)


def rank_mod_prime(rows: list[list[int]]) -> int:
    """Rank over the integers modulo PRIME (Gaussian elimination in int64).

    ``rows`` has at least one row. Entries are reduced in Python before
    the cast, so any integer size is accepted. A step updates only the
    columns right of its pivot: the pivot column is not read after it.
    """
    p = PRIME
    a = np.array([[int(v) % p for v in r] for r in rows], dtype=np.int64)
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        piv = rank + int(nonzero[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        pivot_row = a[rank, col + 1:] * pow(int(a[rank, col]), -1, p) % p
        below = a[rank + 1:, col + 1:]
        # Both factors are below p, so the difference lies in (-p**2, p).
        below -= np.multiply.outer(a[rank + 1:, col], pivot_row)
        below %= p
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_bareiss(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix (Bareiss row echelon form).

    Rows are kept as the tails right of the columns already handled: a
    pivot row leaves the working set, and a column with no nonzero entry
    left is dropped without a pivot.
    """
    work = [[int(v) for v in r] for r in rows]
    rank = 0
    prev = 1
    while work and work[0]:
        piv = next((i for i, r in enumerate(work) if r[0]), None)
        if piv is None:
            work = [r[1:] for r in work]
            continue
        p, *tail = work.pop(piv)
        next_work = []
        for r in work:
            f = r[0]
            next_work.append([(p * a - f * b) // prev for a, b in zip(r[1:], tail)])
        work = next_work
        prev = p
        rank += 1
    return rank


def feasible_bases(mat, rhs) -> list[tuple[int, ...]]:
    """The column bases of ``mat @ z = rhs`` whose basic solution is nonnegative.

    ``mat`` is any integer matrix and r its rank. A basis is a set B of r
    columns with det(B) != 0 on r independent rows, and its solution is
    z_B = (Cramer numerators) / det(B); it is kept when every numerator
    is zero or has det(B)'s sign. Bases come as ascending column tuples
    in colex order; an inconsistent system has none.

    Every r-minor of [mat | rhs] comes from one Laplace-expansion pass,
    rows added one at a time: the k-minors of the first k kept rows over
    all k-subsets of the n + 1 columns, indexed by colex rank, are each
    an expansion along the newest row over the level below. A row whose
    minors over mat's columns all vanish depends on the kept rows and is
    skipped, unless a minor through rhs does not vanish, which makes the
    system inconsistent. Only two levels of minors (numpy object arrays
    of Python ints) and their index arrays are alive at a time. The
    subsets through rhs, the last column, come after those of mat in colex
    order, so the numerator of B's j-th column sits at comb(n, r) plus
    the rank of B without it: the same index its determinant expands over.
    """
    n = len(mat[0]) if mat else 0
    minors = np.ones(1, dtype=object)
    cols = drops = np.empty((1, 0), dtype=np.intp)
    ahead = None  # the next level's subsets, kept while rows turn out dependent
    for row, b in zip(mat, rhs):
        if ahead is None:
            ahead = _colex_level(cols, drops, n + 1)
        child = _expand(minors, np.array([int(v) for v in row] + [int(b)], dtype=object), *ahead)
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


def solve_unique(mat, rhs) -> tuple[list[int], int] | None:
    """Solve ``mat @ z = rhs`` exactly, requiring a unique solution.

    ``mat`` is r x k (r >= k) with integer entries. Returns ``(num, det)``
    with ``det > 0`` and ``z = num / det``, or None when the columns are
    dependent (solution not unique) or the system is inconsistent.

    Montante's fraction-free Gauss-Jordan elimination on ``[mat | rhs]``:
    after the pivot in column j every row is updated as
    ``(p * row - row[j] * pivot_row) // prev``, an exact division. After k
    pivots each pivot row reads ``p_k z_i = num_i``, and each leftover row
    (r > k) keeps a (k+1)-minor of the augmented matrix in its last
    column, which vanishes exactly when the system is consistent. Rows
    are kept as the tails right of the columns already eliminated.
    """
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    work = [[int(v) for v in row] + [int(b)] for row, b in zip(mat, rhs)]
    prev = 1
    for col in range(n_cols):
        piv = next((i for i in range(col, n_rows) if work[i][0]), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        p, *tail = work[col]
        for i in range(n_rows):
            if i != col:
                row = work[i]
                f = row[0]
                work[i] = [(p * a - f * b) // prev for a, b in zip(row[1:], tail)]
        work[col] = tail
        prev = p
    if any(row[0] for row in work[n_cols:]):
        return None
    sign = -1 if prev < 0 else 1
    return [sign * row[0] for row in work[:n_cols]], sign * prev
