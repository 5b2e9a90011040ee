"""Exact integer kernels for small systems.

Everything here works on plain Python ints, which have no word-size limit,
so the brute-force oracle and the structural checks run without rounding
at any entry size. Elimination is fraction-free: each division
by the previous pivot is exact (Sylvester's identity), so no Fraction is
built inside a loop. Sizes are desk scale (a handful of rows, at most a
few dozen columns in the oracle, a few hundred in the rank check).
"""

from __future__ import annotations

from itertools import combinations


def det_int(rows: list[list[int]]) -> int:
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


def max_abs_subdeterminant(A: list[list[int]]) -> int:
    """Largest absolute determinant over all square submatrices of A.

    Exhaustive over every row subset and column subset of equal size.
    Exponential in the smaller dimension; callers cap the instance size.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    best = 0
    for k in range(1, min(m, n) + 1):
        for rows in combinations(range(m), k):
            sub = [A[r] for r in rows]
            for cols in combinations(range(n), k):
                d = det_int([[row[c] for c in cols] for row in sub])
                if abs(d) > best:
                    best = abs(d)
    return best


def rank_int(rows: list[list[int]]) -> int:
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
