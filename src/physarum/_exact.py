"""Exact integer kernels for small systems.

Everything here answers exactly, at any entry size. The kernels work on
plain Python ints, which have no word-size limit, so the brute-force
oracle and the structural checks run without rounding. Elimination is
fraction-free: each division by the previous pivot is exact (Sylvester's
identity), so no Fraction is built inside a loop. The largest
subdeterminant is not an elimination per submatrix: every minor comes
from minors one size smaller by Laplace expansion, along a depth-first
walk over row subsets. The one kernel that meets larger matrices is the
rank check, at a few hundred rows: it first eliminates modulo a prime in
numpy int64 arithmetic, which proves full rank when it finds it, and
runs the Python-int elimination only when that cannot decide.
"""

from __future__ import annotations

import numpy as np

# A prime below 2**31. Residues stay below it, so a product of two fits
# in 62 bits and an int64 elimination step cannot overflow.
PRIME = 2147483629

# Smallest min(rows, columns) at which the modular rank check runs before
# Bareiss: below it the numpy calls per pivot cost more than Bareiss's
# Python arithmetic (measured; see CHANGES.md).
MODULAR_MIN_DIM = 12


def _expansion_tables(n: int, depth: int) -> list[list[tuple[tuple[int, int, int], ...]]]:
    """Laplace expansion terms for every column subset of size 1..depth.

    Level k lists the k-subsets of range(n) in lexicographic order (a
    subset is extended by each column above its largest), and
    ``tables[k - 1][i]`` holds, for the i-th k-subset C and each position
    j of a column c in C, the triple (c, index of C minus c in level
    k - 1, (-1)**(k - 1 + j)): the cofactor terms of an expansion along
    the last of k rows. A subset with one column dropped is found by
    arithmetic on the extension offsets of the level below, not by value.
    """
    tables = []
    terms_level: list[tuple[tuple[int, int, int], ...]] = [()]
    first_level = [0]  # smallest column that extends each subset
    offsets_below: list[int] = []
    for _ in range(depth):
        # Subset i of this level extended by column c lands at offsets[i] + c
        # of the next level.
        offsets = []
        size = 0
        for first in first_level:
            offsets.append(size - first)
            size += n - first
        terms_next = []
        first_next = []
        for i, (terms, first) in enumerate(zip(terms_level, first_level)):
            for c in range(first, n):
                # Appending c moves every older column one place further
                # from the last row, which flips its cofactor sign.
                terms_next.append(
                    tuple([(col, offsets_below[t] + c, -sign) for col, t, sign in terms]) + ((c, i, 1),)
                )
                first_next.append(c + 1)
        tables.append(terms_next)
        terms_level, first_level, offsets_below = terms_next, first_next, offsets
    return tables


def max_abs_subdeterminant(A: list[list[int]]) -> int:
    """Largest absolute determinant over all square submatrices of A.

    Exhaustive over every row subset and column subset of equal size, but
    no minor is computed twice: row subsets are walked depth first, rows
    added in increasing order, and the k-minors of a row prefix over every
    k-subset of columns are each a k-term expansion along the newest row
    over the (k-1)-minors its parent prefix holds. One walk path holds at
    most one minor per column subset (2**n). A prefix whose minors are all
    zero has dependent rows, and so has every prefix below it, which the
    walk skips. Exponential in the smaller dimension; callers cap the
    instance size.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [[int(v) for v in r] for r in A]
    depth = min(m, n)
    tables = _expansion_tables(n, depth)
    best = 0

    def descend(minors: list[int], k: int, start: int) -> None:
        nonlocal best
        table = tables[k]
        for r in range(start, m):
            row = rows[r]
            child = []
            for terms in table:
                d = 0
                for c, i, sign in terms:
                    a = row[c]
                    if a:
                        p = minors[i]
                        if p:
                            d += sign * a * p
                child.append(d)
            hi, lo = max(child), min(child)
            if hi or lo:
                best = max(best, hi, -lo)
                if k + 1 < depth:
                    descend(child, k + 1, r + 1)

    if depth:
        descend([1], 0, 0)
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
