"""Exact integer kernels for small systems.

Everything here answers exactly, at any entry size. The kernels work on
plain Python ints in lists, which have no word-size limit, so the
brute-force oracle and the structural checks run without rounding, and
without numpy. Elimination is fraction-free: each division by the
previous pivot is exact (Sylvester's identity), so no Fraction is built
inside a loop.

Neither the largest subdeterminant nor the oracle's basis screen runs an
elimination per submatrix. Every k-minor comes from (k-1)-minors by
Laplace expansion along the newest row, over column subsets indexed by
colex rank, with each "drop one column" index found by arithmetic
(``_colex_level``). A level of minors is one list; ``_expand`` builds it
one column place at a time, picking that place's row entries and drop
minors for every subset at once with ``operator.itemgetter``. The
subdeterminant walks row subsets depth first. The oracle's screen
(``vertex_and_ray_bases``) adds the rows of [A | b] once, holding two
levels of minors at a time, so its memory is two binomial levels and not
a table per level; Cramer's rule on the signs of those minors picks the
bases with a nonnegative solution, and only those reach an elimination.
The same pass also screens the bases of the ray system
[A; 1^T] z = (0, ..., 0, 1): A has full row rank, so its maximal minors
and their Cramer numerators are signed sums of the m-minors of A the
pass ends at.

The one kernel that meets larger matrices is the rank check, at a few
hundred rows: it first eliminates modulo a prime in numpy int64
arithmetic, on a window of the first m + 8 columns and then, only if
that falls short of full rank, on all of them. Full rank mod p proves
full rank, and the Python-int elimination runs only when neither can
decide. It is also the only one that imports numpy, and only when it
runs.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import comb
from operator import add, gt, itemgetter, mul, neg, sub

# A prime below 2**31. Residues stay below it, so a product of two fits
# in 62 bits and an int64 elimination step cannot overflow.
PRIME = 2147483629

# Smallest min(rows, columns) at which the modular rank check runs before
# Bareiss: below it the numpy calls per pivot cost more than Bareiss's
# Python arithmetic (measured; see CHANGES.md).
MODULAR_MIN_DIM = 12

# Columns beyond the row count in the rank check's first elimination. A
# full-rank integer matrix almost always has full rank in its first m + 8
# columns already, even with entries in [-3, 3]: that needs only one of
# C(m + 8, m) minors to be nonzero mod p. Eliminating on that window costs
# O(m**3), not the O(m**2 n) of all n columns; a window that falls short
# costs one more elimination, on all columns.
RANK_WINDOW_EXTRA = 8


def _picker(indices):
    """itemgetter over ``indices`` that returns a tuple for one index or none too.

    itemgetter returns the item itself for one index and refuses none.
    """
    if not indices:
        return lambda seq: ()
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def _colex_level(cols: list[list[int]], drops: list[list[int]], width: int) -> tuple[list[list[int]], list[list[int]]]:
    """The next level of column subsets of range(width), in colex order, stored column-wise.

    ``cols[j]`` lists the j-th smallest column of every k-subset, and
    ``drops[j]`` the colex rank among (k-1)-subsets of each subset without
    its j-th column. The (k+1)-subsets with largest column c are the
    k-subsets T of range(c), the first comb(c, k) in colex order, each with
    c appended: dropping c leaves T, and dropping T's j-th column leaves a
    k-subset with largest column c, of rank comb(c, k) plus that of T's
    j-th drop.
    """
    k = len(cols)
    tops = range(k, width)
    blocks = [comb(c, k) for c in tops]
    next_cols = [list(chain.from_iterable(col[:block] for block in blocks)) for col in cols]
    next_cols.append(list(chain.from_iterable(map(repeat, tops, blocks))))
    next_drops = [[d + block for block in blocks for d in drop[:block]] for drop in drops]
    next_drops.append(list(chain.from_iterable(map(range, blocks))))
    return next_cols, next_drops


def _expanders(cols: list[list[int]], drops: list[list[int]]) -> list[tuple]:
    """One (entry picker, minor picker, sign) per column place of a level, for ``_expand``.

    Expanding along the last of k rows, place j carries the cofactor sign
    (-1)**(k - 1 + j).
    """
    k = len(cols)
    return [(_picker(c), _picker(d), (k - 1 + j) % 2) for j, (c, d) in enumerate(zip(cols, drops))]


def _expand(minors: list[int], row: list[int], expanders: list[tuple]) -> list[int]:
    """The k-minors of one more row, each expanded along that row.

    ``minors`` are the (k-1)-minors of the rows before it, indexed by colex
    rank, ``row`` the new row as Python ints, and ``expanders`` the level's
    pickers from ``_expanders``. Each place j adds, for every k-subset at
    once, its j-th column's entry times the minor of its j-th drop. Every
    product is a Python int, so no minor is rounded or wraps.
    """
    child = None
    for entry, minor, negative in expanders:
        term = map(mul, entry(row), minor(minors))
        if child is None:
            child = list(map(neg, term)) if negative else list(term)
        else:
            child = list(map(sub if negative else add, child, term))
    return child


def max_abs_subdeterminant(A: list[list[int]]) -> int:
    """Largest absolute determinant over all square submatrices of A.

    Exhaustive over every row subset and column subset of equal size, but
    no minor is computed twice: row subsets are walked depth first, rows
    added in increasing order, and the k-minors of a row prefix over every
    k-subset of columns are each a k-term expansion along the newest row
    over the (k-1)-minors its parent prefix holds (``_expand``). One walk
    path holds at most one minor per column subset (2**n), and the index
    lists of every level n * 2**(n-1) small ints. A prefix whose minors
    are all zero has dependent rows, and so has every prefix below it,
    which the walk skips. Exponential in the smaller dimension; callers
    cap the instance size.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [list(map(int, r)) for r in A]
    depth = min(m, n)
    level = ([], [])
    levels = [None]  # levels[k]: the expanders of the k-subsets; level 0 expands nothing
    for _ in range(depth):
        level = _colex_level(*level, n)
        levels.append(_expanders(*level))
    best = 0

    def descend(minors: list[int], k: int, start: int) -> None:
        nonlocal best
        for r in range(start, m):
            child = _expand(minors, rows[r], levels[k + 1])
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
    first, on the window of the first rows + RANK_WINDOW_EXTRA columns
    and, if that is short of full rank, on all columns. A rank mod p of
    min(rows, columns) is the exact rank: a minor that is nonzero mod p
    is a nonzero integer. Anything less may be p dividing every maximal
    minor, so Bareiss decides; no verdict is ever probabilistic.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    full = min(n_rows, n_cols)
    if full >= MODULAR_MIN_DIM and rank_mod_prime(rows) == full:
        return full
    return rank_bareiss(rows)


def rank_mod_prime(rows: list[list[int]]) -> int:
    """Rank over the integers modulo PRIME (Gaussian elimination in int64).

    ``rows`` has at least one row of integers, of any size. The first
    len(rows) + RANK_WINDOW_EXTRA columns are eliminated first: full row
    rank there is full row rank of the whole matrix. Otherwise all
    columns are eliminated, and that rank is returned.
    """
    n_rows, n_cols = len(rows), len(rows[0])
    width = min(n_cols, n_rows + RANK_WINDOW_EXTRA)
    rank = _eliminate_mod_prime(_residues(rows, width))
    if rank == n_rows or width == n_cols:
        return rank
    return _eliminate_mod_prime(_residues(rows, n_cols))


def _residues(rows: list[list[int]], width: int):
    """The first ``width`` columns of ``rows`` modulo PRIME, as an int64 array.

    numpy reads the entries in one pass. Only when one lies outside int64
    is each reduced as a Python int first.
    """
    import numpy as np

    window = [r[:width] for r in rows]
    size = len(rows) * width
    try:
        a = np.fromiter(chain.from_iterable(window), np.int64, size)
    except OverflowError:
        a = np.fromiter((int(v) % PRIME for v in chain.from_iterable(window)), np.int64, size)
    return a.reshape(len(rows), width) % PRIME


def _eliminate_mod_prime(a) -> int:
    """Rank modulo PRIME of the int64 residue matrix ``a``, which it overwrites.

    The pivot is the first nonzero entry at or below the current row, read
    as one scalar when it is that row's own. A step updates only the
    columns right of its pivot: the pivot column is not read after it.
    """
    import numpy as np

    p = PRIME
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        if not a[rank, col]:
            nonzero = np.flatnonzero(a[rank:, col])
            if not nonzero.size:
                continue
            piv = rank + int(nonzero[0])
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


def vertex_and_ray_bases(A, b) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The bases with a nonnegative basic solution of A z = b and of [A; 1^T] z = (0, ..., 0, 1), from one pass.

    A (m x n, rows of Python ints) must have full row rank. A basis of a
    system of rank r is a set B of r columns with det(B) != 0, and its
    solution is z_B = (Cramer numerators) / det(B); it is kept when every
    numerator is zero or has det(B)'s sign. Bases come as ascending column
    tuples in colex order.

    One Laplace-expansion pass, rows added one at a time, forms the
    k-minors of the first k rows of [A | b] over all k-subsets of its
    n + 1 columns, indexed by colex rank, each an expansion along the
    newest row over the level below; only two levels of minors (lists of
    Python ints) and their index lists are alive at a time. The subsets
    through b, the last column, come after those of A in colex order, so
    the numerator of B's j-th column sits at comb(n, m) plus the rank of B
    without it: the same index its determinant expands over.

    The m-minors of A the pass ends at also give every (m+1)-minor of
    [A; 1^T] and its Cramer numerators: expanding along the row of ones,
    the minor over columns S = (s_0 < ... < s_m) is D = sum_j t_j, and
    replacing column s_j by the right-hand side leaves the numerator t_j,
    where t_j = (-1)**(m + j) det A_{S without s_j}. So the ray screen is
    one expansion over minors already formed. The rank of [A; 1^T] is
    m + 1 unless 1^T lies in A's row space, where every D vanishes and the
    ray system, inconsistent, keeps no basis, as with n = m, where there
    is no S.
    """
    n = len(A[0])
    minors, level = [1], ([], [])
    for row, rhs in zip(A, b):
        level = _colex_level(*level, n + 1)
        minors = _expand(minors, [*row, rhs], _expanders(*level))
    cols, drops = level
    m = len(cols)
    n_bases = comb(n, m)
    # b moves from the last of m places to the j-th: m - 1 - j swaps,
    # each of which flips the numerator's sign.
    nums = [(_picker([n_bases + d for d in drop[:n_bases]])(minors), (m - 1 - j) % 2)
            for j, drop in enumerate(drops)]
    vertices = _screened(cols, minors[:n_bases], nums)
    cols, drops = _colex_level(cols, drops, n)  # the (m+1)-subsets of A's columns
    nums = [(_picker(drop)(minors), (m + j) % 2) for j, drop in enumerate(drops)]
    det = [0] * len(cols[0])
    for num, negative in nums:
        det = list(map(sub if negative else add, det, num))
    return vertices, _screened(cols, det, nums)


def _screened(cols: list[list[int]], det: list[int], nums: list[tuple]) -> list[tuple[int, ...]]:
    """The subsets of a level (``cols``) with det != 0 and every Cramer numerator zero or of det's sign.

    ``nums`` holds, per column place, the numerator of every subset in the
    level's order and whether it stands negated.
    """
    keep = list(map(bool, det))
    for num, negative in nums:
        # A numerator of the wrong sign has num * det < 0 (> 0 when negated).
        wrong = map((0).__lt__ if negative else (0).__gt__, map(mul, num, det))
        keep = list(map(gt, keep, wrong))  # keep and not wrong
    return list(zip(*(compress(col, keep) for col in cols)))


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
