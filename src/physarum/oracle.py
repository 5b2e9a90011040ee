"""Brute-force ground truth for small instances.

The feasible set {x : A x = b, x >= 0} is pointed, so it is spanned by its
vertices plus the extreme directions of the recession cone. Both are basic
solutions of small square systems and can be enumerated outright:

* vertices: for every choice of m columns with a nonsingular square block,
  solve the block against b and keep nonnegative solutions;
* directions: vertices of {r : A r = 0, sum r = 1, r >= 0}, enumerated the
  same way on the matrix A with a row of ones appended.

No block is eliminated just to be rejected. One exact screen
(_exact.vertex_and_ray_bases) computes every maximal minor of [A | b]
once, shared between the bases that contain it, and keeps a basis only
when its determinant is nonzero and every Cramer numerator is zero or has
the determinant's sign. The ray system needs no pass of its own: A has
full row rank, so each maximal minor of [A; 1^T] and each of its Cramer
numerators is a signed sum of m-minors of A that the vertex pass already
holds. Only the kept blocks are solved, by exact integer elimination on
Python ints (_exact.solve_unique). The points are assembled, deduplicated
and sorted as tuples of integers over one common denominator, the lcm of
their determinants, whose order is the order of the rational points; the
costs are integer dot products, and Fractions are built once, for the
points returned. That is what makes this usable as a test oracle at any
entry size: optimal value, optimal supports, and entry bounds come out
exact, not approximate.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from . import _exact
from ._record import record
from .errors import NoInteriorPointError, TooLargeError
# max_subdeterminant is not called here, but bench/spans.py records spans by
# rebinding oracle.max_subdeterminant, so the name stays bound.
from .model import ENUMERATION_CAP, ValidatedLP, max_subdeterminant  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

# sample_feasible draws vertex weights from [SAMPLE_MIN_WEIGHT, 1) and ray
# coefficients from [0, SAMPLE_RAY_SCALE).
SAMPLE_MIN_WEIGHT = 0.05
SAMPLE_RAY_SCALE = 1.0


@record
class OracleResult:
    """Complete description of a small feasible region.

    The vertices and rays are kept exactly, as tuples of Fractions in a
    deterministic sorted order; ``vertices`` and ``rays`` are the same
    data as float arrays (possibly empty), built on first access. ``J``
    is the union of optimal supports, ``N`` its complement; indices are
    0-based.
    """

    status: str
    opt: float | None
    optimal_indices: tuple[int, ...]
    J: tuple[int, ...]
    N: tuple[int, ...]
    vertices_exact: tuple[tuple[Fraction, ...], ...]
    rays_exact: tuple[tuple[Fraction, ...], ...]
    opt_exact: Fraction | None

    @cached_property
    def vertices(self) -> np.ndarray:
        return self._floats(self.vertices_exact)

    @cached_property
    def rays(self) -> np.ndarray:
        return self._floats(self.rays_exact)

    def _floats(self, points) -> np.ndarray:
        import numpy as np

        # J and N split the columns, so they count them even with no point.
        return np.array(float_rows(points)).reshape(len(points), len(self.J) + len(self.N))

    @property
    def optimal_vertices(self) -> np.ndarray:
        return self.vertices[list(self.optimal_indices)] if len(self.optimal_indices) else self.vertices[:0]


def float_rows(points) -> list[list[float]]:
    """Exact points as lists of floats, each the nearest float to its Fraction."""
    return [[float(v) for v in point] for point in points]


def _basic_solutions(mat, rhs, bases) -> tuple[list[tuple[int, ...]], int]:
    """The distinct basic solutions of ``bases``, sorted, as integer tuples over one denominator.

    Each kept block is solved by ``_exact.solve_unique`` (read through the
    module, one call per basis) into numerators over its determinant, and
    every point is scaled to the lcm of the determinants: the integer
    tuples then compare, and sort, as the rational points do.
    """
    n_cols = len(mat[0])
    solved = [(cols, *_exact.solve_unique([[row[j] for j in cols] for row in mat], rhs)) for cols in bases]
    den = math.lcm(*(det for _, _, det in solved))
    found = set()
    for cols, num, det in solved:
        scale = den // det
        point = [0] * n_cols
        for j, v in zip(cols, num):
            point[j] = v * scale
        found.add(tuple(point))
    return sorted(found), den


def _fractions(points: list[tuple[int, ...]], den: int) -> tuple[tuple[Fraction, ...], ...]:
    """The points as tuples of Fractions; every zero entry is one shared Fraction(0)."""
    zero = Fraction(0)
    return tuple(tuple(Fraction(v, den) if v else zero for v in point) for point in points)


def enumerate_polyhedron(lp: ValidatedLP, cap: int = ENUMERATION_CAP) -> OracleResult:
    """Enumerate vertices, extreme directions, and the optimum, exactly.

    Costs are strictly positive, so a feasible instance is never
    unbounded; an empty vertex list means infeasible.
    """
    if lp.n > cap:
        raise TooLargeError(f"enumeration capped at n <= {cap}, got n={lp.n}")
    vertex_bases, ray_bases = _exact.vertex_and_ray_bases(lp.A_exact, lp.b_exact)
    verts, den = _basic_solutions(lp.A_exact, lp.b_exact, vertex_bases)
    rays, ray_den = _basic_solutions([*lp.A_exact, [1] * lp.n], [0] * lp.m + [1], ray_bases)
    costs = [sum(map(operator.mul, lp.c_exact, vert)) for vert in verts]
    low = min(costs, default=None)
    opt_exact = None if low is None else Fraction(low, den)
    optimal = tuple(i for i, cost in enumerate(costs) if cost == low)
    support = {j for i in optimal for j, v in enumerate(verts[i]) if v}
    return OracleResult(
        status="optimal" if verts else "infeasible",
        opt=None if opt_exact is None else float(opt_exact), optimal_indices=optimal,
        J=tuple(sorted(support)), N=tuple(sorted(set(range(lp.n)) - support)),
        vertices_exact=_fractions(verts, den), rays_exact=_fractions(rays, ray_den), opt_exact=opt_exact,
    )


def interior_point(result: OracleResult) -> np.ndarray:
    """A strictly positive feasible point, or NoInteriorPointError.

    The mean of the vertices plus a small multiple of the summed extreme
    directions. The multiple is a tenth of the smallest positive vertex
    entry, so the point stays well inside the region.
    """
    if result.status != "optimal" or len(result.vertices) == 0:
        raise NoInteriorPointError("the feasible region is empty")
    s = result.vertices.mean(axis=0)
    if len(result.rays):
        positive = result.vertices[result.vertices > 0]
        shift = 0.1 * float(positive.min()) if positive.size else 1.0
        s = s + shift * result.rays.sum(axis=0)
    if (s > 0.0).all():
        return s
    raise NoInteriorPointError("no strictly positive feasible point found from vertices and rays")


def start_point(lp: ValidatedLP, start=None, result: OracleResult | None = None) -> np.ndarray:
    """``start`` as given or, when it is None, an interior point of ``result`` (enumerated if None).

    A given start is returned unconverted, so that check_point sees the caller's value.
    """
    if start is not None:
        return start
    if result is None:
        result = enumerate_polyhedron(lp)
    return interior_point(result)


def sample_feasible(result: OracleResult, rng, count: int) -> np.ndarray:
    """Random feasible points: convex vertex combinations plus ray offsets.

    Weights are bounded away from zero so samples stay strictly positive
    whenever the interior is nonempty. ``rng`` is read through
    ``rng.random()`` alone, so a ``random.Random`` serves (and loads no
    ``numpy.random``), and so does a numpy Generator, which then gives the
    points its ``uniform`` gave bit for bit: the draws go row-major, all
    the vertex weights before all the ray coefficients, each as
    low + (high - low) u, numpy's formula.
    """
    if result.status != "optimal":
        raise NoInteriorPointError("cannot sample from an empty region")
    weights = _uniform(rng, SAMPLE_MIN_WEIGHT, 1.0, count, len(result.vertices))
    weights /= weights.sum(axis=1, keepdims=True)
    pts = weights @ result.vertices
    if len(result.rays):
        pts = pts + _uniform(rng, 0.0, SAMPLE_RAY_SCALE, count, len(result.rays)) @ result.rays
    return pts


def _uniform(rng, low: float, high: float, rows: int, cols: int) -> np.ndarray:
    """A rows x cols float array of low + (high - low) rng.random(), filled row-major.

    The array is allocated before the first draw, so a size past memory
    raises MemoryError at once.
    """
    import numpy as np

    span, draw = high - low, rng.random
    return np.fromiter((low + span * draw() for _ in range(rows * cols)), float, rows * cols).reshape(rows, cols)
