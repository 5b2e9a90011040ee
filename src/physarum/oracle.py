"""Brute-force ground truth for small instances.

The feasible set {x : A x = b, x >= 0} is pointed, so it is spanned by its
vertices plus the extreme directions of the recession cone. Both are basic
solutions of small square systems and can be enumerated outright:

* vertices: for every choice of m columns with a nonsingular square block,
  solve the block against b and keep nonnegative solutions;
* directions: vertices of {r : A r = 0, sum r = 1, r >= 0}, enumerated the
  same way on the matrix A with a row of ones appended.

No block is eliminated just to be rejected. One exact screen
(_exact.feasible_bases) computes every minor of the augmented system once,
shared between the bases that contain it, and keeps a basis only when its
determinant is nonzero and every Cramer numerator is zero or has the
determinant's sign. Only the kept blocks are solved by exact integer
elimination on Python ints (_exact.solve_unique), and Fractions are built
only for their points. That is what makes this usable as a test oracle at
any entry size: optimal value, optimal supports, and entry bounds come out
exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exact
from .errors import NoInteriorPointError, TooLargeError
# max_subdeterminant is not called here, but bench/spans.py records spans by
# rebinding oracle.max_subdeterminant, so the name stays bound.
from .model import ValidatedLP, max_subdeterminant  # noqa: F401

ENUMERATION_CAP = 16

# sample_feasible draws vertex weights from [SAMPLE_MIN_WEIGHT, 1) and ray
# coefficients from [0, SAMPLE_RAY_SCALE).
SAMPLE_MIN_WEIGHT = 0.05
SAMPLE_RAY_SCALE = 1.0


@dataclass(frozen=True)
class OracleResult:
    """Complete description of a small feasible region.

    ``vertices`` and ``rays`` are float arrays (possibly empty) in a
    deterministic sorted order; the same data is kept exactly as tuples of
    Fractions. ``J`` is the union of optimal supports, ``N`` its
    complement; indices are 0-based.
    """

    status: str
    vertices: np.ndarray
    rays: np.ndarray
    opt: float | None
    optimal_indices: tuple[int, ...]
    J: tuple[int, ...]
    N: tuple[int, ...]
    vertices_exact: tuple[tuple[Fraction, ...], ...]
    rays_exact: tuple[tuple[Fraction, ...], ...]
    opt_exact: Fraction | None

    @property
    def optimal_vertices(self) -> np.ndarray:
        return self.vertices[list(self.optimal_indices)] if len(self.optimal_indices) else self.vertices[:0]


def _basic_solutions_exact(mat: list[list[int]], rhs: list[int]) -> list[tuple[Fraction, ...]]:
    n_cols = len(mat[0])
    found: dict[tuple[Fraction, ...], None] = {}
    for cols in _exact.feasible_bases(mat, rhs):
        num, det = _exact.solve_unique([[row[j] for j in cols] for row in mat], rhs)
        point = [Fraction(0)] * n_cols
        for j, v in zip(cols, num):
            point[j] = Fraction(v, det)
        found.setdefault(tuple(point))
    return sorted(found)


def enumerate_polyhedron(lp: ValidatedLP, cap: int = ENUMERATION_CAP) -> OracleResult:
    """Enumerate vertices, extreme directions, and the optimum, exactly.

    Costs are strictly positive, so a feasible instance is never
    unbounded; an empty vertex list means infeasible.
    """
    if lp.n > cap:
        raise TooLargeError(f"enumeration capped at n <= {cap}, got n={lp.n}")
    ray_mat = lp.A_int.tolist() + [[1] * lp.n]
    ray_rhs = [0] * lp.m + [1]
    verts_exact = _basic_solutions_exact(lp.A_int.tolist(), lp.b_int.tolist())
    rays_exact = _basic_solutions_exact(ray_mat, ray_rhs)
    vertices = np.array([[float(v) for v in vert] for vert in verts_exact]).reshape(len(verts_exact), lp.n)
    rays = np.array([[float(v) for v in ray] for ray in rays_exact]).reshape(len(rays_exact), lp.n)
    c_frac = [Fraction(int(v)) for v in lp.c_int]
    costs = [sum(ci * vi for ci, vi in zip(c_frac, vert)) for vert in verts_exact]
    opt_exact = min(costs, default=None)
    optimal = tuple(i for i, cost in enumerate(costs) if cost == opt_exact)
    support = {j for i in optimal for j, v in enumerate(verts_exact[i]) if v != 0}
    return OracleResult(
        status="optimal" if verts_exact else "infeasible", vertices=vertices, rays=rays,
        opt=None if opt_exact is None else float(opt_exact), optimal_indices=optimal,
        J=tuple(sorted(support)), N=tuple(sorted(set(range(lp.n)) - support)),
        vertices_exact=tuple(verts_exact), rays_exact=tuple(rays_exact), opt_exact=opt_exact,
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
    if np.all(s > 0.0):
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


def sample_feasible(result: OracleResult, rng: np.random.Generator, count: int) -> np.ndarray:
    """Random feasible points: convex vertex combinations plus ray offsets.

    Weights are bounded away from zero so samples stay strictly positive
    whenever the interior is nonempty.
    """
    if result.status != "optimal":
        raise NoInteriorPointError("cannot sample from an empty region")
    n_v = len(result.vertices)
    weights = rng.uniform(SAMPLE_MIN_WEIGHT, 1.0, size=(count, n_v))
    weights /= weights.sum(axis=1, keepdims=True)
    pts = weights @ result.vertices
    if len(result.rays):
        coeff = rng.uniform(0.0, SAMPLE_RAY_SCALE, size=(count, len(result.rays)))
        pts = pts + coeff @ result.rays
    return pts
