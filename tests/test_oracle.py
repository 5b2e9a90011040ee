"""Exact enumeration oracle: vertices, rays, optima, and the size bounds.

The oracle's earlier form is kept below as the reference: a general basis
screen (``feasible_bases``, any rank and any right-hand side) run once on
the vertex system and once on the ray system, one ``_exact.solve_unique``
per kept basis, and the points deduplicated and sorted as Fractions. The
one-pass screen and the integer assembly must give its result exactly,
order included.
"""

import operator
import random
from fractions import Fraction
from itertools import compress
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from physarum import LinearProgram, enumerate_polyhedron, interior_point, max_subdeterminant, sample_feasible, validate
from physarum import _exact, _record
from physarum._exact import _colex_level, _expand, _expanders, _picker, max_abs_subdeterminant, vertex_and_ray_bases
from physarum.errors import NoInteriorPointError, TooLargeError
from physarum.oracle import OracleResult
from tests.conftest import planted_instance, random_instances, ref_sample_feasible


def feasible_bases(mat, rhs) -> list[tuple[int, ...]]:
    """The column bases of ``mat @ z = rhs`` whose basic solution is nonnegative.

    ``mat`` is any integer matrix and r its rank. A basis is a set B of r
    columns with det(B) != 0 on r independent rows, and its solution is
    z_B = (Cramer numerators) / det(B); it is kept when every numerator
    is zero or has det(B)'s sign. Bases come as ascending column tuples
    in colex order; an inconsistent system has none.

    Every r-minor of [mat | rhs] comes from one Laplace-expansion pass,
    rows added one at a time; a row whose minors over mat's columns all
    vanish depends on the kept rows and is skipped, unless a minor through
    rhs does not vanish, which makes the system inconsistent.
    """
    n = len(mat[0]) if mat else 0
    minors = [1]
    level = ([], [])
    ahead = None  # the next level's subsets, kept while rows turn out dependent
    for row, b in zip(mat, rhs):
        if ahead is None:
            ahead = _colex_level(*level, n + 1)
            expanders = _expanders(*ahead)
        child = _expand(minors, [*map(int, row), int(b)], expanders)
        if any(child[:comb(n, len(level[0]) + 1)]):
            minors, level, ahead = child, ahead, None
        elif any(child):
            return []
    cols, drops = level
    r = len(cols)
    n_bases = comb(n, r)
    # rhs moves from the last of r places to the j-th: r - 1 - j swaps,
    # each of which flips the numerator's sign.
    det = minors[:n_bases]
    keep = list(map(bool, det))
    for j, drop in enumerate(drops):
        num = _picker([n_bases + d for d in drop[:n_bases]])(minors)
        wrong = map((0).__lt__ if (r - 1 - j) % 2 else (0).__gt__, map(operator.mul, num, det))
        keep = list(map(operator.gt, keep, wrong))
    return list(zip(*(compress(col, keep) for col in cols))) if r else [()]


def two_pass_basic_solutions(mat, rhs) -> list[tuple[Fraction, ...]]:
    n_cols = len(mat[0])
    found: dict[tuple[Fraction, ...], None] = {}
    for cols in feasible_bases(mat, rhs):
        num, det = _exact.solve_unique([[row[j] for j in cols] for row in mat], rhs)
        point = [Fraction(0)] * n_cols
        for j, v in zip(cols, num):
            point[j] = Fraction(v, det)
        found.setdefault(tuple(point))
    return sorted(found)


def two_pass_enumerate(lp, basic_solutions=two_pass_basic_solutions) -> OracleResult:
    """enumerate_polyhedron as two screens and Fraction points, with ``basic_solutions`` for both systems."""
    verts_exact = basic_solutions(lp.A_exact, lp.b_exact)
    rays_exact = basic_solutions([*lp.A_exact, [1] * lp.n], [0] * lp.m + [1])
    costs = [sum(map(operator.mul, lp.c_exact, vert)) for vert in verts_exact]
    opt_exact = min(costs, default=None)
    optimal = tuple(i for i, cost in enumerate(costs) if cost == opt_exact)
    support = {j for i in optimal for j, v in enumerate(verts_exact[i]) if v != 0}
    return OracleResult(
        status="optimal" if verts_exact else "infeasible",
        opt=None if opt_exact is None else float(opt_exact), optimal_indices=optimal,
        J=tuple(sorted(support)), N=tuple(sorted(set(range(lp.n)) - support)),
        vertices_exact=tuple(verts_exact), rays_exact=tuple(rays_exact), opt_exact=opt_exact,
    )


def assert_same_result(got, want):
    for name in [*_record.fields(got), "vertices", "rays"]:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b), name
        else:
            assert a == b, name


def assert_one_pass_matches_two(lp):
    A, b = [list(row) for row in lp.A_exact], list(lp.b_exact)
    ones = [*A, [1] * lp.n], [0] * lp.m + [1]
    assert vertex_and_ray_bases(A, b) == (feasible_bases(A, b), feasible_bases(*ones))
    assert_same_result(enumerate_polyhedron(lp), two_pass_enumerate(lp))


def test_one_pass_matches_two_passes_on_fuzz_corpus():
    for lp, _ in random_instances(seed=20240801, count=200, require_feasible=False):
        assert_one_pass_matches_two(lp)


@pytest.mark.parametrize("m, n", [(4, 10), (5, 12), (6, 14)])
def test_one_pass_matches_two_passes_on_planted(m, n):
    for seed in range(3):
        assert_one_pass_matches_two(planted_instance(np.random.default_rng(seed), m, n))


def test_one_pass_matches_two_passes_on_shipped(shipped):
    for lp, _, _ in shipped.values():
        assert_one_pass_matches_two(lp)


@st.composite
def full_rank_systems(draw):
    """A validated LP whose A has full row rank, drawn to reach the screen's edge cases.

    ``ones`` makes the last row 1^T minus the sum of the others, so 1^T
    lies in A's row space and there is no ray; ``square`` sets n = m.
    b = A z for a nonnegative z with zeros is a degenerate vertex shared by
    several bases, or b is free (often infeasible). Costs are drawn from
    {1, 2}, so optimal vertices often tie.
    """
    m = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["free", "ones", "square"]))
    n = m if shape == "square" else draw(st.integers(m, 7))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=m, max_size=m))
    if shape == "ones" and m > 1:
        A[-1] = [1 - sum(col[:-1]) for col in zip(*A)]
    elif shape == "ones":
        A[0] = [1] * n
    assume(_exact.rank_int(A) == m)
    if draw(st.booleans()):
        z = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=n, max_size=n))
        b = [sum(a * v for a, v in zip(row, z)) for row in A]
    else:
        b = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    c = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    return validate(LinearProgram.from_lists(A, b, c)), shape


@settings(max_examples=300)
@given(full_rank_systems())
def test_one_pass_matches_two_passes_on_edge_systems(drawn):
    lp, shape = drawn
    assert_one_pass_matches_two(lp)
    if shape != "free":
        assert vertex_and_ray_bases(lp.A_exact, lp.b_exact)[1] == []


def test_simple2_enumeration(simple2):
    res = enumerate_polyhedron(simple2)
    assert res.status == "optimal"
    assert res.vertices.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert res.rays.shape == (0, 2)
    assert res.opt == 1.0
    assert res.opt_exact == Fraction(1)
    assert res.optimal_indices == (1,)
    assert set(res.J) == {0} and set(res.N) == {1}


def test_identity2_enumeration(identity2):
    res = enumerate_polyhedron(identity2)
    assert [v.tolist() for v in res.vertices] == [[2.0, 3.0]]
    assert res.opt == 5.0
    assert set(res.J) == {0, 1} and res.N == ()


def test_triangle_enumeration(triangle):
    res = enumerate_polyhedron(triangle)
    assert [v.tolist() for v in res.vertices] == [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    assert res.opt == 2.0
    assert res.optimal_indices == (1,)
    assert set(res.J) == {0, 1} and set(res.N) == {2}
    assert res.vertices_exact[1] == (Fraction(1), Fraction(1), Fraction(0))


def test_recession_rays_are_found():
    lp = validate(LinearProgram.from_lists([[1, -1, 0, 0], [0, 0, 1, -1]], [1, 0], [1, 1, 1, 1]))
    res = enumerate_polyhedron(lp)
    assert [v.tolist() for v in res.vertices] == [[1.0, 0.0, 0.0, 0.0]]
    assert [r.tolist() for r in res.rays] == [[0.0, 0.0, 0.5, 0.5], [0.5, 0.5, 0.0, 0.0]]
    for r in res.rays:
        assert np.allclose(lp.A @ r, 0.0) and r.sum() == pytest.approx(1.0)
    # positive-cost rays do not enlarge the limit support
    assert set(res.J) == {0}


def test_infeasible_detected():
    lp = validate(LinearProgram.from_lists([[1, 1]], [-1], [1, 1]))
    res = enumerate_polyhedron(lp)
    assert res.status == "infeasible"
    assert res.opt is None
    assert res.vertices.size == 0 and res.rays.size == 0


def test_large_entries_stay_exact():
    """Entries above 2**15 once took a binary64 path; Python ints take any size."""
    lp = validate(LinearProgram.from_lists([[40000, 1]], [40000], [1, 1]))
    res = enumerate_polyhedron(lp)
    assert res.vertices_exact == ((Fraction(0), Fraction(40000)), (Fraction(1), Fraction(0)))
    assert [v.tolist() for v in res.vertices] == [[0.0, 40000.0], [1.0, 0.0]]
    assert res.opt_exact == 1 and res.opt == 1.0


def test_enumeration_cap():
    n = 17
    A = np.ones((1, n), dtype=int)
    lp = validate(LinearProgram(A=A, b=np.array([1]), c=np.ones(n, dtype=int)))
    with pytest.raises(TooLargeError):
        enumerate_polyhedron(lp)
    res = enumerate_polyhedron(lp, cap=17)
    assert res.opt == 1.0


def test_max_subdeterminant_modes():
    A = np.array([[1, 2], [3, 4]])
    assert max_subdeterminant(A, "exact") == 4.0
    assert max_subdeterminant(A, "bound") >= 4.0


def test_interior_point_shipped(shipped):
    for name, (lp, _, res) in shipped.items():
        x = interior_point(res)
        assert np.all(x > 0.0), name
        assert np.abs(lp.A @ x - lp.b).max() <= 1e-9 * (np.abs(lp.b).max() + 1.0), name


def test_interior_point_missing():
    lp = validate(LinearProgram.from_lists([[1, 0], [0, 1]], [0, 3], [1, 1]))
    res = enumerate_polyhedron(lp)
    assert res.status == "optimal"
    with pytest.raises(NoInteriorPointError):
        interior_point(res)


def test_sample_feasible_points(shipped):
    rng = np.random.default_rng(42)
    for name, (lp, _, res) in shipped.items():
        pts = sample_feasible(res, rng, 40)
        assert len(pts) == 40
        for x in pts:
            assert x.shape == (lp.n,)
            assert np.all(x >= 0.0)
            assert np.abs(lp.A @ x - lp.b).max() <= 1e-9 * (np.abs(lp.b).max() + 1.0), name


def test_sample_feasible_points_along_rays():
    # x_0 - x_1 = 1 has the vertex (1, 0) and the ray (1/2, 1/2).
    lp = validate(LinearProgram.from_lists([[1, -1]], [1], [1, 2]))
    res = enumerate_polyhedron(lp)
    assert res.rays.tolist() == [[0.5, 0.5]]
    pts = sample_feasible(res, np.random.default_rng(7), 40)
    assert pts.shape == (40, 2)
    assert np.all(pts > 0.0)
    assert np.abs(pts @ lp.A.T - lp.b).max() <= 1e-12


def test_sample_feasible_draws_as_numpy_uniform_did(shipped):
    # Read through rng.random() one draw at a time, a numpy Generator gives
    # the points its vectorised uniform gave, bit for bit.
    with_rays = [res for _, res in random_instances(45, 60, n_range=(2, 7)) if len(res.rays)]
    assert len(with_rays) >= 10
    for k, res in enumerate([res for _, _, res in shipped.values()] + with_rays):
        got = sample_feasible(res, np.random.default_rng(k), 50)
        want = ref_sample_feasible(res, np.random.default_rng(k), 50)
        assert got.tobytes() == want.tobytes()


def test_sample_feasible_repeats_under_one_seed(shipped):
    for _, _, res in shipped.values():
        first = sample_feasible(res, random.Random(3), 20)
        assert first.shape == (20, len(res.J) + len(res.N))
        assert first.tobytes() == sample_feasible(res, random.Random(3), 20).tobytes()
        if len(res.vertices) + len(res.rays) > 1:  # identity2's region is one point
            assert first.tobytes() != sample_feasible(res, random.Random(4), 20).tobytes()


def test_ray_lower_bound_has_counterexamples():
    """Normalized extreme-ray entries can drop below 1/D.

    The correct lower bound uses the subdeterminants of A with the
    normalization row appended, not of A alone; both witnesses below meet
    that corrected bound with equality.
    """
    for rows, want_d, want_aug in [
        ([[2, -1, -1]], 2, 3),
        ([[1, -1, 0, 0], [0, 0, 1, -1]], 1, 2),
    ]:
        n = len(rows[0])
        lp = validate(LinearProgram.from_lists(rows, [1] + [0] * (len(rows) - 1), [1] * n))
        res = enumerate_polyhedron(lp)
        d = max_subdeterminant(lp.A_exact, "exact")
        assert d == want_d
        d_aug = max_abs_subdeterminant([*lp.A_exact, (1,) * n])
        assert d_aug == want_aug
        smallest = min(float(min(e for e in r if e > 0)) for r in res.rays)
        assert smallest < 1.0 / d  # the naive bound fails
        assert smallest >= 1.0 / d_aug - 1e-12  # the corrected bound holds


def test_vertex_and_ray_size_bounds_fuzz():
    corpus = random_instances(seed=20240801, count=200, require_feasible=False)
    feasible = 0
    naive_ray_violations = 0
    for lp, res in corpus:
        if res.status != "optimal":
            continue
        feasible += 1
        d = Fraction(int(max_subdeterminant(lp.A_exact, "exact")))
        b_l1 = sum(map(abs, lp.b_exact))
        costs = set()
        for vx in res.vertices_exact:
            for a_row, b_i in zip(lp.A_exact, lp.b_exact):
                assert sum(a * e for a, e in zip(a_row, vx)) == b_i
            for e in vx:
                assert e >= 0
                if e > 0:
                    assert Fraction(1, 1) / d <= e <= d * b_l1
            costs.add(sum(ci * e for ci, e in zip(lp.c_exact, vx)))
        costs = sorted(costs)
        for lo, hi in zip(costs, costs[1:]):
            assert hi - lo >= 1 / (d * d)
        d_aug = Fraction(int(max_abs_subdeterminant([*lp.A_exact, (1,) * lp.n])))
        for rx in res.rays_exact or []:
            assert sum(rx) == 1
            for a_row in lp.A_exact:
                assert sum(a * e for a, e in zip(a_row, rx)) == 0
            positives = [e for e in rx if e > 0]
            assert all(e <= d for e in positives)
            assert all(e >= 1 / d_aug for e in positives)
            if any(e < 1 / d for e in positives):
                naive_ray_violations += 1
    assert feasible >= 50
    assert naive_ray_violations >= 1, "corpus should witness the failure of the naive ray bound"
