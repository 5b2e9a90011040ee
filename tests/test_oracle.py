"""Exact enumeration oracle: vertices, rays, optima, and the size bounds."""

from fractions import Fraction

import numpy as np
import pytest

from physarum import LinearProgram, enumerate_polyhedron, interior_point, max_subdeterminant, sample_feasible, validate
from physarum._exact import max_abs_subdeterminant
from physarum.errors import NoInteriorPointError, TooLargeError
from tests.conftest import random_instances


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
        d = max_subdeterminant(lp.A_int, "exact")
        assert d == want_d
        aug = np.vstack([lp.A_int, np.ones(n, dtype=int)])
        d_aug = max_abs_subdeterminant(aug.tolist())
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
        d = Fraction(int(max_subdeterminant(lp.A_int, "exact")))
        b_l1 = Fraction(int(np.abs(lp.b_int).sum()))
        costs = set()
        for vx in res.vertices_exact:
            for a_row, b_i in zip(lp.A_int, lp.b_int):
                assert sum(Fraction(int(a)) * e for a, e in zip(a_row, vx)) == b_i
            for e in vx:
                assert e >= 0
                if e > 0:
                    assert Fraction(1, 1) / d <= e <= d * b_l1
            costs.add(sum(Fraction(int(ci)) * e for ci, e in zip(lp.c_int, vx)))
        costs = sorted(costs)
        for lo, hi in zip(costs, costs[1:]):
            assert hi - lo >= 1 / (d * d)
        aug = np.vstack([lp.A_int, np.ones(lp.n, dtype=int)])
        d_aug = Fraction(int(max_abs_subdeterminant(aug.tolist())))
        for rx in res.rays_exact or []:
            assert sum(rx) == 1
            for a_row in lp.A_int:
                assert sum(Fraction(int(a)) * e for a, e in zip(a_row, rx)) == 0
            positives = [e for e in rx if e > 0]
            assert all(e <= d for e in positives)
            assert all(e >= 1 / d_aug for e in positives)
            if any(e < 1 / d for e in positives):
                naive_ray_violations += 1
    assert feasible >= 50
    assert naive_ray_violations >= 1, "corpus should witness the failure of the naive ray bound"
