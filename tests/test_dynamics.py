"""Point evaluation of the dynamics and the bounds."""

import numpy as np
import pytest

from physarum import check_bounds, compute_params, evaluate, gradient_identity_residual, rhs_log, sample_feasible
from physarum import dynamics
from physarum.linalg import laplacian_solver
from physarum.errors import DimensionMismatchError, NonPositiveStateError, NotInKernelError
from tests.conftest import planted_instance, rand_positive, ref_cholesky_solve


def test_evaluate_simple2_on_feasible_point(simple2):
    ev = evaluate(simple2, [0.5, 0.5])
    assert np.allclose(ev.weights, [0.5, 0.25])
    assert np.allclose(ev.potentials, [4.0 / 3.0])
    assert np.allclose(ev.edge_potentials, [4.0 / 3.0, 4.0 / 3.0])
    assert np.allclose(ev.flux, [2.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(ev.direction, [1.0 / 6.0, -1.0 / 6.0])
    assert ev.energy == pytest.approx(4.0 / 3.0)
    assert ev.cost == pytest.approx(1.5)
    assert ev.energy_flux == pytest.approx(ev.energy, rel=1e-12)


def test_evaluate_simple2_off_feasible_point(simple2):
    ev = evaluate(simple2, [1.0, 1.0])
    assert np.allclose(ev.flux, [2.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(ev.direction, [-1.0 / 3.0, -2.0 / 3.0])


def test_evaluate_solves_once_unless_the_split_is_read(simple2, monkeypatch):
    solves = []

    def counting(lp):
        solve = laplacian_solver(lp)

        def counted(w, rhs):
            solves.append(rhs)
            return solve(w, rhs)

        return counted

    monkeypatch.setattr(dynamics, "laplacian_solver", counting)
    ev = evaluate(simple2, [1.0, 1.0])
    assert ev.energy_flux == pytest.approx(ev.energy) and ev.edge_potential_inf > 0.0
    assert len(solves) == 1


def test_evaluate_keeps_its_own_copy_of_the_state(simple2):
    a = np.array([0.5, 0.5])
    ev = evaluate(simple2, a)
    a[0] = 4.0
    assert ev.x.tolist() == [0.5, 0.5]
    assert ev.cost == pytest.approx(float(simple2.c @ ev.x))


def test_evaluate_identity2_fixed_point(identity2):
    ev = evaluate(identity2, [2.0, 3.0])
    assert np.allclose(ev.flux, [2.0, 3.0])
    assert np.allclose(ev.direction, 0.0, atol=1e-14)
    assert ev.energy == pytest.approx(5.0)
    assert ev.cost == pytest.approx(5.0)


def test_flux_meets_demands_everywhere(shipped):
    rng = np.random.default_rng(100)
    for name, (lp, _, _) in shipped.items():
        for _ in range(50):
            x = rand_positive(rng, lp.n, lo=1e-3, hi=1e3)
            ev = evaluate(lp, x)
            resid = np.abs(lp.A @ ev.flux - lp.b).max()
            scale = np.abs(lp.b).max() + 1.0
            assert resid <= 1e-8 * scale, (name, x)
            assert abs(ev.energy_flux - ev.energy) <= 1e-8 * (abs(ev.energy) + 1.0)


def test_gradient_identity_exact_on_kernel(simple2):
    ev = evaluate(simple2, [0.5, 0.5])
    h = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert gradient_identity_residual(simple2, ev, h) <= 1e-10
    ev = evaluate(simple2, [0.3, 0.9])
    assert gradient_identity_residual(simple2, ev, [1.0, -1.0]) <= 1e-10
    assert gradient_identity_residual(simple2, ev, [0.0, 0.0]) == 0.0


def test_gradient_identity_rejects_non_kernel(simple2):
    ev = evaluate(simple2, [0.5, 0.5])
    with pytest.raises(NotInKernelError):
        gradient_identity_residual(simple2, ev, [1.0, 1.0])


def test_check_bounds_feasible(simple2):
    params = compute_params(simple2)
    ev = evaluate(simple2, [0.5, 0.5])
    rep = check_bounds(simple2, ev, params)
    assert rep.flux_inf == pytest.approx(2.0 / 3.0)
    assert rep.flux_bound == 2.0 and rep.flux_ok
    assert rep.edge_potential_inf == pytest.approx(4.0 / 3.0)
    assert rep.edge_potential_bound == 3.0 and rep.edge_potential_ok


def test_check_bounds_rejects_false_feasibility_claim(simple2):
    params = compute_params(simple2)
    ev = evaluate(simple2, [1.0, 1.0])
    with pytest.raises(ValueError):
        check_bounds(simple2, ev, params)


def test_flux_bound_holds_on_stress_corpus(shipped):
    rng = np.random.default_rng(102)
    for name, (lp, params, _) in shipped.items():
        for _ in range(300):
            x = rand_positive(rng, lp.n)
            ev = evaluate(lp, x)
            assert np.abs(ev.flux).max() <= params.flux_bound * (1.0 + 1e-8), (name, x)


def test_potential_bound_holds_on_feasible_corpus(shipped):
    rng = np.random.default_rng(103)
    for name, (lp, params, result) in shipped.items():
        cap = params.subdet_max * params.cost_sum * (1.0 + 1e-8)
        for x in sample_feasible(result, rng, 200):
            ev = evaluate(lp, x)
            assert ev.edge_potential_inf <= cap, (name, x)


def test_evaluate_input_validation(simple2):
    with pytest.raises(NonPositiveStateError):
        evaluate(simple2, [1.0, 0.0])
    with pytest.raises(NonPositiveStateError):
        evaluate(simple2, [1.0, -1.0])
    with pytest.raises(NonPositiveStateError):
        evaluate(simple2, [1.0, np.nan])
    with pytest.raises(DimensionMismatchError):
        evaluate(simple2, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("m", [1, 3, 12, 48])
def test_method_dot_gives_the_bytes_of_the_function_form(m):
    # The package calls ndarray.dot, which skips np.dot's dispatch; both
    # reach the same BLAS routine, so every derived value keeps its bytes.
    rng = np.random.default_rng(100 + m)
    lp = planted_instance(rng, m, 2 * m + 2)
    for _ in range(10):
        x = rand_positive(rng, lp.n)
        w = x / lp.c
        p = ref_cholesky_solve(np.dot(lp.A * w, lp.At), lp.b)
        edge = np.dot(lp.At, p)
        ev = evaluate(lp, x)
        assert ev.potentials.tobytes() == p.tobytes()
        assert ev.edge_potentials.tobytes() == edge.tobytes()
        assert ev.flux.tobytes() == (w * edge).tobytes()
        assert ev.energy == float(np.dot(lp.b, p))
        assert ev.cost == float(np.dot(lp.c, x))
        assert rhs_log(lp, np.log(x)).tobytes() == (np.dot(lp.At, p) / lp.c - 1.0).tobytes()
