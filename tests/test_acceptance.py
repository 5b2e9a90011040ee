"""Acceptance suite: one test per numbered criterion, one printed line each.

Three criteria check bounds whose derivations are spelled out in README.md
under "Derived bounds in criteria 8-10":

  8.  the cost gap decays at least at rate 1/(D c_max): the rate is the
      smallest reduced-cost ratio (c_i - a_i.y*)/c_i over the vanishing
      coordinates, and Cramer's rule puts each numerator at >= 1/D;
  9.  at that rate the trajectory moves by at most 1e-4 between T/2 and T
      for T = 2 ln(1e4 flux_bound) D c_max;
  10. positive entries of normalized extreme rays are at least 1/D_aug,
      D_aug being the largest subdeterminant of A with the all-ones
      normalization row appended (1/D alone is false).
"""

import numpy as np

from physarum import (
    DiscreteConfig,
    FlowConfig,
    certify_trace,
    enumerate_polyhedron,
    evaluate,
    follow_path,
    gradient_identity_residual,
    integrate,
    interior_point,
    iteration_bound,
    max_subdeterminant,
    sample_feasible,
    solve,
)
from physarum._exact import max_abs_subdeterminant
from physarum.linalg import kernel_basis, laplacian_solve
from tests.conftest import (
    CORPUS_EPS as EPS,
    CORPUS_SEED as SEED,
    gap_decay_rate,
    planted_12x48,
    rand_positive,
    random_instances,
    rk45_flow,
)


# Criterion 1's step total at the certified gap stop, an upper bound.
CRITERION_1_ITERATIONS = 43_594


def record(capsys, number, ok, detail=""):
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def test_criterion_01_oracle_agreement(solve_runs, capsys):
    bad = []
    for run in solve_runs["runs"]:
        opt = run["res"].opt
        cost = run["sol"].cost
        if not (opt * (1.0 - 1e-9) <= cost <= (1.0 + EPS) * opt + 1e-9 * opt):
            bad.append((run["name"], cost, opt))
    within_budget = solve_runs["elapsed"] <= 60.0
    iterations = sum(run["sol"].iterations for run in solve_runs["runs"])
    ok = record(
        capsys, 1, not bad and within_budget,
        f"28 instances, {solve_runs['elapsed']:.1f}s, {iterations} iterations",
    )
    assert ok, f"gap failures: {bad}; elapsed {solve_runs['elapsed']:.1f}s"
    # The count is deterministic. The stop with the basis candidate read off
    # a . p / c takes 43,594 steps, each run's first within (1 + eps) opt;
    # the potentials' bound alone takes 81,808.
    assert iterations <= CRITERION_1_ITERATIONS, iterations


def test_criterion_02_potential_drop_certificates(solve_runs, capsys):
    total_checked = 0
    violations = []
    for run in solve_runs["runs"]:
        x_star = run["res"].optimal_vertices[0]
        rep = certify_trace(run["lp"], run["trace"], run["res"].opt, EPS, run["h"], x_star)
        total_checked += rep.steps_checked
        if rep.violations:
            violations.append((run["name"], rep.violations, rep.first_violation))
    ok = record(capsys, 2, not violations, f"{total_checked} steps checked")
    assert ok, f"certificate violations: {violations}"


def test_criterion_03_energy_identity(shipped, capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for name, (lp, _, res) in shipped.items():
        for _ in range(1000):
            x = rand_positive(rng, lp.n)
            ev = evaluate(lp, x)
            scale = 1e-8 * (abs(ev.energy) + 1.0)
            for y in res.vertices:
                resid = abs(float(y @ ev.edge_potentials) - ev.energy)
                worst = max(worst, resid / scale)
    ok = record(capsys, 3, worst <= 1.0, f"worst residual {worst:.2e} of allowance")
    assert ok


def test_criterion_04_gradient_identity(shipped, capsys):
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for name, (lp, _, _) in shipped.items():
        K = kernel_basis(lp.A)
        c_inf = float(np.abs(lp.c).max())
        for _ in range(100):
            x = rand_positive(rng, lp.n, lo=1e-3, hi=1e3)
            h = K @ rng.standard_normal(K.shape[1]) if K.shape[1] else np.zeros(lp.n)
            ev = evaluate(lp, x)
            resid = gradient_identity_residual(lp, ev, h)
            allowance = 1e-8 * (c_inf * (float(np.abs(h).max()) if h.size else 0.0) + 1.0)
            worst = max(worst, resid / allowance)
    ok = record(capsys, 4, worst <= 1.0, f"worst residual {worst:.2e} of allowance")
    assert ok


def test_criterion_05_bound_lemmas(shipped, capsys):
    rng = np.random.default_rng(SEED + 2)
    failures = []
    for name, (lp, params, res) in shipped.items():
        d = params.subdet_max
        for _ in range(1000):
            w = rand_positive(rng, lp.n)
            # ||A^T L^-1 a_i||_inf <= D / w_i for every column i, L = A diag(w) A^T
            if np.any(np.abs(lp.At @ laplacian_solve(lp, w, lp.A)).max(axis=0) > (d / w) * (1.0 + 1e-8)):
                failures.append((name, "column potential", w))
        pot_cap = d * params.cost_sum * (1.0 + 1e-8)
        for x in sample_feasible(res, rng, 1000):
            if evaluate(lp, x).edge_potential_inf > pot_cap:
                failures.append((name, "feasible potential", x))
        for _ in range(1000):
            x = rand_positive(rng, lp.n)
            if float(np.abs(evaluate(lp, x).flux).max()) > params.flux_bound * (1.0 + 1e-8):
                failures.append((name, "flux", x))
    ok = record(capsys, 5, not failures, "3 x 3000 samples")
    assert ok, f"bound failures: {failures[:5]}"


def test_criterion_06_feasibility_contraction(simple2, capsys):
    trace = integrate(simple2, FlowConfig(x0=np.array([2.0, 2.0]), t_end=30.0))
    worst = max(e.feas_residual for e in trace.entries)
    ok = record(capsys, 6, worst <= 1e-6, f"worst residual {worst:.2e}")
    assert ok


def test_criterion_07_path_flow_equivalence(shipped, capsys):
    # integrate samples the flow by Newton on the entropy path, so the flow
    # it reports is checked against an RK45 integration of the vector field.
    # follow_path runs from the feasible starts, integrate from all four.
    planted, x0 = planted_12x48()
    s_triangle = interior_point(shipped["triangle"][2])
    cases = [
        ("simple2", shipped["simple2"][0], interior_point(shipped["simple2"][2]), True),
        ("triangle", shipped["triangle"][0], s_triangle, True),
        ("triangle 2s", shipped["triangle"][0], 2.0 * s_triangle, False),
        ("planted12x48 x0 +-30%", planted, x0 * np.random.default_rng(SEED).uniform(0.7, 1.3, planted.n), False),
    ]
    ts = np.arange(0.0, 10.25, 0.25)
    worst, far = 0.0, []
    for name, lp, start, feasible in cases:
        ref = rk45_flow(lp, start, ts)
        runs = [integrate(lp, FlowConfig(x0=start, t_end=10.0, sample_dt=0.25)).entries.x]
        if feasible:
            runs.append(np.array([p.x for p in follow_path(lp, start, ts)]))
        for xs in runs:
            dev = np.abs(xs - ref).max(axis=1)
            worst = max(worst, float(dev.max()))
            if np.any(dev > 1e-6 * (np.abs(ref).max(axis=1) + 1.0)):
                far.append(name)
    ok = record(capsys, 7, worst <= 1e-5 and not far, f"worst deviation {worst:.2e} from RK45")
    assert ok, f"flow samples off the RK45 reference: {far}"


def a_priori_rate(lp, params):
    """Lower bound 1/(D c_max) on the flow's decay rate toward its limit."""
    return 1.0 / (params.subdet_max * float(lp.c.max()))


def test_criterion_08_decay_rate_class(shipped, capsys):
    slow = []
    measured = []
    for name, (lp, params, res) in shipped.items():
        s = interior_point(res)
        trace = integrate(lp, FlowConfig(x0=s, t_end=40.0))
        nu_hat = gap_decay_rate(trace, res.opt)
        if nu_hat is None:
            measured.append((name, "skipped: gap is noise"))
            continue  # gap is identically zero: nothing decays
        required = a_priori_rate(lp, params) - 0.05
        measured.append((name, round(nu_hat, 3)))
        if nu_hat < required:
            slow.append((name, nu_hat, required))
    ok = record(capsys, 8, not slow, f"measured rates {measured}")
    assert ok, f"decay slower than 1/(D c_max) - 0.05: {slow}"


def test_criterion_09_limit_settles_by_t40(shipped, capsys):
    # At rate nu >= 1/(D c_max) the vanishing coordinates, each at most
    # flux_bound, shrink by e^{-nu T/2} <= 1e-4 / flux_bound over [T/2, T].
    # T is rounded up so that T/2 lies on the 0.25 sample grid.
    drifting = []
    horizons = []
    for name, (lp, params, res) in shipped.items():
        t_end = 2.0 * np.log(1e4 * params.flux_bound) / a_priori_rate(lp, params)
        t_end = 0.5 * np.ceil(t_end / 0.5)
        horizons.append((name, float(t_end)))
        s = interior_point(res)
        for label, x0 in (("feasible", s), ("infeasible", 2.0 * s)):
            trace = integrate(lp, FlowConfig(x0=x0, t_end=t_end))
            x_half = next(e.x for e in trace.entries if e.t == t_end / 2.0)
            drift = float(np.abs(trace.final.x - x_half).max())
            drifting.append((name, label, drift))
    worst = max(d for _, _, d in drifting)
    ok = record(capsys, 9, worst <= 1e-4, f"horizons {horizons}, worst drift {worst:.1e}")
    assert ok, f"trajectory not settled by its horizon: {[r for r in drifting if r[2] > 1e-4]}"


def test_criterion_10_structural_bounds_exact(capsys):
    corpus = random_instances(seed=SEED, count=500, require_feasible=False)
    from fractions import Fraction

    vertex_violations = ray_upper_violations = ray_lower_violations = gap_violations = 0
    naive_entries = naive_instances = 0
    feasible = 0
    for lp, res in corpus:
        if res.status != "optimal":
            continue
        feasible += 1
        d = Fraction(int(max_subdeterminant(lp.A_int, "exact")))
        b_l1 = Fraction(int(np.abs(lp.b_int).sum()))
        costs = set()
        for vx in res.vertices_exact:
            for e in vx:
                if e > 0 and not (1 / d <= e <= d * b_l1):
                    vertex_violations += 1
            costs.add(sum(Fraction(int(ci)) * e for ci, e in zip(lp.c_int, vx)))
        for lo, hi in zip(*(lambda cs: (cs, cs[1:]))(sorted(costs))):
            if hi - lo < 1 / (d * d):
                gap_violations += 1
        aug = np.vstack([lp.A_int, np.ones(lp.n, dtype=int)])
        d_aug = Fraction(int(max_abs_subdeterminant(aug.tolist())))
        naive_before = naive_entries
        for rx in res.rays_exact or []:
            for e in rx:
                if e > 0 and e > d:
                    ray_upper_violations += 1
                if e > 0 and e < 1 / d_aug:
                    ray_lower_violations += 1
                if e > 0 and e < 1 / d:
                    naive_entries += 1
        naive_instances += naive_entries > naive_before
    total = vertex_violations + ray_upper_violations + ray_lower_violations + gap_violations
    detail = (
        f"{feasible} feasible of 500; vertex {vertex_violations}, gap {gap_violations}, "
        f"ray upper {ray_upper_violations}, ray lower {ray_lower_violations}; "
        f"naive 1/D fails on {naive_entries} entries in {naive_instances} instances"
    )
    ok = record(capsys, 10, total == 0, detail)
    assert ok, f"exact structural violations: {detail}"


def test_criterion_11_iteration_bound_sanity(simple2, capsys):
    res = enumerate_polyhedron(simple2)
    x0 = interior_point(res)
    sol, _ = solve(simple2, DiscreteConfig(eps=EPS, start=x0))
    cost_ratio = float(simple2.c @ x0) / res.opt
    spread = max(float(x0.max()), float(1.0 / x0.min()))
    bound = iteration_bound(cost_ratio, spread, EPS, sol.h)
    # The bound counts the steps until the cost is within (1 + eps) opt,
    # the event the Certified stop proves.
    ok = (
        sol.stop_reason == "Certified"
        and sol.iterations <= min(bound, 1_000_000)
        and sol.cost <= (1.0 + EPS) * res.opt
    )
    record(capsys, 11, ok, f"{sol.iterations} iters vs bound {bound}")
    assert ok
