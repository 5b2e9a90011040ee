"""Fixed-input layer probes, the same in every traced run.

Each probe calls one module's public functions on inputs that do not depend
on the workload seed: the acceptance corpus (random13, random15) for the
m = 3 loop, and planted instances drawn from PROBE_SEED for the larger
sizes. Timings of single operations are medians of repeated timeit runs.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import timeit
import tracemalloc

import numpy as np

from common import EPS, acceptance_corpus, child_env, planted_instance, shipped_instances
from spans import Recorder, self_times

PROBE_SEED = 7
TRACE_PROBE_ITERS = 30_000
TRACE_BYTES_ITERS = 2_000
CERTIFY_PROBE_ITERS = 20_000


BIG_SIZES = ((12, 48), (48, 192), (64, 256))
SMALL_SIZES = ((3, 8), (4, 10), (5, 12), (6, 14))


def probe_instances() -> dict:
    """(m, n) -> (LinearProgram, x0), planted from PROBE_SEED in a fixed order."""
    rng = np.random.default_rng(PROBE_SEED)
    return {(m, n): planted_instance(rng, m, n) for m, n in BIG_SIZES + SMALL_SIZES}


def per_call_us(fn, min_time: float = 0.02, repeats: int = 7) -> float:
    """Median over repeats of the per-call time in microseconds."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < min_time:
        number *= 2
    return 1e6 * statistics.median(timer.repeat(repeats, number)) / number


def import_times(repeats: int = 3) -> dict:
    """Cumulative import time of the package and of scipy.integrate, from -X importtime."""
    totals, integrate = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import physarum"],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        totals.append(cumulative["physarum"])
        integrate.append(cumulative.get("scipy.integrate", 0.0))
    return {
        "import.total_s": statistics.median(totals),
        "import.scipy_integrate_s": statistics.median(integrate),
    }


def _kernel_ops(lp, x, tag: str) -> dict:
    from physarum import dynamics, linalg

    A, At, b = lp.A, lp.At, lp.b
    w = x / lp.c
    lap = (A * w) @ At
    return {
        f"linalg.laplacian_build_us.{tag}": per_call_us(lambda: (A * w) @ At),
        f"linalg.np_solve_us.{tag}": per_call_us(lambda: np.linalg.solve(lap, b)),
        f"linalg.spd_factor_us.{tag}": per_call_us(lambda: linalg.spd_factor(lap)),
        f"dynamics.evaluate_us.{tag}": per_call_us(lambda: dynamics.evaluate(lp, x)),
    }


def corpus_fixtures():
    """name -> (lp, oracle result, params, interior start) for the 28-instance corpus."""
    from physarum import model, oracle

    return {
        name: (lp, res, model.compute_params(lp), oracle.interior_point(res))
        for name, lp, res in acceptance_corpus()
    }


def _discrete_probes(corpus) -> dict:
    from physarum import discrete_solver

    out = {}
    # Step search over the whole corpus: its cost and how far it moves h.
    search_s, gains, steps = 0.0, [], {}
    for name, (lp, res, params, _) in corpus.items():
        start = time.perf_counter()
        h, _ = discrete_solver.certified_step_search(lp, EPS, params=params, oracle_result=res)
        search_s += time.perf_counter() - start
        gains.append(h / discrete_solver.default_step(params, EPS))
        steps[name] = h
    out["discrete_solver.step_search_s"] = search_s
    out["discrete_solver.step_gain"] = statistics.median(gains)

    # Trace recording on random15, capped: traced against untraced, alternating.
    lp, res, params, x0 = corpus["random15"]
    h = steps["random15"]

    def run(every, iters):
        config = discrete_solver.DiscreteConfig(eps=EPS, h=h, start=x0, trace_every=every, max_iters=iters)
        return discrete_solver.solve(lp, config, params=params)

    traced, untraced = [], []
    for _ in range(3):
        for every, sink in ((1, traced), (0, untraced)):
            start = time.perf_counter()
            run(every, TRACE_PROBE_ITERS)
            sink.append(time.perf_counter() - start)
    out["discrete_solver.trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, trace = run(1, TRACE_BYTES_ITERS)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    out["discrete_solver.trace_bytes_per_entry"] = held / len(trace.entries)
    del trace

    # The certificate check on random13, which stays above (1+eps) opt for
    # the whole capped run, so every step is checked.
    lp, res, params, x0 = corpus["random13"]
    h = steps["random13"]
    config = discrete_solver.DiscreteConfig(eps=EPS, h=h, start=x0, max_iters=CERTIFY_PROBE_ITERS)
    sol, trace = discrete_solver.solve(lp, config, params=params)
    start = time.perf_counter()
    rep = discrete_solver.certify_trace(lp, trace, res.opt, EPS, h, res.optimal_vertices[0])
    out["discrete_solver.certify_s"] = time.perf_counter() - start
    out["discrete_solver.steps_checked"] = rep.steps_checked
    return out


def _flow_and_path(lp, x0, tag: str) -> dict:
    from physarum import continuous_flow, entropy_path

    with Recorder() as rec:
        continuous_flow.integrate(lp, continuous_flow.FlowConfig(x0=x0, t_end=40.0))
        points = entropy_path.follow_path(lp, x0, np.arange(0.0, 40.25, 0.25))
    table = self_times(rec.spans)
    return {
        f"continuous_flow.integrate_s.{tag}": table["continuous_flow.integrate"]["total_s"],
        f"entropy_path.follow_path_s.{tag}": table["entropy_path.follow_path"]["total_s"],
        "rhs_calls": table["continuous_flow.rhs_log"]["calls"],
        "rhs_s": table["continuous_flow.rhs_log"]["total_s"],
        "newton_iters": sum(p.newton_iters for p in points),
        "dual_evals": table["entropy_path.dual_value_and_derivatives"]["calls"],
    }


def _run_verification_probe(lp) -> dict:
    from physarum import cli_io

    with Recorder() as rec:
        report = cli_io.run_verification(lp, eps=EPS, h=None, samples=200, seed=20240801)
    if not report["ok"]:
        raise RuntimeError("run_verification on triangle did not report ok")
    root = next(i for i, s in enumerate(rec.spans) if s[0] == "cli_io.run_verification")
    _, start, end, _ = rec.spans[root]
    wrapped = ("discrete_solver.solve", "discrete_solver.certify_trace", "oracle.enumerate_polyhedron")
    inner = sum(e - s for name, s, e, parent in rec.spans if parent == root and name in wrapped)
    return {
        "cli_io.run_verification_s.triangle": (end - start) * 1e-9,
        "cli_io.run_verification_self_s.triangle": (end - start - inner) * 1e-9,
    }


def run_probes() -> dict:
    """Every fixed-input layer metric, by name."""
    from physarum import model, oracle

    out = import_times()
    raw = probe_instances()
    big = {}
    for m, n in BIG_SIZES:
        lp_raw, x0 = raw[m, n]
        start = time.perf_counter()
        lp = model.validate(lp_raw)
        elapsed = time.perf_counter() - start
        if m >= 48:
            out[f"model.validate_s.m{m}"] = elapsed
        big[m] = (lp, x0)
    small = {n: model.validate(raw[m, n][0]) for m, n in SMALL_SIZES}
    start = time.perf_counter()
    model.compute_params(small[14], mode="exact")
    out["model.compute_params_s.n14"] = time.perf_counter() - start
    for n, lp in small.items():
        with Recorder() as rec:
            start = time.perf_counter()
            oracle.enumerate_polyhedron(lp)
            out[f"oracle.enumerate_s.n{n}"] = time.perf_counter() - start
        if n == 14:
            out["oracle.bases_tried.n14"] = self_times(rec.spans)["_exact.solve_unique"]["calls"]

    corpus = corpus_fixtures()
    lp15, _, _, x15 = corpus["random15"]
    out.update(_kernel_ops(lp15, x15, "m3"))
    for m in (12, 48):
        out.update(_kernel_ops(*big[m], f"m{m}"))

    out.update(_discrete_probes(corpus))

    rhs_calls = rhs_s = newton = evals = 0
    for m in (48, 64):
        probe = _flow_and_path(*big[m], f"m{m}")
        rhs_calls += probe.pop("rhs_calls")
        rhs_s += probe.pop("rhs_s")
        newton += probe.pop("newton_iters")
        evals += probe.pop("dual_evals")
        out.update(probe)
    out["continuous_flow.rhs_calls"] = rhs_calls
    out["continuous_flow.rhs_us"] = 1e6 * rhs_s / rhs_calls
    out["entropy_path.newton_iters"] = newton
    out["entropy_path.dual_evals"] = evals
    out["entropy_path.ls_accept_frac"] = newton / evals

    out.update(_run_verification_probe(shipped_instances()["triangle"]))
    return out
