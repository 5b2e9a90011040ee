"""Re-measure the baseline figures that ROADMAP item 1 quotes, and say which reproduce.

Run with ``python3 bench/run.py --reproduce`` (about three minutes). It
solves the full 28-instance acceptance corpus, which the timed corpus
workload cannot fit, and checks its exact iteration count. A timing counts
as reproduced when it lies within 25% of the quoted figure; a count must
match exactly. Nothing is tuned until a figure matches: the table reports
the misses as they are.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import scipy.linalg

import common
from common import EPS, OUT, child_env
from probes import SMALL_SIZES, corpus_fixtures, import_times, per_call_us, probe_instances

TOLERANCE = 0.25

# (figure, value quoted in ROADMAP item 1, unit)
QUOTED = [
    ("corpus.solve_s", 46.5, "s"),
    ("corpus.step_search_s", 1.5, "s"),
    ("corpus.iterations", 1_148_414, "count"),
    ("corpus.us_per_iter", 40.5, "us"),
    ("random15.laplacian_build_us", 3.5, "us"),
    ("random15.np_linalg_solve_us", 7.7, "us"),
    ("random15.scipy_solve_pos_us", 24.0, "us"),
    ("random15.any_nonpositive_us", 5.3, "us"),
    ("random15.abs_diff_max_us", 2.7, "us"),
    ("random15.abs_rel_diff_max_us", 3.4, "us"),
    ("random15.traced_solve_s", 14.3, "s"),
    ("random15.untraced_solve_s", 11.2, "s"),
    ("random15.trace_bytes_per_entry", 440.0, "B"),
    ("oracle.enumerate_s.n8", 0.04, "s"),
    ("oracle.enumerate_s.n10", 0.28, "s"),
    ("oracle.enumerate_s.n12", 1.83, "s"),
    ("oracle.enumerate_s.n14", 10.3, "s"),
    ("model.compute_params_s.n14", 0.66, "s"),
    ("cli.params_s", 0.69, "s"),
    ("cli.solve_simple2_s", 1.58, "s"),
    ("cli.verify_triangle_s", 5.6, "s"),
    ("import.total_s", 0.73, "s"),
    ("import.scipy_integrate_s", 0.57, "s"),
]


def _corpus(fixtures, measured):
    from physarum import discrete_solver

    per_instance, steps = {}, {}
    for name, (lp, res, params, _) in fixtures.items():
        t0 = time.perf_counter()
        h, _ = discrete_solver.certified_step_search(lp, EPS, params=params, oracle_result=res)
        t1 = time.perf_counter()
        sol, trace = discrete_solver.solve(lp, discrete_solver.DiscreteConfig(eps=EPS, h=h),
                                           params=params, oracle_result=res)
        t2 = time.perf_counter()
        del trace
        steps[name] = h
        per_instance[name] = {"iterations": sol.iterations, "step_search_s": t1 - t0, "solve_s": t2 - t1}
    iters = sum(r["iterations"] for r in per_instance.values())
    solve_s = sum(r["solve_s"] for r in per_instance.values())
    measured["corpus.solve_s"] = solve_s
    measured["corpus.step_search_s"] = sum(r["step_search_s"] for r in per_instance.values())
    measured["corpus.iterations"] = iters
    measured["corpus.us_per_iter"] = 1e6 * solve_s / iters
    return per_instance, steps


def _random15(fixtures, h, measured):
    from physarum import discrete_solver

    lp, _, params, x = fixtures["random15"]
    A, At, b, c = lp.A, lp.At, lp.b, lp.c
    w = x / c
    lap = (A * w) @ At
    p = np.linalg.solve(lap, b)
    diff = w * (At @ p) - x
    measured["random15.laplacian_build_us"] = per_call_us(lambda: (A * w) @ At)
    measured["random15.np_linalg_solve_us"] = per_call_us(lambda: np.linalg.solve(lap, b))
    measured["random15.scipy_solve_pos_us"] = per_call_us(lambda: scipy.linalg.solve(lap, b, assume_a="pos"))
    measured["random15.any_nonpositive_us"] = per_call_us(lambda: np.any(x <= 0.0))
    measured["random15.abs_diff_max_us"] = per_call_us(lambda: np.abs(diff).max())
    measured["random15.abs_rel_diff_max_us"] = per_call_us(lambda: np.abs(diff / x).max())

    for every, key in ((1, "random15.traced_solve_s"), (0, "random15.untraced_solve_s")):
        config = discrete_solver.DiscreteConfig(eps=EPS, h=h, start=x, trace_every=every)
        start = time.perf_counter()
        discrete_solver.solve(lp, config, params=params)
        measured[key] = time.perf_counter() - start

    config = discrete_solver.DiscreteConfig(eps=EPS, h=h, start=x, max_iters=20_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, trace = discrete_solver.solve(lp, config, params=params)
        measured["random15.trace_bytes_per_entry"] = (tracemalloc.get_traced_memory()[0] - before) / len(trace.entries)
    finally:
        tracemalloc.stop()


def _oracle(measured):
    from physarum import model, oracle

    raw = probe_instances()
    for m, n in SMALL_SIZES:
        lp = model.validate(raw[m, n][0])
        start = time.perf_counter()
        oracle.enumerate_polyhedron(lp)
        measured[f"oracle.enumerate_s.n{n}"] = time.perf_counter() - start
        if n == 14:
            start = time.perf_counter()
            model.compute_params(lp, mode="exact")
            measured["model.compute_params_s.n14"] = time.perf_counter() - start


def _cli(measured, repeats: int = 3):
    instances = common.INSTANCES
    commands = {
        "cli.params_s": ["params", str(instances / "simple2.json")],
        "cli.solve_simple2_s": ["solve", str(instances / "simple2.json")],
        "cli.verify_triangle_s": ["verify", str(instances / "triangle.json")],
    }
    for key, args in commands.items():
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "physarum.cli_io", *args], env=child_env(),
                                  capture_output=True, text=True, timeout=150)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}: {proc.stderr[-300:]}")
        measured[key] = statistics.median(walls)


def reproduce() -> int:
    common.use_source_tree()
    OUT.mkdir(exist_ok=True)
    measured = {}
    measured.update(import_times())
    _cli(measured)
    _oracle(measured)
    fixtures = corpus_fixtures()
    per_instance, steps = _corpus(fixtures, measured)
    _random15(fixtures, steps["random15"], measured)

    rows = []
    print(f"{'figure':36} {'quoted':>12} {'measured':>14} {'ratio':>7}  reproduced")
    for name, quoted, unit in QUOTED:
        value = measured[name]
        ratio = value / quoted
        ok = value == quoted if unit == "count" else abs(ratio - 1.0) <= TOLERANCE
        rows.append({"figure": name, "unit": unit, "quoted": quoted, "measured": value, "ratio": ratio, "reproduced": ok})
        print(f"{name:36} {quoted:>12g} {value:>14.6g} {ratio:>7.2f}  {'yes' if ok else 'NO'}")
    missed = [r["figure"] for r in rows if not r["reproduced"]]
    print(f"{len(rows) - len(missed)} of {len(rows)} figures reproduced" + (f"; not: {', '.join(missed)}" if missed else ""))
    record = {"environment": common.environment(), "tolerance": TOLERANCE, "figures": rows,
              "corpus_instances": per_instance}
    (OUT / "reproduce.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0
