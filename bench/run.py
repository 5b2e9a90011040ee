"""The repository benchmark: end-to-end and per-layer metrics of physarum-lp.

    python3 bench/run.py --workload corpus|scale|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check
    python3 bench/run.py --reproduce

Each invocation runs one workload in its own process, as a closed loop with
a single caller. Set-up is repeated and timed on its own; then whole passes
of the workload run until the next one would overrun ``--seconds`` (always
at least one). ``--trace 0`` reports the end-to-end metrics, whose times
are CPU times scaled to a fixed host speed by ``common.SpeedGauge``.
``--trace 1`` runs one pass untraced and one with spans, then the
fixed-input layer probes, and reports the per-layer metrics. The last line of stdout is the
result as one JSON object; a fuller record with an environment header goes
to ``.bench_out/``. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import statistics
import sys
import time

import common
from common import OUT, MissingProgram, SpeedGauge

SETUP_REPEATS = 3

END_TO_END = {
    "norm_cpu_s": "s",
    "setup_s": "s",
    "solve_iters": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_integrate_s": "s",
    "model.validate_s.m48": "s",
    "model.validate_s.m64": "s",
    "model.compute_params_s.n14": "s",
    "oracle.enumerate_s.n8": "s",
    "oracle.enumerate_s.n10": "s",
    "oracle.enumerate_s.n12": "s",
    "oracle.enumerate_s.n14": "s",
    "oracle.bases_tried.n14": "count",
    **{f"{op}.{m}": "us" for op in (
        "linalg.laplacian_build_us", "linalg.np_solve_us", "linalg.spd_factor_us", "dynamics.evaluate_us",
    ) for m in ("m3", "m12", "m48")},
    "discrete_solver.solve_s": "s",
    "discrete_solver.us_per_iter": "us",
    "discrete_solver.step_search_s": "s",
    "discrete_solver.step_gain": "ratio",
    "discrete_solver.trace_overhead_frac": "ratio",
    "discrete_solver.trace_bytes_per_entry": "B",
    "discrete_solver.certify_s": "s",
    "discrete_solver.steps_checked": "count",
    "continuous_flow.integrate_s.m48": "s",
    "continuous_flow.integrate_s.m64": "s",
    "continuous_flow.rhs_calls": "count",
    "continuous_flow.rhs_us": "us",
    "entropy_path.follow_path_s.m48": "s",
    "entropy_path.follow_path_s.m64": "s",
    "entropy_path.newton_iters": "count",
    "entropy_path.dual_evals": "count",
    "entropy_path.ls_accept_frac": "ratio",
    "cli_io.run_verification_s.triangle": "s",
    "cli_io.run_verification_self_s.triangle": "s",
    "trace.overhead_frac": "ratio",
}


def _peak_rss_mb(workload) -> float:
    # The cli workload's program runs in its children; ru_maxrss of
    # RUSAGE_CHILDREN is the largest of them. Linux reports KiB.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _import_times(gauge) -> list[float]:
    """Normalised CPU seconds of fresh interpreters that import the package.

    One in-process import cannot be repeated, and a single reading of it
    spread 27% over five runs; the median of several cold children is steady.
    """
    argv = [sys.executable, "-c", "import physarum"]
    times = []
    for _ in range(SETUP_REPEATS):
        since, before = len(gauge.samples), common.cpu_children()
        gauge.run_child(argv, 120, env=common.child_env()).check_returncode()
        times.append((common.cpu_children() - before) * gauge.factor(since))
    return times


def _run_passes(workload, state, seconds: float, gauge) -> list:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(state, gauge=gauge))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def _summary(workload, passes, extra_ops) -> dict:
    """attempted/failed/correct over every operation, plus the failures themselves."""
    from workloads import KNOWN_FAILURES

    ops = [op for p in passes for op in p.ops] + extra_ops
    failures, unexpected = [], []
    for op in ops:
        if op.error is None and op.gate_failed is None:
            continue
        failures.append({"kind": op.kind, "label": op.label, "error": op.error, "gate": op.gate_failed,
                         "traceback": op.detail})
        if op.gate_failed or KNOWN_FAILURES.get((workload.name, op.kind, op.label)) != op.error:
            unexpected.append(failures[-1])
    iters = {p.iters for p in passes}
    deterministic = len(iters) == 1 and min(iters) > 0
    gates = sum(op.gates for op in ops)
    by_kind, by_label, norm_by_label = {}, {}, {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
        by_label.setdefault(f"{op.kind}:{op.label}", []).append(op.seconds)
        norm_by_label.setdefault(f"{op.kind}:{op.label}", []).append(op.norm)
    return {
        "correct": not unexpected and deterministic and gates > 0,
        "attempted": len(ops),
        "failed": len(failures),
        "gates_checked": gates,
        "iterations_repeat": deterministic,
        "failures": failures,
        "ops": {kind: common.summarize(v) for kind, v in by_kind.items()},
        "op_median_s": {key: statistics.median(v) for key, v in by_label.items()},
        "op_median_norm_s": {key: statistics.median(v) for key, v in norm_by_label.items()},
    }


def _norm_total(passes) -> float:
    """Sum over a pass's operations of each one's median normalised time across passes.

    With three or four passes per run, one operation caught by a change of
    host speed moves its pass's total; the per-operation median drops it.
    """
    by_op = {}
    for p in passes:
        for op in p.ops:
            by_op.setdefault((op.kind, op.label), []).append(op.norm)
    return sum(statistics.median(v) for v in by_op.values())


def _end_to_end(workload, import_s, setups, passes) -> dict:
    return {
        "norm_cpu_s": _norm_total(passes),
        "setup_s": import_s + statistics.median(setups),
        "solve_iters": passes[0].iters,
        "peak_rss_mb": _peak_rss_mb(workload),
    }


def _traced_layers(workload, state, probe_cache=None):
    """Untraced and traced pass, span self times, then the fixed-input probes."""
    from probes import run_probes
    from spans import Recorder, merge_self_times, self_times

    untraced = workload.run_pass(state)
    if workload.name == "cli":
        traced = workload.run_pass(state, traced=True)
        per_command = []
        for path in traced.span_files:
            if path.exists():  # a child killed on timeout writes none
                per_command.append(json.loads(path.read_text()))
                path.unlink()
        table = merge_self_times(self_times(spans) for spans in per_command)
        (OUT / "cli_spans.json").write_text(json.dumps(per_command))  # one span list per command
    else:
        with Recorder() as rec:
            traced = workload.run_pass(state, traced=True)
        table = self_times(rec.spans)
        rec.dump(OUT / f"{workload.name}_spans.json")
    if probe_cache is None:
        probe_cache = run_probes()
    layers = dict(probe_cache)
    solve_s = table.get("discrete_solver.solve", {}).get("self_s", 0.0)
    layers["discrete_solver.solve_s"] = solve_s
    layers["discrete_solver.us_per_iter"] = 1e6 * solve_s / max(traced.iters, 1)
    layers["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    extra = {
        "self_times": dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"])),
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
    }
    return [untraced, traced], layers, extra


def run(name: str, seed: int, seconds: float, trace: int, first_only: bool = False, probe_cache=None):
    """One workload run; returns (result line dict, full record dict)."""
    start, cpu_start = time.perf_counter(), time.process_time()
    common.use_source_tree()
    import_s, import_cpu = time.perf_counter() - start, time.process_time() - cpu_start
    OUT.mkdir(exist_ok=True)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    gauge = SpeedGauge()
    imports = _import_times(gauge) if trace == 0 else []
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS if trace == 0 else 1):
        since, t0, c0 = len(gauge.samples), time.perf_counter(), time.process_time()
        state = workload.setup(seed % 2**32, first_only=first_only)  # numpy seeds are unsigned
        setup_walls.append(time.perf_counter() - t0)
        setups.append((time.process_time() - c0) * gauge.factor(since))

    extra = {}
    if trace == 0:
        passes = _run_passes(workload, state, seconds, gauge)
    else:
        passes, layers, extra = _traced_layers(workload, state, probe_cache)
    extra_ops = workload.check(state, passes)
    summary = _summary(workload, passes, extra_ops)
    if trace == 0:
        metrics, units = _end_to_end(workload, statistics.median(imports), setups, passes), END_TO_END
    else:
        metrics, units = layers, PER_LAYER
    line = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "environment": common.environment(),
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "import_wall_s": import_s, "import_cpu_s": import_cpu,
        "child_import_norm_s": imports, "setup_wall_s": setup_walls, "setup_norm_s": setups,
        "pass_wall_s": [p.wall for p in passes], "pass_cpu_s": [p.cpu for p in passes],
        "pass_norm_s": [p.norm for p in passes], "gauge_samples_s": common.summarize(gauge.samples),
        **{k: v for k, v in summary.items() if k not in line},
        **extra,
        **line,
    }
    return line, record


def self_check() -> int:
    """Run the first instance of each workload, traced and untraced, and check the output.

    Every metric BENCHMARK.json names must be emitted with its unit, every
    correctness gate must have run, and the result must be correct.
    """
    from probes import run_probes

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if {w["name"] for w in spec["workloads"]} != {"corpus", "scale", "cli"}:
        problems.append("BENCHMARK.json does not name exactly the corpus, scale and cli workloads")
    common.use_source_tree()
    probe_cache = run_probes()
    for name in ("corpus", "scale", "cli"):
        for trace in (0, 1):
            line, record = run(name, seed=1, seconds=0, trace=trace, first_only=True, probe_cache=probe_cache)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(got.items())} != {sorted(want[trace].items())}")
            for k, v in line["metrics"].items():
                if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]:
                    problems.append(f"{name} trace={trace}: {k} is not a number")
            if not line["correct"] or record["gates_checked"] == 0:
                problems.append(f"{name} trace={trace}: incorrect or no gates ran: {record['failures']}")
            print(f"self-check {name} trace={trace}: {record['gates_checked']} gates, "
                  f"{line['attempted']} ops, {line['failed']} failed", file=sys.stderr)
    for p in problems:
        print(f"self-check FAIL: {p}", file=sys.stderr)
    print("self-check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("corpus", "scale", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check metric names, units and gates")
    parser.add_argument("--reproduce", action="store_true", help="re-measure the ROADMAP item-1 figures")
    args = parser.parse_args(argv)
    # The solver warns on every searched step above the certified one; keep
    # those lines off the benchmark's stderr.
    logging.getLogger("physarum").addHandler(logging.NullHandler())
    common.pin_to_one_cpu()
    try:
        if args.self_check:
            return self_check()
        if args.reproduce:
            from reproduce import reproduce

            return reproduce()
        if args.workload is None:
            parser.error("--workload is required")
        line, record = run(args.workload, args.seed, args.seconds, args.trace)
    except MissingProgram as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
