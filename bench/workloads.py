"""The three workloads: what set-up prepares and what one timed pass runs.

A pass is a fixed list of operations on inputs made from the workload seed.
Each operation records its wall and CPU time, the exception type if it
raised, and the first correctness gate it missed. A failed operation is
never dropped: it counts against ``attempted`` in the result.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from common import (BENCH_DIR, EPS, INSTANCES, OUT, acceptance_corpus, child_env, cpu_children, cpu_self,
                    planted_instance)

# Known defects that a workload keeps on purpose, by (workload, op kind,
# label): the exception they are known to raise. They count as
# failed operations but do not mark the run incorrect; any other exception
# does. At n = 4m with m >= 64, the certified default step h ~ 1e-184
# makes h^2 eps^2 underflow to zero inside iteration_bound.
KNOWN_FAILURES = {("scale", "solve", "64x256"): "ZeroDivisionError"}

CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    kind: str
    label: str
    seconds: float
    cpu: float = 0.0
    norm: float = 0.0
    error: str | None = None
    gate_failed: str | None = None
    gates: int = 0
    iterations: int = 0
    detail: str | None = None


@dataclass
class Pass:
    wall: float
    ops: list[Op]
    iters: int
    outputs: list = field(default_factory=list)
    span_files: list = field(default_factory=list)

    @property
    def cpu(self) -> float:
        return sum(op.cpu for op in self.ops)

    @property
    def norm(self) -> float:
        return sum(op.norm for op in self.ops)


def _gate(op: Op, ok: bool, message: str) -> None:
    op.gates += 1
    if not ok and op.gate_failed is None:
        op.gate_failed = message


def _timed(gauge, kind: str, label: str, fn, *args, cpu_clock=cpu_self, **kwargs):
    """Run one operation; return (Op, result or None).

    The Op holds wall seconds, the CPU seconds ``cpu_clock`` counts, and
    those CPU seconds at the nominal host speed of ``gauge``, a SpeedGauge.
    Without a gauge (traced passes, which report no normalised metric) the
    normalised time is the CPU time.
    """
    since = len(gauge.samples) if gauge is not None else 0
    start, cpu_start = time.perf_counter(), cpu_clock()
    error = detail = result = None
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # recorded as a failed operation, never dropped
        error, detail = type(exc).__name__, traceback.format_exc(limit=-3)
    elapsed, cpu = time.perf_counter() - start, cpu_clock() - cpu_start
    norm = cpu * gauge.factor(since) if gauge is not None else cpu
    return Op(kind, label, elapsed, cpu, norm, error=error, detail=detail), result


def _run_child(argv, env, gauge):
    if gauge is None:
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return gauge.run_child(argv, CHILD_TIMEOUT_S, env=env)


class Corpus:
    """The acceptance corpus: step search, traced solve and certificate per instance."""

    name = "corpus"
    # The two longest solves of the corpus (58% of its 1,148,414 iterations,
    # about 31 s traced) do not fit a run of the budgeted length; the
    # reproduce mode still solves them.
    HEAVY = ("random13", "random15")

    def setup(self, seed: int, first_only: bool = False):
        from physarum import model

        items = [it for it in acceptance_corpus() if it[0] not in self.HEAVY]
        if first_only:
            items = items[:1]
        else:
            random.Random(seed).shuffle(items)
        return [(name, lp, res, model.compute_params(lp)) for name, lp, res in items]

    def run_pass(self, state, traced: bool = False, gauge=None) -> Pass:
        from physarum import discrete_solver

        ops, iters = [], 0
        start = time.perf_counter()
        for name, lp, res, params in state:
            op, found = _timed(gauge, "step_search", name, discrete_solver.certified_step_search,
                               lp, EPS, params=params, oracle_result=res)
            ops.append(op)
            if found is None:
                continue
            h = found[0]
            config = discrete_solver.DiscreteConfig(eps=EPS, h=h)
            op, solved = _timed(gauge, "solve", name, discrete_solver.solve, lp, config,
                                params=params, oracle_result=res)
            ops.append(op)
            if solved is None:
                continue
            sol, trace = solved
            iters += sol.iterations
            _gate(op, res.opt * (1 - 1e-9) <= sol.cost <= (1 + EPS) * res.opt + 1e-9 * res.opt,
                  f"cost {sol.cost!r} not within (1+eps) of opt {res.opt!r}")
            op, rep = _timed(gauge, "certify", name, discrete_solver.certify_trace,
                             lp, trace, res.opt, EPS, h, res.optimal_vertices[0])
            ops.append(op)
            del trace, solved
            if rep is not None:
                _gate(op, rep.violations == 0, f"{rep.violations} certificate violations")
        return Pass(time.perf_counter() - start, ops, iters)

    def check(self, state, passes) -> list[Op]:
        return []


class Scale:
    """Planted-interior instances where the m x m Laplacian does real arithmetic."""

    name = "scale"
    SIZES = ((12, 48), (48, 192), (64, 256))
    T_END = 40.0
    MU_STEP = 0.25
    # Enough iterations that the untraced loop is a third of the pass; with
    # the certified step the loop always stops at this cap.
    SOLVE_ITERS = 5000

    def setup(self, seed: int, first_only: bool = False):
        from physarum import model

        rng = np.random.default_rng(seed)
        sizes = self.SIZES[:1] if first_only else self.SIZES
        state = []
        for m, n in sizes:
            raw, x0 = planted_instance(rng, m, n)
            lp = model.validate(raw)
            state.append((f"{m}x{n}", lp, x0, model.default_params(lp)))
        return state

    def run_pass(self, state, traced: bool = False, gauge=None) -> Pass:
        from physarum import continuous_flow, entropy_path

        mus = np.arange(0.0, self.T_END + self.MU_STEP, self.MU_STEP)
        ops, iters = [], 0
        start = time.perf_counter()
        for label, lp, x0, params in state:
            flow_cfg = continuous_flow.FlowConfig(x0=x0, t_end=self.T_END, sample_dt=self.MU_STEP)
            op, flow = _timed(gauge, "integrate", label, continuous_flow.integrate, lp, flow_cfg,
                              params=params)
            ops.append(op)
            # Relative to |b|, as solve's own feasibility check is: with |b|
            # near 150 at n = 192, an absolute 1e-6 asks for a relative
            # 7e-9, finer than the integrator's rtol of 1e-8.
            tol = 1e-6 * (float(np.abs(lp.b).max()) + 1.0)
            if flow is not None:
                worst = max(e.feas_residual for e in flow.entries)
                _gate(op, worst <= tol, f"flow feasibility residual {worst:.3e}")
            op, path = _timed(gauge, "follow_path", label, entropy_path.follow_path, lp, x0, mus)
            ops.append(op)
            if path is not None and flow is not None:
                ok = len(path) == len(flow.entries)
                dev = max(float(np.abs(p.x - e.x).max()) for p, e in zip(path, flow.entries)) if ok else np.inf
                _gate(op, ok and dev <= 1e-5, f"path deviates from flow by {dev:.3e}")
            if (self.name, "solve", label) in KNOWN_FAILURES:
                continue
            op = self._solve(lp, x0, params, label, gauge)
            ops.append(op)
            iters += op.iterations
        return Pass(time.perf_counter() - start, ops, iters)

    def _solve(self, lp, x0, params, label, gauge=None) -> Op:
        from physarum import discrete_solver

        config = discrete_solver.DiscreteConfig(start=x0, trace_every=0, max_iters=self.SOLVE_ITERS)
        op, solved = _timed(gauge, "solve", label, discrete_solver.solve, lp, config, params=params)
        if solved is not None:
            sol = solved[0]
            op.iterations = sol.iterations
            tol = 1e-6 * (float(np.abs(lp.b).max()) + 1.0)
            _gate(op, sol.residual_inf <= tol, f"iterate left A x = b by {sol.residual_inf:.3e}")
        return op

    def check(self, state, passes) -> list[Op]:
        """Attempt each known-failing solve once per run, outside the timed passes.

        Keeping it out of the passes keeps every pass's work the same
        whether or not the defect is fixed.
        """
        return [self._solve(lp, x0, params, label) for label, lp, x0, params in state
                if (self.name, "solve", label) in KNOWN_FAILURES]


class Cli:
    """Cold subprocesses of the command line, one at a time."""

    name = "cli"
    SIZES = ((4, 10), (5, 12), (6, 14))

    def setup(self, seed: int, first_only: bool = False):
        from physarum import model

        rng = np.random.default_rng(seed)
        folder = OUT / "cli_inputs" / f"seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        commands = [("cold_start", "simple2", ["params", str(INSTANCES / "simple2.json")])]
        for name in ("simple2", "identity2", "triangle"):
            commands.append(("verify", name, ["verify", str(INSTANCES / f"{name}.json")]))
        generated = {}
        for m, n in self.SIZES[:1] if first_only else self.SIZES:
            raw, _ = planted_instance(rng, m, n)
            label = f"{m}x{n}"
            generated[label] = model.validate(raw)
            path = folder / f"{label}.json"
            path.write_text(json.dumps({
                "name": label, "A": raw.A.tolist(), "b": raw.b.tolist(), "c": raw.c.tolist(),
            }))
            commands.append(("oracle", label, ["oracle", str(path)]))
            commands.append(("params_exact", label, ["params", str(path), "--mode", "exact"]))
        if first_only:
            first = {}
            for command in commands:
                first.setdefault(command[0], command)
            commands = list(first.values())
        return {"commands": commands, "generated": generated}

    def run_pass(self, state, traced: bool = False, gauge=None) -> Pass:
        env = child_env()
        spans_dir = OUT / "cli_spans"
        if traced:
            spans_dir.mkdir(parents=True, exist_ok=True)
        ops, outputs, span_files = [], [], []
        start = time.perf_counter()
        for i, (kind, label, args) in enumerate(state["commands"]):
            if traced:
                span_file = spans_dir / f"{i}.json"
                argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(span_file), *args]
            else:
                argv = [sys.executable, "-m", "physarum.cli_io", *args]
            op, proc = _timed(gauge, kind, label, _run_child, argv, env, gauge, cpu_clock=cpu_children)
            ops.append(op)
            if proc is None:
                continue
            doc = None
            try:
                doc = json.loads(proc.stdout)
            except json.JSONDecodeError:
                pass
            _gate(op, proc.returncode == 0 and isinstance(doc, dict),
                  f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
            if kind == "verify" and isinstance(doc, dict):
                _gate(op, doc.get("ok") is True, "verify did not report ok")
            outputs.append((op, doc))
            if traced:
                span_files.append(span_file)
        wall = time.perf_counter() - start
        iters = sum(doc.get("iterations", 0) for op, doc in outputs if op.kind == "verify" and doc)
        return Pass(wall, ops, iters, outputs, span_files)

    def check(self, state, passes) -> list[Op]:
        """Compare every oracle and exact-params answer with in-process references."""
        from scipy.optimize import linprog
        from physarum import model

        references = {}
        for label, lp in state["generated"].items():
            lin = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
            params = model.compute_params(lp, mode="exact")
            references[label] = (lp, lin, params)
        for p in passes:
            for op, doc in p.outputs:
                if not isinstance(doc, dict) or op.label not in references:
                    continue
                lp, lin, params = references[op.label]
                if op.kind == "oracle":
                    opt = doc.get("opt")
                    _gate(op, lin.status == 0 and opt is not None
                          and abs(opt - lin.fun) <= 1e-7 * max(1.0, abs(lin.fun)),
                          f"oracle opt {opt!r} differs from the LP optimum {lin.fun!r}")
                    verts = np.asarray(doc.get("vertices", []), dtype=float)
                    best = [verts[i] for i in doc.get("optimal_indices", [])]
                    _gate(op, bool(best) and all(
                        float(np.abs(lp.A @ v - lp.b).max()) <= 1e-9 and v.min() >= 0.0
                        and abs(float(lp.c @ v) - opt) <= 1e-9 * max(1.0, abs(opt)) for v in best),
                        "reported optimal vertex is not feasible at the optimal cost")
                elif op.kind == "params_exact":
                    _gate(op, doc.get("subdet_max") == params.subdet_max
                          and doc.get("potential_ratio_bound") == params.potential_ratio_bound,
                          f"params {doc.get('subdet_max')!r} differ from in-process {params.subdet_max!r}")
        return []


WORKLOADS = {w.name: w for w in (Corpus(), Scale(), Cli())}
