"""Problem file parsing and the command-line front end.

A problem file is a JSON object with integer matrices: {"A": [[...]], "b":
[...], "c": [...]} plus an optional "name" and an optional strictly
positive "start" vector. Commands print a deterministic JSON summary to
stdout and optionally dump a CSV trace; diagnostics go to stderr (set
PHYSARUM_LOG=debug for solver chatter).

Exit codes: 0 success, 1 usage, 2 unreadable or malformed input,
3 ValidationError (bad problem data, a bad argument or a bad start point),
4 any other PhysarumError (numerical failure, including a certified step
that underflows to 0, size limit, no interior point) or memory exhaustion,
5 a verification check did not hold.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import continuous_flow, discrete_solver, entropy_path
from . import oracle as oracle_mod
from .dynamics import check_bounds, evaluate, gradient_identity_residual
from .errors import (
    DimensionMismatchError,
    MalformedProblemError,
    PhysarumError,
    ProblemFileError,
    ProblemIOError,
    ValidationError,
)
from .linalg import kernel_basis, laplacian_solver
from .model import (
    EXACT_SUBDET_CAP,
    LinearProgram,
    ValidatedLP,
    _holds_non_number,
    compute_params,
    default_params,
    validate,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_VERIFY = 5


@dataclass(frozen=True)
class ProblemFile:
    lp: LinearProgram
    start: np.ndarray | None


def parse_problem(path) -> ProblemFile:
    """Read a problem JSON file without validating the mathematics.

    JSON booleans and strings in A, b, c or start raise
    DimensionMismatchError: numpy would read ``true`` as 1 inside a list of
    numbers, and ``"0.5"`` as 0.5 in a float conversion.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemIOError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedProblemError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedProblemError(f"{path}: top level must be an object")
    for key in ("A", "b", "c"):
        if key not in doc:
            raise MalformedProblemError(f"{path}: missing required key {key!r}")
        if not isinstance(doc[key], list):
            raise MalformedProblemError(f"{path}: {key!r} must be a list")
    name = doc.get("name", path.stem)
    if not isinstance(name, str):
        raise MalformedProblemError(f"{path}: 'name' must be a string")
    try:
        lp = LinearProgram.from_lists(doc["A"], doc["b"], doc["c"], name=name)
    except DimensionMismatchError:
        raise
    except (ValueError, TypeError) as exc:
        raise MalformedProblemError(f"{path}: ragged or non-numeric arrays: {exc}") from exc
    start = None
    if "start" in doc:
        if not isinstance(doc["start"], list):
            raise MalformedProblemError(f"{path}: 'start' must be a list")
        if _holds_non_number(doc["start"]):
            raise DimensionMismatchError("start must contain numbers")
        try:
            start = np.asarray(doc["start"], dtype=float)
        except (ValueError, TypeError) as exc:
            raise MalformedProblemError(f"{path}: bad 'start' vector: {exc}") from exc
    return ProblemFile(lp=lp, start=start)


def load_problem(path, start: np.ndarray | None = None) -> tuple[ValidatedLP, np.ndarray | None]:
    """The validated problem in ``path`` and its start: ``start`` if given, else the file's."""
    pf = parse_problem(path)
    return validate(pf.lp), pf.start if start is None else start


def _json_ready(obj):
    """Plain Python values for json: numpy values via tolist, non-finite floats as strings."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _emit(doc: dict) -> None:
    json.dump(_json_ready(doc), sys.stdout, sort_keys=True, indent=2, allow_nan=False)
    sys.stdout.write("\n")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_trace_csv(path, index: str, n: int, rows) -> None:
    """One CSV row per state: ``index``, x_0..x_{n-1}, cost, energy, feas_residual, edge_potential_inf."""
    header = [index, *(f"x_{i}" for i in range(n)), "cost", "energy", "feas_residual", "edge_potential_inf"]
    path = Path(path)
    try:
        with path.open("w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise ProblemIOError(f"cannot write {path}: {exc}") from exc


def cmd_solve(args) -> int:
    lp, start = load_problem(args.problem, args.start)
    # Without --trace no row is written, so none is recorded.
    config = discrete_solver.DiscreteConfig(
        eps=args.eps, h=args.h, start=start,
        max_iters=args.max_iters, trace_every=args.trace_every if args.trace else 0,
    )
    sol, trace = discrete_solver.solve(lp, config)
    if args.trace:
        e = trace.entries
        # Row by row: a batched A x rounds differently from the per-state one.
        rows = (
            [k, *x, cost, energy, float(np.abs(lp.A @ x - lp.b).max()), edge]
            for k, x, cost, energy, edge in zip(e.k, e.x, e.cost, e.energy, e.edge_potential_inf)
        )
        _write_trace_csv(args.trace, "k", lp.n, rows)
    # solve never takes the gap stop, so no dual bound is ever formed.
    doc = asdict(sol)
    del doc["lower_bound"]
    _emit({
        "command": "solve", "name": lp.name, "m": lp.m, "n": lp.n, **doc,
        "trace_entries": len(trace.entries),
        "trace_file": args.trace,
    })
    return EXIT_OK


def cmd_flow(args) -> int:
    lp, start = load_problem(args.problem, args.start)
    # The grid is checked before start_point runs the exponential enumeration.
    config = continuous_flow.FlowConfig(x0=start, t_end=args.t_end, sample_dt=args.sample_dt)
    trace = continuous_flow.integrate(lp, replace(config, x0=oracle_mod.start_point(lp, start)))
    e = trace.entries
    if args.trace:
        rows = zip(e.t, *e.x.T, e.cost, e.energy, e.feas_residual, e.edge_potential_inf)
        _write_trace_csv(args.trace, "t", lp.n, rows)
    final = trace.final
    _emit({
        "command": "flow", "name": lp.name, "m": lp.m, "n": lp.n,
        "t_end": args.t_end, "samples": len(e),
        "x_final": final.x, "cost_final": final.cost,
        "direction_inf_final": final.direction_inf,
        "feas_residual_max": e.feas_residual.max(),
        "x_bound_ok": bool(e.x_bound_ok.all()),
        "trace_file": args.trace,
    })
    return EXIT_OK


def cmd_path(args) -> int:
    lp, start = load_problem(args.problem, args.start)
    if not (math.isfinite(args.mu_max) and args.mu_max >= 0.0):
        raise ValidationError(f"--mu-max must be finite and nonnegative, got {args.mu_max}")
    anchor = oracle_mod.start_point(lp, start)
    mus = np.linspace(0.0, args.mu_max, args.points)
    points = entropy_path.follow_path(lp, anchor, mus)
    if args.trace:
        # The Laplacian potentials at each path point, as solve and flow write them;
        # not evaluate, which rejects a coordinate that underflowed to zero.
        laplacian = laplacian_solver(lp)
        pots = (laplacian(p.x / lp.c, lp.b) for p in points)
        rows = (
            [p.mu, *p.x, float(lp.c.dot(p.x)), float(lp.b.dot(pot)),
             float(np.abs(lp.A @ p.x - lp.b).max()), float(np.abs(lp.At.dot(pot)).max())]
            for p, pot in zip(points, pots)
        )
        _write_trace_csv(args.trace, "mu", lp.n, rows)
    last = points[-1]
    _emit({
        "command": "path", "name": lp.name, "m": lp.m, "n": lp.n,
        "mu_max": args.mu_max, "points": len(points),
        "x_final": last.x, "cost_final": float(lp.c @ last.x),
        "dual_value_final": last.dual_value,
        "newton_iters_total": sum(p.newton_iters for p in points),
        "trace_file": args.trace,
    })
    return EXIT_OK


def cmd_oracle(args) -> int:
    lp, _ = load_problem(args.problem)
    result = oracle_mod.enumerate_polyhedron(lp, cap=args.cap)
    doc = {
        "command": "oracle", "name": lp.name, "m": lp.m, "n": lp.n,
        "status": result.status,
        "vertices": result.vertices, "rays": result.rays,
    }
    if result.status == "optimal":
        doc.update({
            "opt": result.opt,
            "optimal_indices": list(result.optimal_indices),
            "support_limit": sorted(result.J),
            "vanishing": sorted(result.N),
        })
    _emit(doc)
    return EXIT_OK


def cmd_params(args) -> int:
    lp, _ = load_problem(args.problem)
    params = compute_params(lp, mode=args.mode) if args.mode else default_params(lp)
    _emit({
        "command": "params", "name": lp.name, "m": lp.m, "n": lp.n, **asdict(params),
        "positivity_step_cap": params.positivity_step_cap,
        "certified_step": discrete_solver.default_step(params, args.eps),
        "eps": args.eps,
    })
    return EXIT_OK


def run_verification(lp: ValidatedLP, eps: float, h: float | None,
                     samples: int, seed: int, max_iters: int = 1_000_000) -> dict:
    """Solve, certify the trace, and spot-check the dynamics algebra.

    Returns a report dict whose "ok" field is the overall verdict. At or
    below the certified step the solve uses the gap stop: it ends at the
    first step whose cost an exact dual bound proves within (1 + eps) of
    optimal, so the certificate covers the steps up to that stop. Nothing
    proves that the cost stays there after it, and above the certified
    step the potential argument is gone too, so with such an h the solve
    runs to the fixed point and the certificate reads every step. The
    bound is reported with "bound_ok", which holds when it is at most the
    oracle's exact optimum (or when the run formed none), next to x's
    residual max |A x - b| as "residual_inf". The spot checks
    draw random feasible points and verify the energy identity, the flux
    and potential bounds, and the first-variation identity against random
    constraint-kernel directions.
    """
    # eps and h are checked before the exact parameters and the enumeration.
    config = discrete_solver.DiscreteConfig(eps=eps, h=h, trace_every=1, max_iters=max_iters, gap_stop=True)
    if not np.any(lp.b_int):
        return {"ok": True, "note": "zero demand vector; x = 0 is optimal", "certificate": None}

    params = default_params(lp)
    result = oracle_mod.enumerate_polyhedron(lp)
    if h is not None and h > discrete_solver.default_step(params, eps):
        config = replace(config, gap_stop=False)
    sol, trace = discrete_solver.solve(lp, config, params=params, oracle_result=result)
    opt = result.opt
    cert = discrete_solver.certify_trace(lp, trace, opt, eps, sol.h, result.optimal_vertices[0])

    rng = np.random.default_rng(seed)
    kernel = kernel_basis(lp.A)
    pts = oracle_mod.sample_feasible(result, rng, samples)
    checked = skipped = 0
    energy_bad = bound_bad = identity_bad = 0
    worst_energy = worst_identity = 0.0
    for x in pts:
        if np.any(x <= 0.0):
            skipped += 1
            continue
        checked += 1
        ev = evaluate(lp, x)
        scale = abs(ev.energy) + 1.0
        e_res = abs(ev.energy_flux - ev.energy) / scale
        worst_energy = max(worst_energy, e_res)
        if e_res > 1e-8:
            energy_bad += 1
        rep = check_bounds(lp, ev, params)
        if not (rep.flux_ok and rep.edge_potential_ok):
            bound_bad += 1
        if kernel.shape[1]:
            coeffs = rng.standard_normal(kernel.shape[1])
            hvec = kernel @ coeffs
            res = gradient_identity_residual(lp, ev, hvec)
            rel = res / (float(np.abs(lp.c @ np.abs(hvec))) + 1.0)
            worst_identity = max(worst_identity, rel)
            if rel > 1e-7:
                identity_bad += 1

    gap_ok = sol.cost <= (1.0 + eps) * opt + 1e-9 * opt
    bound_ok = sol.lower_bound is None or sol.lower_bound <= result.opt_exact
    ok = (cert.violations == 0 and energy_bad == 0 and bound_bad == 0
          and identity_bad == 0 and gap_ok and bound_ok)
    return {
        "ok": ok,
        "eps": eps,
        "h": sol.h,
        "iterations": sol.iterations,
        "stop_reason": sol.stop_reason,
        "cost": sol.cost,
        "opt": opt,
        "gap_ok": gap_ok,
        "lower_bound": None if sol.lower_bound is None else float(sol.lower_bound),
        "lower_bound_exact": None if sol.lower_bound is None else str(sol.lower_bound),
        "residual_inf": sol.residual_inf,
        "bound_ok": bound_ok,
        "certificate": asdict(cert),
        "samples": {
            "requested": samples,
            "checked": checked,
            "skipped": skipped,
            "energy_identity_failures": energy_bad,
            "bound_failures": bound_bad,
            "first_variation_failures": identity_bad,
            "worst_energy_residual": worst_energy,
            "worst_first_variation_residual": worst_identity,
        },
    }


def cmd_verify(args) -> int:
    lp, _ = load_problem(args.problem)
    report = run_verification(lp, eps=args.eps, h=args.h,
                              samples=args.samples, seed=args.seed,
                              max_iters=args.max_iters)
    report.update({"command": "verify", "name": lp.name})
    _emit(report)
    # A run cut short by the user's cap fails the gap check like a broken
    # invariant would; this line says which one it was.
    if not report.get("gap_ok", True) and report["stop_reason"] == "UserCap":
        print(f"gap not reached: the solver stopped at --max-iters {args.max_iters} with cost "
              f"{report['cost']:.6g} against opt {report['opt']:.6g}; a larger --max-iters may reach it",
              file=sys.stderr)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _vector(text: str) -> np.ndarray:
    """A comma-separated float vector; argparse turns a ValueError into a usage error."""
    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return value
    return integer


def _length_at_least(low: int):
    """An argparse type for array lengths: integers of at least ``low`` within numpy's size limit."""
    integer = _int_at_least(low)
    def length(text: str) -> int:
        value = integer(text)
        if value > np.iinfo(np.intp).max:
            raise argparse.ArgumentTypeError(
                f"expected at most {np.iinfo(np.intp).max} (numpy's array size limit), got {text}")
        return value
    return length


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="physarum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("problem", help="path to a problem JSON file")
        p.set_defaults(func=func)
        return p

    def engine(name, func, help):
        p = command(name, func, help)
        p.add_argument("--start", type=_vector, default=None,
                       help="comma-separated start vector, overriding the file")
        p.add_argument("--trace", default=None, help="write a CSV trace here")
        return p

    p = engine("solve", cmd_solve, "run the damped discrete iteration")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--h", type=float, default=None,
                   help="step size (default: the certified step)")
    p.add_argument("--max-iters", type=_int_at_least(0), default=1_000_000)
    p.add_argument("--trace-every", type=_int_at_least(0), default=1)

    p = engine("flow", cmd_flow, "integrate the continuous dynamics")
    p.add_argument("--t-end", type=float, default=40.0)
    p.add_argument("--sample-dt", type=float, default=0.25)

    p = engine("path", cmd_path, "follow the entropy-regularized path")
    p.add_argument("--mu-max", type=float, default=20.0)
    p.add_argument("--points", type=_length_at_least(2), default=41)

    p = command("oracle", cmd_oracle, "enumerate vertices and rays exactly")
    p.add_argument("--cap", type=_int_at_least(1), default=oracle_mod.ENUMERATION_CAP)

    p = command("params", cmd_params, "print certified instance constants")
    p.add_argument("--mode", choices=("exact", "bound"), default=None,
                   help=f"subdeterminants (default: exact up to n = {EXACT_SUBDET_CAP}, else the bound)")
    p.add_argument("--eps", type=float, default=0.1)

    p = command("verify", cmd_verify, "solve and check every invariant")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--samples", type=_length_at_least(0), default=200)
    p.add_argument("--seed", type=_int_at_least(0), default=20240801)
    p.add_argument("--max-iters", type=_int_at_least(0), default=1_000_000)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("PHYSARUM_LOG")
    if level:
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProblemFileError as exc:
        print(f"problem file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PhysarumError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
