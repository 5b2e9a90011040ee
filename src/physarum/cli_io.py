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
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ._record import asdict, record, replace
from .errors import (
    DimensionMismatchError,
    MalformedProblemError,
    PhysarumError,
    ProblemFileError,
    ProblemIOError,
    ValidationError,
)
from .model import (
    ENUMERATION_CAP,
    EXACT_SUBDET_CAP,
    LinearProgram,
    ValidatedLP,
    _holds_non_number,
    _plain,
    _read,
    compute_params,
    default_params,
    default_step,
    validate,
)

if TYPE_CHECKING:
    import numpy as np


# Each command imports the engine it runs, and only the commands that
# solve load numpy: params and oracle run on Python ints. evaluate alone
# resolves on first access (PEP 562), so that verify calls whatever binds
# cli_io.evaluate, as bench/spans.py's span wrapper does.
def __getattr__(name):
    if name != "evaluate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .dynamics import evaluate

    globals()[name] = evaluate
    return evaluate


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_VERIFY = 5


@record
class ProblemFile:
    lp: LinearProgram
    start: list | None


def parse_problem(path) -> ProblemFile:
    """Read a problem JSON file without validating the mathematics.

    A, b, c and start stay the lists the file holds. JSON booleans and
    strings in them raise DimensionMismatchError: numpy would read
    ``true`` as 1 inside a list of numbers, and ``"0.5"`` as 0.5 in a
    float conversion.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")  # JSON is UTF-8 (RFC 8259), whatever the locale
    except OSError as exc:
        raise ProblemIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedProblemError(f"{path} is not UTF-8: {exc}") from exc
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
    # A boolean or a string raises DimensionMismatchError here; after that
    # only a ragged nesting makes _read raise it, and that file is malformed.
    lp = LinearProgram.from_lists(doc["A"], doc["b"], doc["c"], name=name)
    try:
        for value in (lp.A, lp.b, lp.c):
            _read(value)
    except DimensionMismatchError as exc:
        raise MalformedProblemError(f"{path}: ragged or non-numeric arrays: {exc}") from exc
    start = doc.get("start")
    if "start" in doc:
        if not isinstance(start, list):
            raise MalformedProblemError(f"{path}: 'start' must be a list")
        if _holds_non_number(start):
            raise DimensionMismatchError("start must contain numbers")
        try:
            # What np.asarray(start, dtype=float) rejects: a ragged nesting
            # or an entry float() refuses. It reads null as NaN.
            for v in _read(start)[1]:
                if v is not None:
                    float(v)
        except (DimensionMismatchError, TypeError) as exc:
            raise MalformedProblemError(f"{path}: bad 'start' vector: {exc}") from exc
    return ProblemFile(lp=lp, start=start)


def load_problem(path, start=None) -> tuple[ValidatedLP, list | np.ndarray | None]:
    """The validated problem in ``path`` and its start: ``start`` if given, else the file's."""
    pf = parse_problem(path)
    return validate(pf.lp), pf.start if start is None else start


def _json_ready(obj):
    """Plain Python values for json: numpy values via tolist, non-finite floats as strings."""
    obj = _plain(obj)
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


def _write_trace_csv(path, index: str, n: int, rows) -> None:
    """One CSV row per state: ``index``, x_0..x_{n-1}, cost, energy, feas_residual, edge_potential_inf."""
    import numpy as np

    floats = (float, np.floating)
    header = [index, *(f"x_{i}" for i in range(n)), "cost", "energy", "feas_residual", "edge_potential_inf"]
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(format(float(v), ".17g") if isinstance(v, floats) else str(v) for v in row) + "\n")
    except OSError as exc:
        raise ProblemIOError(f"cannot write {path}: {exc}") from exc


def _bound_fields(sol) -> dict:
    """The exact dual bound of a Certified stop as a float and as "p/q", and the dual that formed it.

    All three are None when the run formed no bound; bound_source is
    "potentials" or "basis" otherwise.
    """
    if sol.lower_bound is None:
        return {"lower_bound": None, "lower_bound_exact": None, "bound_source": None}
    return {"lower_bound": float(sol.lower_bound), "lower_bound_exact": str(sol.lower_bound),
            "bound_source": sol.bound_source}


def cmd_solve(args) -> int:
    import numpy as np

    from . import discrete_solver

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
    _emit({
        "command": "solve", "name": lp.name, "m": lp.m, "n": lp.n,
        **asdict(sol), **_bound_fields(sol),
        "trace_entries": len(trace.entries),
        "trace_file": args.trace,
    })
    return EXIT_OK


def cmd_flow(args) -> int:
    from . import continuous_flow
    from . import oracle as oracle_mod

    lp, start = load_problem(args.problem, args.start)
    # The grid is checked before start_point runs the exponential enumeration;
    # a trace row holds t, x and seven more fields.
    config = continuous_flow.FlowConfig(x0=start, t_end=args.t_end, sample_dt=args.sample_dt)
    _check_rows(f"--t-end {args.t_end!r}", int(args.t_end / args.sample_dt) + 2, lp.n + 8)
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
    import numpy as np

    from . import entropy_path
    from . import oracle as oracle_mod

    lp, start = load_problem(args.problem, args.start)
    _check_rows(f"--points {args.points}", args.points, 1)  # the grid of mu values
    if not (math.isfinite(args.mu_max) and args.mu_max >= 0.0):
        raise ValidationError(f"--mu-max must be finite and nonnegative, got {args.mu_max}")
    anchor = oracle_mod.start_point(lp, start)
    mus = np.linspace(0.0, args.mu_max, args.points)
    points = entropy_path.follow_path(lp, anchor, mus)
    if args.trace:
        # The Laplacian potentials at each path point, as solve and flow write them;
        # not evaluate, which rejects a coordinate that underflowed to zero.
        from .linalg import laplacian_solver

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
    from . import oracle as oracle_mod

    lp, _ = load_problem(args.problem)
    result = oracle_mod.enumerate_polyhedron(lp, cap=args.cap)
    doc = {
        "command": "oracle", "name": lp.name, "m": lp.m, "n": lp.n,
        "status": result.status,
        "vertices": oracle_mod.float_rows(result.vertices_exact), "rays": oracle_mod.float_rows(result.rays_exact),
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
        "certified_step": default_step(params, args.eps),
        "eps": args.eps,
    })
    return EXIT_OK


def run_verification(lp: ValidatedLP, eps: float, h: float | None,
                     samples: int, seed: int, max_iters: int = 1_000_000) -> dict:
    """Solve, certify the trace, and spot-check the dynamics algebra.

    Returns a report dict whose "ok" field is the overall verdict. The
    solve ends at the first step whose cost an exact dual bound proves
    within (1 + eps) of optimal, and the certificate covers the steps up
    to that stop. The cost never rises (the lemma in discrete_solver), so
    every later step would stay within the gap, at any h up to the
    positivity cap; the certificate checks that on the trace too, and
    "ok" requires no relative rise past COST_RISE_TOL. Above the
    certified step the potential drop is an a-posteriori check. The
    bound is reported with "bound_ok", which holds when it is at most the
    oracle's exact optimum (or when the run formed none), next to x's
    residual max |A x - b| as "residual_inf" and the dual that proved the
    stop as "bound_source" ("potentials", "basis" or None). The spot checks
    draw random feasible points and verify the energy identity, the flux
    and potential bounds, and the first-variation identity against random
    constraint-kernel directions, all drawn from one random.Random(seed).
    A ``samples`` count whose sample arrays would pass numpy's size limit
    is a usage error, raised after the enumeration and before the solve.
    """
    import random

    import numpy as np

    from . import discrete_solver
    from . import oracle as oracle_mod
    from .dynamics import check_bounds, gradient_identity_residual
    from .linalg import kernel_basis

    evaluate = globals().get("evaluate") or __getattr__("evaluate")
    # eps and h are checked before the exact parameters and the enumeration.
    config = discrete_solver.DiscreteConfig(eps=eps, h=h, trace_every=1, max_iters=max_iters)
    if not any(lp.b_exact):
        return {"ok": True, "note": "zero demand vector; x = 0 is optimal", "certificate": None}

    params = default_params(lp)
    result = oracle_mod.enumerate_polyhedron(lp)
    # sample_feasible's widest array: a row of vertex weights, ray coefficients or x per sample.
    _check_rows(f"--samples {samples}", samples, max(lp.n, len(result.vertices), len(result.rays)))
    sol, trace = discrete_solver.solve(lp, config, params=params, oracle_result=result)
    opt = result.opt
    cert = discrete_solver.certify_trace(lp, trace, opt, eps, sol.h, result.optimal_vertices[0])

    rng = random.Random(seed)
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
            hvec = kernel @ np.array([rng.gauss(0.0, 1.0) for _ in range(kernel.shape[1])])
            res = gradient_identity_residual(lp, ev, hvec)
            rel = res / (float(np.abs(lp.c @ np.abs(hvec))) + 1.0)
            worst_identity = max(worst_identity, rel)
            if rel > 1e-7:
                identity_bad += 1

    gap_ok = sol.cost <= (1.0 + eps) * opt + 1e-9 * opt
    bound_ok = sol.lower_bound is None or sol.lower_bound <= result.opt_exact
    ok = (cert.violations == 0 and cert.max_cost_rise <= discrete_solver.COST_RISE_TOL
          and energy_bad == 0 and bound_bad == 0 and identity_bad == 0 and gap_ok and bound_ok)
    return {
        "ok": ok,
        "eps": eps,
        "h": sol.h,
        "iterations": sol.iterations,
        "stop_reason": sol.stop_reason,
        "cost": sol.cost,
        "opt": opt,
        "gap_ok": gap_ok,
        **_bound_fields(sol),
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


def _check_rows(option: str, rows: int, row_len: int) -> None:
    """Refuse ``option`` (its flag and value) when an array of rows x row_len floats passes numpy's size limit.

    numpy refuses an array of more than sys.maxsize bytes (its intp is
    C's ssize_t) with a ValueError, or an OverflowError past sys.maxsize
    items, before it allocates anything.
    """
    if rows * row_len * 8 > sys.maxsize:
        raise _UsageError(f"{option}: {rows} x {row_len} floats pass numpy's array size limit "
                          f"of {sys.maxsize} bytes")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _vector(text: str) -> np.ndarray:
    """A comma-separated float vector; argparse turns a ValueError into a usage error."""
    import numpy as np

    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return value
    return integer


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
    p.add_argument("--points", type=_int_at_least(2), default=41)

    p = command("oracle", cmd_oracle, "enumerate vertices and rays exactly")
    p.add_argument("--cap", type=_int_at_least(1), default=ENUMERATION_CAP)

    p = command("params", cmd_params, "print certified instance constants")
    p.add_argument("--mode", choices=("exact", "bound"), default=None,
                   help=f"subdeterminants (default: exact up to n = {EXACT_SUBDET_CAP}, else the bound)")
    p.add_argument("--eps", type=float, default=0.1)

    p = command("verify", cmd_verify, "solve and check every invariant")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--samples", type=_int_at_least(0), default=200)
    p.add_argument("--seed", type=_int_at_least(0), default=20240801)
    p.add_argument("--max-iters", type=_int_at_least(0), default=1_000_000)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("PHYSARUM_LOG")
    if level:
        import logging

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
