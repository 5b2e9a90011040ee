"""Command-line interface: JSON output, trace files, and exit codes."""

import argparse
import ast
import dataclasses
import inspect
import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import physarum
from physarum import FlowConfig, LinearProgram, discrete_solver, evaluate, follow_path, integrate, validate
from physarum.cli_io import _json_ready, build_parser, main, parse_problem, run_verification
from physarum.errors import MalformedProblemError, NoInteriorPointError, ProblemIOError
from tests.conftest import INSTANCE_DIR, overflowing_instance, planted_instance, run_child

SIMPLE2 = str(INSTANCE_DIR / "simple2.json")
IDENTITY2 = str(INSTANCE_DIR / "identity2.json")
TRIANGLE = str(INSTANCE_DIR / "triangle.json")


def run_json(capsys, args):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_parse_problem_roundtrip():
    pf = parse_problem(SIMPLE2)
    assert pf.lp.name == "simple2"
    assert pf.lp.A.tolist() == [[1, 1]]
    assert pf.start.tolist() == [0.5, 0.5]


def test_parse_problem_default_name(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"A": [[1, 1]], "b": [1], "c": [1, 1]}))
    pf = parse_problem(str(path))
    assert pf.lp.name == "other"
    assert pf.start is None


def test_parse_problem_errors(tmp_path):
    with pytest.raises(ProblemIOError):
        parse_problem(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedProblemError):
        parse_problem(str(bad))
    for payload in (
        {"A": [[1, 1]], "b": [1]},  # missing c
        {"A": "nope", "b": [1], "c": [1, 1]},
        {"A": [[1, 1], [1]], "b": [1, 1], "c": [1, 1]},  # ragged
        {"A": [[1, 1]], "b": [1], "c": [1, 1], "start": "mid"},
    ):
        bad.write_text(json.dumps(payload))
        with pytest.raises(MalformedProblemError):
            parse_problem(str(bad))


def test_params_command(capsys):
    rc, data = run_json(capsys, ["params", SIMPLE2])
    assert rc == 0
    assert data["name"] == "simple2"
    assert data["cost_sum"] == 3
    assert data["subdet_max"] == 1.0 and data["subdet_exact"]
    assert data["potential_ratio_bound"] == 4.0
    assert data["flux_bound"] == 2.0
    assert data["certified_step"] == pytest.approx(1.0 / 960.0)
    assert data["positivity_step_cap"] == 0.125


def test_params_at_scale(capsys, tmp_path):
    lp = planted_instance(np.random.default_rng(64), 64, 256)
    doc = {"A": lp.A_int.tolist(), "b": lp.b_int.tolist(), "c": lp.c_int.tolist()}
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(doc))
    # Exact subdeterminants stop at n = 14, so the bound is the only mode here.
    rc, data = run_json(capsys, ["params", str(path), "--mode", "bound"])
    assert rc == 0
    assert data["m"] == 64 and data["subdet_exact"] is False
    doc["A"][-1] = doc["A"][0]
    path.write_text(json.dumps(doc))
    assert main(["params", str(path), "--mode", "bound"]) == 3
    assert "does not have full row rank" in capsys.readouterr().err


@pytest.mark.parametrize("which, value", [("A", [[True, 1]]), ("b", [True]), ("c", [True, 1])])
def test_json_booleans_are_not_integers(capsys, tmp_path, which, value):
    # np.asarray used to read [[true, 1]] as [[1, 1]], so a boolean in A passed.
    doc = {"A": [[1, 1]], "b": [1], "c": [1, 1], which: value}
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(doc))
    assert main(["params", str(path)]) == 3
    captured = capsys.readouterr()
    assert f"{which} must contain integers" in captured.err
    assert captured.out == ""


def test_json_booleans_in_start_are_not_numbers(capsys, tmp_path):
    path = tmp_path / "bool_start.json"
    path.write_text(json.dumps({"A": [[1, 1]], "b": [1], "c": [1, 2], "start": [True, 0.5]}))
    assert main(["flow", str(path), "--t-end", "1"]) == 3
    captured = capsys.readouterr()
    assert "start must contain numbers" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("start", [["0.5", 0.5], [0.5, "0.5"]])
def test_json_strings_in_start_are_not_numbers(capsys, tmp_path, start):
    path = tmp_path / "string_start.json"
    path.write_text(json.dumps({"A": [[1, 1]], "b": [1], "c": [1, 2], "start": start}))
    assert main(["flow", str(path), "--t-end", "1"]) == 3
    captured = capsys.readouterr()
    assert "start must contain numbers" in captured.err
    assert captured.out == ""


def test_params_default_mode_bounds_wide_instances(capsys, tmp_path):
    # Exact subdeterminants stop at n = 14; without --mode, n = 16 gets the bound.
    lp = planted_instance(np.random.default_rng(16), 4, 16)
    path = tmp_path / "planted.json"
    path.write_text(json.dumps({"A": lp.A_int.tolist(), "b": lp.b_int.tolist(), "c": lp.c_int.tolist()}))
    rc, data = run_json(capsys, ["params", str(path)])
    assert rc == 0
    assert data["n"] == 16 and data["subdet_exact"] is False
    assert main(["params", str(path), "--mode", "exact"]) == 4
    capsys.readouterr()


def test_params_deterministic(capsys):
    main(["params", TRIANGLE])
    first = capsys.readouterr().out
    main(["params", TRIANGLE])
    assert capsys.readouterr().out == first


def test_solve_command_with_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    rc, data = run_json(
        capsys,
        ["solve", SIMPLE2, "--h", "0.03", "--trace", str(trace), "--trace-every", "50"],
    )
    assert rc == 0
    assert data["stop_reason"] == "FixedPoint"
    assert data["cost"] == pytest.approx(1.0, abs=1e-6)
    assert data["trace_file"] == str(trace)
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,x_0,x_1,cost,energy,feas_residual,edge_potential_inf"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.5 and float(first[3]) == 1.5
    assert len(lines) - 1 == data["trace_entries"]


@pytest.mark.parametrize("options, recorded", [
    ([], 0),
    (["--trace-every", "5"], 0),
    (["--trace", "TRACE"], 1),
    (["--trace", "TRACE", "--trace-every", "5"], 5),
])
def test_solve_records_steps_only_for_a_trace_file(capsys, tmp_path, monkeypatch, options, recorded):
    # Without --trace no row is written, so the solver records none.
    seen = []
    real = discrete_solver.solve

    def spy(lp, config, *args, **kwargs):
        seen.append(config.trace_every)
        return real(lp, config, *args, **kwargs)

    monkeypatch.setattr(discrete_solver, "solve", spy)
    trace = tmp_path / "trace.csv"
    options = [str(trace) if o == "TRACE" else o for o in options]
    rc, data = run_json(capsys, ["solve", SIMPLE2, "--h", "0.03", *options])
    assert rc == 0 and seen == [recorded]
    assert data["trace_entries"] == (len(trace.read_text().splitlines()) - 1 if recorded else 0)


def test_solve_explicit_start_flag(capsys):
    rc, data = run_json(capsys, ["solve", IDENTITY2, "--start", "2,3"])
    assert rc == 0
    assert data["iterations"] == 0
    assert data["cost"] == pytest.approx(5.0)


def test_flow_command(capsys):
    rc, data = run_json(capsys, ["flow", TRIANGLE, "--t-end", "12"])
    assert rc == 0
    assert data["t_end"] == 12.0
    assert data["x_bound_ok"] is True
    assert data["feas_residual_max"] < 1e-6
    assert data["cost_final"] == pytest.approx(2.0, abs=0.1)


def read_trace(path):
    header, *rows = Path(path).read_text().splitlines()
    return header, [row.split(",") for row in rows]


def test_flow_trace_rows_are_the_integrated_samples(capsys, tmp_path):
    trace = tmp_path / "flow.csv"
    rc, data = run_json(capsys, ["flow", SIMPLE2, "--t-end", "3", "--trace", str(trace)])
    assert rc == 0 and data["trace_file"] == str(trace)
    pf = parse_problem(SIMPLE2)
    e = integrate(validate(pf.lp), FlowConfig(x0=pf.start, t_end=3.0)).entries
    header, rows = read_trace(trace)
    assert header == "t,x_0,x_1,cost,energy,feas_residual,edge_potential_inf"
    assert len(rows) == data["samples"] == len(e)
    for row, i in ((rows[0], 0), (rows[-1], -1)):
        want = [e.t[i], *e.x[i], e.cost[i], e.energy[i], e.feas_residual[i], e.edge_potential_inf[i]]
        assert [float(v) for v in row] == want


def test_path_trace_rows_are_the_path_points(capsys, tmp_path):
    trace = tmp_path / "path.csv"
    args = ["path", TRIANGLE, "--start", "0.5,0.5,0.5", "--mu-max", "4", "--points", "5"]
    rc, data = run_json(capsys, [*args, "--trace", str(trace)])
    assert rc == 0 and data["trace_file"] == str(trace)
    lp = validate(parse_problem(TRIANGLE).lp)
    points = follow_path(lp, np.full(3, 0.5), np.linspace(0.0, 4.0, 5))
    header, rows = read_trace(trace)
    assert header == "mu,x_0,x_1,x_2,cost,energy,feas_residual,edge_potential_inf"
    assert len(rows) == data["points"] == 5
    for row, p in ((rows[0], points[0]), (rows[-1], points[-1])):
        ev = evaluate(lp, p.x)
        assert [float(v) for v in row[:5]] == [p.mu, *p.x, float(lp.c @ p.x)]
        # energy b.p and |A^T p| of the Laplacian potentials p at x, as in the solve and flow CSVs
        assert float(row[5]) == ev.energy
        assert float(row[6]) == float(np.abs(lp.A @ p.x - lp.b).max())
        assert float(row[7]) == ev.edge_potential_inf


def test_path_trace_writes_rows_where_a_coordinate_underflowed(capsys, tmp_path):
    # Far out on simple2's path x_1 underflows to zero. evaluate refuses that
    # state, but the Laplacian x_0 / c_0 still solves: p = 1 / x_0.
    trace = tmp_path / "path.csv"
    args = ["path", SIMPLE2, "--mu-max", "2000", "--points", "5", "--trace", str(trace)]
    rc, data = run_json(capsys, args)
    assert rc == 0 and data["x_final"][1] == 0.0
    _, rows = read_trace(trace)
    mu, x0, x1, cost, energy, _, edge = (float(v) for v in rows[-1])
    assert (mu, [x0, x1], cost) == (2000.0, data["x_final"], data["cost_final"])
    assert energy == edge == pytest.approx(1.0 / x0, rel=1e-15)


def test_path_csv_matches_flow_csv_at_t_equal_mu(capsys, tmp_path):
    # The entropy path at mu is the flow at t = mu from the same start, so
    # every column of the two CSVs describes the same state.
    path_csv, flow_csv = tmp_path / "path.csv", tmp_path / "flow.csv"
    assert main(["path", TRIANGLE, "--mu-max", "10", "--points", "11", "--trace", str(path_csv)]) == 0
    assert main(["flow", TRIANGLE, "--t-end", "10", "--sample-dt", "1", "--trace", str(flow_csv)]) == 0
    capsys.readouterr()
    (path_header, path_rows), (flow_header, flow_rows) = read_trace(path_csv), read_trace(flow_csv)
    assert path_header.split(",")[1:] == flow_header.split(",")[1:]
    got, want = np.array(path_rows, dtype=float), np.array(flow_rows, dtype=float)
    assert got.shape == want.shape == (11, 8)
    assert np.abs(got - want).max() <= 1e-6


def test_path_command(capsys):
    rc, data = run_json(capsys, ["path", SIMPLE2, "--mu-max", "4", "--points", "9"])
    assert rc == 0
    assert data["points"] == 9
    assert data["x_final"][0] > 0.9


def test_path_takes_long_steps_in_mu(capsys):
    rc, data = run_json(capsys, ["path", SIMPLE2, "--mu-max", "256", "--points", "6"])
    assert rc == 0 and data["points"] == 6
    assert data["cost_final"] == pytest.approx(1.0, abs=1e-9)


def test_path_at_mu_zero_repeats_the_anchor(capsys):
    rc, data = run_json(capsys, ["path", SIMPLE2, "--mu-max", "0", "--points", "3"])
    assert rc == 0 and data["points"] == 3
    assert data["newton_iters_total"] == 0
    assert data["x_final"] == [0.5, 0.5]


def test_negative_mu_max_names_the_flag(capsys):
    assert main(["path", SIMPLE2, "--mu-max", "-2"]) == 3
    err = capsys.readouterr().err
    assert "--mu-max must be finite and nonnegative, got -2.0" in err


def test_oracle_command(capsys):
    rc, data = run_json(capsys, ["oracle", IDENTITY2])
    assert rc == 0
    assert data["status"] == "optimal"
    assert data["opt"] == 5.0
    assert data["vertices"] == [[2.0, 3.0]]
    assert data["support_limit"] == [0, 1]
    assert data["vanishing"] == []


def test_verify_command(capsys):
    rc = main(["verify", SIMPLE2, "--samples", "40"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert rc == 0 and captured.err == ""
    assert data["ok"] is True
    assert data["gap_ok"] is True
    assert data["certificate"]["violations"] == 0
    assert data["samples"]["checked"] == 40
    assert data["samples"]["bound_failures"] == 0
    assert data["samples"]["energy_identity_failures"] == 0
    assert data["stop_reason"] == "Certified" and data["iterations"] == 3654
    assert data["bound_ok"] is True and Fraction(data["lower_bound_exact"]) <= 1
    assert data["lower_bound"] == float(Fraction(data["lower_bound_exact"]))
    assert data["cost"] <= 1.1 * data["lower_bound"]
    # The bound speaks of an x that meets A x = b only to rounding.
    assert 0.0 <= data["residual_inf"] <= 1e-12


def test_verify_above_the_certified_step_runs_to_the_fixed_point(capsys):
    # simple2's certified step is 1/960: above it nothing bounds the cost
    # after the gap stop, so the run and the certificate go on to the end.
    rc, solved = run_json(capsys, ["solve", SIMPLE2, "--h", "0.01"])
    assert rc == 0 and solved["stop_reason"] == "FixedPoint"
    assert "lower_bound" not in solved
    rc = main(["verify", SIMPLE2, "--h", "0.01", "--samples", "10"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["ok"] is True
    assert (data["stop_reason"], data["iterations"]) == ("FixedPoint", solved["iterations"])
    assert data["certificate"]["steps_checked"] > 0
    assert data["lower_bound"] is None and data["lower_bound_exact"] is None and data["bound_ok"] is True


def test_verify_fails_when_the_dual_bound_passes_the_optimum(capsys, monkeypatch, shipped):
    # A bound above the exact optimum is an unsound certificate, whatever the gap says.
    too_high = shipped["simple2"][2].opt_exact + 1
    monkeypatch.setattr(discrete_solver, "dual_lower_bound", lambda lp, y: too_high)
    rc = main(["verify", SIMPLE2, "--samples", "10"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 5
    assert data["ok"] is False and data["bound_ok"] is False
    assert data["stop_reason"] == "Certified" and data["lower_bound_exact"] == "2"
    assert data["gap_ok"] is True and data["certificate"]["violations"] == 0


def test_verify_starved_run_fails(capsys):
    # Every check holds but the gap: the run only stopped at the user's cap,
    # and one stderr line says so.
    rc = main(["verify", SIMPLE2, "--max-iters", "100"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert rc == 5
    assert data["ok"] is False and data["gap_ok"] is False
    assert data["stop_reason"] == "UserCap" and data["certificate"]["violations"] == 0
    assert captured.err == (
        "gap not reached: the solver stopped at --max-iters 100 with cost 1.48274 against opt 1;"
        " a larger --max-iters may reach it\n"
    )


EMPTY_REGION = {"A": [[1, 1]], "b": [-1], "c": [1, 1]}


@pytest.mark.parametrize("cmd", ["solve", "flow", "path", "verify"])
def test_an_empty_feasible_region_exits_4_in_every_engine(capsys, tmp_path, cmd):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(EMPTY_REGION))
    assert main([cmd, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "NoInteriorPointError: the feasible region is empty\n"
    assert captured.out == ""


def test_run_verification_of_an_empty_region_raises_no_interior_point():
    lp = validate(LinearProgram.from_lists(EMPTY_REGION["A"], EMPTY_REGION["b"], EMPTY_REGION["c"]))
    with pytest.raises(NoInteriorPointError, match="the feasible region is empty"):
        run_verification(lp, eps=0.1, h=None, samples=10, seed=1)


def test_exit_codes(capsys, tmp_path):
    assert main(["solve", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["solve", str(bad)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"A": [[1, 1]], "b": [1], "c": [0, 1]}))
    assert main(["solve", str(invalid)]) == 3
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    # oversized instances are a validation failure of the oracle request
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"A": [[1] * 20], "b": [1], "c": [1] * 20}))
    assert main(["oracle", str(wide)]) == 4
    capsys.readouterr()


def test_oversized_step_is_a_validation_error(capsys):
    assert main(["solve", SIMPLE2, "--h", "0.9"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("start", ["1,-1", "1,0", "1,nan", "0.5,0.25,0.25"])
def test_bad_start_exits_alike_in_every_engine(capsys, start):
    # A start that is not positive, finite and of shape (n,) is a validation error everywhere.
    codes = {cmd: main([cmd, SIMPLE2, "--start", start]) for cmd in ("solve", "flow", "path")}
    assert codes == {"solve": 3, "flow": 3, "path": 3}
    capsys.readouterr()


def test_infeasible_start_is_a_validation_error(capsys):
    # flow accepts an infeasible start; solve and path need a feasible one.
    assert main(["solve", SIMPLE2, "--start", "1,1"]) == 3
    assert main(["path", SIMPLE2, "--start", "1,1"]) == 3
    capsys.readouterr()


def run_cli_child(args, env):
    return run_child(["-m", "physarum.cli_io", *args], env)


def test_import_leaves_the_ode_solver_unloaded():
    # scipy.integrate is the slowest SciPy import; the flow is sampled by
    # Newton on the entropy path, so no run of the package needs it.
    proc = run_child(["-c", "import sys, physarum; print('scipy.integrate' in sys.modules)"], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from physarum import FlowConfig, certified_step_search, integrate\n"
        "from physarum.cli_io import load_problem\n"
        f"lp, start = load_problem({SIMPLE2!r})\n"
        "integrate(lp, FlowConfig(x0=np.array([2.0, 2.0]), t_end=5.0))\n"
        "certified_step_search(lp, 0.1)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    importers = []
    for path in sorted(Path(physarum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            if any(n == "scipy.integrate" or n.startswith("scipy.integrate.") for n in names):
                importers.append(path.name)
    assert importers == []


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


@pytest.mark.parametrize("module", ["physarum", "physarum.cli_io"])
def test_import_loads_no_scipy(module):
    proc = run_child(["-c", f"import sys, {module}; {SCIPY_LOADED}"], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [
    ["params", SIMPLE2],
    ["params", SIMPLE2, "--mode", "exact"],
    ["oracle", SIMPLE2],
])
def test_commands_without_a_laplacian_load_no_scipy(args):
    # The JSON goes to a discarded buffer so the last line is the module list.
    script = (
        "import contextlib, io, sys\n"
        "from physarum.cli_io import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({args!r})\n"
        f"print(rc); {SCIPY_LOADED}"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]


@pytest.mark.parametrize("cmd", ["verify", "solve", "flow", "path"])
def test_commands_that_solve_load_scipys_lapack_extension_alone(cmd):
    # The scipy.linalg package, and with it SciPy's array-API shim, costs
    # about 0.2 s of CPU per process; linalg loads the one extension
    # module its LAPACK routines live in.
    script = (
        "import contextlib, io, sys\n"
        "from physarum.cli_io import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main([{cmd!r}, {SIMPLE2!r}])\n"
        "print(rc, *(m in sys.modules for m in ('scipy.linalg', 'scipy._lib._array_api', 'scipy.linalg._flapack')))\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False", "True"]


# Each script makes the package's first LAPACK call in a fresh interpreter,
# then imports scipy.linalg and repeats the call on SciPy directly. The
# bound names must be the routine objects of scipy.linalg.lapack, so later
# calls pay no lookup beyond the module global and the package's first call
# loaded the one extension module that scipy.linalg then reuses.
FIRST_CALLS = {
    "laplacian_solve": (
        "got = linalg.laplacian_solve(SimpleNamespace(A=A, At=A.T), w, b)\n",
        "want = lapack.dposv((A * w).dot(A.T), b, lower=True)[1]\n",
    ),
    "spd_factor": (
        "fac = linalg.spd_factor(M)\n"
        "got = fac.lower.tobytes() + fac.solve(b).tobytes()\n",
        "low = lapack.dpotrf(M, lower=True)[0]\n"
        "want = low.tobytes() + lapack.dpotrs(low, b, lower=True)[0].tobytes()\n",
    ),
}


@pytest.mark.parametrize("entry", sorted(FIRST_CALLS))
def test_first_lapack_call_matches_scipy(entry):
    first_call, direct_call = FIRST_CALLS[entry]
    script = (
        "from types import SimpleNamespace\n"
        "import numpy as np\n"
        "from physarum import linalg\n"
        "rng = np.random.default_rng(3)\n"
        "A = rng.standard_normal((2, 5))\n"
        "M, w = A @ A.T + np.eye(2), rng.uniform(0.5, 2.0, 5)\n"
        "b = rng.standard_normal(2)\n"
        + first_call
        + "import scipy.linalg\n"
        "from scipy.linalg import lapack\n"
        + direct_call
        + "same = all(getattr(linalg, r) is getattr(lapack, r) for r in "
        "('dposv', 'dpotrf', 'dpotrs'))\n"
        "print(np.asarray(got).tobytes() == np.asarray(want).tobytes(), same)\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


@pytest.mark.parametrize("entry", [
    pytest.param("linalg.laplacian_solve(lp, x / lp.c, lp.b)", id="laplacian_solve(lp, w, b)"),
    pytest.param("linalg.spd_factor(M)", id="spd_factor(M)"),
    # solve's step loop solves through a bound linalg.laplacian_solver. On
    # the collapsed face of test_one_pivot_policy_for_every_laplacian_solve
    # its first step is the process's first LAPACK call.
    pytest.param("solve(lp, DiscreteConfig(start=x), params=params)", id="solve(lp, config)"),
])
def test_first_lapack_call_applies_the_pivot_rule(entry):
    # M's pivot of 1e-13 against a mean diagonal near 0.5 is under PIVOT_RTOL;
    # lp's Laplacian at x has collapsed onto a face.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from physarum import DiscreteConfig, LinearProgram, default_params, linalg, solve, validate\n"
        "from physarum.errors import NotPositiveDefiniteError\n"
        "M, b = np.diag([1.0, 1e-13]), np.ones(2)\n"
        "lp = validate(LinearProgram.from_lists([[1, 0, 1], [0, 1, 1]], [1, 1], [1, 1, 1]))\n"
        "x, params = np.array([1e-14, 1e-14, 1.0]), default_params(lp)\n"
        "assert 'scipy' not in sys.modules\n"
        "try:\n"
        f"    {entry}\n"
        "except NotPositiveDefiniteError:\n"
        "    print('rejected')\n"
    )
    proc = run_child(["-c", script], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_console_entry_point():
    proc = run_cli_child(["params", SIMPLE2], os.environ)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "simple2"


def test_log_env_var_routes_to_stderr():
    proc = run_cli_child(
        ["solve", SIMPLE2, "--h", "0.03"],
        {"PHYSARUM_LOG": "warning", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "certified" in proc.stderr
    json.loads(proc.stdout)  # stdout stays pure JSON


@pytest.mark.parametrize("args, code", [
    ("solve --start 1,x", 1),
    ("verify --start 9,9", 1),
    ("oracle --start 9,9", 1),
    ("params --start 9,9", 1),
    ("path --points 0", 1),
    ("path --points 1", 1),
    ("verify --samples -1", 1),
    ("verify --seed -1", 1),
    ("oracle --cap -1", 1),
    ("oracle --cap 0", 1),
    ("flow --t-end -1", 3),
    ("flow --sample-dt 0", 3),
    ("flow --t-end nan", 3),
    ("flow --t-end inf", 3),
    ("flow --sample-dt inf", 3),
    ("solve --max-iters -1", 1),
    ("solve --trace-every -1", 1),
    # Past the int64 range of the trace's k column.
    ("solve --trace no-such-dir/trace.csv --trace-every 1000000000000000000000000000000", 3),
    ("path --mu-max -1", 3),
    ("path --mu-max nan", 3),
    ("path --mu-max inf", 3),
    ("verify --eps 0.7", 3),
    ("verify --h 2", 3),
    # Grids and sample counts past numpy's array size limit.
    ("flow --t-end 1e308", 3),
    ("flow --t-end 1 --sample-dt 1e-300", 3),
    ("path --points 1000000000000000000000000000000", 1),
    ("verify --samples 1000000000000000000000000000000", 1),
    # Within that limit but past any memory: arrays over 2**57 bytes, which
    # the allocator refuses without touching memory.
    ("flow --t-end 1e17", 4),
    ("path --points 100000000000000000", 4),
    ("verify --samples 100000000000000000", 4),
    # A step that cannot move x fills the trace up to the cap, 10**18 rows;
    # solve refuses before the trace file is opened.
    ("solve --h 1e-30 --max-iters 1000000000000000000000000000000 --trace no-such-dir/trace.csv", 4),
])
def test_bad_arguments_exit_with_a_code_not_a_traceback(args, code):
    cmd, *options = args.split()
    proc = run_cli_child([cmd, SIMPLE2, *options], os.environ)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert proc.stdout == ""


def test_an_oversized_fill_reports_one_line():
    # The trace's rows are counted before the warning that x never left the
    # start, so the size error is all that stderr holds.
    proc = run_cli_child(
        ["solve", SIMPLE2, "--h", "1e-30", "--max-iters", str(10**30), "--trace", "no-such-dir/trace.csv"],
        os.environ,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("TooLargeError: the trace would hold ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    "flow --t-end -1", "flow --sample-dt 0", "path --mu-max -1", "verify --eps 0.7", "verify --h 2",
])
def test_bad_numbers_are_rejected_before_the_enumeration(tmp_path, args):
    # At n = 18, past ENUMERATION_CAP, the default start point and verify's
    # oracle raise TooLargeError (exit 4); the bad number is reported first.
    lp = planted_instance(np.random.default_rng(1), 5, 18)
    path = tmp_path / "planted5x18.json"
    path.write_text(json.dumps({"A": lp.A_int.tolist(), "b": lp.b_int.tolist(), "c": lp.c_int.tolist()}))
    cmd, *options = args.split()
    proc = run_cli_child([cmd, str(path), *options], os.environ)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("validation failed: ")


def test_json_ready_sends_numpy_values_through_one_rule():
    doc = [np.float64("inf"), np.float64("nan"), np.float32(1.5), np.int64(3), np.bool_(True)]
    ready = _json_ready(doc)
    assert ready == ["inf", "nan", 1.5, 3, True]
    assert [type(v) for v in ready] == [str, str, float, int, bool]
    json.dumps(ready, allow_nan=False)


@pytest.mark.parametrize("m", [10, 16, 18])
def test_overflowed_parameters_give_a_zero_step_not_a_traceback(tmp_path, m):
    path = tmp_path / f"overflow{m}.json"
    path.write_text(json.dumps(overflowing_instance(m)))
    params = run_cli_child(["params", str(path)], os.environ)
    assert params.returncode == 0, params.stderr
    assert json.loads(params.stdout)["certified_step"] == 0.0
    solve = run_cli_child(["solve", str(path)], os.environ)
    assert solve.returncode == 4, solve.stderr
    assert "StepSizeUnderflowError" in solve.stderr and "--h" in solve.stderr
    # The message gives the cap 1/(2P) and offers a step or the search only
    # while some step under that cap moves the start. At m = 10 and 16 the
    # cap is positive, but cap * dev at the start is at most 2**-55, so every
    # allowed step leaves x as it is. At m = 18 P is inf, so every h > 0
    # exceeds the cap and the search raises as well.
    if m < 18:
        assert "positivity cap 1/(2 P) is " in solve.stderr
        assert ("no step h (--h) up to it moves the start: there dev = max |q_i / x_i - 1| is "
                in solve.stderr)
        assert "so h dev <= 2**-55 keeps every update below half an ulp of x" in solve.stderr
        assert "certified_step_search" not in solve.stderr
    else:
        assert ("positivity cap 1/(2 P) is 0.000e+00; no step h > 0 (--h) stays under it: "
                "the instance's worst-case bounds exceed the float range") in solve.stderr
        assert "certified_step_search" not in solve.stderr
        step = run_cli_child(["solve", str(path), "--h", "1e-300"], os.environ)
        assert step.returncode == 3 and "exceeds the positivity-safe cap" in step.stderr
    for proc in (params, solve):
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr


def test_every_option_has_a_reader():
    # A flag that its command never reads is accepted and silently ignored.
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for cmd, sub in subparsers.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        unread += [f"{cmd} {a.dest}" for a in sub._actions
                   if a.dest != "help" and f"args.{a.dest}" not in source]
    assert unread == []


def test_every_library_option_has_a_caller():
    # An option that only tests set is code kept alive by its own unit test:
    # a defaulted parameter of an exported function, or of an exported
    # dataclass's __init__, that no call in the package or bench/ passes.
    roots = [Path(physarum.__file__).resolve().parent, Path(__file__).resolve().parent.parent / "bench"]
    passed = {}  # callee name -> argument positions and keywords seen at some call
    for path in sorted(f for root in roots for f in root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                seen = passed.setdefault(name, set())
                seen.update(range(len(node.args)))
                seen.update(k.arg for k in node.keywords)
    uncalled = []
    for name in physarum.__all__:
        fn = getattr(physarum, name)
        if not (inspect.isfunction(fn) or dataclasses.is_dataclass(fn)):
            continue
        params = list(inspect.signature(fn).parameters.values())
        uncalled += [f"{name}({p.name})" for i, p in enumerate(params)
                     if p.default is not p.empty and not {i, p.name} & passed.get(name, set())]
    assert uncalled == []


def test_every_package_definition_has_a_reader():
    # A module-level function or class that nothing in the package outside
    # its own body, and nothing in bench/, names is read only by tests.
    package = Path(physarum.__file__).resolve().parent
    bench = Path(__file__).resolve().parent.parent / "bench"

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    read = set().union(*(names(ast.parse(f.read_text())) for f in bench.glob("*.py")))
    tops = [(f, node, names(node)) for f in sorted(package.glob("*.py")) for node in ast.parse(f.read_text()).body]
    unread = [
        f"{f.stem}.{node.name}" for f, node, _ in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
        and not any(node.name in used for _, other, used in tops if other is not node)
    ]
    assert unread == []


@pytest.mark.parametrize("entry", ["1e20", "100000000000000000000"])
def test_entries_beyond_int64_are_not_integers(tmp_path, entry):
    # A float 1e20 used to pass the integrality check and wrap to -2**63 in the int64 cast.
    path = tmp_path / "huge.json"
    path.write_text(f'{{"A": [[{entry}, 1]], "b": [1], "c": [1, 1]}}')
    proc = run_cli_child(["params", str(path)], os.environ)
    assert proc.returncode == 3, proc.stderr
    assert "must contain integers" in proc.stderr
    assert "Warning" not in proc.stderr
    assert proc.stdout == ""
