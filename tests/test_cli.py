"""Command-line interface: JSON output, trace files, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import physarum
from physarum.cli_io import main, parse_problem
from physarum.errors import MalformedProblemError, ProblemIOError
from tests.conftest import INSTANCE_DIR

SIMPLE2 = str(INSTANCE_DIR / "simple2.json")
IDENTITY2 = str(INSTANCE_DIR / "identity2.json")
TRIANGLE = str(INSTANCE_DIR / "triangle.json")


def run_json(capsys, args):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_parse_problem_roundtrip():
    pf = parse_problem(SIMPLE2)
    assert pf.name == "simple2"
    assert pf.lp.A.tolist() == [[1, 1]]
    assert pf.start.tolist() == [0.5, 0.5]


def test_parse_problem_default_name(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"A": [[1, 1]], "b": [1], "c": [1, 1]}))
    pf = parse_problem(str(path))
    assert pf.name == "other"
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


def test_path_command(capsys):
    rc, data = run_json(capsys, ["path", SIMPLE2, "--mu-max", "4", "--points", "9"])
    assert rc == 0
    assert data["points"] == 9
    assert data["x_final"][0] > 0.9


def test_oracle_command(capsys):
    rc, data = run_json(capsys, ["oracle", IDENTITY2])
    assert rc == 0
    assert data["status"] == "optimal"
    assert data["opt"] == 5.0
    assert data["vertices"] == [[2.0, 3.0]]
    assert data["support_limit"] == [0, 1]
    assert data["vanishing"] == []


def test_verify_command(capsys):
    rc, data = run_json(capsys, ["verify", SIMPLE2, "--samples", "40"])
    assert rc == 0
    assert data["ok"] is True
    assert data["gap_ok"] is True
    assert data["certificate"]["violations"] == 0
    assert data["samples"]["checked"] == 40
    assert data["samples"]["bound_failures"] == 0
    assert data["samples"]["energy_identity_failures"] == 0


def test_verify_starved_run_fails(capsys):
    rc, data = run_json(capsys, ["verify", SIMPLE2, "--max-iters", "100"])
    assert rc == 5
    assert data["ok"] is False


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


def run_child(args, env):
    """Run a child interpreter that imports the same physarum as this process.

    This process may find the package only through pytest's ``pythonpath``
    setting or an install, neither of which a child inherits.
    """
    package_root = str(Path(physarum.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": package_root},
    )


def run_cli_child(args, env):
    return run_child(["-m", "physarum.cli_io", *args], env)


def test_import_leaves_the_ode_solver_unloaded():
    # scipy.integrate is the slowest import of the package, and only integrate needs it
    proc = run_child(["-c", "import sys, physarum; print('scipy.integrate' in sys.modules)"], os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    ("path --points 0", 1),
    ("verify --samples -1", 1),
    ("verify --seed -1", 1),
    ("oracle --cap -1", 1),
    ("oracle --cap 0", 1),
    ("flow --t-end -1", 3),
    ("flow --sample-dt 0", 3),
    ("flow --t-end nan", 3),
    ("flow --rel-tol -1 --t-end 1", 3),
    ("solve --max-iters -1", 3),
    ("solve --trace-every -1", 3),
    ("path --mu-max -1", 3),
    ("path --mu-max nan", 3),
])
def test_bad_arguments_exit_with_a_code_not_a_traceback(args, code):
    cmd, *options = args.split()
    proc = run_cli_child([cmd, SIMPLE2, *options], os.environ)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
