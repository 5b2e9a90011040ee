"""What the benchmark under bench/ reads from the package.

The benchmark rebinds module attributes to time them and walks traces row
by row, so a rename or a trace-format change that breaks it would only
show when the benchmark runs. These checks make it show in the suite.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from physarum import (
    DiscreteConfig,
    FlowConfig,
    _exact,
    certified_step_search,
    certify_trace,
    compute_params,
    continuous_flow,
    default_step,
    entropy_path,
    enumerate_polyhedron,
    follow_path,
    integrate,
    solve,
)
from physarum import cli_io
from physarum.cli_io import run_verification
from tests.conftest import INSTANCE_DIR, planted_instance
from tests.test_exact import ref_feasible_bases

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "physarum"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_DIR / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The calls bench/workloads.py and bench/probes.py make, with placeholder
# arguments in the same positions and under the same keywords.
BENCH_CALLS = [
    (certify_trace, ("lp", "trace", "opt", "eps", "h", "x_star"), {}),
    (certified_step_search, ("lp", "eps"), {"params": "params", "oracle_result": "res"}),
    (default_step, ("params", "eps"), {}),
    (compute_params, ("lp",), {}),
    (compute_params, ("lp",), {"mode": "exact"}),
    (solve, ("lp", "config"), {"params": "params"}),
    (solve, ("lp", "config"), {"params": "params", "oracle_result": "res"}),
    (integrate, ("lp", "config"), {}),
    (integrate, ("lp", "config"), {"params": "params"}),
    (follow_path, ("lp", "x0", "mus"), {}),
    (run_verification, ("lp",), {"eps": "eps", "h": None, "samples": 200, "seed": 1}),
    (DiscreteConfig, (), {"eps": "eps", "h": "h"}),
    (DiscreteConfig, (), {"start": "x0", "trace_every": 0, "max_iters": 1}),
    (DiscreteConfig, (), {"eps": "eps", "h": "h", "start": "x0", "trace_every": 1, "max_iters": 1}),
    (FlowConfig, (), {"x0": "x0", "t_end": 40.0}),
    (FlowConfig, (), {"x0": "x0", "t_end": 40.0, "sample_dt": 0.25}),
]


@pytest.mark.parametrize("fn, args, kwargs", BENCH_CALLS,
                         ids=[f"{fn.__name__}-{i}" for i, (fn, _, _) in enumerate(BENCH_CALLS)])
def test_benchmark_call_shapes_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_every_traced_attribute_resolves():
    missing = [
        (module, attr) for module, attr in load_spans().TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_verify_calls_each_traced_layer_through_its_binding(capsys):
    """cli_io resolves evaluate alone on first access, and verify calls the binding the benchmark installs.

    Were cli_io.evaluate bypassed, the 200 sample evaluations would count
    as run_verification's own time (cli_io.run_verification_self_s).
    """
    with load_spans().Recorder() as rec:
        rc = cli_io.main(["verify", str(INSTANCE_DIR / "triangle.json")])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["ok"]
    names = [name for name, *_ in rec.spans]
    root = names.index("cli_io.run_verification")
    samples = [span for span in rec.spans if span[0] == "dynamics.evaluate" and span[3] == root]
    assert len(samples) == report["samples"]["checked"] == 200
    assert {"model.validate", "model.default_params", "oracle.enumerate_polyhedron"} <= set(names)


def test_every_imported_name_is_used():
    """A module uses each name it imports, unless the benchmark rebinds it there."""
    traced = set(load_spans().TRACED)
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"physarum.{path.stem}"
        unused += [(module, name) for name in sorted(imported - used) if (module, name) not in traced]
    assert unused == []


def test_no_module_uses_the_function_form_of_dot():
    """The package calls ndarray.dot: the function np.dot pays numpy's dispatch on every call."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "dot"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [(path.name, node.lineno) for a in node.names if a.name == "dot"]
    assert found == []


def test_no_module_imports_scipy_linalg():
    """linalg loads SciPy's LAPACK extension by itself: the scipy.linalg package costs about 0.2 s a process."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names):
                found.append((path.name, node.lineno))
    assert found == []


def test_only_linalg_touches_the_laplacian():
    """Forming A diag(w) A^T, calling LAPACK's Cholesky routines and the pivot rule are linalg's.

    Every other module solves through linalg.laplacian_solver, bound once
    per loop or once per call, names no _check_pivots, and none imports
    the retired spd_solve.
    """
    def name_of(node):
        return getattr(node, "attr", getattr(node, "id", None))

    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [(path.name, node.lineno) for a in node.names if a.name in ("spd_solve", "_check_pivots")]
            elif name_of(node) == "_check_pivots":
                found.append((path.name, node.lineno))
            elif isinstance(node, ast.Call):
                name = name_of(node.func)
                # A Laplacian build is a .dot whose argument is A transpose.
                if name in ("dposv", "dpotrf", "dpotrs") or (name == "dot" and node.args
                                                             and name_of(node.args[0]) == "At"):
                    found.append((path.name, node.lineno))
    assert found == []


def test_traces_read_the_way_the_benchmark_reads_them(simple2):
    x0 = np.array([0.5, 0.5])
    _, trace = solve(simple2, DiscreteConfig(eps=0.1, start=x0, max_iters=20))
    assert len(trace.entries) == 21
    assert [e.k for e in trace.entries] == list(range(21))
    assert all(e.x.shape == (2,) for e in trace.entries)

    flow = integrate(simple2, FlowConfig(x0=x0, t_end=2.0, sample_dt=0.5))
    assert len(flow.entries) == 5
    assert [e.t for e in flow.entries] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert max(e.feas_residual for e in flow.entries) < 1e-6
    path = follow_path(simple2, x0, [e.t for e in flow.entries])
    assert max(float(np.abs(p.x - e.x).max()) for p, e in zip(path, flow.entries)) < 1e-5


def test_oracle_solves_one_block_per_feasible_basis(monkeypatch):
    """``oracle.bases_tried`` counts calls to ``_exact.solve_unique`` through the module attribute.

    The basis screen leaves one call per basis with a nonnegative solution,
    a vertex shared by several bases once for each.
    """
    calls = 0
    real = _exact.solve_unique

    def counting(mat, rhs):
        nonlocal calls
        calls += 1
        return real(mat, rhs)

    monkeypatch.setattr(_exact, "solve_unique", counting)
    lp = planted_instance(np.random.default_rng(4), 4, 10)
    enumerate_polyhedron(lp)
    A = [list(row) for row in lp.A_exact]
    # m-column bases for the vertices, (m+1)-column bases for the rays.
    want = len(ref_feasible_bases(A, list(lp.b_exact))) + len(ref_feasible_bases(A + [[1] * lp.n], [0] * lp.m + [1]))
    assert 0 < calls == want


def test_path_points_and_dual_evaluations_go_through_module_attributes(monkeypatch, simple2):
    """``entropy_path.dual_evals`` counts calls to ``dual_value_and_derivatives`` through the module attribute."""
    calls = {"dual_value_and_derivatives": 0}
    for name in calls:
        real = getattr(entropy_path, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(entropy_path, name, counting)
    points = follow_path(simple2, np.array([0.5, 0.5]), np.arange(0.0, 4.25, 0.25))
    assert len(points) == 17
    # One evaluation at each start plus at least one per Newton step.
    assert calls["dual_value_and_derivatives"] >= len(points) + sum(p.newton_iters for p in points)


@pytest.mark.parametrize("x0", [[0.5, 0.5], [1.0, 1.0]], ids=["feasible", "infeasible"])
def test_integrate_reads_the_vector_field_through_the_module_attribute_once_per_sample(monkeypatch, simple2, x0):
    """``continuous_flow.rhs_calls`` counts calls to ``rhs_log`` through the module attribute: one per sample."""
    calls = 0
    real = continuous_flow.rhs_log

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(continuous_flow, "rhs_log", counting)
    trace = integrate(simple2, FlowConfig(x0=np.array(x0), t_end=4.1, sample_dt=0.25))
    assert calls == len(trace.entries) == 18
