"""The error taxonomy: one class per failure, whichever engine sees it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import physarum
from physarum import (
    DiscreteConfig,
    FlowConfig,
    check_bounds,
    compute_params,
    evaluate,
    follow_path,
    gradient_identity_residual,
    integrate,
    solve,
    solve_point,
)
from physarum.errors import (
    DimensionMismatchError,
    InfeasibleStartError,
    MissingVerifyDataError,
    NonPositiveStateError,
    ValidationError,
)

PACKAGE_DIR = Path(physarum.__file__).resolve().parent

# Each entry point takes a caller-supplied point for simple2 (A = [[1, 1]], b = [1]).
ENTRY_POINTS = {
    "evaluate": lambda lp, x: evaluate(lp, x),
    "solve_start": lambda lp, x: solve(lp, DiscreteConfig(start=x)),
    "integrate_x0": lambda lp, x: integrate(lp, FlowConfig(x0=x, t_end=1.0)),
    "solve_point_anchor": lambda lp, x: solve_point(lp, x, 1.0),
    "follow_path_anchor": lambda lp, x: follow_path(lp, x, [0.0, 1.0]),
    "check_bounds_feasible": lambda lp, x: check_bounds(lp, evaluate(lp, x), compute_params(lp)),
}
NEEDS_FEASIBLE = ("solve_start", "solve_point_anchor", "follow_path_anchor", "check_bounds_feasible")

BAD_POINTS = {
    "wrong_shape": ([0.5, 0.25, 0.25], DimensionMismatchError),
    "zero_entry": ([1.0, 0.0], NonPositiveStateError),
    "negative_entry": ([1.5, -0.5], NonPositiveStateError),
    "nan_entry": ([np.nan, 1.0], NonPositiveStateError),
}

CASES = [
    pytest.param(entry, point, error, id=f"{entry}-{bad}")
    for entry in ENTRY_POINTS
    for bad, (point, error) in BAD_POINTS.items()
] + [
    pytest.param(entry, [1.0, 1.0], InfeasibleStartError, id=f"{entry}-infeasible")
    for entry in NEEDS_FEASIBLE
]


@pytest.mark.parametrize("entry, point, error", CASES)
def test_one_error_per_bad_point(simple2, entry, point, error):
    with pytest.raises(ValidationError) as excinfo:
        ENTRY_POINTS[entry](simple2, np.array(point))
    assert excinfo.type is error


@pytest.mark.parametrize("direction", [[np.nan, np.nan], [np.inf, -np.inf]], ids=["nan", "inf"])
def test_a_non_finite_direction_is_rejected_before_the_kernel_test(simple2, direction):
    # A NaN in A h compares False against the kernel tolerance, so the
    # kernel test alone would let the direction through to a NaN residual.
    ev = evaluate(simple2, np.array([0.5, 0.5]))
    with pytest.raises(ValidationError) as excinfo:
        gradient_identity_residual(simple2, ev, np.array(direction))
    assert excinfo.type is ValidationError


def test_validation_errors_are_value_errors():
    assert issubclass(ValidationError, ValueError)
    assert issubclass(InfeasibleStartError, ValueError)
    # A trace unfit for the check it is passed to is a bad argument.
    assert issubclass(MissingVerifyDataError, ValidationError)


def _raised_names(path: Path) -> list[str]:
    """The class name of every ``raise`` in a source file, one per statement."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.append(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.append(exc.attr)
    return names


SOURCES = sorted(PACKAGE_DIR.glob("*.py"))


def test_every_error_class_is_raised_or_a_base_of_one():
    # Read as source, not imported: a class that only renames another error
    # and is never raised shows up here.
    tree = ast.parse((PACKAGE_DIR / "errors.py").read_text())
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    live = {name for path in SOURCES for name in _raised_names(path)} & bases.keys()
    while True:
        parents = {b for name in live for b in bases[name] if b in bases}
        if parents <= live:
            break
        live |= parents
    assert sorted(bases.keys() - live) == []


def test_bare_value_error_is_kept_for_bugs_only():
    # Bad arguments raise ValidationError, and no bare ValueError is left.
    sites = [path.name for path in SOURCES for name in _raised_names(path) if name == "ValueError"]
    assert sites == []
