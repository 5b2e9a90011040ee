"""In-memory spans recorded around calls into the package's public functions.

Nothing under ``src/`` is edited. A span wrapper replaces the module
attribute that callers look up at call time (``continuous_flow.rhs_log`` is
found through the module globals of ``continuous_flow``, for example), so
rebinding that attribute is enough to see every call. The solver loop
inlines its Laplacian and so has no inner spans; per-iteration costs come
from the fixed-input probes instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute) pairs rebound while tracing. Several functions are
# imported by name into other modules, so each binding site is listed.
TRACED = (
    ("physarum.cli_io", "main"),
    ("physarum.cli_io", "run_verification"),
    ("physarum.cli_io", "validate"),
    ("physarum.cli_io", "compute_params"),
    ("physarum.cli_io", "default_params"),
    ("physarum.model", "validate"),
    ("physarum.model", "compute_params"),
    ("physarum.model", "default_params"),
    ("physarum.discrete_solver", "default_params"),
    ("physarum.continuous_flow", "default_params"),
    ("physarum.oracle", "enumerate_polyhedron"),
    ("physarum.oracle", "max_subdeterminant"),
    ("physarum._exact", "solve_unique"),
    ("physarum.discrete_solver", "solve"),
    ("physarum.discrete_solver", "certify_trace"),
    ("physarum.discrete_solver", "certified_step_search"),
    ("physarum.discrete_solver", "evaluate"),
    ("physarum.continuous_flow", "integrate"),
    ("physarum.continuous_flow", "rhs_log"),
    ("physarum.continuous_flow", "evaluate"),
    ("physarum.cli_io", "evaluate"),
    ("physarum.dynamics", "spd_factor"),
    ("physarum.entropy_path", "follow_path"),
    ("physarum.entropy_path", "solve_point"),
    ("physarum.entropy_path", "dual_value_and_derivatives"),
    ("physarum.entropy_path", "spd_factor"),
)


class Recorder:
    """Collects (name, start_ns, end_ns, parent) tuples while installed."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0, 0, parent))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def install(self) -> "Recorder":
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            # Named after the defining module: cli_io.validate is model.validate.
            name = f"{original.__module__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it on the single calling thread.
    """
    child_total = defaultdict(int)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - child_total[idx]) * 1e-9
    return out


def merge_self_times(tables) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out
