"""Mutation check of the exact layer and the certificate: how much of it the tests pin.

Each mutant plants one small fault in one target function (TARGETS) of a
scratch copy of the repository: it swaps one operator, < with <=, > with
>=, == with !=, + with -, * with /, or a call of max with one of min.
For each mutant the tests in TEST_FILES run with -x; the mutant is killed
when they fail. A survivor listed in EQUIVALENT computes what the original
computes on every input the package can pass (up to any float rounding its
reason names).
Any other survivor asks for a test; a check is never weakened to kill it.

Run from the repository root with the standard library and the test
dependencies (pytest, hypothesis):

    python3 tests/mutants.py   # every mutant, then a table

src/, tests/ and what the tests read (instances/, bench/, README.md,
pyproject.toml) are copied to a temporary directory, and only that copy is
written. Exits 1 when a mutant survives that EQUIVALENT does not list, or
when the unmutated copy fails its tests. pytest's file name pattern
(test_*.py) does not collect this file.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "instances", "bench", "README.md", "pyproject.toml")
TEST_FILES = ("tests/test_model.py", "tests/test_linalg.py", "tests/test_discrete.py",
              "tests/test_acceptance.py", "tests/test_cli.py")
TARGETS = {
    "src/physarum/model.py": ("_finite_numbers", "_dyadic", "exact_cost", "dual_lower_bound"),
    "src/physarum/linalg.py": ("basis_dual",),
    "src/physarum/discrete_solver.py": ("_cannot_move", "_potentials_cannot_close", "certify_trace"),
}
SWAPS = {
    ast.Lt: (ast.LtE, "<", "<="), ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="), ast.GtE: (ast.Gt, ">=", ">"),
    ast.Eq: (ast.NotEq, "==", "!="), ast.NotEq: (ast.Eq, "!=", "=="),
    ast.Add: (ast.Sub, "+", "-"), ast.Sub: (ast.Add, "-", "+"),
    ast.Mult: (ast.Div, "*", "/"), ast.Div: (ast.Mult, "/", "*"),
}
CALL_SWAPS = {"max": "min", "min": "max"}
TIMEOUT_S = 900  # per test run; a mutant that never ends counts as killed

# (function, source line, swap) -> why the mutant computes what the original does.
EQUIVALENT = {
    ("certify_trace", "supp = x_star > 0.0", "> -> >="):
        "the coordinates it adds have weight c_i * 0 = 0 and a finite log x_i, so they add only zeros to "
        "the potential's dot product (which BLAS may sum in another order)",
}


def _offsets(source: bytes) -> list[int]:
    """The byte offset at which each line starts; ast columns are UTF-8 byte offsets."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def mutants(path: str, source: bytes):
    """Yield (function, line, swap, start, end, replacement) for every mutant of the targets in source."""
    starts = _offsets(source)
    lines = source.decode().splitlines()

    def at(lineno, col):
        return starts[lineno - 1] + col

    tree = ast.parse(source)
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name in TARGETS[path]):
            continue
        found = []
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
                found.append((node.left, node.right, node.op))
            elif isinstance(node, ast.Compare):
                for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                    if type(op) in SWAPS:
                        found.append((left, right, op))
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in CALL_SWAPS:
                    end = at(node.func.end_lineno, node.func.end_col_offset)
                    yield (func.name, lines[node.lineno - 1].strip(), f"{name} -> {CALL_SWAPS[name]}",
                           end - len(name), end, CALL_SWAPS[name].encode())
        for left, right, op in found:
            _, old, new = SWAPS[type(op)]
            lo, hi = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
            # Between the operands stand only parentheses, blanks and the operator.
            start = lo + source[lo:hi].index(old.encode())
            yield (func.name, lines[left.end_lineno - 1].strip(), f"{old} -> {new}",
                   start, start + len(old), new.encode())


def all_mutants() -> list[tuple[str, str, str, str, bytes]]:
    """Every mutant as (path, function, line, swap, mutated source), checked to change one operator.

    In source order; a swap that a line offers more than once is told
    apart by its place, as in "* -> / #2".
    """
    out = []
    for path in TARGETS:
        source = (ROOT / path).read_bytes()
        found = sorted(mutants(path, source), key=lambda m: m[3])
        keys = [m[:3] for m in found]
        for i, (func, line, swap, start, end, new) in enumerate(found):
            mutated = source[:start] + new + source[end:]
            assert ast.dump(ast.parse(mutated)) != ast.dump(ast.parse(source)), (path, func, line, swap)
            if keys.count(keys[i]) > 1:
                swap += f" #{keys[:i + 1].count(keys[i])}"
            out.append((path, func, line, swap, mutated))
    return out


def run_tests(copy: Path) -> tuple[bool, str]:
    """Whether TEST_FILES pass in copy, with the last line pytest printed."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TEST_FILES]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc.returncode == 0, tail


def main() -> int:
    """Run every mutant, print one line per mutant and then the table; 1 if a survivor is not listed."""
    found = all_mutants()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, copy / name)
        ok, tail = run_tests(copy)
        if not ok:
            print(f"the unmutated copy fails its tests: {tail}", file=sys.stderr)
            return 1
        results = []
        for i, (path, func, line, swap, mutated) in enumerate(found, 1):
            target = copy / path
            original = target.read_bytes()
            target.write_bytes(mutated)
            began = time.monotonic()
            try:
                survived, tail = run_tests(copy)
            finally:
                target.write_bytes(original)
            verdict = "survived" if survived else "killed"
            results.append((Path(path).stem, func, line, swap, survived))
            print(f"[{i}/{len(found)}] {verdict:8} {Path(path).stem}.{func}: {swap} in `{line}` "
                  f"({time.monotonic() - began:.0f} s; {tail})", flush=True)

    rows: dict[str, list[int]] = {}
    for module, func, _, _, survived in results:
        row = rows.setdefault(f"{module}.{func}", [0, 0, 0])
        row[0] += 1
        row[2 if survived else 1] += 1
    print("\n| function | mutants | killed | survived |\n|---|---|---|---|")
    for name, (total, killed, survived) in rows.items():
        print(f"| `{name}` | {total} | {killed} | {survived} |")
    survivors = [(func, line, swap) for _, func, line, swap, survived in results if survived]
    unexplained = [s for s in survivors if s not in EQUIVALENT]
    for func, line, swap in survivors:
        reason = EQUIVALENT.get((func, line, swap), "NOT EQUIVALENT: needs a test")
        print(f"survivor {func}: {swap} in `{line}`: {reason}")
    for key in EQUIVALENT.keys() - set(survivors):
        print(f"listed as equivalent but killed or gone: {key}")
    print(f"{len(results)} mutants, {len(results) - len(survivors)} killed, {len(survivors)} survived, "
          f"{len(unexplained)} not listed as equivalent")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
