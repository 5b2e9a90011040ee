"""Paths, the child environment, input generators and small statistics.

Importing this module pins the BLAS thread count before numpy loads, so
it must be imported before numpy in every entry point of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INSTANCES = ROOT / "instances"
OUT = ROOT / ".bench_out"

# The linear systems here are m x m with m <= 64, far below the size where
# a second BLAS thread pays; one thread also keeps timings independent of
# whatever else shares the machine.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

CORPUS_SEED = 20240801
EPS = 0.1


def pin_to_one_cpu() -> int:
    """Keep this process and every child it starts on one CPU; return that CPU.

    The host's speed differs from one vCPU to the other and changes on each
    independently: the reference kernel timed in two processes at once gave
    uncorrelated speeds. The gauge can only stand for the speed an
    operation ran at if both ran on the same vCPU, and on cli the operation
    runs in a child, so the children are pinned with the parent.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class MissingProgram(RuntimeError):
    """The package sources are not where a source checkout keeps them."""


def use_source_tree() -> None:
    """Import the package from ``src/`` of this checkout and nowhere else."""
    if not (SRC / "physarum" / "__init__.py").is_file() or not INSTANCES.is_dir():
        raise MissingProgram(f"no package sources under {SRC} or no {INSTANCES}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import physarum

    if Path(physarum.__file__).resolve().parent != (SRC / "physarum").resolve():
        raise MissingProgram(f"physarum was imported from {physarum.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    """Environment for package subprocesses: source tree, pinned BLAS, quiet log."""
    env = dict(os.environ)
    env.pop("PHYSARUM_LOG", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def planted_instance(rng, m: int, n: int):
    """A full-rank A in [-3, 3], an integer interior point x0 in [1, 3], b = A x0, c in [1, 3]."""
    import numpy as np
    from physarum.model import LinearProgram

    while True:
        A = rng.integers(-3, 4, size=(m, n))
        if np.linalg.matrix_rank(A) == m:
            break
    x0 = rng.integers(1, 4, size=n)
    c = rng.integers(1, 4, size=n)
    return LinearProgram(A=A, b=A @ x0, c=c, name=f"planted{m}x{n}"), x0.astype(float)


def acceptance_corpus():
    """The 28 instances of acceptance criterion 1 as (name, lp, oracle_result)."""
    from physarum import oracle

    shipped = [(name, lp, oracle.enumerate_polyhedron(lp)) for name, lp in shipped_instances().items()]
    return shipped + random_corpus()


def shipped_instances():
    """name -> ValidatedLP for the shipped problem files, in a fixed order."""
    from physarum import model

    out = {}
    for name in ("simple2", "identity2", "triangle"):
        doc = json.loads((INSTANCES / f"{name}.json").read_text())
        out[name] = model.validate(model.LinearProgram.from_lists(doc["A"], doc["b"], doc["c"], name=name))
    return out


def random_corpus(count: int = 25):
    """The random part of the acceptance corpus, drawn exactly as the test suite draws it.

    Rejection sampling over m in [1, 3], n in [m+1, 6], entries in [-3, 3],
    costs in [1, 3]; keeps full-rank, nonzero-demand instances with a
    strictly positive feasible point. Returns (name, lp, oracle_result).
    """
    import numpy as np
    from physarum import _exact, model, oracle
    from physarum.errors import NoInteriorPointError

    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    while len(out) < count:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(max(2, m + 1), 7))
        A = rng.integers(-3, 4, size=(m, n))
        if _exact.rank_int(A.tolist()) < m:
            continue
        b = rng.integers(-3, 4, size=m)
        if not b.any():
            continue
        c = rng.integers(1, 4, size=n)
        lp = model.validate(model.LinearProgram(A=A, b=b, c=c))
        result = oracle.enumerate_polyhedron(lp)
        if result.status != "optimal":
            continue
        try:
            oracle.interior_point(result)
        except NoInteriorPointError:
            continue
        out.append((f"random{len(out)}", lp, result))
    return out


class SpeedGauge:
    """Host speed, read from a fixed reference kernel run between operations.

    The shared host this benchmark runs on changes speed by up to a third
    within a minute, in CPU time as much as in wall time, so the same pass
    reads 20-30% apart from run to run. The kernel below mixes what the
    workloads do (small numpy calls, interpreted arithmetic, a 48 x 48
    factorisation) and never calls the package. Timing it right before and
    right after each operation and scaling the operation's CPU time by
    ``NOMINAL_S`` over the mean of the two gives that operation's CPU time
    at a fixed host speed. A change to the package moves the operation, not
    the kernel, so it moves the normalised time by the same share.
    """

    # Median CPU seconds of one kernel run on the machine where the first
    # figures were taken (Intel Xeon at 2.1 GHz, 2 vCPUs, one BLAS thread).
    # It only sets the scale: normalised times read as seconds on that machine.
    NOMINAL_S = 0.0100
    ROUNDS = 400
    SAMPLE_EVERY_S = 0.2

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a, self._w = rng.random((3, 8)), rng.random(8)
        self._i3, self._one = np.eye(3), np.ones(3)
        b = rng.random((48, 48))
        self._spd, self._v = b @ b.T + 48.0 * np.eye(48), rng.random(48)
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> float:
        """CPU seconds of one kernel run; also kept in ``samples``."""
        import numpy as np

        start = time.process_time()
        acc = 0.0
        for k in range(self.ROUNDS):
            lap = (self._a * self._w) @ self._a.T + self._i3
            acc += float(np.linalg.solve(lap, self._one)[0])
            acc += sum(i * 0.5 for i in range(40))
            if k % 4 == 0:
                acc += float(np.linalg.cholesky(self._spd)[-1, -1] + (self._spd @ self._v)[0])
        self.samples.append(time.process_time() - start)
        return self.samples[-1]

    def factor(self, since: int) -> float:
        """NOMINAL_S over the mean kernel time around the operation that just ended.

        ``since`` is ``len(samples)`` when the operation began: the sample
        before it, any taken while it ran and one taken now all count.
        """
        self.sample()
        around = self.samples[since - 1:]
        return self.NOMINAL_S * len(around) / sum(around)

    def run_child(self, argv, timeout: float, **popen_kwargs) -> subprocess.CompletedProcess:
        """``subprocess.run(argv, capture_output=True, text=True)``, sampling the kernel while it waits.

        A cli command runs for up to ten seconds, longer than the host holds
        one speed, so the kernel on both sides of it does not tell the speed
        it ran at. The child shares this process's vCPU (``pin_to_one_cpu``);
        every ``SAMPLE_EVERY_S`` the kernel takes that vCPU from it for one
        run, which costs the child no CPU time.
        """
        deadline = time.monotonic() + timeout
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              **popen_kwargs) as proc:
            while True:
                try:
                    out, err = proc.communicate(timeout=self.SAMPLE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        proc.kill()
                        proc.communicate()
                        raise
                    self.sample()
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def cpu_self() -> float:
    return time.process_time()


def cpu_children() -> float:
    """User plus system CPU seconds of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def high_percentile(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With fewer than eleven samples no percentile qualifies and the median
    is returned as the 50th.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return 50.0, statistics.median(xs)
    k = n - 11  # index with exactly ten samples above it
    return 100.0 * (k + 1) / n, xs[k]


def summarize(values) -> dict:
    pct, val = high_percentile(values)
    return {"n": len(values), "median": statistics.median(values), "p": round(pct, 1), "p_value": val}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Header written at the top of every result file."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }
