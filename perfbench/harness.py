"""Plumbing shared by every workload: thread caps, the import path of the
program under test, clocks, order statistics, the metric schema read from
``BENCHMARK.json``, and the result record.

Nothing here imports numpy or ``repro`` at module load: the BLAS thread cap
has to be in the environment before numpy is first imported, so ``run.py``
calls :func:`cap_blas_threads` and :func:`load_program` before it imports a
workload module.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space for files a workload must put on disk (the saved package
#: the origin serves).  Inside the checkout, ignored by git, removed after.
WORK_ROOT = ROOT / ".perfbench_tmp"

#: Full set-ups per untraced run; ``setup_s`` is the fastest of them, as
#: every other timing is the quietest window's.  The play workloads, whose
#: set-up encodes 352x640 video for ~7 s, afford two.
SETUP_REPEATS = 3
PLAY_SETUP_REPEATS = 2
#: Share of ``--seconds`` a play run, traced or not, measures for; the rest
#: of its time budget is what encoding 352x640 video costs beyond a fleet or
#: origin run's three set-ups.  What steadies a run is the wall time its
#: windows span, and a play run's set-ups spread its sessions over 20 s.
PLAY_MEASURE_SHARE = 0.3
#: Share of ``--seconds`` a traced fleet or origin run measures for: its rows
#: are counts and ratios taken within the run, which no bound gates.
TRACED_MEASURE_SHARE = 0.5

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Pin BLAS to ``min(nproc, 2)`` threads; must precede ``import numpy``."""
    cap = min(os.cpu_count() or 1, 2)
    for var in _BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def load_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the program in *this* checkout; without it there
    is nothing to measure, so the run ends with a non-zero exit code and no
    result line.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program to measure ({SRC / 'repro'} is missing); "
            "run from a full checkout")
    sys.path.insert(0, str(SRC))


def wall():
    """The program's own process-wide wall clock (``repro.obs``)."""
    from repro.obs import wall_clock
    return wall_clock()


def cpu_seconds() -> float:
    """User + system CPU seconds of this process, all threads."""
    return time.process_time()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- statistics

def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives them
    (one value has no spread)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(share * len(ordered))))
    return float(ordered[rank])


def repeat_for(seconds: float, min_runs: int, run_once) -> list:
    """Call ``run_once()`` for about ``seconds`` of wall time and at least
    ``min_runs`` times; returns every call's result.  Another call is made
    only while it is expected to end nearer to the deadline than stopping
    now would, so slow calls do not stretch the run by a call each."""
    clock = wall()
    start = clock.now()
    results = []
    while True:
        elapsed = clock.now() - start
        if (len(results) >= min_runs and
                elapsed + elapsed / (2 * max(1, len(results))) >= seconds):
            return results
        results.append(run_once())


def setup_rounds(build, repeats: int, dispose=None):
    """Yield ``(product, seconds)`` for ``repeats`` from-scratch ``build()``
    calls.  The previous product is dropped (through ``dispose`` when it
    holds more than memory) before the next build starts, outside the timed
    region; the caller measures one stretch of samples on each product.

    Interleaving set-ups and measurement is deliberate.  On a shared host
    the CPU's effective speed moves by tens of percent in phases that last
    seconds to a minute; stretches a set-up apart seldom all fall into one
    slow phase, where one contiguous stretch often does.
    """
    clock = wall()
    product = None
    for _ in range(repeats):
        if product is not None and dispose is not None:
            dispose(product)
        product = None
        start = clock.now()
        product = build()
        yield product, clock.now() - start


def windows_of(samples, size: int) -> list[list]:
    """Cut a sequence of consecutive samples into windows of ``size``; a
    remainder shorter than ``size`` joins the last window.  Each workload
    sizes its windows to about half a second of work."""
    samples = list(samples)
    count = max(1, len(samples) // size)
    return [samples[i * size:(i + 1) * size if i < count - 1 else None]
            for i in range(count)]


def best_window(windows, value, better: str) -> float:
    """The median of ``value(sample)`` over each window's samples, then the
    best window's median (``better`` is ``"lower"`` or ``"higher"``).

    Interference from the host only ever slows a window down, so the
    quietest window is the best estimate of what the program costs, and it
    repeats from run to run far better than the median over all windows.
    Windows are short (:func:`windows_of`) so that a run holds many: the
    more windows, the likelier one of them met a quiet host.
    """
    medians = [median(value(sample) for sample in window)
               for window in windows]
    return min(medians) if better == "lower" else max(medians)


@contextmanager
def work_dir():
    """A fresh directory inside the checkout, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()          # only when no other run is using it
        except OSError:
            pass


# ------------------------------------------------------------ schema

@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str
    bound: float | None = None


class BenchSpec:
    """``BENCHMARK.json``: the single list of workload and metric names."""

    def __init__(self, path: Path = SPEC_PATH):
        data = json.loads(path.read_text())
        self.run_seconds: int = data["run_seconds"]
        self.workloads: dict[str, str] = {
            w["name"]: w["why"] for w in data["workloads"]}
        self.end_to_end: dict[str, MetricSpec] = {
            m["name"]: MetricSpec(m["name"], m["unit"], m["better"],
                                  m["bound"])
            for m in data["end_to_end"]}
        self.per_layer: dict[str, MetricSpec] = {
            m["name"]: MetricSpec(m["name"], m["unit"], m["better"])
            for m in data["per_layer"]}


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` maps metric name to value.  ``problems`` lists every failed
    correctness check; a run is correct when it is empty.  ``samples`` says
    how many passes / requests stand behind the medians, and ``spans`` is
    the traced run's span tree (``repro.obs.span_to_dict`` form).
    """

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, int] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    spans: dict | None = None

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def result_record(spec: BenchSpec, trace: bool, outcome: Outcome) -> dict:
    """The contract's result object: every end-to-end metric untraced,
    every per-layer metric traced.

    A per-layer metric whose layer the workload never enters reads 0; an
    end-to-end metric must always be measured.  A name the schema does not
    declare is a bug in the workload, not something to drop silently.
    """
    declared = spec.per_layer if trace else spec.end_to_end
    unknown = sorted(set(outcome.metrics) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not trace:
        missing = sorted(set(declared) - set(outcome.metrics))
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)),
               "unit": declared[name].unit}
        for name in declared}
    return {"correct": not outcome.problems,
            "attempted": int(max(1, outcome.attempted)),
            "failed": int(outcome.failed),
            "metrics": metrics}


# --------------------------------------------------------- provenance

def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_build() -> str:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def provenance(seed: int, blas_threads: int) -> dict:
    """Machine and build facts written into every result file."""
    import numpy as np
    import scipy
    inside = _git("rev-parse", "--show-toplevel")
    in_repo = inside is not None and Path(inside).resolve() == ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_threads": blas_threads,
        "seed": seed,
        "transport": "loopback (127.0.0.1, origin and client in one "
                     "process on one event loop; no real network)",
    }
