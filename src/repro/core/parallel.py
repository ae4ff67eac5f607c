"""Parallel execution plumbing for the server build pipeline.

The server pipeline's expensive stages are embarrassingly parallel: every
segment encodes and decodes independently (closed GOPs), every I-frame
chunk embeds independently, and every cluster's micro model trains
independently.  Each such stage is an ordered task list handed to
:func:`run_tasks`; :class:`ParallelConfig` says how many workers run it
and :class:`BuildTelemetry` records where the wall-clock went.

Determinism contract: there is one task function per stage, and
:func:`run_tasks` calls it with the same arguments, in the same per-task
order, whether one worker runs the list inline or a pool fans it out, so
a package built with any worker count is bit-identical for the same
:class:`~repro.core.server.ServerConfig` seed.  Models cross the task
boundary through :mod:`repro.nn.serialize`, which round-trips float32
parameters losslessly.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

from ..obs import Observability, format_table

__all__ = [
    "BACKENDS",
    "BUILD_STAGES",
    "ParallelConfig",
    "BuildTelemetry",
    "ClusterTrainingError",
    "run_tasks",
    "stage_timer",
]

#: Accepted values of :attr:`ParallelConfig.backend`, and the pool each
#: names.
BACKENDS = {"process": ProcessPoolExecutor, "thread": ThreadPoolExecutor}

#: Stage names recorded in :attr:`BuildTelemetry.stage_seconds`, in
#: pipeline order.
BUILD_STAGES = ("split", "encode", "embed", "cluster", "train", "quantize",
                "validate")


@dataclass(frozen=True)
class ParallelConfig:
    """How the server build fans out its independent stages.

    ``workers`` is the number of tasks in flight: 1 (the default) runs
    every task inline — the serial build — and ``None`` asks for one per
    core.  ``backend`` picks the pool flavour used when more than one
    worker resolves: ``process`` (true CPU parallelism, the choice for
    training-dominated builds) or ``thread`` (lower task overhead, useful
    when numpy releases the GIL).  ``chunk_size`` is the number of I
    frames embedded per VAE feature-extraction task.

    The request is capped at ``os.cpu_count()``: past one worker per core
    a pool can only add IPC and serialization overhead, and on a
    single-core host it cannot beat the inline path at all — so such a
    build runs (and, crucially, *reports*) ``serial x1`` rather than
    publishing a "process x2" row whose measured speedup can never exceed
    1.0x.  Results are bit-identical either way by the determinism
    contract.
    """

    workers: int | None = 1
    backend: str = "process"
    chunk_size: int = 16

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {tuple(BACKENDS)}, "
                f"got {self.backend!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    def resolve_workers(self) -> int:
        """The concrete worker count: the request, at most one per core."""
        cores = os.cpu_count() or 1
        return min(cores if self.workers is None else self.workers, cores)


class ClusterTrainingError(RuntimeError):
    """Training one cluster's micro model failed (on any backend).

    Carries the cluster ``label`` so build failures are attributable; the
    original exception is chained as ``__cause__``.
    """

    def __init__(self, label: int, message: str):
        super().__init__(f"cluster {label}: {message}")
        self.label = int(label)


@dataclass
class BuildTelemetry:
    """Per-stage accounting of one :func:`~repro.core.server.build_package`.

    A thin typed view over the build's :class:`~repro.obs.Observability`
    session: every number here is derived from spans and metrics recorded
    through ``obs`` (one clock, one tracer, one registry), so the JSON
    span tree exported from the same build agrees with these fields.

    ``stage_seconds`` has one entry per :data:`BUILD_STAGES` name that ran;
    ``train_flops`` is the analytic forward+backward cost of the clusters
    actually trained (cache hits cost zero).
    """

    backend: str = "serial"
    workers: int = 1
    stage_seconds: dict[str, float] = field(default_factory=dict)
    train_seconds_per_cluster: dict[int, float] = field(default_factory=dict)
    train_flops: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    obs: Observability = field(default_factory=Observability,
                               repr=False, compare=False)

    @classmethod
    def for_build(cls, parallel: ParallelConfig,
                  obs: Observability) -> "BuildTelemetry":
        """Telemetry labelled with what ``parallel`` resolves to on this
        host: one worker is ``serial x1`` whatever pool was asked for."""
        workers = parallel.resolve_workers()
        return cls(backend=parallel.backend if workers > 1 else "serial",
                   workers=workers, obs=obs)

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def summary_lines(self) -> list[str]:
        """A printable per-stage breakdown (CLI ``prepare`` and quickstart).

        The stage table renders through :func:`repro.obs.format_table`
        — the same renderer the playback summary and the benchmark tables
        use.
        """
        rows = [[name, self.stage_seconds[name]]
                for name in BUILD_STAGES if name in self.stage_seconds]
        rows.append(["total", self.total_seconds])
        lines = [f"build stages ({self.backend} x{self.workers}):"]
        lines += ["  " + line
                  for line in format_table("", ["stage", "seconds"],
                                           rows).splitlines()]
        if self.train_flops:
            lines.append(f"  training   {self.train_flops:.3g} FLOPs")
        if self.cache_hits or self.cache_misses:
            lines.append(f"  train cache: {self.cache_hits} hits, "
                         f"{self.cache_misses} misses")
        return lines


@contextmanager
def stage_timer(telemetry: BuildTelemetry, name: str):
    """Accumulate wall-clock of the enclosed block into ``telemetry``.

    Opens a staged span on the telemetry's tracer (so the block nests any
    spans it creates) and mirrors the elapsed seconds into
    ``stage_seconds`` and the ``dcsr_build_stage_seconds_total`` counter.
    """
    obs = telemetry.obs
    span = None
    try:
        with obs.tracer.span(name, stage=name) as span:
            yield
    finally:
        if span is not None:
            telemetry.stage_seconds[name] = (
                telemetry.stage_seconds.get(name, 0.0) + span.elapsed)
            obs.metrics.counter(
                "dcsr_build_stage_seconds_total",
                "Wall seconds spent per server build stage",
            ).inc(span.elapsed, stage=name)


def _settle(call, task, wrap):
    try:
        return call()
    except Exception as exc:
        if wrap is None:
            raise
        raise wrap(task, exc) from exc


def run_tasks(config: ParallelConfig, fn, tasks: list, wrap=None) -> list:
    """``[fn(*task) for task in tasks]``, on as many workers as resolve.

    One worker calls ``fn`` inline; more submit the same calls to a
    ``config.backend`` pool and collect in submission order — so ``fn``
    must be a module-level function taking and returning picklable
    values, whichever way it ends up running.

    A task exception aborts the stage: pending tasks are cancelled and
    the failure re-raised — as ``wrap(task, exc)`` chained to the original
    when ``wrap`` is given (training attaches the cluster id this way),
    raw otherwise — so a bad task is attributable instead of hanging the
    build.
    """
    workers = config.resolve_workers()
    if workers == 1:
        return [_settle(partial(fn, *task), task, wrap) for task in tasks]
    with BACKENDS[config.backend](max_workers=workers) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        try:
            return [_settle(future.result, task, wrap)
                    for task, future in zip(tasks, futures)]
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
