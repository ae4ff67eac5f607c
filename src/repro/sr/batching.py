"""Multi-frame SR batching: several decode workers, one GEMM call.

With ``FastPathConfig(sr_batch > 1)`` a client decodes several segments
on worker threads, and their I frames are enhanced by the same
per-cluster micro model.  The NHWC forward
(:class:`~repro.sr.engine.InferenceEngine`) is batch-transparent: each
conv runs the same per-row GEMMs on an ``(N, H, W, C)`` batch as on N
single-frame calls, and reduced-precision activations are quantized per
frame — so batched output is **bitwise identical** per frame to the
serial engine at every precision (asserted by
``tests/sr/test_batching.py`` and ``tests/core/test_fast_playback.py``).

:class:`BatchingInferenceEngine` implements leader–follower batching:

- Workers submit frames through per-worker adapter engines
  (:meth:`BatchingInferenceEngine.engine_for`), duck-typed to the
  ``enhance(rgb)`` / ``stats`` protocol the streaming client speaks.
- Requests group by ``(model, frame shape)``.  The first submitter of a
  group becomes the leader: it waits up to ``max_wait_s`` wall seconds
  (or until ``max_batch`` frames are pending) for co-arriving frames,
  stacks them, and runs one :meth:`InferenceEngine.enhance_batch` call.
- Followers block on the group's condition and wake with their slice of
  the batched output plus their per-frame share of the engine counters.

All waiting is :class:`threading.Condition` based with deadlines read
from the process wall clock.  The module spawns no threads of its own;
it only *synchronizes* the threads its callers bring, which is why it
has no place under a single-threaded event loop (a lone submitter is
always its own leader and only ever waits out the door).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..obs import Observability, wall_clock
from .edsr import EDSR
from .engine import EngineStats, InferenceEngine

__all__ = ["BatchingInferenceEngine", "BatchingStats"]


@dataclass
class BatchingStats:
    """Aggregate accounting across every batch this engine dispatched."""

    n_batches: int = 0
    n_frames: int = 0
    max_batch_seen: int = 0


class _Request:
    """One pending frame: filled in by the group leader."""

    __slots__ = ("frame", "out", "stats", "error")

    def __init__(self, frame: np.ndarray):
        self.frame = frame
        self.out: np.ndarray | None = None
        self.stats: EngineStats | None = None
        self.error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self.out is not None or self.error is not None


class _Group:
    """Batching state for one ``(model, frame shape)`` combination."""

    __slots__ = ("engine", "engine_lock", "cond", "pending", "leader_active")

    def __init__(self, engine: InferenceEngine, engine_lock: threading.Lock):
        self.engine = engine
        #: Serializes engine use: ``engine.stats`` is per-call state, and
        #: groups of different frame shapes share one engine (and so one
        #: lock) per model.
        self.engine_lock = engine_lock
        self.cond = threading.Condition()
        self.pending: list[_Request] = []
        self.leader_active = False


class _SessionEngine:
    """One decode worker's view of the shared batcher.

    Duck-typed to :class:`~repro.sr.engine.InferenceEngine`'s client
    contract: ``enhance(rgb)`` plus a ``stats`` attribute holding the most
    recent call's counters — here the per-frame share of the batched call
    this frame rode in (:meth:`EngineStats.per_frame`).
    """

    def __init__(self, batcher: "BatchingInferenceEngine", model: EDSR):
        self._batcher = batcher
        self._model = model
        self.stats = EngineStats()

    def enhance(self, rgb: np.ndarray) -> np.ndarray:
        out, stats = self._batcher.submit(self._model, rgb)
        self.stats = stats
        return out


class BatchingInferenceEngine:
    """Session-shared SR executor batching frames across decode workers.

    Parameters
    ----------
    max_batch:
        Largest number of frames stacked into one engine call.
    max_wait_s:
        How long (wall seconds) a batch leader holds the door open for
        co-arriving frames before dispatching a partial batch.  0 disables
        waiting: every frame dispatches immediately (batching then only
        merges frames that were already pending).
    tile / threads / precision / skip_gate / kernel:
        Passed through to each underlying per-model
        :class:`~repro.sr.engine.InferenceEngine` (``precision`` selects
        the quantized GEMM kernels, ``skip_gate`` the low-detail tile
        gate, ``kernel`` the conv kernel; the defaults are
        bitwise-identical to the plain engine).
    obs:
        Optional :class:`~repro.obs.Observability`: batch sizes land in
        the ``dcsr_batch_size`` histogram, totals in
        ``dcsr_batches_total`` / ``dcsr_batched_frames_total``.
    """

    def __init__(self, max_batch: int = 8, max_wait_s: float = 0.002,
                 tile: int | None = None, threads: int = 1,
                 obs: Observability | None = None, precision: str = "fp32",
                 skip_gate=None, kernel: str = "shift"):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.tile = tile
        self.threads = int(threads)
        self.precision = precision
        self.skip_gate = skip_gate
        self.kernel = kernel
        self.obs = obs
        self.stats = BatchingStats()
        self._clock = wall_clock()
        self._lock = threading.Lock()       # groups dict + self.stats
        self._engines: dict[int, tuple[InferenceEngine, threading.Lock]] = {}
        self._groups: dict[tuple, _Group] = {}

    def engine_for(self, model: EDSR) -> _SessionEngine:
        """A fresh per-worker adapter."""
        return _SessionEngine(self, model)

    # ------------------------------------------------------------- batching

    def submit(self, model: EDSR,
               rgb: np.ndarray) -> tuple[np.ndarray, EngineStats]:
        """Enhance one frame, possibly riding a multi-frame batch.

        Blocks until the frame's batch has run; returns the enhanced frame
        and its per-frame share of the batched call's counters.
        """
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) RGB frame, got {rgb.shape}")
        frame = np.asarray(rgb, dtype=np.float32)
        group = self._group_for(model, frame.shape)
        request = _Request(frame)
        cond = group.cond
        cond.acquire()
        try:
            group.pending.append(request)
            if len(group.pending) >= self.max_batch:
                cond.notify_all()           # wake a leader waiting for more
            while not request.done:
                if group.leader_active:
                    cond.wait()
                    continue
                self._lead(group)           # serves request (or re-loops)
        finally:
            cond.release()
        if request.error is not None:
            raise request.error
        return request.out, request.stats

    def _lead(self, group: _Group) -> None:
        """Run one batch as the group leader (``group.cond`` held).

        Collects up to ``max_batch`` pending requests after holding the
        door open ``max_wait_s``, releases the condition for the engine
        call, then distributes results under it again.  The caller's own
        request is normally in the batch; when a backlog pushed it out,
        the caller's loop simply elects a leader again.
        """
        group.leader_active = True
        deadline = self._clock.now() + self.max_wait_s
        while len(group.pending) < self.max_batch:
            remaining = deadline - self._clock.now()
            if remaining <= 0:
                break
            group.cond.wait(remaining)
        batch = group.pending[:self.max_batch]
        del group.pending[:self.max_batch]
        group.cond.release()
        outputs = stats = error = None
        try:
            outputs, stats = self._run_batch(group, batch)
        except BaseException as exc:        # delivered to every rider
            error = exc
        finally:
            group.cond.acquire()
            for i, request in enumerate(batch):
                if error is not None:
                    request.error = error
                else:
                    request.out = outputs[i]
                    request.stats = stats[i]
            group.leader_active = False
            group.cond.notify_all()

    def _run_batch(self, group: _Group,
                   batch: list[_Request]
                   ) -> tuple[np.ndarray, list[EngineStats]]:
        frames = np.stack([request.frame for request in batch])
        with group.engine_lock:
            outputs = group.engine.enhance_batch(frames)
            # Per-rider shares are sum-consistent: summing them reproduces
            # the batched call's aggregate.
            per_frame = [group.engine.stats.per_frame(i)
                         for i in range(len(batch))]
        with self._lock:
            self.stats.n_batches += 1
            self.stats.n_frames += len(batch)
            self.stats.max_batch_seen = max(self.stats.max_batch_seen,
                                            len(batch))
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.histogram(
                "dcsr_batch_size", "Frames per SR batch",
                buckets=tuple(float(b) for b in range(1, self.max_batch + 1)),
            ).observe(len(batch))
            metrics.counter("dcsr_batches_total",
                            "SR batches dispatched").inc()
            metrics.counter("dcsr_batched_frames_total",
                            "Frames enhanced through the batcher"
                            ).inc(len(batch))
        return outputs, per_frame

    # ------------------------------------------------------------ internals

    def _group_for(self, model: EDSR, shape: tuple) -> _Group:
        with self._lock:
            pair = self._engines.get(id(model))
            if pair is None:
                pair = self._engines[id(model)] = (
                    InferenceEngine(model, tile=self.tile,
                                    threads=self.threads,
                                    precision=self.precision,
                                    skip_gate=self.skip_gate,
                                    kernel=self.kernel),
                    threading.Lock())
            key = (id(model), shape)
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _Group(*pair)
            return group
