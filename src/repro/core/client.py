"""Client-side dcSR (Section 3.2, Figure 6): the streaming session engine.

Plays a :class:`~repro.core.persist.StoredPackage` segment by segment as a
bounded-memory generator session (:meth:`DcsrClient.iter_frames`):

1. check the manifest's model label against the cache; download the micro
   model only on a miss (Algorithm 1), with retry + exponential backoff
   on injected failures;
2. download the segment over the (optionally simulated) network, with
   the same retry budget — steps 1-2 are the
   :class:`~repro.core.session.FetchStage` the fleet's trace sessions
   share;
3. decode the segment with the SR hook installed: each I frame is pulled
   out of the decoded-picture buffer, converted YUV -> RGB, enhanced by the
   segment's micro model, converted back, and written back into the DPB so
   every P/B frame reconstructs from the enhanced reference;
4. emit display-order frames (one segment resident at a time) and
   per-frame quality against the pristine original.

Failure semantics (the paths a real CDN exercises daily):

- **Corrupt bitstream** (:class:`~repro.video.codec.DecodeError` /
  ``EOFError``) or a segment download that exhausts its retry budget →
  the session *conceals*: it holds the last good frame for the segment's
  duration, records the segment in ``PlaybackResult.skipped_segments``,
  and keeps playing.
- **Model fetch failure** (missing from the package, or download retries
  exhausted) → with ``fallback=True`` the segment plays *unenhanced*
  (passthrough — the LOW baseline for that segment, bit-identical to the
  plain decode) and is recorded in
  ``PlaybackResult.fallback_segments``; with the default strict mode the
  error propagates.

Every session carries a :class:`PlaybackTelemetry`: per-segment and
per-stage wall time (download / decode / SR / YUV<->RGB), achieved FPS vs
the package's native FPS, stall seconds under a simple playout clock, the
model-cache hit rate, and the peak number of frames resident at once.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from ..control import JointController
from ..obs import Observability, format_table
from ..sr.engine import InferenceEngine, check_engine_knobs
from ..video import rgb_to_yuv420, yuv420_to_rgb
from ..video.frame import YuvFrame
from ..video.quality import psnr, ssim
from .cache import CacheStats, ModelCache
from .network import DownloadError, Network, RetryPolicy
from .persist import StoredPackage
from .session import (PLAYBACK_STAGES, FetchStage, PlayoutClock,
                      SegmentFetch, SegmentPlayback, count_downloads,
                      record_segment)

__all__ = [
    "PLAYBACK_STAGES",
    "FastPathConfig",
    "PlayoutClock",
    "SegmentPlayback",
    "PlaybackTelemetry",
    "PlayedFrame",
    "PlaybackResult",
    "DcsrClient",
    "enhance_yuv_frame",
]

def enhance_yuv_frame(engine: InferenceEngine, frame: YuvFrame) -> YuvFrame:
    """Steps 2-5 of Figure 6: YUV -> RGB, SR, RGB -> YUV.  ``engine`` is
    built once per model and reused for every frame it enhances."""
    return rgb_to_yuv420(engine.enhance(yuv420_to_rgb(frame)))


@dataclass(frozen=True)
class FastPathConfig:
    """Client inference fast-path knobs: ``cli play`` parses ``--tile``,
    ``--sr-threads``, ``--prefetch``, ``--precision``, ``--skip-gate``,
    ``--sr-batch``, ``--reuse`` and ``--sr-kernel`` (``kernel``) straight
    into these fields.

    Every SR inference of a :class:`DcsrClient` session runs on a
    :class:`~repro.sr.engine.InferenceEngine` built from these knobs, one
    per enhanced segment; with ``prefetch + sr_batch > 1`` the session
    also overlaps download + decode + SR of upcoming segments with
    emission of the current one on a window-bounded thread pool.  A
    client given no config plays with ``FastPathConfig(calibrate=False)``:
    whole-frame fp32 SR, produced inline on the caller's thread.

    Parameters
    ----------
    tile:
        SR tile edge in input pixels (``None`` = whole frame).  Tiles are
        expanded by the model's receptive-field halo, so output equals
        whole-frame inference; smaller tiles bound peak SR memory.
    sr_threads:
        Thread-pool width tiles fan out across.  The conv kernel releases
        the GIL, so tiles run side by side: on the 2-vCPU reference box
        two threads measured 0.9-1.9x the one-thread rate, depending on
        whether its second vCPU was free.  1 keeps SR in the decoding
        thread.
    prefetch:
        How many *future* segments may sit fully decoded in the pipeline
        while the current segment plays.  A pool of ``sr_batch`` threads
        produces segments whenever ``prefetch + sr_batch > 1``; at the
        defaults every segment is produced inline on the caller's thread
        (fast SR only, no thread).  Memory grows by up to ``prefetch +
        sr_batch - 1`` segments of decoded frames.
    calibrate:
        Measure what the knobs buy over the default engine once per
        session, on the first enhanced frame of the first segment (in
        segment order) that fetched a model and its payload — one extra
        whole-frame fp32 engine inference, excluded from stage accounting
        — and report the ratio as ``PlaybackTelemetry.fast_path_speedup``.
    precision:
        The checkpoint format the session downloads its models in:
        ``fp32`` (default; within 1e-5 of the model's NCHW training
        forward, not bitwise-equal to it), ``fp16`` (every parameter
        rounded to half) or ``int8`` (per-output-channel symmetric weight
        codes, float32 biases).  A reduced precision shrinks the model
        bytes a session downloads — accounting uses the manifest's
        :meth:`~repro.core.manifest.VideoManifest.model_size_for` — and
        is dequantized once when packed: SR runs the fp32 kernel at every
        precision, at fp32 speed.
    skip_gate:
        Optional per-tile variance threshold (a float >= 0) below which
        low-detail tiles are upscaled bicubically instead of by the model
        (see :class:`~repro.sr.engine.InferenceEngine`).  ``None``
        (default) disables the gate entirely — output stays bitwise
        identical to the ungated engine.
    sr_batch:
        Number of pool threads producing segments.  1 (default) produces
        strictly in segment order.  ``> 1`` decodes up to ``sr_batch``
        segments concurrently, each on a decoder and an engine built for
        that segment alone; nothing is merged across segments (dcSR
        enhances about one frame per GOP, and measured sessions found
        next to nothing to merge — see ``docs/performance.md``).
        Downloads stay serialized in segment order, so the simulated
        network consumes its schedule exactly as the serial client does.
        Does not compose with a joint controller, which needs segment
        *n*'s feedback before it fetches *n + 1*.
    reuse:
        ``True`` turns on temporal tile reuse (``None`` or ``False``, the
        default, leaves it off).  Tiles whose decoded LR content is
        bitwise-equal to the previous frame's emit the cached SR output
        instead of running the conv stack; every segment starts on a
        fresh engine with an empty cache, so seeks and concealment stay
        correct.  Reuse is bitwise-identical to playing without it, at
        any ``sr_batch``: a segment is decoded whole, in order, on its own
        engine, which is all the ordering reuse relies on.
    kernel:
        SR conv kernel: ``"shift"`` (default, the tap-decomposed NHWC
        kernel) or ``"blocked"`` (cache-blocked im2col GEMM).
    """

    tile: int | None = None
    sr_threads: int = 1
    prefetch: int = 0
    calibrate: bool = True
    precision: str = "fp32"
    skip_gate: float | None = None
    sr_batch: int = 1
    reuse: bool | None = None
    kernel: str = "shift"

    def __post_init__(self):
        self.validate()

    def validate(self, controller=None) -> None:
        """Every field and mode-combination check in one place, given
        the joint ``controller`` (or its name) the session runs under, if
        any.  The engine knobs go through the engine's own check, so what
        a config accepts is exactly what an engine can be built with."""
        check_engine_knobs(self.tile, self.sr_threads, self.precision,
                           self.skip_gate, self.reuse, self.kernel)
        if self.prefetch < 0:
            raise ValueError(f"prefetch must be >= 0, got {self.prefetch}")
        if self.sr_batch < 1:
            raise ValueError(f"sr_batch must be >= 1, got {self.sr_batch}")
        if self.sr_batch > 1 and controller is not None:
            raise ValueError(
                "a joint controller needs each segment's feedback "
                "before the next fetch: sr_batch > 1 cannot give it")


@dataclass
class PlaybackTelemetry:
    """Where one playback session's time went (client mirror of
    :class:`~repro.core.parallel.BuildTelemetry`).

    A thin typed view over the session's :class:`~repro.obs.Observability`:
    every number here is derived from spans and metrics recorded through
    ``obs``, so the span tree exported from the same session agrees with
    these fields (``download`` spans carry ``clock="simulated"``; the
    others are wall time).

    ``download`` seconds are *simulated* network time (including retries
    and backoff); ``decode``/``sr``/``color`` are measured wall time.
    ``stall_seconds`` comes from the shared :class:`~repro.abr.PlayoutClock`:
    each segment must be ready by the time the previous one finishes
    displaying at ``native_fps``, and lateness accrues as a stall.
    """

    native_fps: float = 0.0
    segments: list[SegmentPlayback] = field(default_factory=list)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    achieved_fps: float = 0.0
    startup_seconds: float = 0.0
    stall_seconds: float = 0.0
    download_attempts: int = 0
    peak_resident_frames: int = 0
    cache_hit_rate: float = 0.0
    #: SR (frame, tile) pairs the model ran on across the session (one
    #: per inference at whole-frame).
    tile_count: int = 0
    #: Tiles the variance gate routed to bicubic instead of the model
    #: (0 unless a :attr:`FastPathConfig.skip_gate` is set).
    skipped_tiles: int = 0
    #: Tiles emitted from the temporal reuse cache instead of the model
    #: (0 unless :attr:`FastPathConfig.reuse` is set).
    reused_tiles: int = 0
    #: Effective SR throughput: model FLOPs divided by measured SR seconds.
    sr_gflops: float = 0.0
    #: Simulated playout seconds saved by pipelining download of segment
    #: n+1 under compute of segment n (0 without prefetch).
    prefetch_overlap_seconds: float = 0.0
    #: What the session's engine knobs bought over the default engine,
    #: measured on the calibration frame (0 = not calibrated).
    fast_path_speedup: float = 0.0
    #: Realized rail energy over the session from the device power model
    #: (0 unless the client runs with a joint controller).
    energy_joules: float = 0.0
    #: Segments the joint controller enabled SR for (0 without one).
    sr_segments: int = 0
    obs: Observability = field(default_factory=Observability,
                               repr=False, compare=False)

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def n_concealed(self) -> int:
        return sum(1 for s in self.segments if s.status == "concealed")

    @property
    def n_fallback(self) -> int:
        return sum(1 for s in self.segments if s.status == "fallback")

    def summary_lines(self) -> list[str]:
        """A printable per-stage breakdown (CLI ``play``).

        The stage table renders through :func:`repro.obs.format_table`
        — the same renderer the build summary and the benchmark tables
        use.
        """
        rows = [[name, self.stage_seconds[name]]
                for name in PLAYBACK_STAGES if name in self.stage_seconds]
        rows.append(["total", self.total_seconds])
        lines = [f"playback stages ({len(self.segments)} segments):"]
        lines += ["  " + line
                  for line in format_table("", ["stage", "seconds"],
                                           rows).splitlines()]
        lines.append(f"  fps        {self.achieved_fps:.1f} achieved "
                     f"vs {self.native_fps:g} native")
        lines.append(f"  stalls     {self.stall_seconds:.3f}s "
                     f"(startup {self.startup_seconds:.3f}s)")
        lines.append(f"  network    {self.download_attempts} attempts, "
                     f"cache hit rate {self.cache_hit_rate:.0%}")
        if self.tile_count or self.fast_path_speedup \
                or self.prefetch_overlap_seconds:
            skipped = f" ({self.skipped_tiles} gated to bicubic)" \
                if self.skipped_tiles else ""
            if self.reused_tiles:
                skipped += f" ({self.reused_tiles} reused)"
            # A speedup of 0 means "not measured" (no calibration ran).
            speedup = (f"{self.fast_path_speedup:.1f}x vs default engine, "
                       if self.fast_path_speedup else "")
            lines.append(
                f"  fastpath   {self.tile_count} tiles{skipped}, "
                f"{self.sr_gflops:.2f} GFLOP/s, {speedup}"
                f"overlap {self.prefetch_overlap_seconds:.3f}s")
        if self.energy_joules:
            n_frames = sum(s.n_frames for s in self.segments)
            played = n_frames / self.native_fps if self.native_fps else 0.0
            watts = self.energy_joules / played if played > 0 else 0.0
            lines.append(f"  energy     {self.energy_joules:.2f} J "
                         f"({watts:.2f} W avg, SR on for "
                         f"{self.sr_segments}/{len(self.segments)} segments)")
        if self.n_concealed or self.n_fallback:
            lines.append(f"  degraded   {self.n_concealed} concealed, "
                         f"{self.n_fallback} fallback segments")
        return lines


@dataclass(frozen=True)
class PlayedFrame:
    """One display-order frame emitted by :meth:`DcsrClient.iter_frames`."""

    display: int
    segment_index: int
    ftype: str                      # I / P / B, or C for a concealed frame
    rgb: np.ndarray
    concealed: bool = False


@dataclass
class PlaybackResult:
    """Outcome of one streaming session."""

    frames: list[np.ndarray] = field(default_factory=list)   # RGB, display order
    frame_types: list[str] = field(default_factory=list)
    psnr_per_frame: list[float] = field(default_factory=list)
    ssim_per_frame: list[float] = field(default_factory=list)
    video_bytes: int = 0
    model_bytes: int = 0
    model_downloads: list[int] = field(default_factory=list)
    cache_stats: CacheStats | None = None
    sr_inferences: int = 0
    skipped_segments: list[int] = field(default_factory=list)
    fallback_segments: list[int] = field(default_factory=list)
    telemetry: PlaybackTelemetry | None = None

    @property
    def total_bytes(self) -> int:
        return self.video_bytes + self.model_bytes

    @property
    def mean_psnr(self) -> float:
        """Mean finite per-frame PSNR.

        ``nan`` when no reference was supplied (unmeasured is not
        perfect); ``inf`` only when every scored frame was genuinely
        lossless.
        """
        if not self.psnr_per_frame:
            return float("nan")
        finite = [p for p in self.psnr_per_frame if np.isfinite(p)]
        return float(np.mean(finite)) if finite else float("inf")

    @property
    def mean_ssim(self) -> float:
        """Mean per-frame SSIM, or ``nan`` when quality was not measured."""
        if not self.ssim_per_frame:
            return float("nan")
        return float(np.mean(self.ssim_per_frame))


class DcsrClient:
    """Plays a dcSR package through the SR-integrated decoder.

    Parameters
    ----------
    package:
        The :class:`~repro.core.persist.StoredPackage` to stream (a
        freshly built :class:`~repro.core.server.DcsrPackage` is one).
    network:
        Optional :class:`~repro.core.network.Network` (a
        :class:`~repro.core.network.SimulatedNetwork`, a fleet pool
        session, or the real-socket transport); when given, every
        segment and model download goes through it (latency, bandwidth,
        and failure injection).  ``None`` keeps downloads instantaneous
        and infallible.
    retry:
        :class:`~repro.core.network.RetryPolicy` for downloads over the
        simulated network (default: no retries).
    fallback:
        When ``True``, a segment whose micro model cannot be fetched
        plays unenhanced (passthrough) instead of raising.
    fast_path:
        Optional :class:`FastPathConfig`: the knobs of every segment's
        SR engine and, with ``prefetch + sr_batch > 1``, a window-bounded
        thread pool that pipelines download + decode + SR of upcoming
        segments.  ``None`` (default) is ``FastPathConfig(calibrate=False)``
        — whole-frame fp32, serial, uncalibrated.  Frame order,
        concealment/fallback semantics, and the accounting contract are
        identical under every config.
    obs:
        Optional :class:`~repro.obs.Observability` session the client
        records its spans and metrics into (default: a fresh one).  The
        download counters land there too, rendered from the fetch
        stage's ledger when a session ends — completed, aborted or
        abandoned — and labelled with ``span_attrs``.
    model_cache:
        Optional :class:`~repro.core.cache.ModelCache`: a store several
        clients are given, one edge of a
        :class:`repro.serve.CacheHierarchy`, or a private bounded one
        (``ModelCache(capacity=N)``).  Algorithm 1 runs against it
        through this client's own ``session(fetch)`` view — a model
        another session already downloaded is a hit here, and the entry
        is refcount-pinned for the duration of each segment so eviction
        can never drop a model mid-SR.  ``None`` gives the client a
        private unbounded store.
    span_attrs:
        Extra attributes stamped on the session's ``play`` span and, as
        labels, on its download counters (fleet runs tag each session's
        subtree and series with its session id).
    controller:
        Optional :class:`~repro.control.JointController`.  When given, the
        client consults it at every segment boundary: the controller picks
        the SR mode (off, or a published model *tier* at a *precision*),
        the client plays the segment that way — downloading the tier
        checkpoint at its manifest-recorded size on first use — and feeds
        the segment's *realized* energy (device power model on the actual
        inference count) back into the controller's budget state.
        ``None`` (the default) keeps the pre-controller code path
        bit-for-bit: no context is built, no energy is modelled, and the
        output frames are identical to a client without the feature.
        Composes with ``prefetch`` (one pool thread runs
        fetch → decode → feedback strictly in order, bitwise-equal to the
        serial controlled session) but not with ``sr_batch > 1``.
    """

    def __init__(self, package: StoredPackage,
                 network: Network | None = None,
                 retry: RetryPolicy | None = None,
                 fallback: bool = False,
                 fast_path: FastPathConfig | None = None,
                 obs: Observability | None = None,
                 model_cache: ModelCache | None = None,
                 span_attrs: dict | None = None,
                 controller: JointController | None = None):
        self._fast = fast_path or FastPathConfig(calibrate=False)
        self._fast.validate(controller)
        self.package = package
        self._stage = FetchStage(
            package, network, retry, fallback, precision=self._fast.precision,
            model_cache=model_cache, controller=controller)
        self._span_attrs = dict(span_attrs or {})
        self.obs = obs or Observability(root_name="client")
        self._session = None
        self._speedup_sample = 0.0
        self.last_result: PlaybackResult | None = None

    def play(self, reference_frames: np.ndarray | None = None) -> PlaybackResult:
        """Stream every segment; optionally score against ``reference_frames``.

        ``reference_frames`` is the pristine ``(T, H, W, 3)`` original; when
        omitted, quality lists stay empty.  This is the materializing
        wrapper around :meth:`iter_frames`: every RGB frame is retained in
        the result, so memory grows with the video.  Byte counts, quality
        lists, and telemetry are identical between the two entry points.
        """
        result = PlaybackResult()
        for frame in self.iter_frames(reference_frames, result=result):
            result.frames.append(frame.rgb)
        return result

    def iter_frames(
        self, reference_frames: np.ndarray | None = None, *,
        result: PlaybackResult | None = None,
    ) -> Iterator[PlayedFrame]:
        """Bounded-memory streaming session: yield display-order frames.

        One consumer loop over one segment source (:meth:`_segments`):
        whichever thread produced a segment, it is accounted, clocked and
        emitted here, in segment order.  At most ``prefetch + sr_batch``
        segments of decoded frames (plus one held concealment frame) are
        resident; the caller decides what to retain.  Frame, quality and
        degradation lists accumulate into ``result`` as the generator
        runs; byte counts and telemetry totals are finalized when it is
        exhausted or closed.  ``result`` is also ``self.last_result``.
        """
        package = self.package
        result = result if result is not None else PlaybackResult()
        self.last_result = result
        self._speedup_sample = 0.0
        self._stage.reset()
        fps = package.encoded.fps
        telemetry = PlaybackTelemetry(native_fps=fps, obs=self.obs)
        result.telemetry = telemetry
        # The session span outlives this lexical block (it is held open
        # across generator yields), so it uses begin/end and stage spans
        # name it as an explicit parent.
        self._session = self.obs.tracer.begin(
            "play", segments=len(package.segments), **self._span_attrs)

        prefetch, sr_batch = self._fast.prefetch, self._fast.sr_batch
        # Each segment's decode+SR seconds are charged serially (measured
        # wall time cannot be attributed across overlapping workers), so
        # reported stalls are conservative.
        playout = PlayoutClock(window=prefetch + sr_batch - 1)
        held: list[YuvFrame | None] = [None]
        source = self._segments(prefetch, sr_batch)
        try:
            for segment, fetched, decoded, resident in source:
                seg_t = fetched.seg_t
                if decoded is None:
                    seg_t.status = "concealed"
                record_segment(result, telemetry, playout, seg_t)
                # The held concealment frame (or the single stand-in of a
                # concealed segment) rides on top of the decoded frames.
                extra = held[0] is not None or decoded is None
                try:
                    yield from self._emit_segment(
                        segment, seg_t, decoded, held, reference_frames,
                        result)
                finally:
                    # Read after emission: workers ran ahead meanwhile.
                    telemetry.peak_resident_frames = max(
                        telemetry.peak_resident_frames, resident[1] + extra)
        finally:
            source.close()
            self._finalize(result, telemetry)
            self.obs.tracer.end(self._session)

    def _segments(self, prefetch: int, sr_batch: int):
        """The session's one segment source: yields ``(segment, fetched,
        decoded, resident)`` in segment order — ``decoded is None`` means
        conceal; ``resident[1]``, read once the segment has emitted, is
        the most decoded frames alive at once since the previous one did.

        Every segment comes from one step, ``produce(index)``:

        - a turn-ordered fetch: segment *i* fetches once *i − 1* has, so
          the network consumes its latency/failure schedule exactly as a
          serial session does, and the first segment in that order that
          fetched a model and its payload is the session's calibrating one;
        - :meth:`_decode_stage`, on a decoder and an engine built for that
          segment alone.

        The caller's thread runs it when ``prefetch + sr_batch == 1``.
        Otherwise ``sr_batch`` pool threads run it behind a window of at
        most ``prefetch + sr_batch`` futures, topped up when the consumer
        comes back for the next segment, so at most that many decoded
        segments are resident and only decode + SR overlap.  One pool
        thread runs fetch → decode → feedback strictly in order, which
        lets a joint controller ride along.  An error re-raises at its
        segment's index, after every earlier segment was yielded.
        """
        package = self.package
        pairs = list(zip(package.segments, package.encoded.segments))
        turn = threading.Condition()    # guards the four below
        fetched_upto = 0                # segments whose fetch has run
        calibrate = self._fast.calibrate
        closed = False          # set on close: wakes turns that never come
        resident = [0, 0]       # decoded frames alive: now / at the peak

        def produce(index):
            nonlocal fetched_upto, calibrate
            segment, encoded_segment = pairs[index]
            with turn:
                turn.wait_for(lambda: closed or fetched_upto == index)
                if closed:
                    return None
            # Only the thread whose turn it is gets here, so the fetch
            # holds no lock (and never blocks the consumer or a close).
            fetched = self._fetch_stage(segment, encoded_segment)
            with turn:
                fetched_upto += 1
                turn.notify_all()
                calibrates = calibrate and fetched.model is not None \
                    and fetched.seg_t.status != "concealed"
                calibrate = calibrate and not calibrates
            decoded = self._decode_stage(segment, encoded_segment, fetched,
                                         calibrates)
            with turn:
                resident[0] += len(decoded or ())
                resident[1] = max(resident)
            return fetched, decoded

        bound = prefetch + sr_batch
        pool = (ThreadPoolExecutor(sr_batch, thread_name_prefix="dcsr-segment")
                if bound > 1 else None)

        def submit(index) -> Future:
            if pool is not None:
                return pool.submit(produce, index)
            done = Future()             # inline: produced right here
            done.set_result(produce(index))
            return done

        unsubmitted = iter(range(len(pairs)))
        window = deque()
        try:
            for segment, _ in pairs:
                window.extend(map(submit,
                                  islice(unsubmitted, bound - len(window))))
                fetched, decoded = window.popleft().result()
                yield segment, fetched, decoded, resident
                with turn:
                    resident[0] -= len(decoded or ())
                    resident[1] = resident[0]
        finally:
            with turn:
                closed = True
                turn.notify_all()
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    # ------------------------------------------------------------------
    # Session internals.

    def _fetch_stage(self, segment, encoded_segment) -> SegmentFetch:
        """Stages 1-2 through the shared :class:`FetchStage`, plus the
        client's own ``download`` span per fetch and decision counter.
        Consumes the network's schedule: call in segment order."""
        try:
            fetched = self._stage.fetch(segment, encoded_segment)
        except DownloadError as exc:
            # Strict mode: the fatal model fetch still shows in the trace.
            self._download_span(segment.index, "model", exc.seconds,
                                exc.attempts, failed=True)
            raise
        for download in fetched.downloads:
            self._download_span(segment.index, *download)
        if fetched.decision is not None:
            self.obs.metrics.counter(
                "dcsr_controller_decisions_total",
                "Joint controller segment decisions by SR tier and precision",
            ).inc(tier=fetched.decision.tier or "off",
                  precision=fetched.decision.precision)
        return fetched

    def _download_span(self, segment_index: int, kind: str, seconds: float,
                       attempts: int, failed: bool) -> None:
        """Download seconds are simulated, so the span is recorded against
        the network's clock (``clock="simulated"``), not into wall time."""
        attrs = {"kind": kind, "segment": segment_index,
                 "attempts": attempts}
        if failed:
            attrs["failed"] = True
        self.obs.tracer.record("download", seconds,
                               parent=self._session,
                               clock=self._stage.network.clock,
                               stage="download", **attrs)

    def _decode_stage(self, segment, encoded_segment, fetched: SegmentFetch,
                      calibrate: bool):
        """Stage 3: decode with the SR hook in the loop, then release the
        model pin and feed the realized inference count back.  The decoder
        and the hook's engine are built here for this segment alone, so
        concurrent calls share no per-call state.  ``calibrate`` marks the
        session's calibrating segment.  Returns ``None`` when the segment
        must conceal."""
        from ..video.codec import DecodeError, Decoder

        package = self.package
        seg_t = fetched.seg_t
        decoded = None
        try:
            if seg_t.status != "concealed":     # the payload arrived
                # Passthrough fallback decodes with no hook at all —
                # bit-identical to the plain (LOW) decode.
                decision = fetched.decision
                decoder = Decoder(
                    None if fetched.model is None else self._timed_hook(
                        fetched.model, seg_t,
                        decision.precision if decision else None, calibrate),
                    hook_display_only=not package.manifest.enhance_in_loop)
                # The decode span nests the hook's sr/color spans (same
                # thread), so its staged self-time equals decode_s below.
                with self.obs.tracer.span("decode", parent=self._session,
                                          stage="decode",
                                          segment=segment.index) as span:
                    try:
                        decoded = decoder.decode_segment(
                            encoded_segment, package.encoded.width,
                            package.encoded.height)
                    except (DecodeError, EOFError):
                        decoded = None
                seg_t.decode_s = max(
                    0.0, span.elapsed - seg_t.sr_s - seg_t.color_s)
        finally:
            self._stage.release(fetched)
        self._stage.feedback(fetched, seg_t.sr_inferences)
        return decoded

    def _emit_segment(self, segment, seg_t: SegmentPlayback, decoded,
                      held: list, reference_frames,
                      result: PlaybackResult) -> Iterator[PlayedFrame]:
        """Stage 4 for one segment: colour-convert, score, and yield the
        display-order frames.  ``held`` is a one-cell box carrying the
        last good YUV frame across segments for concealment: an
        unplayable segment holds it (converted once, shared by every
        concealed display); a loss before any good frame shows black."""
        package = self.package
        concealed = decoded is None
        if not concealed:
            emit = [(d.display, d.ftype, d.frame)
                    for d in sorted(decoded, key=lambda d: d.display)]
        else:
            stand_in = (yuv420_to_rgb(held[0]) if held[0] is not None
                        else np.zeros((package.encoded.height,
                                       package.encoded.width, 3),
                                      dtype=np.float32))
            emit = [(display, "C", None)
                    for display in range(segment.start, segment.end)]
        tracer = self.obs.tracer
        emit_color = 0.0
        try:
            for display, ftype, frame in emit:
                if concealed:
                    rgb = stand_in
                else:
                    t0 = tracer.clock.now()
                    rgb = yuv420_to_rgb(frame)
                    dt = tracer.clock.now() - t0
                    emit_color += dt
                    seg_t.color_s += dt
                    held[0] = frame
                result.frame_types.append(ftype)
                if reference_frames is not None:
                    ref = reference_frames[display]
                    result.psnr_per_frame.append(psnr(rgb, ref))
                    result.ssim_per_frame.append(ssim(rgb, ref))
                yield PlayedFrame(display=display,
                                  segment_index=segment.index,
                                  ftype=ftype, rgb=rgb, concealed=concealed)
        finally:
            # One span per segment (the per-frame conversions are too
            # fine-grained to be useful nodes); emitted even when the
            # caller abandons the generator mid-segment, so the trace
            # still matches the partial seg_t.color_s.
            if emit_color > 0.0:
                tracer.record("color", emit_color, parent=self._session,
                              stage="color", segment=seg_t.index,
                              where="display")

    def _timed_hook(self, model, seg_t: SegmentPlayback,
                    precision: str | None, calibrate: bool):
        """Figure 6's enhancement hook with per-stage timing attached.

        SR runs on a tiled NHWC engine built here with every fast-path
        knob (a controller's decided ``precision`` wins over the
        config's) — one engine per segment, so its reuse cache starts
        empty at the segment (GOP) boundary, where seeks and concealment
        land, and a shared package's models are never mutated.
        ``calibrate`` times one whole-frame fp32 forward on a default
        engine, after the segment's first enhanced frame (output
        discarded), to report what the knobs bought over it; those
        seconds are measurement overhead and are excluded from stage
        accounting.
        """
        fast = self._fast
        engine = InferenceEngine(
            model, tile=fast.tile, threads=fast.sr_threads, obs=self.obs,
            precision=precision or fast.precision,
            skip_gate=fast.skip_gate, reuse=fast.reuse, kernel=fast.kernel)
        tracer = self.obs.tracer
        clock = tracer.clock

        def hook(frame: YuvFrame, display: int) -> YuvFrame:
            # Runs inside the decode span (same thread), so the sr span
            # and the recorded color span nest under it automatically and
            # decode's staged self-time excludes them.
            nonlocal calibrate
            t0 = clock.now()
            rgb = yuv420_to_rgb(frame)
            color_s = clock.now() - t0
            with tracer.span("sr", stage="sr", display=display) as sp:
                enhanced = engine.enhance(rgb)
            sr_s = sp.elapsed
            if calibrate:
                # Calibration is measurement overhead: no span, so it
                # stays inside decode self-time, exactly as decode_s
                # accounts it.  It runs second, so a first call's one-off
                # costs (loading the native library, paid by the first
                # colour conversion above) never land here.
                calibrate = False
                r0 = clock.now()
                InferenceEngine(model).enhance(rgb)     # output discarded
                self._speedup_sample = (clock.now() - r0) / max(sr_s, 1e-9)
            sp.attrs["tiles"] = engine.stats.tile_count
            sp.attrs["flops"] = engine.stats.flops
            seg_t.sr_tiles += engine.stats.tile_count
            seg_t.sr_skipped_tiles += engine.stats.skipped_tiles
            seg_t.sr_reused_tiles += engine.stats.reused_tiles
            seg_t.sr_flops += engine.stats.flops
            t2 = clock.now()
            out = rgb_to_yuv420(enhanced)
            color_total = color_s + (clock.now() - t2)
            tracer.record("color", color_total, stage="color",
                          display=display, where="hook")
            seg_t.color_s += color_total
            seg_t.sr_s += sr_s
            seg_t.sr_inferences += 1
            return out
        return hook

    def _finalize(self, result: PlaybackResult,
                  telemetry: PlaybackTelemetry) -> None:
        self._stage.settle(result, telemetry)
        result.sr_inferences = sum(s.sr_inferences
                                   for s in telemetry.segments)
        n_frames = sum(s.n_frames for s in telemetry.segments)
        compute = sum(telemetry.stage_seconds.get(k, 0.0)
                      for k in ("decode", "sr", "color"))
        telemetry.achieved_fps = n_frames / max(compute, 1e-9)
        telemetry.tile_count = sum(s.sr_tiles for s in telemetry.segments)
        telemetry.skipped_tiles = sum(s.sr_skipped_tiles
                                      for s in telemetry.segments)
        telemetry.reused_tiles = sum(s.sr_reused_tiles
                                     for s in telemetry.segments)
        sr_flops = sum(s.sr_flops for s in telemetry.segments)
        sr_seconds = telemetry.stage_seconds.get("sr", 0.0)
        if sr_flops and sr_seconds > 0.0:
            telemetry.sr_gflops = sr_flops / sr_seconds / 1e9
        telemetry.fast_path_speedup = self._speedup_sample

        metrics = self.obs.metrics
        count_downloads(metrics, self._stage.download_ledger,
                        **self._span_attrs)
        for name, total in telemetry.stage_seconds.items():
            metrics.counter(
                "dcsr_playback_stage_seconds_total",
                "Seconds spent per playback stage (download is simulated)",
            ).inc(total, stage=name)
        metrics.counter("dcsr_playback_frames_total",
                        "Display frames emitted").inc(len(result.frame_types))
        if telemetry.stall_seconds:
            metrics.counter(
                "dcsr_playback_stall_seconds_total",
                "Simulated playout stall seconds",
            ).inc(telemetry.stall_seconds)
        metrics.gauge(
            "dcsr_playback_achieved_fps",
            "Frames per compute second of the most recent session",
        ).set(telemetry.achieved_fps)
        if self._stage.controller is not None:
            metrics.counter(
                "dcsr_controller_energy_joules_total",
                "Simulated rail energy under the joint controller",
            ).inc(telemetry.energy_joules,
                  device=self._stage.controller.device.name)
            if telemetry.energy_joules > 0 and result.psnr_per_frame:
                metrics.gauge(
                    "dcsr_controller_quality_per_joule",
                    "Mean PSNR per joule of the most recent session",
                ).set(float(np.mean(result.psnr_per_frame))
                      / telemetry.energy_joules,
                      device=self._stage.controller.device.name)
