"""The streaming session machine's shared half: fetch stage + playout clock.

A dcSR session is one loop per segment — Algorithm 1 model lookup, segment
fetch, decode with the I-frame hook, emit (Section 3.2, Figure 6).  The
parts that touch only *bytes and simulated seconds* live here, so every
session engine runs the same code: :class:`FetchStage` (stages 1-2:
controller decision, model or tier checkpoint acquire, segment download,
``fallback``/``concealed`` transitions, byte/second/attempt accounting,
energy feedback) and :class:`~repro.abr.PlayoutClock` (the startup/stall
recurrence the ABR simulator plays on too, here with no player bounds).
:class:`~repro.core.client.DcsrClient` puts a real decode stage between
``fetch`` and ``release``; the fleet simulator's trace-mode sessions
(:mod:`repro.serve.scheduler`) put nothing there.  The stage records no
spans and no metrics — it returns what it did (:class:`SegmentFetch`) and
each caller decides what to trace.

The stage is also where a download is *counted*, once: links
(:mod:`repro.core.network`) only move bytes on a clock, and every
download that reaches one — failed ones and strict-mode aborts included —
passes through :meth:`FetchStage._charge`, which keeps a per-kind row of
attempts, failures, bytes, retries and backoff seconds.
:func:`count_downloads` renders such a ledger into the five
``dcsr_download_*`` / ``dcsr_backoff_*`` counter families when the
session settles.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from operator import attrgetter

from ..abr.simulate import PlayoutClock
from ..control import (ControlContext, ControlDecision, JointController,
                       segment_energy, segment_iframe_count, tier_options)
from .cache import ModelCache
from .network import DownloadError, Network, RetryPolicy, download_with_retry
from .persist import StoredPackage

__all__ = ["PLAYBACK_STAGES", "PlayoutClock", "SegmentPlayback",
           "SegmentFetch", "FetchStage", "record_segment", "count_downloads"]

#: Stage names recorded in ``PlaybackTelemetry.stage_seconds``, in
#: playback order.  ``color`` is both YUV->RGB directions (display path
#: and inside the SR hook).
PLAYBACK_STAGES = ("download", "decode", "sr", "color")
_STAGE_SECONDS = {name: attrgetter(f"{name}_s") for name in PLAYBACK_STAGES}


@dataclass
class SegmentPlayback:
    """Per-segment telemetry of one streaming session."""

    index: int
    status: str = "ok"              # ok | concealed | fallback
    n_frames: int = 0
    download_attempts: int = 0
    sr_inferences: int = 0
    download_s: float = 0.0
    decode_s: float = 0.0
    sr_s: float = 0.0
    color_s: float = 0.0
    sr_tiles: int = 0
    sr_skipped_tiles: int = 0
    sr_reused_tiles: int = 0
    sr_flops: float = 0.0


@dataclass(slots=True)
class SegmentFetch:
    """What :meth:`FetchStage.fetch` did for one segment."""

    #: Status (``concealed`` = the payload never arrived), download
    #: seconds and attempts already folded in.
    seg_t: SegmentPlayback
    label: int
    #: SR inferences the segment triggers when enhancement is on.
    n_inferences: int
    #: The model to enhance with; ``None`` plays the segment unenhanced
    #: (SR decided off, or the fetch failed under ``fallback``).
    model: object | None = None
    #: The controller's decision (``None`` in uncontrolled sessions).
    decision: ControlDecision | None = None
    #: ``(kind, simulated seconds, attempts, failed)`` of every download
    #: that reached the network, in order, retries folded in (cache hits
    #: and network-less sessions leave none).
    downloads: list[tuple] = field(default_factory=list)


def record_segment(result, telemetry, playout: PlayoutClock,
                   seg_t: SegmentPlayback) -> None:
    """Consumer-side bookkeeping for one finished segment, in segment
    order: the telemetry row, the degradation lists (disjoint — a
    fallback segment none of whose frames play is concealed only), and
    the playout clock."""
    telemetry.segments.append(seg_t)
    if seg_t.status == "concealed":
        result.skipped_segments.append(seg_t.index)
    elif seg_t.status == "fallback":
        result.fallback_segments.append(seg_t.index)
    playout.segment_ready(seg_t.download_s,
                          seg_t.n_frames / telemetry.native_fps,
                          seg_t.decode_s + seg_t.sr_s + seg_t.color_s)
    telemetry.startup_seconds = playout.startup_s
    telemetry.stall_seconds = playout.stall_s
    telemetry.prefetch_overlap_seconds = playout.overlap_s


#: The download counter families, in the column order of a ledger row.
_DOWNLOAD_FAMILIES = (
    ("dcsr_download_attempts_total", "Download attempts by payload kind"),
    ("dcsr_download_failures_total",
     "Injected download failures by payload kind"),
    ("dcsr_download_bytes_total", "Bytes delivered by payload kind"),
    ("dcsr_download_retries_total", "Retries issued after failed attempts"),
    ("dcsr_backoff_seconds_total",
     "Simulated seconds spent in retry backoff"),
)


def count_downloads(metrics, ledger: dict[str, list], **labels) -> None:
    """Render one session's :attr:`FetchStage.download_ledger` into the
    download counter families of ``metrics``, labelled ``kind`` plus
    ``labels``.  A zero cell emits no series."""
    for kind, row in ledger.items():
        for (name, help), value in zip(_DOWNLOAD_FAMILIES, row):
            if value:
                metrics.counter(name, help).inc(value, kind=kind, **labels)


class FetchStage:
    """Stages 1-2 of a session plus its byte/energy ledger.

    Parameters
    ----------
    package:
        The package being streamed (``manifest``, ``encoded``, ``models``
        and, for controlled sessions, ``tier_models``).
    network / retry / fallback:
        As for :class:`~repro.core.client.DcsrClient`.
    precision:
        Which published checkpoint precision label models download at.
    model_cache:
        The :class:`~repro.core.cache.ModelCache` the session's models live
        in: a shared store (or CDN edge), or a bounded private one, when
        given, else an unbounded private one.  Either way each session
        works through its own :class:`~repro.core.cache.CacheSession` view.
    controller:
        Optional :class:`~repro.control.JointController` consulted at
        every segment boundary.  :meth:`feedback` costs segments on its
        device's power model; without one it models no energy.

    :meth:`fetch` consumes the network's deterministic schedule (model
    acquire, then segment), so callers MUST invoke it in segment order,
    one call at a time; :meth:`release` and :meth:`feedback` follow the
    caller's decode stage.  ``model_bytes``, ``video_bytes``,
    ``energy_joules`` and ``sr_segments`` are session totals that
    :meth:`settle` folds into a result.
    """

    def __init__(self, package: StoredPackage, network: Network | None = None,
                 retry: RetryPolicy | None = None, fallback: bool = False, *,
                 precision: str = "fp32",
                 model_cache: ModelCache | None = None,
                 controller: JointController | None = None):
        self.package = package
        self.network = network
        self.retry = retry
        self.fallback = bool(fallback)
        self.precision = precision
        self.controller = controller
        # ``is None``, not ``or``: a store that is still empty is falsy.
        self._store = ModelCache() if model_cache is None else model_cache
        # The cache calls back into the stage; a weak reference keeps the
        # pair out of a reference cycle, so a finished session (and its
        # network) is freed at once, not by the cycle collector.
        download = weakref.WeakMethod(self._download_model)
        self._fetch_model = lambda label: download()(label)
        # ``(seconds, attempts, bytes)`` of the model download the cache
        # callback performed, picked up by the acquire that triggered it.
        self._delivered: tuple[float, int, int] | None = None
        self.reset()

    def reset(self) -> None:
        """Start a new session: zero the ledger, take a fresh view of the
        model store (its models persist for the owner's lifetime, the
        hit/download statistics are this session's alone) and forget
        controller state."""
        self.cache = self._store.session(self._fetch_model)
        self.model_bytes = 0
        self.video_bytes = 0
        self.energy_joules = 0.0
        self.sr_segments = 0
        #: kind -> ``[attempts, failures, bytes, retries, backoff seconds]``
        #: of every download that reached the network.
        self.download_ledger: dict[str, list] = {}
        #: label -> {(tier, precision)} tier checkpoints already downloaded.
        self._tier_downloaded: dict[int, set[tuple[str, str]]] = {}
        if self.controller is not None:
            self.controller.reset()

    # ------------------------------------------------------------- stages 1-2

    def fetch(self, segment, encoded_segment) -> SegmentFetch:
        """Decide (controlled sessions), acquire the model, download the
        segment.  A failed model fetch degrades to ``fallback`` (or raises
        in strict mode), a segment download out of retries to ``concealed``."""
        label = self.package.manifest.model_label_for(segment.index)
        out = SegmentFetch(
            SegmentPlayback(index=segment.index, n_frames=segment.n_frames),
            label,
            segment_iframe_count(self.package.encoded, encoded_segment))
        try:
            if self.controller is None:
                out.model = self.cache.acquire(label)
            else:
                out.decision = self.controller.decide(
                    self._control_context(segment, encoded_segment, out))
                if out.decision.sr_enabled:
                    out.model = self._tier_model(label, out.decision)
        except (KeyError, DownloadError) as exc:
            if isinstance(exc, DownloadError):
                self._charge(out, "model", exc.seconds, exc.attempts)
            if not self.fallback:
                raise
            out.seg_t.status = "fallback"
        delivered, self._delivered = self._delivered, None
        if delivered is not None:
            self._charge(out, "model", *delivered)
        if self.network is None:
            out.seg_t.download_attempts += 1
        else:
            try:
                seconds, attempts = download_with_retry(
                    self.network, self.retry, "segment",
                    encoded_segment.index, encoded_segment.n_bytes)
            except DownloadError as exc:
                self._charge(out, "segment", exc.seconds, exc.attempts)
                out.seg_t.status = "concealed"
                return out
            self._charge(out, "segment", seconds, attempts,
                         encoded_segment.n_bytes)
        self.video_bytes += encoded_segment.n_bytes
        return out

    def release(self, fetched: SegmentFetch) -> None:
        """Drop the model pin :meth:`fetch` took once the caller's decode
        stage (where every SR inference happens) is done, so a bounded
        shared cache may evict it.  Tier checkpoints are never pinned."""
        if fetched.model is not None and fetched.decision is None:
            self.cache.release(fetched.label)

    def feedback(self, fetched: SegmentFetch, sr_inferences: int) -> None:
        """Close the loop after the decode stage: cost the segment's
        *realized* ``sr_inferences`` at the decided option's FLOPs on the
        controller's device, add it to the ledger, and feed it back into
        the controller's budget state.  A no-op without a controller."""
        if self.controller is None:
            return
        decision = fetched.decision
        sr_on = decision is not None and decision.sr_enabled
        seconds = fetched.seg_t.n_frames / self.package.encoded.fps
        energy = segment_energy(
            self.controller.device, seconds,
            decision.option.flops_per_inference if sr_on else 0.0,
            sr_inferences).energy_j
        self.energy_joules += energy
        if sr_on and sr_inferences:
            self.sr_segments += 1
        self.controller.feedback(energy, seconds)

    def settle(self, result, telemetry) -> None:
        """Fold the session ledger and cache statistics into ``result``
        and ``telemetry`` (call once, when the session ends)."""
        stats = self.cache.stats
        result.model_bytes = self.model_bytes
        result.video_bytes = self.video_bytes
        result.model_downloads = list(stats.downloaded_labels)
        result.cache_stats = stats
        telemetry.cache_hit_rate = stats.hit_rate
        telemetry.energy_joules = self.energy_joules
        telemetry.sr_segments = self.sr_segments
        telemetry.download_attempts = sum(s.download_attempts
                                          for s in telemetry.segments)
        for name, seconds in _STAGE_SECONDS.items():
            total = sum(map(seconds, telemetry.segments))
            if total or name in ("download", "decode"):
                telemetry.stage_seconds[name] = total

    # -------------------------------------------------------------- internals

    def _charge(self, out: SegmentFetch, kind: str, seconds: float,
                attempts: int, n_bytes: int | None = None) -> None:
        """Account one download, retries folded in; ``n_bytes`` is what
        it delivered (the manifest's accounting size), ``None`` when it
        ran out of budget.  Every attempt but a delivering last one
        failed, and every attempt but the last was followed by a retry."""
        failed = n_bytes is None
        out.seg_t.download_s += seconds
        out.seg_t.download_attempts += attempts
        out.downloads.append((kind, seconds, attempts, failed))
        row = self.download_ledger.get(kind)
        if row is None:
            row = self.download_ledger[kind] = [0, 0, 0, 0, 0.0]
        row[0] += attempts
        row[1] += attempts if failed else attempts - 1
        row[2] += n_bytes or 0
        row[3] += attempts - 1
        # One backoff at a time, in the order they were waited out: the
        # per-kind float sum is the one a counter bumped per retry held.
        for retry_index in range(attempts - 1):
            row[4] += self.retry.delay(retry_index)

    def _download(self, key: int | str, size: int) -> None:
        """Download one model checkpoint and charge its bytes."""
        if self.network is not None:
            self._delivered = (*download_with_retry(
                self.network, self.retry, "model", key, size), size)
        self.model_bytes += size

    def _download_model(self, label: int):
        """The model cache's fetch callback (the DOWNLOAD of Algorithm 1)."""
        model = self.package.models.get(label)
        if model is None:
            raise KeyError(f"manifest references missing model {label}")
        # A reduced-precision session downloads the quantized checkpoint:
        # fewer bytes if (and only if) the manifest carries a calibrated
        # record for that precision — otherwise the fp32 size is charged.
        self._download(label, self.package.manifest.model_size_for(
            label, self.precision))
        return model

    def _tier_model(self, label: int, decision: ControlDecision):
        """The decided tier's model; its checkpoint downloads on first use
        (at the manifest's per-precision size), outside the label cache."""
        model = self.package.tier_models.get(decision.tier, {}).get(label)
        if model is None:
            raise KeyError(f"package has no tier {decision.tier!r} model "
                           f"for label {label}")
        have = self._tier_downloaded.setdefault(label, set())
        if (decision.tier, decision.precision) not in have:
            self._download(
                f"{label}:{decision.tier}:{decision.precision}",
                self.package.manifest.tier_size_for(
                    label, decision.tier, decision.precision))
            have.add((decision.tier, decision.precision))
        return model

    def _control_context(self, segment, encoded_segment,
                         out: SegmentFetch) -> ControlContext:
        """One segment boundary's decision context.

        A session streams one pre-encoded rendition, so the ladder
        collapses to a single rung (the segment's actual bits at a neutral
        quality origin — tier gains are *relative* uplifts); buffer depth
        is unbounded because the session has no playout buffer to
        protect.  The SR options come from the manifest's tier table, with
        already-downloaded checkpoints owing zero bits.
        """
        bandwidth = (self.network.config.bandwidth_bps
                     if self.network is not None else None)
        return ControlContext(
            segment=segment.index,
            segment_seconds=segment.n_frames / self.package.encoded.fps,
            throughput_bps=float(bandwidth) if bandwidth else float("inf"),
            buffer_s=float("inf"),
            rung_bits=(encoded_segment.n_bytes * 8.0,),
            rung_quality_db=(0.0,),
            sr_options=tier_options(
                self.package.manifest, out.label,
                cached=frozenset(self._tier_downloaded.get(out.label, ()))),
            n_inferences=out.n_inferences,
        )
