"""Server-side dcSR (Section 3.1, Figure 2).

``build_package`` runs the full pipeline on one video:

1. shot-based variable-length split (or fixed-length when configured);
2. encode at the target CRF; decode the low-quality reference the client
   will actually see (the SR training input);
3. VAE feature extraction over the segments' I frames;
4. constrained global-K-means clustering (Eq. 2-3);
5. one micro EDSR model trained per cluster on that cluster's I frames.

The result, a :class:`DcsrPackage`, is what a CDN would host: the encoded
segments, the manifest, and the micro models.

The independent stages — per-segment encode/decode, per-chunk VAE feature
extraction, per-cluster training — are each one task list run through
:func:`~repro.core.parallel.run_tasks` (inline at one worker, over a
:class:`~repro.core.parallel.ParallelConfig`-selected pool otherwise), and
per-cluster training runs are memoized in an optional content-addressed
:class:`~repro.core.persist.TrainingCache`.  Builds are bit-identical for
the same seed at any worker count because there is only the one task
function per stage (see ``docs/performance.md`` for the determinism
contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import nn
from ..obs import MonotonicClock, Observability

from ..clustering import KSelection, max_k_for_budget, select_k
from ..features import (
    ConvVAE,
    VaeTrainConfig,
    extract_features,
    frames_to_batch,
    train_vae,
)
from ..sr import (
    EDSR,
    EdsrConfig,
    QUALITY_BIG_CONFIG,
    QUANT_PRECISIONS,
    SrTrainConfig,
    calibrate_quantized,
    micro_tier_config,
    train_sr,
    training_flops_estimate,
)
from ..sr.quantize import CALIBRATION_FRAMES, clamped_psnr
from ..video import VideoClip, detect_segments, fixed_length_segments, yuv420_to_rgb
from ..video.codec import (
    CodecConfig,
    DecodedVideo,
    Decoder,
    EncodedSegment,
    EncodedVideo,
    Encoder,
)
from ..video.segment import Segment
from .manifest import (ModelTierRecord, QuantizationRecord, SegmentRecord,
                       VideoManifest)
from .parallel import (
    BuildTelemetry,
    ClusterTrainingError,
    ParallelConfig,
    run_tasks,
    stage_timer,
)
from .persist import StoredPackage, TrainingCache

__all__ = ["ServerConfig", "DcsrPackage", "build_package", "prepare_video"]


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the server pipeline.

    ``micro_config`` is the per-cluster model architecture (found by the
    minimum-working-model search of Appendix A.1; the default is a sensible
    minimum for the synthetic corpus).  The K budget (Eq. 3) is priced
    against :data:`~repro.sr.QUALITY_BIG_CONFIG`, the single model NAS/NEMO
    would ship.  Shots are split at the default thresholds of
    :func:`~repro.video.detect_segments`, and the VAE embeds 32x32
    thumbnails into 8 latent dimensions.

    ``parallel`` fans the independent stages out over a worker pool (the
    default is one worker, inline); ``train_cache_dir`` enables the
    content-addressed training cache so rebuilding a video with unchanged
    clusters skips training.
    """

    codec: CodecConfig = field(default_factory=lambda: CodecConfig(crf=45))
    max_segment_len: int | None = None
    fixed_segment_len: int | None = None  # use fixed-length split instead
    vae_train: VaeTrainConfig = field(
        default_factory=lambda: VaeTrainConfig(epochs=30, batch_size=8))
    micro_config: EdsrConfig = field(
        default_factory=lambda: EdsrConfig(n_resblocks=2, n_filters=8))
    sr_train: SrTrainConfig = field(default_factory=SrTrainConfig)
    k_override: int | None = None
    #: Validate per video whether writing enhanced I frames back into the
    #: DPB (in-loop propagation) beats display-only enhancement, and record
    #: the winner in the manifest.  Costs two simulated playbacks.
    validate_in_loop: bool = True
    #: Reduced precisions to calibrate after training: for each micro model
    #: the build measures the PSNR delta vs fp32 on the cluster's own
    #: I-frames and records it (plus the quantized checkpoint size) in the
    #: manifest.  Empty tuple skips the calibration stage entirely.
    quantize_precisions: tuple[str, ...] = QUANT_PRECISIONS
    #: Named micro-model *tiers* (:data:`repro.sr.MICRO_TIERS`) to train
    #: per cluster in addition to ``micro_config``.  For every tier the
    #: build calibrates the fp32 PSNR uplift over the plain decode and the
    #: per-precision size/delta, and records a
    #: :class:`~repro.core.manifest.ModelTierRecord` table in the manifest
    #: — the input to the joint ABR x SR controller.  Empty tuple (the
    #: default) skips tier training entirely.
    model_tiers: tuple[str, ...] = ()
    seed: int = 0
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    train_cache_dir: str | None = None


@dataclass(kw_only=True)
class DcsrPackage(StoredPackage):
    """Everything the server publishes for one video: the client-facing
    package plus the build's server-side products."""

    features: np.ndarray              # (n_segments, latent_dim)
    selection: KSelection
    vae: ConvVAE
    decoded_low: DecodedVideo         # the client-visible LQ reference
    telemetry: BuildTelemetry | None = None


# ----------------------------------------------------------------------
# Stage tasks, run through ``run_tasks``.  Module-level so they pickle by
# reference for the process backend; each receives everything it needs (no
# shared state) and is the only implementation of its stage, so results
# are bit-identical at any worker count.

def _encode_segment_task(codec, frames, segment) -> EncodedSegment:
    return Encoder(codec).encode_segment(frames, segment)


def _decode_segment_task(segment, width, height):
    return Decoder().decode_segment(segment, width, height)


def _embed_chunk_task(blob, latent_dim, input_size, frames) -> np.ndarray:
    vae = ConvVAE(latent_dim=latent_dim, input_size=input_size)
    nn.deserialize_from_bytes(vae, blob)
    return extract_features(vae, frames)


def _train_cluster_task(label, model_config, seed, lq, hr, train_config):
    model = EDSR(model_config, seed=seed)
    # An Observability session holds locks and cannot cross the process
    # boundary; the task times against a local clock and the parent records
    # the measured seconds into its own trace.
    clock = MonotonicClock()
    t0 = clock.now()
    history = train_sr(model, lq, hr, train_config)
    return (label, nn.serialize_to_bytes(model), clock.now() - t0,
            history.epoch_seconds)


# ----------------------------------------------------------------------
# Pipeline stages.

def prepare_video(
    clip: VideoClip, config: ServerConfig,
    telemetry: BuildTelemetry | None = None,
) -> tuple[list[Segment], EncodedVideo, DecodedVideo]:
    """Steps 1-2: split and encode the video, then decode the LQ version."""
    telemetry = telemetry or BuildTelemetry()
    with stage_timer(telemetry, "split"):
        if config.fixed_segment_len is not None:
            segments = fixed_length_segments(clip.n_frames,
                                             config.fixed_segment_len)
        else:
            segments = detect_segments(clip.frames,
                                       max_length=config.max_segment_len)
    with stage_timer(telemetry, "encode"):
        encoded = EncodedVideo(width=clip.width, height=clip.height,
                               fps=clip.fps, config=config.codec)
        encoded.segments.extend(run_tasks(
            config.parallel, _encode_segment_task,
            [(config.codec, clip.frames[seg.start:seg.end], seg)
             for seg in sorted(segments, key=lambda s: s.start)]))
        decoded = DecodedVideo.in_display_order(encoded, [
            frame for frames in run_tasks(
                config.parallel, _decode_segment_task,
                [(seg, encoded.width, encoded.height)
                 for seg in encoded.segments])
            for frame in frames])
    return segments, encoded, decoded


def _train_models(
    config: ServerConfig, labels: np.ndarray,
    lq_i: np.ndarray, hr_i: np.ndarray, telemetry: BuildTelemetry,
    model_config: EdsrConfig, seed_base: int, tier: str | None = None,
) -> dict[int, EDSR]:
    """Stage 5: one ``model_config`` model per cluster, cache-aware.

    ``seed_base`` is the seed origin (tier training passes a tier-specific
    one so tier weights never alias the base micro models); ``tier`` tags
    the per-cluster spans.
    """
    cache = (TrainingCache(config.train_cache_dir)
             if config.train_cache_dir is not None else None)
    obs = telemetry.obs
    span_extra = {} if tier is None else {"tier": tier}
    models: dict[int, EDSR] = {}
    tasks = []
    keys = {}  # label -> cache key of a cluster that has to train
    for label in sorted(set(int(l) for l in labels)):
        member = labels == label
        lq_m, hr_m = lq_i[member], hr_i[member]
        seed = seed_base + label
        if cache is not None:
            keys[label] = cache.key(lq_m, hr_m, model_config,
                                    config.sr_train, seed)
            cached = cache.get(keys[label], model_config)
            if cached is not None:
                models[label] = cached
                telemetry.cache_hits += 1
                obs.metrics.counter(
                    "dcsr_train_cache_hits_total",
                    "Clusters served from the training cache").inc()
                continue
            telemetry.cache_misses += 1
            obs.metrics.counter(
                "dcsr_train_cache_misses_total",
                "Clusters trained because the cache had no entry").inc()
        tasks.append((label, model_config, seed, lq_m, hr_m, config.sr_train))

    results = run_tasks(
        config.parallel, _train_cluster_task, tasks,
        wrap=lambda task, exc: ClusterTrainingError(task[0], str(exc)))
    for label, blob, seconds, epoch_seconds in results:
        model = EDSR(model_config)
        nn.deserialize_from_bytes(model, blob)
        # Unstaged children of the open "train" stage span, so the train
        # stage keeps its full duration while each cluster stays
        # attributable in the tree.
        span = obs.tracer.record("train_cluster", seconds, cluster=label,
                                 **span_extra)
        obs.tracer.record("train_sr", sum(epoch_seconds), parent=span,
                          epochs=len(epoch_seconds))
        epoch_hist = obs.metrics.histogram(
            "dcsr_sr_epoch_seconds", "Wall seconds per SR training epoch")
        for epoch in epoch_seconds:
            epoch_hist.observe(epoch)
        if tier is None:
            telemetry.train_seconds_per_cluster[label] = seconds
        models[label] = model
        if cache is not None:
            cache.put(keys[label], model)

    telemetry.train_flops += (
        training_flops_estimate(EDSR(model_config), config.sr_train)
        * len(tasks))
    return models


def build_package(clip: VideoClip, config: ServerConfig | None = None,
                  obs: Observability | None = None) -> DcsrPackage:
    """Run the full server pipeline on ``clip``.

    ``obs`` (an optional :class:`~repro.obs.Observability`) is the session
    every stage records its spans and metrics into (``cli prepare
    --trace-out/--metrics-out`` passes one); by default the build's
    :class:`~repro.core.parallel.BuildTelemetry` owns a fresh session.
    The whole pipeline runs inside one ``build`` span, so the exported
    tree carries the stages as its children.
    """
    config = config or ServerConfig()
    telemetry = BuildTelemetry.for_build(
        config.parallel, obs or Observability(root_name="server"))
    with telemetry.obs.tracer.span("build", video=clip.name):
        return _build_package(clip, config, telemetry)


def _build_package(clip: VideoClip, config: ServerConfig,
                   telemetry: BuildTelemetry) -> DcsrPackage:
    segments, encoded, decoded = prepare_video(clip, config, telemetry)

    # I-frame training pairs: the decoded LQ I frame (network input) and the
    # pristine original (ground truth).
    i_indices = [seg.start for seg in segments]
    lq_i = np.stack([yuv420_to_rgb(decoded.frames[i]) for i in i_indices])
    hr_i = np.stack([clip.frames[i] for i in i_indices])

    # Feature extraction: VAE trained on this video's I frames (HR side —
    # the server has it), encoder mean as the feature.  Training is one
    # sequential model; the per-I-frame embedding fans out in chunks.
    with stage_timer(telemetry, "embed"):
        vae = ConvVAE(seed=config.seed)
        thumbs = frames_to_batch(hr_i, vae.input_size)
        train_vae(vae, thumbs, config.vae_train, obs=telemetry.obs)
        # Chunk boundaries are fixed by ``chunk_size`` — never by worker
        # count — because BLAS kernels differ by matrix shape, so only
        # identical per-call batches embed bit-identically.
        blob, chunk = nn.serialize_to_bytes(vae), config.parallel.chunk_size
        features = np.concatenate(run_tasks(
            config.parallel, _embed_chunk_task,
            [(blob, vae.latent_dim, vae.input_size, hr_i[s:s + chunk])
             for s in range(0, len(hr_i), chunk)]), axis=0)

    # Constrained K selection (Eq. 2-3).
    with stage_timer(telemetry, "cluster"):
        big_size = EDSR(QUALITY_BIG_CONFIG).size_bytes()
        min_size = EDSR(config.micro_config).size_bytes()
        k_budget = max_k_for_budget(big_size, min_size)
        if config.k_override is not None:
            from ..clustering import global_kmeans
            k = min(config.k_override, len(segments))
            result = global_kmeans(features, k)
            selection = KSelection(k=k, scores={}, k_max=k_budget,
                                   result=result)
        else:
            selection = select_k(features, k_budget)
        labels = selection.result.labels

    # One micro model per cluster, trained on the cluster's I frames only.
    with stage_timer(telemetry, "train"):
        models = _train_models(config, labels, lq_i, hr_i, telemetry,
                               config.micro_config, config.seed)

    # Quantization calibration: measure, per model and precision, the PSNR
    # cost of the reduced-precision kernels on the cluster's own I-frames
    # and the quantized checkpoint's download size.
    quantization: dict[int, dict[str, QuantizationRecord]] = {}
    if config.quantize_precisions:
        with stage_timer(telemetry, "quantize"):
            quantization = _calibrate_models(config, labels, models,
                                             lq_i, hr_i, telemetry)

    # Tier training + calibration: one extra model per (tier, cluster),
    # with the fp32 uplift over the plain decode and the per-precision
    # size/delta recorded for the joint controller.  Tier configs resolve
    # eagerly so a bad tier name fails before any training happens.
    tier_models: dict[str, dict[int, EDSR]] = {}
    tiers: dict[int, dict[str, dict[str, ModelTierRecord]]] = {}
    if config.model_tiers:
        tier_configs = {t: micro_tier_config(t) for t in config.model_tiers}
        with stage_timer(telemetry, "tiers"):
            for offset, (tier, tier_config) in enumerate(tier_configs.items()):
                # Tier seed bases are spaced far beyond any plausible label
                # count so tier weights never alias the base micro models.
                tier_models[tier] = _train_models(
                    config, labels, lq_i, hr_i, telemetry, tier_config,
                    config.seed + 1000 * (offset + 1), tier=tier)
            for tier in sorted(tier_models):
                for label, records in _calibrate_models(
                        config, labels, tier_models[tier], lq_i, hr_i,
                        telemetry, tier=tier).items():
                    tiers.setdefault(label, {})[tier] = records

    manifest = VideoManifest(
        video_name=clip.name, width=clip.width, height=clip.height,
        fps=clip.fps, crf=config.codec.crf,
        segments=[
            SegmentRecord(index=seg.index, start=seg.start,
                          n_frames=seg.n_frames,
                          model_label=int(labels[i]))
            for i, seg in enumerate(segments)
        ],
        model_sizes={label: model.size_bytes()
                     for label, model in models.items()},
        quantization=quantization,
        tiers=tiers,
    )
    package = DcsrPackage(manifest=manifest, encoded=encoded, models=models,
                          features=features, selection=selection, vae=vae,
                          segments=segments, decoded_low=decoded,
                          telemetry=telemetry, tier_models=tier_models)
    if config.validate_in_loop:
        with stage_timer(telemetry, "validate"):
            package.manifest.enhance_in_loop = _validate_in_loop(package, clip)
    return package


def _calibrate_models(
    config: ServerConfig, labels: np.ndarray, models: dict[int, EDSR],
    lq_i: np.ndarray, hr_i: np.ndarray, telemetry: BuildTelemetry,
    tier: str | None = None,
) -> dict[int, dict[str, QuantizationRecord]]:
    """Per-model calibration on each cluster's own I-frames.

    Base models (``tier is None``) get one :class:`QuantizationRecord`
    per ``config.quantize_precisions``.  A tier's models get
    :class:`ModelTierRecord` rows from the same
    :func:`~repro.sr.quantize.calibrate_quantized` pass — ``fp32`` first,
    as one more precision whose delta is 0 — each carrying the tier's
    architecture and ``gain_db``, the fp32 tier model's PSNR uplift over
    the plain decode.
    """
    obs = telemetry.obs
    precisions = config.quantize_precisions
    span_name, span_extra = "calibrate_cluster", {}
    if tier is not None:
        precisions = ("fp32",) + precisions
        span_name, span_extra = "calibrate_tier", {"tier": tier}
    table: dict[int, dict[str, QuantizationRecord]] = {}
    for label, model in sorted(models.items()):
        member = labels == label
        lq_m, hr_m = lq_i[member], hr_i[member]
        with obs.tracer.span(span_name, cluster=label, **span_extra):
            results = calibrate_quantized(model, lq_m, hr_m,
                                          precisions=precisions)
        record = QuantizationRecord
        if tier is not None:
            gain_db = results["fp32"].psnr_fp32 - clamped_psnr(
                lq_m[:CALIBRATION_FRAMES], hr_m[:CALIBRATION_FRAMES])
            record = partial(ModelTierRecord, tier=tier, gain_db=gain_db,
                             n_resblocks=model.config.n_resblocks,
                             n_filters=model.config.n_filters)
            obs.metrics.histogram(
                "dcsr_tier_gain_db",
                "Calibrated fp32 PSNR uplift of tier models (dB)",
                buckets=(0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0),
            ).observe(max(0.0, gain_db))
        table[label] = {
            precision: record(precision=precision, size_bytes=r.size_bytes,
                              delta_db=r.delta_db)
            for precision, r in results.items()
        }
        if tier is None:
            for r in results.values():
                obs.metrics.histogram(
                    "dcsr_quant_delta_db",
                    "Calibrated PSNR delta of quantized micro models (dB)",
                    buckets=(0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0),
                ).observe(max(0.0, r.delta_db))
    return table


def _validate_in_loop(package: DcsrPackage, clip: VideoClip) -> bool:
    """Server-side quality validation of in-loop enhancement.

    Plays the package in both client modes against the pristine original
    and keeps in-loop propagation when the in-loop session's mean PSNR is at
    least the display-only session's (cf. NEMO's per-anchor quality
    validation): on high-motion content the motion-compensated enhancement
    delta can land in the wrong place and drag P/B frames down.  Neither
    mode is a floor — an enhanced I frame can score below its plain decode
    in either — so neither is compared with the plain decode here; that
    floor is ROADMAP item 11.
    """
    from .client import DcsrClient

    scores = {}
    for in_loop in (True, False):
        package.manifest.enhance_in_loop = in_loop
        result = DcsrClient(package).play(clip.frames)
        scores[in_loop] = result.mean_psnr
    return scores[True] >= scores[False]
