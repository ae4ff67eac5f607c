"""The three playback workloads: one viewer session at a time, closed loop.

Untraced run: repeated full sessions through ``DcsrClient.iter_frames``.
Traced run: the *decomposed replay* — the benchmark replays the same session
segment by segment with the layers' public calls, each under a span of its
own ``repro.obs.Observability``, and must reproduce the client's frames bit
for bit.  Nothing inside the program is instrumented.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.core import (
    DcsrClient,
    FastPathConfig,
    ModelCache,
    SimulatedNetwork,
    download_with_retry,
    stall_ratio,
)
from repro.obs import Observability, span_to_dict, stage_totals
from repro.sr import InferenceEngine
from repro.video import rgb_to_yuv420, yuv420_to_rgb
from repro.video.codec import Decoder

from . import harness, inputs, layers
from .harness import Outcome
from .inputs import ClipSpec, PackageSpec

#: The repository's own calibration contract for reduced-precision and
#: gated inference (``docs/performance.md``): |delta PSNR| vs the reference.
PSNR_TOLERANCE_DB = 0.3


@dataclass(frozen=True)
class PlayWorkload:
    name: str
    package: PackageSpec
    fast_path: FastPathConfig
    throttled: bool = False
    failures: bool = False


#: Clip lengths are what the run-time cap leaves room for: encoding costs
#: ~1.2 s per 352x640 frame and every untraced run sets up twice.
WORKLOADS = {
    "play_static": PlayWorkload(
        name="play_static",
        package=PackageSpec(
            clip=ClipSpec(genre="news", scene_seed=5, n_frames=5),
            max_segment_len=12, micro=(2, 8), quantize=("int8",)),
        fast_path=FastPathConfig(tile=128, precision="int8", skip_gate=1e-3,
                                 reuse=True, calibrate=False)),
    "play_pan": PlayWorkload(
        name="play_pan",
        package=PackageSpec(
            clip=ClipSpec(genre="sports", scene_seed=1, n_frames=5),
            max_segment_len=3, micro=(2, 8), k_override=1,
            quantize=("int8",)),
        fast_path=FastPathConfig(tile=128, precision="int8", skip_gate=1e-3,
                                 reuse=True, calibrate=False, prefetch=1),
        throttled=True, failures=True),
    "play_cuts": PlayWorkload(
        name="play_cuts",
        package=PackageSpec(
            clip=ClipSpec(genre="music", scene_seed=7, n_frames=5),
            max_segment_len=3, micro=(4, 12), k_override=2),
        fast_path=FastPathConfig(calibrate=False),
        throttled=True),
}


def _network(workload: PlayWorkload, seed: int):
    if not workload.throttled:
        return None
    schedule = inputs.retry_schedule(seed) if workload.failures else None
    return SimulatedNetwork(inputs.THROTTLED, failure_schedule=schedule)


def _retry(workload: PlayWorkload):
    return inputs.RETRY if workload.failures else None


# ------------------------------------------------------------ client pass

@dataclass
class Pass:
    """One full session through the public client."""

    frames: int
    failed_frames: int
    wall_s: float
    cpu_s: float
    digest: str
    telemetry: object
    network: object


def client_pass(package, workload: PlayWorkload, seed: int,
                fast_path: FastPathConfig | None = None) -> Pass:
    """Play every frame once; hashing is bracketed out of both clocks."""
    network = _network(workload, seed)
    client = DcsrClient(package, network=network, retry=_retry(workload),
                        fast_path=fast_path or workload.fast_path)
    clock = harness.wall()
    sha = hashlib.sha256()
    frames = concealed = 0
    hash_wall = hash_cpu = 0.0
    wall0, cpu0 = clock.now(), harness.cpu_seconds()
    for frame in client.iter_frames():
        w, c = clock.now(), harness.cpu_seconds()
        sha.update(frame.rgb)
        frames += 1
        concealed += frame.concealed
        hash_wall += clock.now() - w
        hash_cpu += harness.cpu_seconds() - c
    wall_s = clock.now() - wall0 - hash_wall
    cpu_s = harness.cpu_seconds() - cpu0 - hash_cpu
    result = client.last_result
    by_index = {seg.index: seg.n_frames for seg in package.segments}
    degraded = sum(by_index[i] for i in result.fallback_segments)
    return Pass(frames=frames, failed_frames=concealed + degraded,
                wall_s=wall_s, cpu_s=cpu_s, digest=sha.hexdigest(),
                telemetry=result.telemetry, network=network)


def warm_up(package, workload: PlayWorkload, seed: int,
            outcome: Outcome) -> str:
    """The untimed first session: every frame must play, undegraded.
    Returns the frame digest every later session is held to."""
    first = client_pass(package, workload, seed)
    n_frames = sum(seg.n_frames for seg in package.segments)
    outcome.check(first.frames == n_frames,
                  f"warm-up emitted {first.frames} of {n_frames} frames")
    outcome.check(first.failed_frames == 0,
                  f"warm-up concealed or fell back on {first.failed_frames} "
                  "frames")
    return first.digest


def score_quality(package, clip, workload: PlayWorkload, seed: int,
                  digest: str, outcome: Outcome) -> float:
    """PSNR of the session against the pristine clip (traced run only).

    An ungated fast path must also stay within the repository's calibration
    tolerance of the reference forward.  A gated one has no such oracle:
    the gate swaps model output for bicubic by design, and with the
    benchmark's barely-trained models the two differ by several dB.
    """
    network = _network(workload, seed)
    fast = DcsrClient(package, network=network, retry=_retry(workload),
                      fast_path=workload.fast_path).play(clip.frames)
    sha = hashlib.sha256()
    for rgb in fast.frames:
        sha.update(rgb)
    outcome.check(sha.hexdigest() == digest,
                  "play() frames differ from iter_frames()")
    if workload.fast_path.skip_gate is None:
        reference = DcsrClient(package).play(clip.frames)
        drift = abs(fast.mean_psnr - reference.mean_psnr)
        outcome.check(drift <= PSNR_TOLERANCE_DB,
                      f"fast path is {drift:.3f} dB from the reference path "
                      f"(limit {PSNR_TOLERANCE_DB})")
    return fast.mean_psnr


def _count_passes(outcome: Outcome, passes: list[Pass], digest: str,
                  what: str) -> None:
    for p in passes:
        outcome.attempted += p.frames
        outcome.failed += p.failed_frames
        if p.digest != digest:
            outcome.failed += p.frames
            outcome.problems.append(
                f"{what} frames differ from the warm-up session")


# --------------------------------------------------------- untraced run

def run_untraced(workload: PlayWorkload, seed: int, seconds: float,
                 quick: bool) -> Outcome:
    outcome = Outcome()
    spec = inputs.quick(workload.package) if quick else workload.package
    rounds = 1 if quick else harness.PLAY_SETUP_REPEATS
    stretch_s = seconds * harness.PLAY_MEASURE_SHARE / rounds
    setups, windows, digest = [], [], None
    for (_clip, package), setup_s in harness.setup_rounds(
            lambda: inputs.build(spec, seed, workload.name), rounds):
        setups.append(setup_s)
        if digest is None:
            digest = warm_up(package, workload, seed, outcome)
        # Every round rebuilds the package from the same seed, so its
        # sessions must emit the first round's frames.
        passes = harness.repeat_for(
            stretch_s, 1 if quick else 2,
            lambda: client_pass(package, workload, seed))
        _count_passes(outcome, passes, digest, "timed pass")
        # A session is 0.7-2 s of work, so each is a window of its own.
        windows += harness.windows_of(passes, 1)

    frames = windows[0][0].frames
    outcome.metrics = {
        "throughput_per_s": harness.best_window(
            windows, lambda p: p.frames / p.wall_s, "higher"),
        "latency_ms_p50": harness.best_window(
            windows, lambda p: 1e3 * p.telemetry.startup_seconds, "lower"),
        "setup_s": min(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    outcome.samples = {"setups": len(setups),
                       "passes": sum(len(w) for w in windows),
                       "frames_per_pass": frames}
    return outcome


# ----------------------------------------------------- decomposed replay

@dataclass
class Replay:
    """What one decomposed replay produced and counted."""

    cache: object                       # ModelCache.stats
    network: object                     # the session's SimulatedNetwork
    frames: int = 0
    i_frames: int = 0
    color_calls: int = 0
    tiles_run: int = 0
    tiles_skipped: int = 0
    tiles_reused: int = 0
    flops: float = 0.0
    wall_s: float = 0.0
    digest: str = ""
    stages: dict[str, float] = field(default_factory=dict)
    tree: dict | None = None


def replay_pass(package, workload: PlayWorkload, seed: int,
                traced: bool) -> Replay:
    """One session rebuilt from the layers' public calls, in the client's
    order: model through the cache (download on a miss), segment download,
    decode with the SR hook in the loop, colour conversion per display
    frame.  ``traced=False`` runs the identical calls with no spans, which
    is what the tracing overhead is measured against."""
    obs = Observability(root_name=workload.name) if traced else None
    span = obs.tracer.span if traced else (lambda name, **attrs: nullcontext())
    manifest, encoded = package.manifest, package.encoded
    fast = workload.fast_path
    network = _network(workload, seed)
    retry = _retry(workload)
    clock = harness.wall()

    def fetch_model(label):
        if network is not None:
            size = manifest.model_size_for(label, fast.precision)
            with span("network.download", stage="download", kind="model"):
                download_with_retry(network, retry, "model", label, size)
        return package.models[label]

    cache = ModelCache(fetch=fetch_model)
    replay = Replay(cache=cache.stats, network=network)
    engines: dict[int, InferenceEngine] = {}
    decoder = Decoder(hook_display_only=not manifest.enhance_in_loop)
    sha = hashlib.sha256()
    hash_wall = 0.0
    start = clock.now()
    with span("replay", workload=workload.name):
        for segment, payload in zip(package.segments, encoded.segments):
            with span("segment", index=segment.index):
                label = manifest.model_label_for(segment.index)
                with span("cache.get", stage="cache", label=label):
                    model = cache.get(label)
                if network is not None:
                    with span("network.download", stage="download",
                              kind="segment"):
                        download_with_retry(network, retry, "segment",
                                            payload.index, payload.n_bytes)
                engine = engines.get(label)
                if engine is None:
                    engine = engines[label] = InferenceEngine(
                        model, tile=fast.tile, threads=fast.sr_threads,
                        precision=fast.precision, skip_gate=fast.skip_gate,
                        reuse=fast.reuse, kernel=fast.kernel)
                engine.reset_reuse()

                def hook(frame, display, engine=engine):
                    with span("color.yuv420_to_rgb", stage="yuv2rgb",
                              where="hook"):
                        rgb = yuv420_to_rgb(frame)
                    with span("sr.enhance", stage="sr", display=display):
                        enhanced = engine.enhance(rgb)
                    with span("color.rgb_to_yuv420", stage="rgb2yuv"):
                        out = rgb_to_yuv420(enhanced)
                    stats = engine.stats
                    replay.i_frames += 1
                    replay.color_calls += 1
                    replay.tiles_run += stats.tile_count
                    replay.tiles_skipped += stats.skipped_tiles
                    replay.tiles_reused += stats.reused_tiles
                    replay.flops += stats.flops
                    return out

                decoder.i_frame_hook = hook
                with span("codec.decode_segment", stage="decode",
                          frames=segment.n_frames):
                    decoded = decoder.decode_segment(
                        payload, encoded.width, encoded.height)
                for item in sorted(decoded, key=lambda d: d.display):
                    with span("color.yuv420_to_rgb", stage="yuv2rgb",
                              where="display"):
                        rgb = yuv420_to_rgb(item.frame)
                    replay.color_calls += 1
                    replay.frames += 1
                    t = clock.now()
                    sha.update(rgb)
                    hash_wall += clock.now() - t
    replay.wall_s = clock.now() - start - hash_wall
    replay.digest = sha.hexdigest()
    if traced:
        replay.stages = stage_totals(obs)
        replay.tree = span_to_dict(obs.tracer.root)
    return replay


# ----------------------------------------------------------- traced run

def run_traced(workload: PlayWorkload, seed: int, seconds: float,
               quick: bool) -> Outcome:
    outcome = Outcome()
    spec = inputs.quick(workload.package) if quick else workload.package
    clip, package = inputs.build(spec, seed, workload.name)
    digest = warm_up(package, workload, seed, outcome)
    psnr_db = score_quality(package, clip, workload, seed, digest, outcome)

    # One round = the client, the traced replay and the bare replay back
    # to back.  Ratios between them are taken within a round, so a slow
    # phase of the host scales all three instead of skewing the ratio.
    def one_round():
        return (client_pass(package, workload, seed),
                replay_pass(package, workload, seed, traced=True),
                replay_pass(package, workload, seed, traced=False))

    rounds = harness.repeat_for(seconds * harness.PLAY_MEASURE_SHARE,
                                1 if quick else 2, one_round)
    passes = [r[0] for r in rounds]
    replays = [r[1] for r in rounds]
    _count_passes(outcome, passes, digest, "client pass")
    for _client, traced, bare in rounds:
        outcome.check(traced.digest == digest and bare.digest == digest,
                      "decomposed replay frames differ from the client's")

    # The other two playback iterators must emit the same frames.  The
    # batched one only promises that in fp32: int8 activations are scaled
    # per GEMM call, so which I frames happen to merge changes the bits.
    prefetch = client_pass(package, workload, seed,
                           replace(workload.fast_path, prefetch=1))
    _count_passes(outcome, [prefetch], digest, "prefetch=1 session")
    batched_fps = 0.0
    if workload.fast_path.precision == "fp32":
        batched = client_pass(
            package, workload, seed,
            replace(workload.fast_path, reuse=None, prefetch=2, sr_batch=2))
        _count_passes(outcome, [batched], digest,
                      "prefetch=2 sr_batch=2 session")
        batched_fps = batched.frames / batched.wall_s

    def per_replay(value):
        return harness.median(value(r) for r in replays)

    def stage_ms(name, per):
        return per_replay(
            lambda r: 1e3 * r.stages.get(name, 0.0) / max(1, per(r)))

    def share(*names):
        return per_replay(
            lambda r: sum(r.stages.get(n, 0.0) for n in names) / r.wall_s)

    last = replays[-1]
    telemetry = passes[-1].telemetry
    build = package.telemetry.stage_seconds
    types = package.encoded.frame_types()
    network = last.network

    m = outcome.metrics
    m["play.stall_ratio"] = harness.median(
        stall_ratio(p.telemetry) for p in passes)
    m["play.psnr_db"] = psnr_db
    m["codec.decode_ms_per_frame"] = stage_ms("decode", lambda r: r.frames)
    m["codec.encode_ms_per_frame"] = 1e3 * build["encode"] / last.frames
    m["codec.bytes_per_frame"] = package.encoded.total_bytes / last.frames
    m["codec.i_frame_share"] = types.count("I") / len(types)
    m["color.yuv2rgb_ms"] = stage_ms("yuv2rgb", lambda r: r.color_calls)
    m["color.rgb2yuv_ms"] = stage_ms("rgb2yuv", lambda r: r.i_frames)
    m["color.share"] = share("yuv2rgb", "rgb2yuv")
    m["sr.enhance_ms_per_iframe"] = stage_ms("sr", lambda r: r.i_frames)
    m["sr.gflops"] = per_replay(
        lambda r: r.flops / max(r.stages.get("sr", 0.0), 1e-9) / 1e9)
    m["sr.tiles_run"] = last.tiles_run
    m["sr.tiles_skipped"] = last.tiles_skipped
    m["sr.tiles_reused"] = last.tiles_reused
    m["sr.share"] = share("sr")
    m["cache.hit_rate"] = telemetry.cache_hit_rate
    m["cache.fetches"] = last.cache.downloads
    m["network.download_sim_s"] = network.clock.now() if network else 0.0
    m["network.attempts"] = network.stats.attempts if network else 0
    m["network.retries"] = network.stats.failures if network else 0
    m["client.self_share"] = harness.median(
        1.0 - traced.wall_s / client.wall_s
        for client, traced, _bare in rounds)
    m["client.peak_resident_frames"] = telemetry.peak_resident_frames
    m["client.prefetch_overlap_s"] = telemetry.prefetch_overlap_seconds
    m["client.batched_fps"] = batched_fps
    for name in ("split", "embed", "cluster", "train", "quantize"):
        m[f"server.{name}_s"] = build.get(name, 0.0)
    m["bench.trace_overhead_share"] = harness.median(
        traced.wall_s / bare.wall_s - 1.0
        for _client, traced, bare in rounds)
    m["bench.cpu_ms_per_unit"] = harness.median(
        1e3 * p.cpu_s / p.frames for p in passes)

    # Layers no session isolates, measured by direct calls.
    m.update(layers.conv_kernels(spec.clip.size))
    first_model = package.models[package.manifest.model_label_for(0)]
    m["sr.seq_fps_static"] = layers.static_sequence_fps(
        first_model, clip.frames[0])
    m.update(layers.decode_by_type(clip.frames[:3], spec.crf))
    m["cache.get_hit_us"] = layers.cache_get_hit_us()
    m["network.download_call_us"] = layers.network_download_call_us()

    outcome.samples = {"rounds": len(rounds), "frames_per_pass": last.frames,
                       "i_frames_per_pass": last.i_frames}
    outcome.notes = {"replay_stage_seconds": {
        name: per_replay(lambda r, name=name: r.stages[name])
        for name in sorted(last.stages)}}
    outcome.spans = last.tree
    return outcome
