"""Command-line interface.

End-to-end workflow from a shell::

    repro-dcsr generate --genre music --seconds 10 --out video.npz
    repro-dcsr prepare video.npz --out pkg/ --crf 51
    repro-dcsr info pkg/
    repro-dcsr play pkg/ --reference video.npz
    repro-dcsr serve pkg/ --sessions 8 --arrival poisson:2 --bandwidth 2e6
    repro-dcsr plan --device jetson --resolution 4k
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .obs import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .devices import DEVICES
    from .sr import RESOLUTIONS

    parser = argparse.ArgumentParser(
        prog="repro-dcsr",
        description="dcSR: data-centric super resolution (CoNEXT 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic video")
    gen.add_argument("--genre", default="music",
                     help="news/sports/documentary/music/gaming/animation")
    gen.add_argument("--seconds", type=float, default=10.0)
    gen.add_argument("--fps", type=float, default=10.0)
    gen.add_argument("--height", type=int, default=48)
    gen.add_argument("--width", type=int, default=64)
    gen.add_argument("--scenes", type=int, default=3)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True, help="output .npz path")

    prep = sub.add_parser("prepare", help="run the server pipeline")
    prep.add_argument("video", help="video .npz from `generate`")
    prep.add_argument("--out", required=True, help="package directory")
    prep.add_argument("--crf", type=int, default=51)
    prep.add_argument("--epochs", type=int, default=25,
                      help="SR training epochs per micro model")
    prep.add_argument("--max-segment-frames", type=int, default=20)
    prep.add_argument("--k", type=int, default=None,
                      help="override the silhouette-selected K")
    prep.add_argument("--workers", type=int, default=1,
                      help="parallel build workers (1 = serial, 0 = all cores)")
    prep.add_argument("--backend", choices=("process", "thread"),
                      default="process",
                      help="pool flavour when more than one worker runs")
    prep.add_argument("--tiers", default=None, metavar="LIST",
                      help="also train per-cluster model tiers, e.g. "
                           "'dcSR-1,dcSR-2,dcSR-3'; the manifest then "
                           "carries a per-tier size/gain table the joint "
                           "controller chooses from")
    prep.add_argument("--train-cache", default=None, metavar="DIR",
                      help="content-addressed training cache directory; "
                           "rebuilds with unchanged clusters skip training")
    prep.add_argument("--trace-out", default=None, metavar="FILE",
                      help="write the build's span tree as JSON")
    prep.add_argument("--metrics-out", default=None, metavar="FILE",
                      help="write the build's metrics in Prometheus "
                           "text format")

    info = sub.add_parser("info", help="inspect a stored package")
    info.add_argument("package", help="package directory")

    play = sub.add_parser("play", help="stream a stored package")
    play.add_argument("package", nargs="?", default=None,
                      help="package directory (omit with --url)")
    play.add_argument("--url", default=None, metavar="URL",
                      help="stream from a real dcSR origin (see "
                           "`serve-origin`) instead of a local package: "
                           "the package is mirrored over HTTP and every "
                           "download crosses an actual socket")
    play.add_argument("--mirror", default=None, metavar="DIR",
                      help="directory the --url package is mirrored into "
                           "(default: a fresh temporary directory)")
    play.add_argument("--timeout", type=float, default=5.0, metavar="S",
                      help="per-read stall budget for --url downloads "
                           "(default 5s)")
    play.add_argument("--reference", default=None,
                      help="original video .npz for quality scoring")
    play.add_argument("--fail-rate", type=float, default=0.0,
                      help="injected per-download failure probability "
                           "(simulated network; 0 disables)")
    play.add_argument("--latency", type=float, default=0.0,
                      help="simulated per-request latency in seconds")
    play.add_argument("--bandwidth", type=float, default=None,
                      help="simulated link bandwidth in bit/s "
                           "(default: instantaneous)")
    play.add_argument("--retries", type=int, default=3,
                      help="retry budget per download (with backoff)")
    play.add_argument("--fallback", action="store_true",
                      help="play segments whose model fetch fails through "
                           "a passthrough enhancer instead of raising")
    play.add_argument("--net-seed", type=int, default=0,
                      help="failure-injection RNG seed")
    play.add_argument("--tile", type=int, default=None, metavar="PX",
                      help="SR tile edge in pixels (fast path; bounds peak "
                           "memory, default whole-frame)")
    play.add_argument("--sr-threads", type=int, default=None, metavar="N",
                      help="worker threads for tiled SR (fast path; "
                           "default 1)")
    play.add_argument("--prefetch", type=int, default=None, metavar="N",
                      help="segments to download+decode ahead of SR "
                           "(fast path; default 0 = serial)")
    play.add_argument("--precision", choices=("fp32", "fp16", "int8"),
                      default=None,
                      help="SR kernel precision (fast path; quantized "
                           "kernels also shrink model downloads when the "
                           "manifest carries calibration records)")
    play.add_argument("--skip-gate", type=float, default=None,
                      metavar="VAR",
                      help="route SR tiles whose luma variance is below "
                           "VAR to bicubic upscaling (fast path; default "
                           "off = bitwise-identical output)")
    play.add_argument("--sr-batch", type=int, default=None, metavar="N",
                      help="segment pipeline threads: decode and enhance "
                           "N segments concurrently, each on its own "
                           "decoder and SR engine (fast path; default 1)")
    play.add_argument("--reuse", action="store_true",
                      help="temporal tile reuse: emit the previous "
                           "frame's SR output for tiles whose decoded "
                           "content did not change (fast path; "
                           "bitwise-identical output)")
    play.add_argument("--sr-kernel", choices=("shift", "blocked"),
                      default=None,
                      help="conv kernel for the fast path: shift "
                           "(tap-decomposed, default) or blocked "
                           "(cache-blocked im2col GEMM)")
    play.add_argument("--controller", choices=("greedy", "fixed", "off"),
                      default="off",
                      help="joint (SR tier + precision) controller at "
                           "every segment boundary; needs --device "
                           "(default off = pre-controller path, "
                           "bitwise-identical)")
    play.add_argument("--device", default=None,
                      help="client device class for the power model: "
                           "jetson / laptop / desktop")
    play.add_argument("--power-budget", type=float, default=None,
                      metavar="WATTS",
                      help="session-average power budget the controller "
                           "must respect (default: unconstrained)")
    play.add_argument("--controller-tier", default=None, metavar="TIER",
                      help="pinned tier for --controller fixed "
                           "(e.g. dcSR-2; default: SR off)")
    play.add_argument("--trace-out", default=None, metavar="FILE",
                      help="write the session's span tree as JSON")
    play.add_argument("--metrics-out", default=None, metavar="FILE",
                      help="write the session's metrics in Prometheus "
                           "text format")

    serve = sub.add_parser(
        "serve", help="simulate a fleet of concurrent streaming sessions")
    serve.add_argument("package", help="package directory")
    serve.add_argument("--sessions", type=int, default=4,
                       help="number of viewer sessions to simulate")
    serve.add_argument("--mode", choices=("playback", "trace"),
                       default="playback",
                       help="playback = full media sessions; trace = "
                            "byte-trace replicas (thousand-session scale)")
    serve.add_argument("--arrival", default="all", metavar="SPEC",
                       help="arrival schedule: all | poisson:<rate> | "
                            "uniform:<gap-seconds>")
    serve.add_argument("--bandwidth", type=float, default=None,
                       help="shared uplink bandwidth in bit/s, split "
                            "fairly among active transfers "
                            "(default: instantaneous)")
    serve.add_argument("--latency", type=float, default=0.0,
                       help="simulated per-request latency in seconds")
    serve.add_argument("--fail-rate", type=float, default=0.0,
                       help="injected per-download failure probability")
    serve.add_argument("--retries", type=int, default=3,
                       help="retry budget per download (with backoff)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       metavar="BPS",
                       help="per-session token-bucket rate cap in bit/s "
                            "(default: uncapped)")
    serve.add_argument("--edges", type=int, default=1,
                       help="edge caches in the CDN hierarchy; sessions "
                            "shard across them by id")
    serve.add_argument("--cache-admission",
                       choices=("always", "second-hit", "size-aware"),
                       default="always",
                       help="edge cache admission policy for missed models")
    serve.add_argument("--cache-capacity", type=int, default=None,
                       metavar="N",
                       help="per-edge model cache bound (default unbounded)")
    serve.add_argument("--max-sessions", type=int, default=None, metavar="N",
                       help="admission-control concurrency limit "
                            "(default: admit everyone)")
    serve.add_argument("--admission", choices=("queue", "reject"),
                       default="queue",
                       help="what to do with arrivals over --max-sessions")
    serve.add_argument("--fallback", action="store_true",
                       help="sessions play segments whose model fetch "
                            "fails unenhanced instead of raising")
    serve.add_argument("--seed", type=int, default=0,
                       help="fleet seed (arrivals + per-session failures)")
    serve.add_argument("--reuse", action="store_true",
                       help="playback mode: enable exact temporal tile "
                            "reuse in every session's SR engine")
    serve.add_argument("--sr-demand-factor", type=float, default=1.0,
                       metavar="F",
                       help="trace mode: scale each session's modeled SR "
                            "FLOP demand by F in [0, 1] (the measured "
                            "fast-path savings from skip gate + reuse)")
    serve.add_argument("--device", default=None, metavar="LIST",
                       help="per-session device classes, cycled by "
                            "session id: e.g. 'jetson,laptop,desktop'; "
                            "enables fleet energy accounting")
    serve.add_argument("--controller", choices=("greedy", "fixed", "off"),
                       default="off",
                       help="per-session joint SR controller (needs "
                            "--device; default off)")
    serve.add_argument("--power-budget", type=float, default=None,
                       metavar="WATTS",
                       help="session-average power budget per controller")
    serve.add_argument("--controller-tier", default=None, metavar="TIER",
                       help="pinned tier for --controller fixed")
    serve.add_argument("--reference", default=None,
                       help="original video .npz for quality scoring")
    serve.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the fleet's span tree as JSON")
    serve.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the fleet's metrics in Prometheus "
                            "text format")
    serve.add_argument("--origin", default=None, metavar="URL",
                       help="playback mode: every session downloads over "
                            "real sockets from a running `serve-origin` "
                            "at URL instead of the simulated pool")

    origin = sub.add_parser(
        "serve-origin",
        help="serve a stored package over real HTTP (asyncio origin)")
    origin.add_argument("package", help="package directory to serve")
    origin.add_argument("--host", default="127.0.0.1",
                        help="listen address (default 127.0.0.1)")
    origin.add_argument("--port", type=int, default=0,
                        help="listen port (default 0 = ephemeral, printed "
                             "on startup)")

    plan = sub.add_parser("plan", help="device feasibility table")
    plan.add_argument("--device", default="jetson", type=str.lower,
                      choices=sorted(DEVICES))
    plan.add_argument("--resolution", default="1080p", type=str.lower,
                      choices=sorted(RESOLUTIONS))
    plan.add_argument("--segment-frames", type=int, default=30)
    return parser


def _cmd_generate(args) -> int:
    from .video import make_video

    clip = make_video(Path(args.out).stem, genre=args.genre, seed=args.seed,
                      size=(args.height, args.width),
                      duration_seconds=args.seconds, fps=args.fps,
                      n_distinct_scenes=args.scenes)
    np.savez_compressed(args.out, frames=clip.frames, fps=clip.fps,
                        scene_ids=clip.scene_ids, genre=clip.genre,
                        name=clip.name)
    print(f"wrote {clip.n_frames} frames "
          f"({clip.width}x{clip.height} @ {clip.fps:g} fps) to {args.out}")
    return 0


def _load_clip(path: str):
    from .video.synthetic import VideoClip

    with np.load(path, allow_pickle=False) as data:
        return VideoClip(name=str(data["name"]), genre=str(data["genre"]),
                         frames=data["frames"], fps=float(data["fps"]),
                         scene_ids=data["scene_ids"])


def _write_obs(args, obs) -> None:
    """Honor ``--trace-out`` / ``--metrics-out`` for one command's session."""
    from .obs import write_metrics, write_trace

    if args.trace_out:
        print(f"trace -> {write_trace(args.trace_out, obs)}")
    if args.metrics_out:
        print(f"metrics -> {write_metrics(args.metrics_out, obs.metrics)}")


def _cmd_prepare(args) -> int:
    from .core import ParallelConfig, ServerConfig, build_package, save_package
    from .obs import Observability
    from .sr import SrTrainConfig
    from .video.codec import CodecConfig

    clip = _load_clip(args.video)
    workers = None if args.workers == 0 else args.workers
    tiers = tuple(t.strip() for t in args.tiers.split(",") if t.strip()) \
        if args.tiers else ()
    config = ServerConfig(
        codec=CodecConfig(crf=args.crf),
        max_segment_len=args.max_segment_frames,
        sr_train=SrTrainConfig(epochs=args.epochs, steps_per_epoch=12,
                               batch_size=8, patch_size=16,
                               learning_rate=5e-3,
                               lr_decay_epochs=max(5, args.epochs // 3)),
        k_override=args.k,
        parallel=ParallelConfig(workers=workers, backend=args.backend),
        train_cache_dir=args.train_cache,
        model_tiers=tiers,
    )
    obs = Observability(root_name="prepare")
    t0 = obs.clock.now()
    package = build_package(clip, config, obs=obs)
    save_package(package, args.out)
    print(f"prepared {package.manifest.n_segments} segments, "
          f"K = {package.selection.k} micro models in "
          f"{obs.clock.now() - t0:.1f}s"
          f" -> {args.out}")
    for line in package.telemetry.summary_lines():
        print(line)
    _write_obs(args, obs)
    return 0


def _cmd_info(args) -> int:
    from .core import load_package, simulate_caching

    package = load_package(args.package)
    manifest = package.manifest
    print(f"video:    {manifest.video_name} "
          f"({manifest.width}x{manifest.height} @ {manifest.fps:g} fps, "
          f"CRF {manifest.crf})")
    print(f"frames:   {manifest.n_frames} in {manifest.n_segments} segments")
    print(f"models:   {manifest.n_models} "
          f"({manifest.total_model_bytes / 1024:.0f} KiB total)")
    print(f"video:    {package.encoded.total_bytes / 1024:.0f} KiB encoded")
    labels = manifest.label_sequence()
    _, stats = simulate_caching(labels)
    print(f"labels:   {labels}")
    print(f"caching:  {stats.downloads} downloads, {stats.hits} hits "
          f"({stats.hit_rate:.0%} hit rate)")
    if manifest.quantization:
        print("quantized checkpoints (calibrated at build time):")
        for label in sorted(manifest.quantization):
            for precision, record in sorted(
                    manifest.quantization[label].items()):
                fp32_bytes = manifest.model_sizes[label]
                print(f"  model {label} {precision}: "
                      f"{record.size_bytes / 1024:.1f} KiB "
                      f"({record.size_bytes / fp32_bytes:.2f}x of fp32), "
                      f"delta {record.delta_db:+.3f} dB")
    if manifest.has_tiers:
        print("model tiers (per cluster, calibrated at build time):")
        rows = []
        for label in sorted(manifest.tiers):
            for tier in manifest.tier_names():
                if tier not in manifest.tiers[label]:
                    continue
                for precision, record in sorted(
                        manifest.tiers[label][tier].items()):
                    rows.append([
                        str(label), tier, precision,
                        f"{record.n_resblocks}x{record.n_filters}",
                        f"{record.size_bytes / 1024:.1f}",
                        f"{record.gain_db:+.2f}",
                        f"{record.net_gain_db:+.2f}",
                    ])
        print(format_table(
            "", ["model", "tier", "precision", "blocks x filters",
                 "KiB", "gain dB", "net dB"], rows))
    return 0


def _cmd_play(args) -> int:
    from .core import (
        DcsrClient,
        FastPathConfig,
        NetworkConfig,
        RetryPolicy,
        SimulatedNetwork,
        load_package,
    )

    from .obs import Observability

    if (args.package is None) == (args.url is None):
        print("play needs exactly one source: a package directory "
              "or --url", file=sys.stderr)
        return 2
    # Only what the user typed reaches the config: its own defaults fill
    # the rest, and an explicit invalid value (``--sr-batch 0``) reaches
    # its checks instead of being mistaken for "unset" — here, before
    # anything is mirrored or downloaded.
    typed = {"tile": args.tile, "sr_threads": args.sr_threads,
             "prefetch": args.prefetch, "precision": args.precision,
             "skip_gate": args.skip_gate, "sr_batch": args.sr_batch,
             "reuse": True if args.reuse else None,
             "kernel": args.sr_kernel}
    typed = {name: value for name, value in typed.items()
             if value is not None}
    fast = FastPathConfig(**typed) if typed else None
    obs = Observability(root_name="play")
    reference = _load_clip(args.reference).frames if args.reference else None
    network = None
    if args.url is not None:
        if args.fail_rate > 0 or args.latency > 0 \
                or args.bandwidth is not None:
            print("--fail-rate/--latency/--bandwidth shape the simulated "
                  "network; with --url, faults and timing come from the "
                  "wire (put a chaos proxy in front to inject them)",
                  file=sys.stderr)
            return 2
        import tempfile

        from .net import HttpTransport, mirror_package

        network = HttpTransport(args.url, timeout_s=args.timeout)
        mirror_dir = args.mirror or tempfile.mkdtemp(prefix="dcsr-mirror-")
        package = load_package(mirror_package(network, mirror_dir))
        print(f"mirrored {args.url} -> {mirror_dir}")
    else:
        package = load_package(args.package)
        if args.fail_rate > 0 or args.latency > 0 \
                or args.bandwidth is not None:
            network = SimulatedNetwork(NetworkConfig(
                fail_rate=args.fail_rate, latency_s=args.latency,
                bandwidth_bps=args.bandwidth, seed=args.net_seed))
    controller = None
    if args.controller != "off":
        if args.device is None:
            print("--controller needs --device (the power model)",
                  file=sys.stderr)
            return 2
        from .control import build_controller
        from .devices import get_device

        controller = build_controller(
            args.controller, get_device(args.device),
            power_budget_w=args.power_budget, tier=args.controller_tier)
    client = DcsrClient(package, network=network,
                        retry=RetryPolicy(retries=args.retries),
                        fallback=args.fallback, fast_path=fast,
                        obs=obs, controller=controller)
    try:
        result = client.play(reference)
    finally:
        if args.url is not None:
            network.close()
    if controller is not None:
        tiers = [d.tier or "off" for d in controller.decisions]
        print(f"controller: {args.controller} on {args.device}, "
              f"mean power {controller.mean_power_w:.2f} W, "
              f"tiers {tiers}")
    print(f"played {len(result.frames)} frames, "
          f"{result.sr_inferences} SR inferences")
    print(f"downloaded: video {result.video_bytes / 1024:.0f} KiB + "
          f"models {result.model_bytes / 1024:.0f} KiB "
          f"(labels {result.model_downloads})")
    if result.skipped_segments:
        print(f"concealed segments: {result.skipped_segments}")
    if result.fallback_segments:
        print(f"fallback segments: {result.fallback_segments}")
    if reference is not None:
        print(f"quality: {result.mean_psnr:.2f} dB PSNR, "
              f"{result.mean_ssim:.3f} SSIM")
    for line in result.telemetry.summary_lines():
        print(line)
    _write_obs(args, client.obs)
    return 0


def _cmd_serve(args) -> int:
    from .core import load_package
    from .obs import Observability
    from .serve import FleetConfig, FleetSimulator

    package = load_package(args.package)
    reference = _load_clip(args.reference).frames if args.reference else None
    fast_path = None
    if args.reuse:
        if args.mode != "playback":
            print("--reuse configures the sessions' SR engines and needs "
                  "--mode playback (trace mode runs no SR)",
                  file=sys.stderr)
            return 2
        from .core import FastPathConfig
        fast_path = FastPathConfig(reuse=True)
    devices = tuple(d.strip() for d in args.device.split(",") if d.strip()) \
        if args.device else ()
    config = FleetConfig(
        sessions=args.sessions, mode=args.mode, arrival=args.arrival,
        bandwidth_bps=args.bandwidth, latency_s=args.latency,
        fail_rate=args.fail_rate, retries=args.retries,
        rate_limit_bps=args.rate_limit, edges=args.edges,
        cache_admission=args.cache_admission,
        cache_capacity=args.cache_capacity,
        max_sessions=args.max_sessions, admission=args.admission,
        fallback=args.fallback, seed=args.seed,
        fast_path=fast_path, sr_demand_factor=args.sr_demand_factor,
        devices=devices, controller=args.controller,
        power_budget_w=args.power_budget,
        controller_tier=args.controller_tier,
    )
    obs = Observability(root_name="serve")
    network_factory = None
    if args.origin is not None:
        if args.mode != "playback":
            print("--origin drives real downloads and needs "
                  "--mode playback", file=sys.stderr)
            return 2
        if args.fail_rate > 0 or args.latency > 0 \
                or args.bandwidth is not None or args.rate_limit is not None:
            print("--fail-rate/--latency/--bandwidth/--rate-limit shape "
                  "the simulated pool; with --origin, timing comes from "
                  "the wire", file=sys.stderr)
            return 2
        from .net import HttpTransport

        def network_factory(session_id: int, arrival_s: float):
            return HttpTransport(args.origin)
    simulator = FleetSimulator(package, config, obs=obs,
                               network_factory=network_factory)
    fleet = simulator.run(reference)
    for line in fleet.telemetry.summary_lines():
        print(line)
    if reference is not None:
        completed = fleet.completed()
        if completed:
            psnrs = [s.result.mean_psnr for s in completed]
            print(f"  quality  {float(np.mean(psnrs)):.2f} dB mean PSNR "
                  f"across sessions")
    degraded = [(s.session_id, s.result)
                for s in fleet.completed()
                if s.result.skipped_segments or s.result.fallback_segments]
    for sid, result in degraded:
        print(f"  session {sid}: concealed {result.skipped_segments}, "
              f"fallback {result.fallback_segments}")
    _write_obs(args, obs)
    return 0


def _cmd_serve_origin(args) -> int:
    import asyncio

    from .net import DcsrOrigin, OriginConfig
    from .obs import Observability

    origin = DcsrOrigin(args.package,
                        OriginConfig(host=args.host, port=args.port),
                        obs=Observability(root_name="origin"))

    async def _serve() -> None:
        await origin.start()
        print(f"dcSR origin serving {args.package} at {origin.base_url}",
              flush=True)
        await origin.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_plan(args) -> int:
    from .devices import OutOfMemory, get_device, inference_seconds, playback_fps
    from .sr import EDSR, RESOLUTIONS, big_model_config, dcsr_config

    device = get_device(args.device)
    res = RESOLUTIONS[args.resolution]
    print(f"{device.name} @ {res.name} "
          f"(segment = {args.segment_frames} frames)")
    candidates = [("NAS/NEMO", EDSR(big_model_config(res.name)))]
    for level in (1, 2, 3):
        candidates.append((f"dcSR-{level}", EDSR(dcsr_config(level, res.sr_scale))))
    rows = []
    for label, model in candidates:
        try:
            cost = inference_seconds(model, res.name, device)
            fps1 = playback_fps(model, res.name, device, args.segment_frames, 1)
            fps5 = playback_fps(model, res.name, device, args.segment_frames,
                                min(5, args.segment_frames))
            rows.append([label, f"{fps1:.1f}", f"{fps5:.1f}",
                         f"{cost.seconds * 1000:.1f}",
                         f"{cost.memory_bytes / 1e6:.0f}"])
        except OutOfMemory:
            rows.append([label, "OOM", "OOM", "-", "-"])
    print(format_table("", ["model", "FPS@1", "FPS@5", "ms/inf", "mem MB"],
                       rows))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "prepare": _cmd_prepare,
    "info": _cmd_info,
    "play": _cmd_play,
    "serve": _cmd_serve,
    "serve-origin": _cmd_serve_origin,
    "plan": _cmd_plan,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
