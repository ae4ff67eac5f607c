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
import contextlib
import dataclasses
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
    _add_shared_flags(prep, "build", session=False)

    info = sub.add_parser("info", help="inspect a stored package")
    info.add_argument("package", help="package directory")

    # A ``play``/``serve`` flag that fills a config field is a view of it:
    # its ``dest`` is the field name and its default SUPPRESS (the
    # parser's ``argument_default``), so only what the user typed reaches
    # ``config_from_args`` and the dataclass default is the only default.
    play = sub.add_parser("play", help="stream a stored package",
                          argument_default=argparse.SUPPRESS)
    play.add_argument("package", nargs="?", default=None,
                      help="package directory (omit with --url)")
    play.add_argument("--url", default=None, metavar="URL",
                      help="mirror the package from a running "
                           "`serve-origin` and download over real sockets")
    play.add_argument("--mirror", default=None, metavar="DIR",
                      help="directory the --url package is mirrored into "
                           "(default: a fresh temporary directory, removed "
                           "after the session)")
    play.add_argument("--timeout", type=float, default=5.0, metavar="S",
                      help="per-read stall budget for --url downloads")
    play.add_argument("--net-seed", type=int, dest="seed",
                      help="failure-injection RNG seed")
    play.add_argument("--tile", type=int, metavar="PX",
                      help="SR tile edge in pixels (default whole-frame)")
    play.add_argument("--sr-threads", type=int, metavar="N",
                      help="worker threads for tiled SR")
    play.add_argument("--prefetch", type=int, metavar="N",
                      help="segments to download+decode ahead of SR")
    play.add_argument("--precision", choices=("fp32", "fp16", "int8"),
                      help="model download precision (fp16/int8 shrink "
                           "calibrated model downloads; SR runs fp32 "
                           "on the dequantized weights)")
    play.add_argument("--skip-gate", type=float, metavar="VAR",
                      help="route SR tiles whose luma variance is below "
                           "VAR to bicubic upscaling (default off)")
    play.add_argument("--sr-batch", type=int, metavar="N",
                      help="segment pipeline threads, each segment on its "
                           "own decoder and SR engine")
    play.add_argument("--sr-kernel", dest="kernel",
                      choices=("shift", "blocked"),
                      help="SR conv kernel: tap-decomposed shift or "
                           "cache-blocked im2col GEMM")
    play.add_argument("--reuse", action="store_true",
                      help="replay the previous frame's SR output for "
                           "unchanged tiles (bitwise-identical)")
    play.add_argument("--device", default=None,
                      help="device power model: jetson / laptop / desktop")
    _add_shared_flags(play, "session")

    serve = sub.add_parser(
        "serve", help="simulate a fleet of concurrent streaming sessions",
        argument_default=argparse.SUPPRESS)
    serve.add_argument("package", help="package directory")
    serve.add_argument("--sessions", type=int,
                       help="number of viewer sessions to simulate")
    serve.add_argument("--mode", choices=("playback", "trace"),
                       help="full media sessions or byte-trace replicas")
    serve.add_argument("--arrival", metavar="SPEC",
                       help="all | poisson:<rate> | uniform:<gap-seconds>")
    serve.add_argument("--rate-limit", type=float, dest="rate_limit_bps",
                       metavar="BPS", help="per-session token-bucket cap")
    serve.add_argument("--edges", type=int,
                       help="edge caches; sessions shard across them by id")
    serve.add_argument("--cache-admission",
                       choices=("always", "second-hit", "size-aware"),
                       help="edge cache admission policy for missed models")
    serve.add_argument("--cache-capacity", type=int, metavar="N",
                       help="per-edge model cache bound (default unbounded)")
    serve.add_argument("--seed", type=int,
                       help="fleet seed (arrivals + per-session failures)")
    serve.add_argument("--device", dest="devices", metavar="LIST",
                       type=lambda text: tuple(
                           name.strip() for name in text.split(",")
                           if name.strip()),
                       help="device classes cycled by session id, e.g. "
                            "'jetson,laptop,desktop'")
    serve.add_argument("--origin", default=None, metavar="URL",
                       help="playback mode: download over real sockets "
                            "from a running `serve-origin`")
    _add_shared_flags(serve, "fleet")

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


def _add_shared_flags(parser, scope: str, session: bool = True) -> None:
    """Declare the flags ``play`` and ``serve`` share on ``parser``, or
    with ``session=False`` only the two exports ``prepare`` takes too;
    ``scope`` names what the exports describe."""
    add = parser.add_argument
    if session:
        add("--reference", default=None,
            help="original video .npz for quality scoring")
        add("--fail-rate", type=float,
            help="injected per-download failure probability")
        add("--latency", type=float, dest="latency_s", metavar="S",
            help="simulated per-request latency in seconds")
        add("--bandwidth", type=float, dest="bandwidth_bps", metavar="BPS",
            help="simulated link bandwidth in bit/s (default instantaneous)")
        add("--retries", type=int, help="retry budget per download")
        add("--fallback", action="store_true",
            help="play segments whose model fetch fails unenhanced")
        add("--controller", choices=("greedy", "fixed", "off"),
            help="joint SR tier + precision controller; needs --device")
        add("--power-budget", type=float, dest="power_budget_w",
            metavar="WATTS", help="session-average controller power budget")
        add("--controller-tier", metavar="TIER",
            help="pinned tier for --controller fixed (default: SR off)")
    add("--trace-out", default=None, metavar="FILE",
        help=f"write the {scope}'s span tree as JSON")
    add("--metrics-out", default=None, metavar="FILE",
        help=f"write the {scope}'s metrics in Prometheus text format")


def config_from_args(cls, args, **fields):
    """A ``cls`` from the flags the user typed plus ``fields``, or ``None``
    when there are neither.  An untyped flag is absent from ``args``, so
    the dataclass default fills it, and an explicit invalid value
    (``--sr-batch 0``) reaches the config's own check."""
    fields.update((field.name, getattr(args, field.name))
                  for field in dataclasses.fields(cls) if field.name in args)
    return cls(**fields) if fields else None


def _shapes_link(config) -> bool:
    """Whether a ``NetworkConfig`` or ``FleetConfig`` (or ``None``) sets a
    simulated-link field off its dataclass default."""
    if config is None:
        return False
    default = type(config)()
    return any(getattr(config, name, None) != getattr(default, name, None)
               for name in ("fail_rate", "latency_s", "bandwidth_bps",
                            "rate_limit_bps"))


def _usage_error(args, exc) -> int:
    """Report a rejected flag value or combination the way argparse
    reports a malformed flag: on stderr, rc 2."""
    print(f"repro-dcsr {args.command}: error: {exc}", file=sys.stderr)
    return 2


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
    from .control import build_controller
    from .core import (
        DcsrClient,
        FastPathConfig,
        NetworkConfig,
        RetryPolicy,
        SimulatedNetwork,
        load_package,
    )
    from .devices import get_device
    from .obs import Observability

    # Every config is built, the controller included, before anything is
    # loaded, mirrored or downloaded.
    try:
        if (args.package is None) == (args.url is None):
            raise ValueError("play needs exactly one source: a package "
                             "directory or --url")
        fast = config_from_args(FastPathConfig, args)
        link = config_from_args(NetworkConfig, args)
        retry = config_from_args(RetryPolicy, args) or RetryPolicy()
        if args.url is not None and _shapes_link(link):
            raise ValueError(
                "--fail-rate/--latency/--bandwidth shape the simulated "
                "network; with --url, faults and timing come from the wire "
                "(put a chaos proxy in front to inject them)")
        controller = None
        if "controller" in args and args.controller != "off":
            if args.device is None:
                raise ValueError("--controller needs --device "
                                 "(the power model)")
            controller = build_controller(
                args.controller, get_device(args.device),
                power_budget_w=getattr(args, "power_budget_w", None),
                tier=getattr(args, "controller_tier", None))
        if fast is not None:
            fast.validate(controller)
    except (ValueError, TypeError) as exc:
        return _usage_error(args, exc)
    obs = Observability(root_name="play")
    reference = _load_clip(args.reference).frames if args.reference else None
    with contextlib.ExitStack() as cleanup:
        if args.url is not None:
            import shutil
            import tempfile

            from .net import HttpTransport, mirror_package

            network = HttpTransport(args.url, timeout_s=args.timeout)
            cleanup.callback(network.close)
            mirror_dir, note = args.mirror, ""
            if mirror_dir is None:      # ours: removed after the session
                mirror_dir = tempfile.mkdtemp(prefix="dcsr-mirror-")
                cleanup.callback(shutil.rmtree, mirror_dir,
                                 ignore_errors=True)
                note = " (temporary, removed after the session)"
            package = load_package(mirror_package(network, mirror_dir))
            print(f"mirrored {args.url} -> {mirror_dir}{note}")
        else:
            package = load_package(args.package)
            network = SimulatedNetwork(link) if _shapes_link(link) else None
        client = DcsrClient(package, network=network, retry=retry,
                            fallback="fallback" in args, fast_path=fast,
                            obs=obs, controller=controller)
        result = client.play(reference)
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

    try:
        config = config_from_args(FleetConfig, args) or FleetConfig()
        if args.origin is not None and config.mode != "playback":
            raise ValueError("--origin drives real downloads and needs "
                             "--mode playback")
        if args.origin is not None and _shapes_link(config):
            raise ValueError(
                "--fail-rate/--latency/--bandwidth/--rate-limit shape the "
                "simulated pool; with --origin, timing comes from the wire")
    except (ValueError, TypeError) as exc:
        return _usage_error(args, exc)
    package = load_package(args.package)
    reference = _load_clip(args.reference).frames if args.reference else None
    obs = Observability(root_name="serve")
    network_factory = None
    if args.origin is not None:
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
