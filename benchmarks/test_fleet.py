"""Fleet serving: cache amortization and goodput as sessions scale.

Runs the multi-session serving simulator over a 4-cluster package
(``k_override=4`` so several distinct micro models are in play) in two
regimes, all on the single-threaded discrete-event scheduler:

- **playback** fleets at sizes 1/2/4/8: full media sessions, recording
  cross-session cache hit rate versus a solo session, aggregate model
  bytes versus N× solo, goodput under a shared fair-share uplink, and
  the per-session stall CDF.  The single-session fleet is asserted
  bitwise-equal to a plain :class:`DcsrClient` on a dedicated link — the
  event-driven scheduler is not allowed to change a single pixel.
- **trace** fleets at sizes 100/1,000/5,000: byte-trace sessions through
  the same CDN cache hierarchy and network pool, recording the aggregate
  goodput and origin-offload curves that only emerge at scale.
"""

import os

import numpy as np

from benchmarks.conftest import run_once
from repro.bench import print_table, save_results
from repro.core import DcsrClient, ServerConfig, build_package
from repro.core.network import NetworkConfig, RetryPolicy, SimulatedNetwork
from repro.features import VaeTrainConfig
from repro.obs import Observability
from repro.serve import FleetConfig, FleetSimulator, SharedNetworkPool
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

FLEET_SIZES = [1, 2, 4, 8]
#: Trace-mode fleet sizes: the top one is the ISSUE's 5k-session target.
SCALE_SIZES = [100, 1000, 5000]


def _package():
    clip = make_video("fleet-bench", genre="sports", seed=13, size=(48, 64),
                      duration_seconds=4.0 if FAST else 8.0, fps=10,
                      n_distinct_scenes=4)
    epochs = 6 if FAST else 15
    config = ServerConfig(
        codec=CodecConfig(crf=48),
        max_segment_len=10,
        k_override=4,           # several distinct micro models in play
        vae_train=VaeTrainConfig(epochs=4 if FAST else 8, batch_size=4),
        sr_train=SrTrainConfig(epochs=epochs, steps_per_epoch=10,
                               batch_size=8, patch_size=16,
                               lr_decay_epochs=max(2, epochs // 2)),
        micro_config=EdsrConfig(n_resblocks=1, n_filters=4),
        validate_in_loop=False,
    )
    return clip, build_package(clip, config)


def _fleet_config(sessions):
    return FleetConfig(sessions=sessions, arrival="poisson:2.0",
                       bandwidth_bps=4e6, latency_s=0.01, seed=2)


def _scale_config(sessions):
    """Trace-mode CDN shape: sharded edges, second-hit admission, a fat
    shared pipe, light failure injection with fallback."""
    return FleetConfig(sessions=sessions, mode="trace",
                       arrival="poisson:100.0", bandwidth_bps=1e9,
                       latency_s=0.005, fail_rate=0.02, retries=3,
                       edges=8, cache_admission="second-hit",
                       fallback=True, seed=2)


def test_fleet_scaling(benchmark):
    clip, package = _package()

    def experiment():
        solo = DcsrClient(package).play()
        obs = Observability(root_name="fleet-bench")
        runs = {}
        for sessions in FLEET_SIZES:
            sim = FleetSimulator(package, _fleet_config(sessions),
                                 obs=obs if sessions == max(FLEET_SIZES)
                                 else None)
            runs[sessions] = sim.run()
        # The bitwise reference for the single-session fleet: a plain
        # client on a dedicated link with the session's derived seed.
        plain = DcsrClient(
            package,
            network=SimulatedNetwork(NetworkConfig(
                bandwidth_bps=4e6, latency_s=0.01,
                seed=SharedNetworkPool.session_seed(2, 0))),
            retry=RetryPolicy(retries=3)).play()
        scale = {}
        for sessions in SCALE_SIZES:
            sim = FleetSimulator(package, _scale_config(sessions))
            scale[sessions] = sim.run()
        return solo, runs, plain, scale, obs

    solo, runs, plain, scale, obs = run_once(benchmark, experiment)

    rows = []
    for sessions in FLEET_SIZES:
        t = runs[sessions].telemetry
        rows.append([
            sessions,
            f"{t.cache_hit_rate:.0%}",
            t.cache_downloads,
            t.total_model_bytes,
            t.total_video_bytes,
            f"{t.aggregate_goodput_bps / 1e6:.2f}",
            t.peak_network_concurrency,
        ])
    print_table(
        f"Fleet scaling ({len(package.segments)} segments, "
        f"{len(package.models)} micro models)",
        ["sessions", "hit rate", "downloads", "model B", "video B",
         "goodput Mb/s", "peak net"], rows)

    scale_rows = []
    for sessions in SCALE_SIZES:
        t = scale[sessions].telemetry
        scale_rows.append([
            sessions,
            f"{t.cache_hit_rate:.0%}",
            f"{t.origin_offload:.1%}",
            t.origin_fetches,
            f"{t.aggregate_goodput_bps / 1e6:.1f}",
            t.events_processed,
            f"{t.sim_duration_s:.1f}",
        ])
    print_table(
        "Trace-mode scale (single thread, 8 edges, second-hit admission)",
        ["sessions", "edge hits", "origin offload", "origin fetches",
         "goodput Mb/s", "events", "sim s"], scale_rows)

    biggest = runs[max(FLEET_SIZES)].telemetry
    save_results("fleet", {
        "n_segments": len(package.segments),
        "n_models": len(package.models),
        "solo": {
            "cache_hit_rate": solo.cache_stats.hit_rate,
            "model_bytes": solo.model_bytes,
            "video_bytes": solo.video_bytes,
        },
        "fleet": {
            str(sessions): {
                "cache_hit_rate": runs[sessions].telemetry.cache_hit_rate,
                "cache_downloads": runs[sessions].telemetry.cache_downloads,
                "total_model_bytes":
                    runs[sessions].telemetry.total_model_bytes,
                "total_video_bytes":
                    runs[sessions].telemetry.total_video_bytes,
                "aggregate_goodput_bps":
                    runs[sessions].telemetry.aggregate_goodput_bps,
                "mean_stall_ratio":
                    runs[sessions].telemetry.mean_stall_ratio,
                "stall_cdf": runs[sessions].telemetry.stall_cdf,
                "peak_network_concurrency":
                    runs[sessions].telemetry.peak_network_concurrency,
            } for sessions in FLEET_SIZES
        },
        # Goodput + origin-offload curves from the discrete-event trace
        # engine (one thread; sizes up to the 5k-session target).
        "scale": {
            str(sessions): {
                "cache_hit_rate": scale[sessions].telemetry.cache_hit_rate,
                "origin_offload": scale[sessions].telemetry.origin_offload,
                "origin_fetches": scale[sessions].telemetry.origin_fetches,
                "aggregate_goodput_bps":
                    scale[sessions].telemetry.aggregate_goodput_bps,
                "mean_stall_ratio":
                    scale[sessions].telemetry.mean_stall_ratio,
                "stall_cdf": scale[sessions].telemetry.stall_cdf,
                "events_processed":
                    scale[sessions].telemetry.events_processed,
                "sim_duration_s": scale[sessions].telemetry.sim_duration_s,
            } for sessions in SCALE_SIZES
        },
    }, trace=obs)  # the result file carries the 8-session span tree

    # The event-driven scheduler is invisible at N=1: frames, bytes, and
    # simulated download seconds match a plain client bitwise.
    [single] = runs[1].completed()
    assert len(single.result.frames) == len(plain.frames)
    for ours, theirs in zip(single.result.frames, plain.frames):
        assert np.array_equal(ours, theirs)
    assert single.result.model_bytes == plain.model_bytes
    assert single.result.video_bytes == plain.video_bytes
    assert (single.result.telemetry.stage_seconds["download"]
            == plain.telemetry.stage_seconds["download"])

    # Cross-session amortization: the fleet's hit rate beats a solo
    # session's, and model bytes stay (far) below N× solo — with an
    # unbounded shared cache every label is fetched exactly once.
    assert biggest.completed == max(FLEET_SIZES)
    assert biggest.cache_hit_rate > solo.cache_stats.hit_rate
    assert biggest.total_model_bytes < max(FLEET_SIZES) * solo.model_bytes
    assert biggest.total_model_bytes == solo.model_bytes
    # The stall CDF covers every session.
    assert biggest.stall_cdf[-1][1] == 1.0

    # The 5k-session target ran to completion on one thread, and the
    # origin-offload curve climbs with fleet size.
    top = scale[max(SCALE_SIZES)].telemetry
    assert top.completed == max(SCALE_SIZES) >= 5000
    assert top.events_processed >= max(SCALE_SIZES)
    offloads = [scale[s].telemetry.origin_offload for s in SCALE_SIZES]
    assert offloads == sorted(offloads)
    assert top.origin_offload > 0.95
    assert all(scale[s].telemetry.aggregate_goodput_bps > 0
               for s in SCALE_SIZES)
