"""Seeded inputs: clips, packages, failure schedules.

Scene content (palette, objects, camera motion) comes from a *fixed* scene
seed per workload, because decode cost follows content: across scene seeds
1-5 the same workload's frame rate moved by +-5% (news) to +-10% (sports),
which is the whole regression bound.  What ``--seed`` drives is everything
that must not be memoisable across runs without changing the cost profile:
a fixed-pattern noise field added to every frame (so bitstreams, models and
output frames differ per seed), the download failure schedule, the fleet's
arrival and failure streams, the origin blob and the request order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core import (
    NetworkConfig,
    RetryPolicy,
    ServerConfig,
    build_package,
)
from repro.features import VaeTrainConfig
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import VideoClip, make_video
from repro.video.codec import CodecConfig

#: Amplitude of the seeded fixed-pattern noise (one 8-bit code value).
NOISE_SIGMA = 1.0 / 255.0

FULL_SIZE = (352, 640)
QUICK_SIZE = (48, 64)


@dataclass(frozen=True)
class ClipSpec:
    """One synthetic clip: ``make_video`` arguments minus the run seed."""

    genre: str
    scene_seed: int
    n_frames: int
    size: tuple[int, int] = FULL_SIZE
    fps: float = 10.0
    # ``make_video(..., n_distinct_scenes=1)`` raises from
    # ``scene_schedule`` once the first shot ends, so 2 is the floor.
    n_distinct_scenes: int = 2


def render_clip(spec: ClipSpec, seed: int, name: str) -> VideoClip:
    """Render the clip's scenes, then add the run seed's noise field.

    The field is constant over time (sensor fixed-pattern noise), so a
    static camera stays static for the codec.
    """
    clip = make_video(name, genre=spec.genre, seed=spec.scene_seed,
                      size=spec.size,
                      duration_seconds=spec.n_frames / spec.fps,
                      fps=spec.fps, n_distinct_scenes=spec.n_distinct_scenes)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, NOISE_SIGMA, size=clip.frames.shape[1:])
    clip.frames = np.clip(clip.frames + noise.astype(np.float32)[None],
                          0.0, 1.0).astype(np.float32)
    return clip


@dataclass(frozen=True)
class PackageSpec:
    """Server-side build settings of one workload's package.

    Training is cut to a few steps: the benchmark times the pipeline, and
    quality enters only as a regression metric, so the models need to be
    real (trained, quantised, calibrated) but not good.
    """

    clip: ClipSpec
    max_segment_len: int
    micro: tuple[int, int]                      # (resblocks, filters)
    k_override: int | None = None
    crf: int = 45
    quantize: tuple[str, ...] = ()

    def server_config(self) -> ServerConfig:
        return ServerConfig(
            codec=CodecConfig(crf=self.crf),
            max_segment_len=self.max_segment_len,
            k_override=self.k_override,
            vae_train=VaeTrainConfig(epochs=2, batch_size=4),
            sr_train=SrTrainConfig(epochs=2, steps_per_epoch=4, batch_size=4,
                                   patch_size=16, lr_decay_epochs=2),
            micro_config=EdsrConfig(n_resblocks=self.micro[0],
                                    n_filters=self.micro[1]),
            validate_in_loop=False,
            quantize_precisions=self.quantize,
        )


def build(spec: PackageSpec, seed: int, name: str):
    """One full set-up: render the clip and run the server pipeline."""
    clip = render_clip(spec.clip, seed, name)
    return clip, build_package(clip, spec.server_config())


def quick(spec: PackageSpec) -> PackageSpec:
    """The same package at smoke-test size (48x64)."""
    return replace(spec, clip=replace(spec.clip, size=QUICK_SIZE))


#: The ``benchmarks/test_fleet.py`` package, shared by the fleet and origin
#: workloads: four clusters, so several distinct micro models are in play.
#: It already is smoke-test sized, so quick mode leaves it alone.
SMALL_PACKAGE = PackageSpec(
    clip=ClipSpec(genre="sports", scene_seed=13, n_frames=40,
                  size=QUICK_SIZE, n_distinct_scenes=4),
    max_segment_len=10, micro=(1, 4), k_override=4, crf=48)


# --------------------------------------------------------------- network

#: The constrained link of ``play_pan`` and ``play_cuts``.
THROTTLED = NetworkConfig(bandwidth_bps=2e6, latency_s=0.02)
RETRY = RetryPolicy(retries=2, backoff_s=0.01)


def retry_schedule(seed: int) -> list[bool]:
    """Failure schedule of a two-segment, one-model session: exactly two
    failed attempts, never consecutive, each recovered by one retry.

    The seed picks whether the model or the first segment fails first; the
    second segment always fails once.  The count is fixed so the simulated
    seconds a session is charged do not depend on the seed.
    """
    # Attempt order: model [retry] segment0 [retry] segment1 retry.
    schedule = [False, False, False, True, False]
    schedule[seed % 2] = True
    return schedule


