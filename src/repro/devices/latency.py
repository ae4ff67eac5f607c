"""Inference-latency, playback-FPS, and memory feasibility models.

The practical FPS of Figures 8 and 12 counts both decode latency and SR
inference latency over a segment: a method that SR-infers ``k`` frames in
an ``n``-frame segment delivers

    FPS = n / (n / decode_rate + k * t_inference)

with ``t_inference`` derived from the exact model FLOPs and the device's
effective throughput.  NAS sets ``k = n`` (every frame); NEMO and dcSR set
``k`` to the number of I frames per segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import nn
from ..sr.configs import RESOLUTIONS, Resolution
from .flops import ModelProfile, trace_model
from .specs import DeviceSpec

__all__ = ["InferenceCost", "profile_at_resolution", "inference_seconds",
           "playback_fps", "OutOfMemory"]

#: Retained intermediate feature maps assumed for the inference runtime
#: (live input + output of the widest layer, plus skip/workspace overhead).
RETAINED_MAPS = 2.5

#: Fixed per-inference overhead (YUV<->RGB conversion, host<->device copy),
#: in seconds per megapixel of the *output* frame.
CONVERSION_S_PER_MPIXEL = 0.002


class OutOfMemory(RuntimeError):
    """Raised when a model's working set exceeds the device's memory."""


@dataclass(frozen=True)
class InferenceCost:
    """Cost of enhancing one frame at a given resolution."""

    profile: ModelProfile
    seconds: float
    memory_bytes: int


def profile_at_resolution(model: nn.Layer, resolution: str | Resolution) -> ModelProfile:
    """Trace ``model`` on the SR input size implied by ``resolution``.

    The SR network runs at the pre-upsampling resolution (the paper's
    models upscale x2 at 720p/1080p and x4 at 4K); a ``scale = 1`` model is
    traced at the full display resolution (pure quality enhancement).
    """
    res = RESOLUTIONS[resolution.lower()] if isinstance(resolution, str) else resolution
    scale = getattr(model, "scale", 1)
    in_h = res.height // scale
    in_w = res.width // scale
    return trace_model(model, (3, in_h, in_w))


def inference_seconds(
    model: nn.Layer, resolution: str | Resolution, device: DeviceSpec,
) -> InferenceCost:
    """Latency and memory of one SR inference; raises :class:`OutOfMemory`.

    Matches the paper's observation that NAS/NEMO's big models cannot run
    at 4K on the Jetson at all.
    """
    res = RESOLUTIONS[resolution.lower()] if isinstance(resolution, str) else resolution
    profile = profile_at_resolution(model, res)
    memory = profile.total_memory_bytes(RETAINED_MAPS)
    if memory > device.usable_memory_bytes:
        raise OutOfMemory(
            f"model working set {memory / 1e9:.2f} GB exceeds "
            f"{device.name}'s usable {device.usable_memory_bytes / 1e9:.2f} GB "
            f"at {res.name}")
    compute_s = profile.flops / device.effective_flops
    conversion_s = CONVERSION_S_PER_MPIXEL * res.pixels / 1e6
    return InferenceCost(profile=profile, seconds=compute_s + conversion_s,
                         memory_bytes=memory)


def playback_fps(
    model: nn.Layer, resolution: str | Resolution, device: DeviceSpec,
    segment_frames: int, inferences_per_segment: int,
) -> float:
    """Practical playback FPS over one segment (decode + SR inference).

    ``inferences_per_segment`` is the number of frames the method enhances
    per segment: the I-frame count for dcSR/NEMO, the full frame count for
    NAS.  Raises :class:`OutOfMemory` when the model cannot run at all.
    """
    if segment_frames < 1:
        raise ValueError("segment_frames must be >= 1")
    if not 0 <= inferences_per_segment <= segment_frames:
        raise ValueError(
            f"inferences_per_segment must be in [0, {segment_frames}]")
    res = RESOLUTIONS[resolution.lower()] if isinstance(resolution, str) else resolution
    decode_s = segment_frames / device.decode_rate(res.name)
    infer_s = 0.0
    if inferences_per_segment:
        infer_s = inferences_per_segment * inference_seconds(
            model, res, device).seconds
    return segment_frames / (decode_s + infer_s)
