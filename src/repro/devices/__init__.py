"""Analytic device substrate: FLOPs tracing, latency/memory, and power."""

from .flops import ModelProfile, model_forward_flops, trace_model
from .latency import (
    CONVERSION_S_PER_MPIXEL,
    RETAINED_MAPS,
    InferenceCost,
    OutOfMemory,
    inference_seconds,
    playback_fps,
    profile_at_resolution,
)
from .power import (
    PowerTimeline,
    playback_power_schedule,
    simulate_power,
    sr_power_draw,
)
from .specs import DEVICES, DeviceSpec, get_device

__all__ = [
    "ModelProfile",
    "trace_model",
    "model_forward_flops",
    "InferenceCost",
    "OutOfMemory",
    "inference_seconds",
    "profile_at_resolution",
    "playback_fps",
    "RETAINED_MAPS",
    "CONVERSION_S_PER_MPIXEL",
    "PowerTimeline",
    "sr_power_draw",
    "simulate_power",
    "playback_power_schedule",
    "DeviceSpec",
    "DEVICES",
    "get_device",
]
