"""Streaming and bandwidth accounting (Figure 10) plus playback timing.

Total network usage of a method is its video bytes plus whatever model
bytes it downloads: one big model for NAS/NEMO, the cached micro-model set
for dcSR, nothing for LOW.  The figure normalises against NAS.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices import DeviceSpec, inference_seconds, sr_power_draw
from ..devices.power import PowerTimeline, playback_power_schedule, simulate_power
from ..sr.edsr import EDSR
from .client import PlaybackResult, PlaybackTelemetry

__all__ = ["BandwidthUsage", "bandwidth_of", "normalized_usage",
           "session_goodput_bps", "session_power", "stall_ratio",
           "startup_delay", "startup_comparison"]


@dataclass(frozen=True)
class BandwidthUsage:
    """Bytes moved for one playback session."""

    method: str
    video_bytes: int
    model_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.video_bytes + self.model_bytes


def bandwidth_of(method: str, result: PlaybackResult) -> BandwidthUsage:
    return BandwidthUsage(method=method, video_bytes=result.video_bytes,
                          model_bytes=result.model_bytes)


def normalized_usage(usages: dict[str, BandwidthUsage],
                     reference: str = "NAS") -> dict[str, float]:
    """Figure 10's Y axis: total bytes relative to the reference method."""
    if reference not in usages:
        raise KeyError(f"reference method {reference!r} not in usages")
    ref = usages[reference].total_bytes
    if ref <= 0:
        raise ValueError("reference usage must be positive")
    return {name: usage.total_bytes / ref for name, usage in usages.items()}


def startup_delay(
    bandwidth_bps: float, first_segment_bytes: int, upfront_model_bytes: int,
) -> float:
    """Seconds before playback can start at a constant bandwidth.

    NAS/NEMO must download the whole big model *before* the first frame can
    be enhanced (Section 2.2: "the model needs to be downloaded in the
    beginning of the streaming"); dcSR only needs the first segment's micro
    model.  Both need the first segment itself.
    """
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth must be positive")
    return 8.0 * (first_segment_bytes + upfront_model_bytes) / bandwidth_bps


def startup_comparison(package, big_model_bytes: int,
                       bandwidth_bps: float,
                       precision: str = "fp32") -> dict[str, float]:
    """Startup delay of each method for one package at a given bandwidth.

    ``precision`` sizes the first micro model a dcSR client downloads:
    when the manifest carries a calibrated quantization record for it,
    the smaller quantized checkpoint shortens dcSR's startup (NAS/NEMO
    still ship their fp32 big model).
    """
    first_segment = package.encoded.segments[0].n_bytes
    first_label = package.manifest.label_sequence()[0]
    first_micro = package.manifest.model_size_for(first_label, precision)
    return {
        "NAS": startup_delay(bandwidth_bps, first_segment, big_model_bytes),
        "NEMO": startup_delay(bandwidth_bps, first_segment, big_model_bytes),
        "dcSR": startup_delay(bandwidth_bps, first_segment, first_micro),
        "LOW": startup_delay(bandwidth_bps, first_segment, 0),
    }


def stall_ratio(telemetry: PlaybackTelemetry) -> float:
    """Fraction of the viewing session spent stalled.

    Media time is what the playout clock owes the viewer
    (frames / native fps); stalls extend the session beyond it.
    """
    n_frames = sum(seg.n_frames for seg in telemetry.segments)
    media_s = n_frames / telemetry.native_fps if telemetry.native_fps > 0 else 0.0
    session_s = media_s + telemetry.stall_seconds
    if session_s <= 0:
        return 0.0
    return telemetry.stall_seconds / session_s


def session_goodput_bps(result: PlaybackResult) -> float:
    """Delivered payload bits per second of time spent downloading.

    Failed attempts burn download time without delivering bytes, so
    injected loss shows up directly as a goodput drop.
    """
    if result.telemetry is None:
        raise ValueError("result carries no telemetry")
    download_s = result.telemetry.stage_seconds.get("download", 0.0)
    if download_s <= 0:
        return 0.0
    return 8.0 * (result.video_bytes + result.model_bytes) / download_s


def session_power(
    device: DeviceSpec, model: EDSR, resolution: str,
    segment_durations_s: list[float], inferences_per_segment: int,
    continuous: bool = False,
) -> PowerTimeline:
    """Power trace of one playback session (Figure 8(d)).

    ``continuous=True`` models NAS: the accelerator runs SR for the whole
    session.  Otherwise inference bursts fire at each segment start
    (NEMO / dcSR).
    """
    total = float(sum(segment_durations_s))
    cost = inference_seconds(model, resolution, device)
    watts = sr_power_draw(device, cost.profile.flops, cost.seconds)
    if continuous:
        intervals = [(0.0, total)]
    else:
        intervals = playback_power_schedule(
            segment_durations_s, inferences_per_segment, cost.seconds)
    return simulate_power(device, total, intervals, watts)
