"""Power-rail timeline simulation (Figure 8(d)).

A playback session is a timeline of power states: the idle+decode baseline
runs throughout; SR inference adds a draw proportional to how hard the
model loads the accelerator.  NAS infers continuously (a flat elevated
line); NEMO and dcSR infer only at I frames (periodic spikes whose width is
the inference latency) — the structure visible in the paper's plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .specs import DeviceSpec

__all__ = ["PowerTimeline", "sr_power_draw", "simulate_power",
           "playback_power_schedule"]


@dataclass
class PowerTimeline:
    """Sampled power trace plus its integral."""

    times: np.ndarray      # seconds
    watts: np.ndarray

    @property
    def energy_joules(self) -> float:
        return float(np.trapezoid(self.watts, self.times))

    @property
    def mean_watts(self) -> float:
        duration = self.times[-1] - self.times[0]
        return self.energy_joules / duration if duration > 0 else 0.0

    @property
    def peak_watts(self) -> float:
        return float(self.watts.max())


def sr_power_draw(device: DeviceSpec, model_flops_per_inference: float,
                  inference_seconds: float) -> float:
    """Instantaneous SR power draw while an inference is running.

    Utilisation is how far one inference's work fills the accelerator's
    wide units (``power_saturation_flops``): micro models with few filters
    draw near ``power_sr_min_w``, big saturating models draw
    ``power_sr_max_w`` — the paper's ~2 W dcSR spikes vs NAS's flat 2.8 W.
    """
    if inference_seconds <= 0:
        return 0.0
    utilisation = min(1.0,
                      model_flops_per_inference / device.power_saturation_flops)
    return (device.power_sr_min_w
            + (device.power_sr_max_w - device.power_sr_min_w) * utilisation)


def playback_power_schedule(
    segment_durations_s: list[float], inferences_per_segment: int,
    inference_seconds: float,
) -> list[tuple[float, float]]:
    """SR-busy intervals ``(start, duration)`` over a playback session.

    Each segment triggers ``inferences_per_segment`` back-to-back
    inferences at its start (I frames decode first).
    """
    intervals = []
    t = 0.0
    busy = inferences_per_segment * inference_seconds
    for duration in segment_durations_s:
        if busy > 0:
            intervals.append((t, min(busy, duration)))
        t += duration
    return intervals


def simulate_power(
    device: DeviceSpec, total_seconds: float,
    sr_intervals: list[tuple[float, float]], sr_watts: float,
) -> PowerTimeline:
    """Sample the power rail every 50 ms over a playback of
    ``total_seconds``."""
    if total_seconds <= 0:
        raise ValueError("total_seconds must be positive")
    n = max(2, int(round(total_seconds / 0.05)) + 1)
    times = np.linspace(0.0, total_seconds, n)
    watts = np.full(n, device.power_idle_w + device.power_decode_w)
    for start, duration in sr_intervals:
        mask = (times >= start) & (times < start + duration)
        watts[mask] += sr_watts
    return PowerTimeline(times=times, watts=watts)
