"""Per-segment energy accounting for the joint controller.

Candidate SR configurations are costed with the same device power model
playback telemetry uses (:func:`repro.devices.sr_power_draw` +
:func:`repro.devices.simulate_power`), so the controller's predicted
joules and the client's realized joules come from one model and the
feedback loop cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices import (DeviceSpec, playback_power_schedule, simulate_power,
                       sr_power_draw)

__all__ = ["SegmentEnergy", "segment_energy"]


@dataclass(frozen=True)
class SegmentEnergy:
    """Energy breakdown of one segment under one SR configuration."""

    energy_j: float        # total rail energy over the segment
    baseline_j: float      # idle + decode floor (SR off)
    infer_seconds: float   # latency of one inference
    sr_watts: float        # instantaneous draw while inferring

    @property
    def sr_j(self) -> float:
        """Energy attributable to SR on top of the decode baseline."""
        return max(0.0, self.energy_j - self.baseline_j)


def segment_energy(
    device: DeviceSpec, segment_seconds: float,
    flops_per_inference: float = 0.0, n_inferences: int = 0,
) -> SegmentEnergy:
    """Rail energy of playing one segment on ``device``.

    ``flops_per_inference`` / ``n_inferences`` describe the SR work the
    segment triggers (zero for SR off).  The timeline is sampled exactly
    like :func:`repro.devices.simulate_power`, so repeated calls are
    bit-identical for the same inputs.
    """
    if segment_seconds <= 0:
        raise ValueError("segment_seconds must be positive")
    if n_inferences < 0:
        raise ValueError("n_inferences must be non-negative")
    baseline = (device.power_idle_w + device.power_decode_w) * segment_seconds
    if n_inferences == 0 or flops_per_inference <= 0:
        return SegmentEnergy(energy_j=baseline, baseline_j=baseline,
                             infer_seconds=0.0, sr_watts=0.0)
    infer_s = flops_per_inference / device.effective_flops
    watts = sr_power_draw(device, flops_per_inference, infer_s)
    intervals = playback_power_schedule([segment_seconds], n_inferences,
                                        infer_s)
    timeline = simulate_power(device, segment_seconds, intervals, watts)
    return SegmentEnergy(energy_j=timeline.energy_joules, baseline_j=baseline,
                         infer_seconds=infer_s, sr_watts=watts)
