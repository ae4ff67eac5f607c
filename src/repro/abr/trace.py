"""Network bandwidth traces for streaming simulation.

A trace is a piecewise-constant bandwidth profile.  Synthetic generators
produce the regimes ABR papers evaluate on: stable links, slow fades, and
bursty cellular-like traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NetworkTrace", "constant_trace", "step_trace", "random_walk_trace"]


@dataclass(frozen=True)
class NetworkTrace:
    """Piecewise-constant bandwidth: ``bandwidth_bps[i]`` holds during
    ``[boundaries[i], boundaries[i+1])``; the last value extends forever."""

    boundaries: np.ndarray     # (n,) start times, seconds; boundaries[0] == 0
    bandwidth_bps: np.ndarray  # (n,) bits per second

    def __post_init__(self):
        if len(self.boundaries) != len(self.bandwidth_bps):
            raise ValueError("boundaries and bandwidths must align")
        if len(self.boundaries) == 0 or self.boundaries[0] != 0.0:
            raise ValueError("trace must start at t = 0")
        if np.any(np.diff(self.boundaries) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        if np.any(self.bandwidth_bps <= 0):
            raise ValueError("bandwidth must be positive")

    def bandwidth_at(self, t: float) -> float:
        """Bits/second at time ``t`` (clamped into the trace)."""
        idx = int(np.searchsorted(self.boundaries, t, side="right") - 1)
        return float(self.bandwidth_bps[max(idx, 0)])

    def download_time(self, n_bits: float, start: float) -> float:
        """Seconds to move ``n_bits`` starting at ``start``, integrating
        across bandwidth changes."""
        if n_bits <= 0:
            return 0.0
        t = start
        remaining = float(n_bits)
        while True:
            idx = int(np.searchsorted(self.boundaries, t, side="right") - 1)
            idx = max(idx, 0)
            rate = float(self.bandwidth_bps[idx])
            if idx + 1 < len(self.boundaries):
                window = float(self.boundaries[idx + 1]) - t
                capacity = rate * window
                if capacity >= remaining:
                    return t + remaining / rate - start
                remaining -= capacity
                t = float(self.boundaries[idx + 1])
            else:
                return t + remaining / rate - start


def constant_trace(bandwidth_bps: float) -> NetworkTrace:
    return NetworkTrace(boundaries=np.array([0.0]),
                        bandwidth_bps=np.array([float(bandwidth_bps)]))


def step_trace(steps: list[tuple[float, float]]) -> NetworkTrace:
    """Trace from ``[(start_time, bandwidth_bps), ...]`` pairs."""
    if not steps:
        raise ValueError("need at least one step")
    times, rates = zip(*steps)
    return NetworkTrace(boundaries=np.array(times, dtype=np.float64),
                        bandwidth_bps=np.array(rates, dtype=np.float64))


def random_walk_trace(
    mean_bps: float, duration_s: float, seed: int = 0,
) -> NetworkTrace:
    """Bursty trace: a log-space random walk around ``mean_bps`` (steps of
    standard deviation 0.3), one rate every 2 s."""
    if mean_bps <= 0 or duration_s <= 0:
        raise ValueError("mean bandwidth and duration must be positive")
    rng = np.random.default_rng(seed)
    n = max(1, int(np.ceil(duration_s / 2.0)))
    log_rate = np.log(mean_bps) + np.cumsum(
        rng.normal(0, 0.3, size=n))
    # Re-centre so the mean stays near the requested value.
    log_rate += np.log(mean_bps) - log_rate.mean()
    return NetworkTrace(
        boundaries=np.arange(n, dtype=np.float64) * 2.0,
        bandwidth_bps=np.exp(log_rate),
    )
