"""Adaptive bitrate extension (the paper's discussion section).

Bitrate ladders measured with the real codec, network traces, classic
throughput/buffer policies, a dcSR-aware policy that budgets micro-model
downloads and targets *enhanced* quality, and a session simulator on the
playout clock every streaming session shares.
"""

from .ladder import BitrateLadder, QualityLevel, build_ladder
from .policies import (AbrPolicy, BufferAbr, DcsrAwareAbr, JointChoice,
                       ThroughputAbr)
from .simulate import (AbrSessionResult, PlayoutClock, qoe_score,
                       simulate_session)
from .trace import NetworkTrace, constant_trace, random_walk_trace, step_trace

__all__ = [
    "QualityLevel",
    "BitrateLadder",
    "build_ladder",
    "AbrPolicy",
    "ThroughputAbr",
    "BufferAbr",
    "DcsrAwareAbr",
    "JointChoice",
    "PlayoutClock",
    "AbrSessionResult",
    "simulate_session",
    "qoe_score",
    "NetworkTrace",
    "constant_trace",
    "step_trace",
    "random_walk_trace",
]
