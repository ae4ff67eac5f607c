"""Joint ABR x SR control plane.

Picks the per-segment tuple (ladder rung, micro-model tier, SR on/off +
precision) against a client power budget, buffer state, and throughput
estimate.  Imports only ``repro.abr``-level-and-below layers (``devices``,
``sr``) so both the solo client and the fleet scheduler can reuse it —
never ``repro.serve`` or ``repro.cli`` (guarded by
``tests/control/test_no_upward_imports.py``).
"""

from .bridge import (LadderControllerPolicy, iframe_counts,
                     segment_iframe_count)
from .context import (SR_OFF, ControlContext, ControlDecision, SrOption,
                      tier_options)
from .controller import (CONTROLLER_NAMES, FixedController,
                         GreedyKnapsackController, JointController,
                         build_controller)
from .energy import SegmentEnergy, segment_energy

__all__ = [
    "SrOption",
    "SR_OFF",
    "ControlContext",
    "ControlDecision",
    "tier_options",
    "JointController",
    "GreedyKnapsackController",
    "FixedController",
    "CONTROLLER_NAMES",
    "build_controller",
    "SegmentEnergy",
    "segment_energy",
    "LadderControllerPolicy",
    "iframe_counts",
    "segment_iframe_count",
]
