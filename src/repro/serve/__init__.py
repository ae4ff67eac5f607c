"""Multi-session serving layer: the fleet around the dcSR client.

Everything in this package scales the single-viewer pieces of
:mod:`repro.core` to N concurrent sessions sharing one serving substrate:

- :class:`EventLoop` / :class:`Process` — the deterministic
  discrete-event scheduler every fleet runs on (one thread, one event
  heap, ``(time, seq)`` ordering);
- :class:`CacheHierarchy` / :class:`EdgeBinding` /
  :class:`HierarchySession` — per-edge
  :class:`~repro.core.cache.ModelCache` stores (the client's own cache
  class: locked, LRU, refcount-pinned, single-flight fetches) in front of
  an origin shield, with configurable admission
  (:data:`ADMISSION_POLICIES`);
- :class:`SharedNetworkPool` / :class:`PooledNetwork` — one simulated
  uplink split fairly among active transfers, optionally behind
  per-session :class:`TokenBucket` rate limits;
- :class:`FleetSimulator` — N sessions (full
  :class:`~repro.core.client.DcsrClient` playback, or byte-trace
  replicas for thousand-session runs) over all of the above, with
  seeded arrivals, admission control, and fleet telemetry.

Dependencies run one way: ``repro.serve`` imports ``repro.core`` /
``repro.sr`` / ``repro.obs``; nothing below imports ``repro.serve``
(a client is handed its edge as a ``ModelCache`` and its pool session as
a :class:`~repro.core.network.Network`).
"""

from .events import EventLoop, Process, Timeout, TokenBucket, Until
from .netpool import PooledNetwork, SharedNetworkPool
from .scheduler import (
    FLEET_MODES,
    FleetConfig,
    FleetResult,
    FleetSimulator,
    FleetTelemetry,
    SessionResult,
    arrival_times,
)
from .shared_cache import (
    ADMISSION_POLICIES,
    CacheHierarchy,
    EdgeBinding,
    HierarchySession,
    HierarchyStats,
)

__all__ = [
    "EventLoop",
    "Process",
    "Timeout",
    "Until",
    "TokenBucket",
    "ADMISSION_POLICIES",
    "CacheHierarchy",
    "EdgeBinding",
    "HierarchySession",
    "HierarchyStats",
    "SharedNetworkPool",
    "PooledNetwork",
    "FLEET_MODES",
    "FleetConfig",
    "FleetResult",
    "FleetSimulator",
    "FleetTelemetry",
    "SessionResult",
    "arrival_times",
]
