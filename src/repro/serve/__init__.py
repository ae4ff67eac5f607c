"""Multi-session serving layer: the fleet around the dcSR client.

Everything in this package scales the single-viewer pieces of
:mod:`repro.core` to N concurrent sessions sharing one serving substrate:

- :class:`EventLoop` / :class:`Process` — the deterministic
  discrete-event scheduler every fleet runs on (one thread, one event
  heap, ``(time, seq)`` ordering);
- :class:`SharedModelCache` / :class:`CacheSession` — one fleet-wide
  micro-model cache (locked, LRU, refcount-pinned, single-flight
  fetches);
- :class:`CacheHierarchy` / :class:`EdgeBinding` /
  :class:`HierarchySession` — per-edge caches in front of an origin
  shield, with configurable admission (:data:`ADMISSION_POLICIES`);
- :class:`SharedNetworkPool` / :class:`PooledNetwork` — one simulated
  uplink split fairly among active transfers, optionally behind
  per-session :class:`TokenBucket` rate limits;
- :class:`FleetSimulator` — N sessions (full
  :class:`~repro.core.client.DcsrClient` playback, or byte-trace
  replicas for thousand-session runs) over all of the above, with
  seeded arrivals, admission control, and fleet telemetry.

Dependencies run one way: ``repro.serve`` imports ``repro.core`` /
``repro.sr`` / ``repro.obs``; nothing below imports ``repro.serve``
(clients accept the shared pieces duck-typed).
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
    CacheSession,
    EdgeBinding,
    HierarchySession,
    HierarchyStats,
    SharedModelCache,
)

__all__ = [
    "EventLoop",
    "Process",
    "Timeout",
    "Until",
    "TokenBucket",
    "SharedModelCache",
    "CacheSession",
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
