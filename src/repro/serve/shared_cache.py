"""Two-tier CDN cache hierarchy: per-edge model caches, one origin shield.

:class:`CacheHierarchy` composes :class:`~repro.core.cache.ModelCache`
stores into a CDN shape for the discrete-event fleet: one store per edge
(sessions shard across them by id) in front of an origin shield, with
configurable edge admission (:data:`ADMISSION_POLICIES`) and an
origin-offload metric.  Algorithm 1 itself — hit / download / failed-fetch
counting, pinning, LRU eviction, the single-flight election — lives only
in ``ModelCache``; this module adds what a hierarchy alone knows: which
edge serves a session, how often an edge saw a label, whether an
edge-missed model is stored, and whether origin storage was read.

Each edge is an :class:`EdgeBinding` — a ``ModelCache`` whose
:meth:`~EdgeBinding.session` hands out :class:`HierarchySession` views, so
the client is given its edge as an ordinary ``model_cache`` and never
learns the hierarchy exists.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Generic, TypeVar

from ..core.cache import CacheSession, ModelCache

__all__ = [
    "ADMISSION_POLICIES",
    "HierarchyStats",
    "CacheHierarchy",
    "EdgeBinding",
    "HierarchySession",
]

M = TypeVar("M")

# --------------------------------------------------------------------------
# Two-tier CDN hierarchy: per-edge caches in front of one origin tier.

#: Accepted values of :attr:`CacheHierarchy` ``admission``.
ADMISSION_POLICIES = ("always", "second-hit", "size-aware")


@dataclass
class HierarchyStats:
    """Fleet-wide request accounting across the cache hierarchy.

    Every session request is exactly one of: an **edge hit** (served from
    the session's edge cache, zero bytes for the session), a **download**
    (edge miss — the session pays the fetch over its own link), or a
    **failed fetch**.  Downloads are further split by what the *origin*
    saw: an ``origin_hit`` means the origin shield already held
    the label (another edge pulled it earlier — no origin-storage read),
    an ``origin_fetch`` is a cold read from origin storage.
    """

    requests: int = 0
    edge_hits: int = 0
    origin_hits: int = 0
    origin_fetches: int = 0
    admitted: int = 0           # edge-miss models stored at the edge
    denied: int = 0             # edge-miss models the policy kept out
    failed_fetches: int = 0

    @property
    def downloads(self) -> int:
        return self.origin_hits + self.origin_fetches

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from an edge (session paid nothing)."""
        return self.edge_hits / self.requests if self.requests else 0.0

    @property
    def origin_offload(self) -> float:
        """Fraction of requests that never read origin storage.

        The CDN health metric: edge hits plus shield hits over all
        requests.  Rises with fleet size as edges and the shield warm up.
        """
        if not self.requests:
            return 0.0
        return 1.0 - self.origin_fetches / self.requests


class CacheHierarchy(Generic[M]):
    """Per-edge :class:`~repro.core.cache.ModelCache` tier in front of an
    origin shield.

    Sessions are sharded across ``edges`` edge caches by
    ``session_id % edges``; sessions on the same edge amortize each
    other's model downloads exactly as with one flat shared
    ``ModelCache`` (an edge hit costs the session nothing).
    An edge *miss* makes the requesting session download the model over
    its own simulated link, and the origin shield — shared by every edge
    — records whether origin storage was read (cold fetch) or the label
    was already shielded by another edge's earlier pull.  The shield only
    *accounts* for what the backbone saw, it never spares a session the
    transfer, so it is a set of labels, not a second model store.

    ``admission`` controls whether an edge-missed model is *stored* at
    the edge afterwards:

    - ``"always"`` — classic insert-on-miss (the flat-cache behaviour);
    - ``"second-hit"`` — store only on a label's second request at that
      edge, keeping one-hit wonders from evicting popular models;
    - ``"size-aware"`` — store only models no larger than
      ``admit_bytes`` (default: the mean model size), keeping a few
      oversized models from flushing a small edge.

    With ``edges=1`` and ``admission="always"`` the hierarchy reduces to
    the flat shared cache: same hits, same downloads, same bytes.

    Parameters
    ----------
    edges:
        Number of edge caches.
    edge_capacity:
        LRU bound per edge (``None`` = unbounded).
    admission:
        One of :data:`ADMISSION_POLICIES`.
    model_sizes:
        ``label -> bytes`` map (the manifest's); required semantics only
        for ``size-aware``.
    admit_bytes:
        Size-aware threshold; defaults to the mean of ``model_sizes``.
    """

    def __init__(self, edges: int = 1, edge_capacity: int | None = None,
                 admission: str = "always",
                 model_sizes: dict[int, int] | None = None,
                 admit_bytes: float | None = None):
        if edges < 1:
            raise ValueError(f"edges must be >= 1, got {edges}")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(f"admission must be one of "
                             f"{ADMISSION_POLICIES}, got {admission!r}")
        if admission == "size-aware" and not model_sizes \
                and admit_bytes is None:
            raise ValueError("size-aware admission needs model_sizes "
                             "or an explicit admit_bytes")
        self.admission = admission
        self.edges: list[EdgeBinding[M]] = [
            EdgeBinding(self, index, edge_capacity) for index in range(edges)]
        self.model_sizes = dict(model_sizes or {})
        if admit_bytes is None and self.model_sizes:
            admit_bytes = (sum(self.model_sizes.values())
                           / len(self.model_sizes))
        self.admit_bytes = admit_bytes
        self._edge_requests: list[dict[int, int]] = [
            {} for _ in range(edges)]
        self._shielded: set[int] = set()
        # Guards the request counts, the shield and ``_counts``.  An edge
        # asks for a verdict with no edge lock held, so the two locks are
        # never nested.
        self._lock = threading.Lock()
        #: What the hierarchy itself counts; :attr:`stats` adds the rest.
        self._counts = HierarchyStats()

    def edge_for(self, session_id: int) -> "EdgeBinding[M]":
        """The edge serving ``session_id`` (sharded by id modulo edges)."""
        return self.edges[session_id % len(self.edges)]

    @property
    def stats(self) -> HierarchyStats:
        """A snapshot: the hierarchy's own counters plus the edge hits and
        failed fetches that only the edge stores count."""
        edge_stats = [edge.stats for edge in self.edges]
        with self._lock:
            return replace(
                self._counts,
                edge_hits=sum(s.hits for s in edge_stats),
                failed_fetches=sum(s.failed_fetches for s in edge_stats))

    @property
    def evictions(self) -> int:
        return sum(edge.stats.evictions for edge in self.edges)

    def _note_request(self, edge_index: int, label: int) -> None:
        with self._lock:
            self._counts.requests += 1
            counts = self._edge_requests[edge_index]
            counts[label] = counts.get(label, 0) + 1

    def _admit_download(self, edge_index: int, label: int) -> bool:
        """Book one edge-missed download — shield hit or cold storage
        read — and decide whether the edge stores it."""
        counts = self._counts
        with self._lock:
            if label in self._shielded:
                counts.origin_hits += 1
            else:
                self._shielded.add(label)
                counts.origin_fetches += 1
            admitted = self._admit(edge_index, label)
            if admitted:
                counts.admitted += 1
            else:
                counts.denied += 1
        return admitted

    def _admit(self, edge_index: int, label: int) -> bool:
        """Should an edge-missed ``label`` be stored at this edge?
        (Lock held; the per-edge request count is already bumped.)"""
        if self.admission == "always":
            return True
        if self.admission == "second-hit":
            return self._edge_requests[edge_index].get(label, 0) >= 2
        size = self.model_sizes.get(label)
        return size is None or self.admit_bytes is None \
            or size <= self.admit_bytes


class EdgeBinding(ModelCache[M]):
    """One edge of a :class:`CacheHierarchy`: a ``ModelCache`` whose
    sessions are :class:`HierarchySession` views.

    It is what the fleet passes as the ``model_cache`` argument of
    :class:`~repro.core.client.DcsrClient`, so a client is handed its
    edge without knowing the hierarchy exists.
    """

    def __init__(self, hierarchy: CacheHierarchy[M], edge_index: int,
                 capacity: int | None = None):
        super().__init__(capacity=capacity)
        self.hierarchy = hierarchy
        self.edge_index = edge_index

    def session(self, fetch: Callable[[int], M]) -> "HierarchySession[M]":
        return HierarchySession(self, fetch)


class HierarchySession(CacheSession[M]):
    """One session's view of a :class:`CacheHierarchy` edge.

    A :class:`~repro.core.cache.CacheSession` of the edge store — edge
    hits, the downloads this session paid for and every pin are the
    store's — that adds the two things the hierarchy decides: each
    request is counted at its edge, and each download asks the hierarchy
    whether the edge keeps the model.
    """

    def __init__(self, edge: EdgeBinding[M], fetch: Callable[[int], M]):
        super().__init__(edge, fetch)
        #: Labels of outstanding acquires whose download the edge did not
        #: store: nothing is pinned for them, so ``release`` only forgets
        #: them.  (``append``/``remove`` are atomic; a session's workers
        #: release concurrently with its next fetch.)
        self._unstored: list[int] = []

    def acquire(self, label: int) -> M:
        edge = self.store
        edge.hierarchy._note_request(edge.edge_index, label)
        # On an edge miss this session downloads over its own link (the
        # fetch charges its simulated network and byte counters).
        return edge.acquire(label, self._fetch, self.stats, self._admit)

    def _admit(self, label: int) -> bool:
        edge = self.store
        admitted = edge.hierarchy._admit_download(edge.edge_index, label)
        if not admitted:
            self._unstored.append(label)
        return admitted

    def release(self, label: int) -> None:
        try:
            self._unstored.remove(label)
        except ValueError:
            pass
        else:
            return
        super().release(label)
