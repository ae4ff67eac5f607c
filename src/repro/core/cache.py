"""Micro-model caching (Section 3.2.2, Algorithm 1, Figure 7).

The client keeps every downloaded micro model; when a later segment maps to
a model label already in the cache, no download happens.  The paper's
bandwidth numbers (§5, Fig. 10) assume each client caches its own models;
at fleet scale the same per-cluster models are requested by *every* session
playing the video, so one store shared by many sessions amortizes each
download across the fleet.  :class:`ModelCache` is that one store, for both
roles — a private client cache is a store with one session:

- **Locked**: store and counter mutations happen under one lock, so the
  accounting is exact under arbitrary thread interleaving — every request
  counts exactly one of hit / download / failed fetch.
- **Single-flight fetches**: concurrent misses on one label elect a single
  fetcher; the others wait on an event and then count a *hit* — they paid
  no bytes.  A failed fetch wakes the waiters, each of which retries (and
  may become the next fetcher), so one session's network failure is never
  charged to another.
- **Refcount pinning**: ``acquire`` pins the entry until ``release``.  LRU
  eviction only ever considers unpinned entries, so a model is never
  evicted while a session is mid-SR with it; when every entry is pinned
  the cache temporarily overflows its capacity rather than corrupt an
  in-use entry.  The optional capacity bound extends the paper's unbounded
  cache to memory-constrained clients (failure-injection tests exercise
  it).

Each playing session holds a :class:`CacheSession` view — its own fetch
(so the downloading session is the one charged network time and bytes) and
its own :class:`CacheStats` next to the store-wide aggregate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

__all__ = ["CacheStats", "ModelCache", "CacheSession", "simulate_caching"]

M = TypeVar("M")


@dataclass
class CacheStats:
    """Download/hit counters of one session, or of a whole store."""

    downloads: int = 0
    hits: int = 0
    evictions: int = 0
    failed_fetches: int = 0
    downloaded_labels: list[int] = field(default_factory=list)

    @property
    def requests(self) -> int:
        """Requests that were *served* (a failed fetch is not one)."""
        return self.downloads + self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


@dataclass
class _Entry(Generic[M]):
    model: M
    refcount: int = 0


class ModelCache(Generic[M]):
    """Thread-safe, LRU-evicting, refcount-pinning, label-keyed model cache.

    Parameters
    ----------
    fetch:
        Optional default ``label -> model``, invoked on a miss (the
        DOWNLOAD of Algorithm 1) when a caller passes no fetch of its own.
        Sessions pass theirs through :meth:`session`.
    capacity:
        Maximum cached models; ``None`` reproduces the paper's unbounded
        cache.  The bound applies to *unpinned* entries — pinned entries
        may push the cache over capacity until they are released.
    """

    def __init__(self, fetch: Callable[[int], M] | None = None,
                 capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._fetch = fetch
        self._capacity = capacity
        # Guards the store, the in-flight table and every CacheStats
        # mutation (a bare ``+= 1`` is a read-modify-write that loses
        # updates under thread contention).  The fetch itself runs outside
        # the lock (it may take simulated network time), so unrelated
        # labels never serialize on each other.
        self._lock = threading.Lock()
        self._store: "OrderedDict[int, _Entry[M]]" = OrderedDict()
        self._inflight: dict[int, threading.Event] = {}
        self.stats = CacheStats()
        #: Peak number of resident entries (pinned overflow shows up here).
        self.peak_entries = 0

    def session(self, fetch: Callable[[int], M]) -> "CacheSession[M]":
        """A per-session view bound to that session's fetch function."""
        return CacheSession(self, fetch)

    def acquire(self, label: int, fetch: Callable[[int], M] | None = None,
                stats: CacheStats | None = None,
                admit: Callable[[int], bool] | None = None) -> M:
        """Algorithm 1 body, pinning the entry: fetch on a miss, then
        return the cached model.

        Exactly one of hit / download / failed fetch is counted per call,
        into both the aggregate :attr:`stats` and the caller's per-session
        ``stats``.  The returned model stays pinned (refcount held) until
        the caller's matching :meth:`release` — unless ``admit`` (asked
        once per download, after the fetch) answers ``False``: that model
        is returned without being stored, so there is no pin to release.
        """
        return self._lookup(label, fetch, stats, admit, True)

    def get(self, label: int) -> M:
        """Unpinned read through the store's own fetch (one lock
        acquisition on a hit)."""
        return self._lookup(label, None, None, None, False)

    def release(self, label: int, stats: CacheStats | None = None) -> None:
        """Drop one pin; a fully released entry is evictable again."""
        with self._lock:
            entry = self._store.get(label)
            if entry is None or entry.refcount <= 0:
                raise ValueError(f"release of unpinned cache entry {label}")
            entry.refcount -= 1
            self._evict_over_capacity(stats)

    def refcount(self, label: int) -> int:
        with self._lock:
            entry = self._store.get(label)
            return entry.refcount if entry is not None else 0

    def __contains__(self, label: int) -> bool:
        with self._lock:
            return label in self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        """Drop every *unpinned* entry (pinned entries stay resident)."""
        with self._lock:
            for label in [lb for lb, e in self._store.items()
                          if e.refcount == 0]:
                del self._store[label]

    # ------------------------------------------------------------ internals

    def _lookup(self, label: int, fetch, stats: CacheStats | None, admit,
                pin: bool) -> M:
        fetch = fetch or self._fetch
        if fetch is None:
            raise ValueError("no fetch function (constructor or per-call)")
        while True:
            with self._lock:
                entry = self._store.get(label)
                if entry is not None:
                    if pin:
                        entry.refcount += 1
                    self._store.move_to_end(label)
                    self.stats.hits += 1
                    if stats is not None:
                        stats.hits += 1
                    return entry.model
                event = self._inflight.get(label)
                if event is None:
                    # This caller is the single fetcher for the label.
                    self._inflight[label] = threading.Event()
            if event is None:
                return self._fetch_as_leader(label, fetch, stats, admit, pin)
            # Another caller is fetching: wait, then re-check the store
            # (a hit if the fetch landed, a fresh election if it failed
            # or was not admitted).
            event.wait()

    def _fetch_as_leader(self, label: int, fetch, stats: CacheStats | None,
                         admit, pin: bool) -> M:
        every = [self.stats] if stats is None else [self.stats, stats]
        try:
            model = fetch(label)
            store = admit is None or admit(label)
        except Exception:
            # A failed fetch never counts as a download and never caches;
            # the caller may retry (or fall back) on the next request.
            # Whatever was raised, the waiters must be woken before it
            # propagates, or they would wait on this election forever.
            with self._lock:
                for s in every:
                    s.failed_fetches += 1
                self._inflight.pop(label).set()
            raise
        with self._lock:
            for s in every:
                s.downloads += 1
                s.downloaded_labels.append(label)
            if store:
                self._store[label] = _Entry(model, int(pin))
                self._evict_over_capacity(stats)
            self._inflight.pop(label).set()
        return model

    def _evict_over_capacity(self, stats: CacheStats | None) -> None:
        """LRU-evict unpinned entries down to capacity (lock held),
        counting each into the aggregate and the session that caused it.

        Pinned entries are skipped, never evicted: if everything resident
        is pinned the store stays over capacity until a release.
        """
        self.peak_entries = max(self.peak_entries, len(self._store))
        if self._capacity is None:
            return
        while len(self._store) > self._capacity:
            victim = next((lb for lb, e in self._store.items()
                           if e.refcount == 0), None)
            if victim is None:
                return
            del self._store[victim]
            self.stats.evictions += 1
            if stats is not None:
                stats.evictions += 1


class CacheSession(Generic[M]):
    """One session's view of a :class:`ModelCache`.

    The ``acquire``/``release``/``get``/``stats`` protocol the streaming
    client speaks, with per-session accounting: this session's ``stats``
    count its own hits, the downloads *it* performed and the evictions
    those caused — a model another session fetched is a hit here, which
    is exactly the cross-session amortization the fleet benchmark
    measures.
    """

    def __init__(self, store: ModelCache[M], fetch: Callable[[int], M]):
        self.store = store
        self._fetch = fetch
        self.stats = CacheStats()

    def acquire(self, label: int) -> M:
        return self.store.acquire(label, self._fetch, self.stats)

    def release(self, label: int) -> None:
        self.store.release(label, self.stats)

    def get(self, label: int) -> M:
        """Unpinned read: :meth:`acquire` immediately followed by release."""
        model = self.acquire(label)
        self.release(label)
        return model

    def __contains__(self, label: int) -> bool:
        return label in self.store


def simulate_caching(
    label_sequence: list[int], capacity: int | None = None,
) -> tuple[list[bool], CacheStats]:
    """Dry-run Algorithm 1 over a label sequence.

    Returns ``(download_flags, stats)`` where ``download_flags[i]`` says
    whether playing segment ``i`` triggered a model download — the
    walk-through of Figure 7 (labels ``0112223`` download at segments
    0, 1, 3, 6).
    """
    cache: ModelCache[int] = ModelCache(fetch=lambda label: label,
                                        capacity=capacity)
    flags = []
    for label in label_sequence:
        before = cache.stats.downloads
        cache.get(label)
        flags.append(cache.stats.downloads > before)
    return flags, cache.stats
