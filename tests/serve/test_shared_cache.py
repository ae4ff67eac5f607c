"""Concurrency hammer (a stress test) for the shared model cache.

16 threads run mixed acquire/release/get/clear schedules (seeded, so every
run replays the same per-thread request sequence even though the OS
interleaving differs) against one shared :class:`repro.core.cache.ModelCache`
— flat, and as one bounded edge of a :class:`repro.serve.CacheHierarchy`.
The invariants under test are exactly the ones a lost update would break:

- every request is accounted once: ``hits + downloads == requests`` on the
  aggregate stats, and the per-session stats sum to the aggregate;
- the fetch function runs exactly ``downloads`` times (single-flight:
  concurrent misses on one label trigger one fetch);
- pinned entries are never evicted, no matter the capacity pressure;
- a failed fetch is charged to exactly one caller and never caches.

The same file regression-tests the counter accounting of a store used
directly through its own fetch, whose bare ``failed_fetches += 1`` used to
lose updates under thread contention.
"""

import random
import sys
import threading

import pytest

from repro.core.cache import ModelCache
from repro.serve import CacheHierarchy

N_THREADS = 16


def _run_threads(n, target):
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(t):
        try:
            barrier.wait()
            target(t)
        except BaseException as exc:   # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(t,))
               for t in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _hammer_mixed_schedule(cache, capacity):
    """Every thread drives its own session of ``cache`` through a seeded
    acquire/release/get schedule; returns the sessions and the fetch log."""
    fetch_log = []
    log_lock = threading.Lock()

    def fetch(label):
        with log_lock:
            fetch_log.append(label)
        return f"model-{label}"

    sessions = [cache.session(fetch) for _ in range(N_THREADS)]
    per_thread = 200
    schedules = [
        [random.Random(1000 + t).randrange(12) for _ in range(per_thread)]
        for t in range(N_THREADS)
    ]

    def worker(t):
        session = sessions[t]
        for i, label in enumerate(schedules[t]):
            if i % 3 == 0:
                model = session.acquire(label)
                assert model == f"model-{label}"
                # Pinned by this thread: no pressure may evict it.
                assert label in session
                session.release(label)
            else:
                assert session.get(label) == f"model-{label}"

    # A short switch interval forces interleavings inside the cache's
    # unlocked windows (between lookup, fetch and release).
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_threads(N_THREADS, worker)
    finally:
        sys.setswitchinterval(interval)

    agg = cache.stats
    requests = N_THREADS * per_thread
    assert agg.hits + agg.downloads == requests
    assert agg.failed_fetches == 0
    assert agg.downloads == len(fetch_log)
    assert sorted(agg.downloaded_labels) == sorted(fetch_log)
    # Per-session stats partition the aggregate exactly.
    assert sum(s.stats.hits for s in sessions) == agg.hits
    assert sum(s.stats.downloads for s in sessions) == agg.downloads
    assert sum(s.stats.requests for s in sessions) == requests
    assert sum(s.stats.evictions for s in sessions) == agg.evictions
    assert len(cache) <= capacity
    return requests


class TestSharedCacheHammer:
    def test_mixed_schedule_accounting_is_exact(self):
        _hammer_mixed_schedule(ModelCache(capacity=4), capacity=4)

    def test_mixed_schedule_accounting_is_exact_on_a_hierarchy_edge(self):
        # The same hammer through HierarchySession views of one bounded
        # edge.  The hierarchy used to test ``label in edge`` and then
        # acquire with a fetch that must never run; a release evicting
        # the label in between raised AssertionError.  Routed through the
        # store's one locked lookup there is no such window.
        h = CacheHierarchy(edges=1, edge_capacity=4)
        requests = _hammer_mixed_schedule(h.edge_for(0), capacity=4)
        stats = h.stats
        assert stats.requests == requests
        assert stats.edge_hits + stats.downloads == requests
        assert stats.admitted == stats.downloads and stats.denied == 0
        assert stats.failed_fetches == 0

    def test_single_flight_concurrent_misses_fetch_once(self):
        started = threading.Barrier(N_THREADS)
        release_fetch = threading.Event()
        calls = []

        def fetch(label):
            calls.append(label)
            release_fetch.wait(5.0)
            return "m"

        cache = ModelCache(fetch=fetch)

        def worker(t):
            started.wait()
            if t == 0:
                # Give every other thread a chance to pile onto the label
                # before the leader's fetch completes.
                release_fetch.set()
            assert cache.get(7) == "m"

        _run_threads(N_THREADS, worker)
        assert calls == [7]
        assert cache.stats.downloads == 1
        assert cache.stats.hits == N_THREADS - 1

    def test_pinned_entries_survive_capacity_pressure(self):
        cache = ModelCache(fetch=lambda label: label * 10, capacity=1)
        assert cache.acquire(0) == 0        # pinned by this test

        def worker(t):
            for label in range(1, 6):
                assert cache.get(label) == label * 10
                # The pinned label must still be resident mid-pressure.
                assert 0 in cache

        _run_threads(N_THREADS, worker)
        assert 0 in cache
        assert cache.refcount(0) == 1
        assert cache.peak_entries >= 2      # pinned overflow happened
        cache.release(0)
        assert cache.refcount(0) == 0
        # Once unpinned, ordinary pressure may finally evict it.
        cache.get(99)
        assert len(cache) == 1

    def test_failed_fetch_charges_one_caller_and_wakes_waiters(self):
        lock = threading.Lock()
        remaining_failures = [3]

        def fetch(label):
            with lock:
                if remaining_failures[0] > 0:
                    remaining_failures[0] -= 1
                    raise ConnectionError("injected")
            return "m"

        cache = ModelCache(fetch=fetch)
        outcomes = []

        def worker(t):
            try:
                model = cache.get(5)
            except ConnectionError:
                outcomes.append("failed")
            else:
                assert model == "m"
                outcomes.append("ok")

        _run_threads(N_THREADS, worker)
        # Each failed fetch propagates to exactly one caller; everyone
        # else retries until the fetch lands, then hits.
        assert outcomes.count("failed") == 3
        assert outcomes.count("ok") == N_THREADS - 3
        assert cache.stats.failed_fetches == 3
        assert cache.stats.downloads == 1
        assert cache.stats.hits == N_THREADS - 4
        assert cache.stats.hits + cache.stats.downloads \
            + cache.stats.failed_fetches == N_THREADS

    def test_release_of_unpinned_entry_raises(self):
        cache = ModelCache(fetch=lambda label: label)
        cache.get(1)                        # acquire+release, refcount back to 0
        with pytest.raises(ValueError, match="unpinned"):
            cache.release(1)
        with pytest.raises(ValueError, match="unpinned"):
            cache.release(42)               # never resident

    def test_clear_keeps_pinned_entries(self):
        cache = ModelCache(fetch=lambda label: label)
        cache.acquire(1)
        cache.get(2)
        cache.clear()
        assert 1 in cache and 2 not in cache
        cache.release(1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ModelCache(capacity=0)
        with pytest.raises(ValueError, match="fetch"):
            ModelCache().get(0)


class TestModelCacheAccountingUnderThreads:
    """A store driven directly (no sessions) must not lose updates either."""

    def test_failed_fetch_counter_is_exact(self):
        def fetch(label):
            raise ConnectionError("always fails")

        cache = ModelCache(fetch=fetch)
        per_thread = 300

        def worker(t):
            for _ in range(per_thread):
                with pytest.raises(ConnectionError):
                    cache.get(0)

        _run_threads(N_THREADS, worker)
        assert cache.stats.failed_fetches == N_THREADS * per_thread
        assert cache.stats.downloads == 0
        assert cache.stats.hits == 0

    def test_hit_and_download_counters_sum_to_requests(self):
        cache = ModelCache(fetch=lambda label: label)
        per_thread = 300

        def worker(t):
            rng = random.Random(2000 + t)
            for _ in range(per_thread):
                cache.get(rng.randrange(8))

        _run_threads(N_THREADS, worker)
        stats = cache.stats
        assert stats.hits + stats.downloads == N_THREADS * per_thread
        # Every download must be accounted.
        assert stats.downloads == len(stats.downloaded_labels)
        assert stats.downloads >= 8
