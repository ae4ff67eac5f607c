"""CDN cache hierarchy: edge sharding, admission policies, origin shield."""

import pytest

from repro.core import ModelCache
from repro.serve import ADMISSION_POLICIES, CacheHierarchy


def make_fetch(log=None):
    def fetch(label):
        if log is not None:
            log.append(label)
        return ("model", label)
    return fetch


class TestCacheHierarchyRouting:
    def test_sessions_shard_by_id_modulo_edges(self):
        h = CacheHierarchy(edges=3)
        assert h.edge_for(0).edge_index == 0
        assert h.edge_for(1).edge_index == 1
        assert h.edge_for(5).edge_index == 2
        assert h.edge_for(6).edge_index == 0

    def test_same_edge_sessions_share_models(self):
        h = CacheHierarchy(edges=2)
        log = []
        a = h.edge_for(0).session(make_fetch(log))
        b = h.edge_for(2).session(make_fetch(log))    # same edge as 0
        a.get(7)
        b.get(7)
        assert log == [7]                # second request was an edge hit
        assert h.stats.edge_hits == 1
        assert h.stats.requests == 2

    def test_cross_edge_miss_hits_origin_shield(self):
        h = CacheHierarchy(edges=2)
        log = []
        a = h.edge_for(0).session(make_fetch(log))
        b = h.edge_for(1).session(make_fetch(log))    # different edge
        a.get(7)
        b.get(7)
        # Both sessions paid a download over their own link, but origin
        # storage was read only once: the second pull was shielded.
        assert log == [7, 7]
        assert h.stats.edge_hits == 0
        assert h.stats.origin_fetches == 1
        assert h.stats.origin_hits == 1
        assert h.stats.origin_offload == pytest.approx(0.5)

    def test_one_edge_always_reduces_to_flat_shared_cache(self):
        # The regression anchor: edges=1 + admission=always must be
        # indistinguishable from the flat shared ModelCache the fleet
        # used before the hierarchy existed.
        flat = ModelCache()
        h = CacheHierarchy(edges=1, admission="always")
        sequence = [3, 3, 5, 3, 5, 9, 9, 3]
        flat_log, h_log = [], []
        fs = flat.session(make_fetch(flat_log))
        hs = h.edge_for(0).session(make_fetch(h_log))
        for label in sequence:
            fs.get(label)
            hs.get(label)
        assert h_log == flat_log
        assert h.stats.edge_hits == flat.stats.hits
        assert h.stats.downloads == flat.stats.downloads
        assert hs.stats.hit_rate == fs.stats.hit_rate

    def test_per_session_stats_are_private(self):
        h = CacheHierarchy(edges=1)
        a = h.edge_for(0).session(make_fetch())
        b = h.edge_for(0).session(make_fetch())
        a.get(1)
        b.get(1)
        assert a.stats.downloads == 1 and a.stats.hits == 0
        assert b.stats.downloads == 0 and b.stats.hits == 1
        assert b.stats.downloaded_labels == []


class TestAdmissionPolicies:
    def test_policy_list_is_exported(self):
        assert ADMISSION_POLICIES == ("always", "second-hit", "size-aware")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            CacheHierarchy(admission="lru2q")

    def test_second_hit_admits_only_on_repeat_request(self):
        h = CacheHierarchy(edges=1, admission="second-hit")
        s = h.edge_for(0).session(make_fetch())
        s.get(4)                        # first request: not stored
        assert h.stats.denied == 1
        assert 4 not in h.edges[0]
        s.get(4)                        # second request: stored now
        assert h.stats.admitted == 1
        assert 4 in h.edges[0]
        s.get(4)                        # third: a plain edge hit
        assert h.stats.edge_hits == 1

    def test_second_hit_still_shields_origin(self):
        h = CacheHierarchy(edges=1, admission="second-hit")
        s = h.edge_for(0).session(make_fetch())
        s.get(4)
        s.get(4)
        # Edge denied the first insert, but the origin shield held the
        # label, so storage was read exactly once.
        assert h.stats.origin_fetches == 1
        assert h.stats.origin_hits == 1

    def test_size_aware_denies_oversized_models(self):
        h = CacheHierarchy(edges=1, admission="size-aware",
                           model_sizes={1: 100, 2: 10_000})
        s = h.edge_for(0).session(make_fetch())
        s.get(1)                        # small: admitted
        s.get(2)                        # huge: kept out of the edge
        assert 1 in h.edges[0]
        assert 2 not in h.edges[0]
        assert h.stats.admitted == 1
        assert h.stats.denied == 1

    def test_size_aware_default_threshold_is_mean_size(self):
        h = CacheHierarchy(admission="size-aware",
                           model_sizes={1: 100, 2: 300})
        assert h.admit_bytes == pytest.approx(200.0)

    def test_size_aware_requires_sizes_or_threshold(self):
        with pytest.raises(ValueError, match="size-aware"):
            CacheHierarchy(admission="size-aware")

    def test_admission_never_changes_what_sessions_receive(self):
        for policy in ADMISSION_POLICIES:
            h = CacheHierarchy(edges=2, admission=policy,
                               model_sizes={i: 100 * (i + 1)
                                            for i in range(4)})
            s = h.edge_for(0).session(make_fetch())
            got = [s.get(i % 4) for i in range(8)]
            assert got == [("model", i % 4) for i in range(8)]


class TestPinningAndEviction:
    def test_acquired_model_is_pinned_at_the_edge(self):
        h = CacheHierarchy(edges=1, edge_capacity=1)
        s = h.edge_for(0).session(make_fetch())
        s.acquire(1)
        s.get(2)                        # would evict 1, but 1 is pinned
        assert 1 in h.edges[0]
        s.release(1)
        s.get(3)                        # now 1 is evictable
        assert 1 not in h.edges[0]
        assert h.evictions >= 1

    def test_denied_admission_needs_no_edge_release(self):
        h = CacheHierarchy(edges=1, admission="second-hit")
        s = h.edge_for(0).session(make_fetch())
        s.acquire(9)                    # miss, denied at the edge
        s.release(9)                    # releases the session pin only
        with pytest.raises(ValueError, match="unpinned"):
            s.release(9)

    def test_release_without_acquire_raises(self):
        h = CacheHierarchy()
        s = h.edge_for(0).session(make_fetch())
        with pytest.raises(ValueError, match="unpinned"):
            s.release(1)

    def test_eviction_between_probe_and_acquire_is_not_an_error(
            self, monkeypatch):
        """Deterministic form of the check-then-act race: the session used
        to ask ``label in edge`` and then acquire with a fetch that must
        never run, so an eviction landing between the two raised
        AssertionError.  Here every membership probe is followed by such
        an eviction; the lookup must not depend on one."""
        h = CacheHierarchy(edges=1)
        edge = h.edge_for(0)
        log = []
        s = edge.session(make_fetch(log))
        s.get(1)
        probe = type(edge).__contains__

        def probe_then_evict(self, label):
            found = probe(self, label)
            self.clear()
            return found

        monkeypatch.setattr(type(edge), "__contains__", probe_then_evict)
        assert s.acquire(1) == ("model", 1)
        s.release(1)
        assert h.stats.requests == 2
        assert h.stats.edge_hits + h.stats.downloads == 2
        assert h.stats.failed_fetches == s.stats.failed_fetches == 0

    def test_failed_fetch_counts_both_tiers(self):
        h = CacheHierarchy(edges=1)

        def failing(label):
            raise KeyError(f"missing model {label}")

        s = h.edge_for(0).session(failing)
        with pytest.raises(KeyError):
            s.acquire(1)
        assert h.stats.failed_fetches == 1
        assert s.stats.failed_fetches == 1
        assert h.stats.origin_fetches == 0      # nothing was stored


class TestHierarchyStats:
    def test_offload_and_hit_rate_empty_safe(self):
        h = CacheHierarchy()
        assert h.stats.hit_rate == 0.0
        assert h.stats.origin_offload == 0.0

    def test_offload_rises_as_fleet_warms(self):
        h = CacheHierarchy(edges=4)
        cold = []
        for sid in range(16):
            s = h.edge_for(sid).session(make_fetch())
            s.get(1)
            cold.append(h.stats.origin_offload)
        # First request reads storage (offload 0); every later request is
        # either an edge hit or shielded, so offload only climbs.
        assert cold[0] == 0.0
        assert cold == sorted(cold)
        assert cold[-1] == pytest.approx(15 / 16)
        assert h.stats.origin_fetches == 1
