"""Tests for the manifest and the model cache (Algorithm 1 / Figure 7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModelCache, SegmentRecord, VideoManifest, simulate_caching


def _manifest(labels=(0, 1, 1, 2), sizes=None):
    n = 10
    segments = [
        SegmentRecord(index=i, start=i * n, n_frames=n, model_label=lab)
        for i, lab in enumerate(labels)
    ]
    if sizes is None:
        sizes = {lab: 1000 + lab for lab in set(labels)}
    return VideoManifest(video_name="v", width=64, height=48, fps=30.0,
                         crf=51, segments=segments, model_sizes=sizes)


class TestManifest:
    def test_properties(self):
        m = _manifest()
        assert m.n_segments == 4
        assert m.n_models == 3
        assert m.n_frames == 40

    def test_label_lookup(self):
        m = _manifest()
        assert m.model_label_for(2) == 1
        with pytest.raises(KeyError):
            m.model_label_for(99)

    def test_label_sequence(self):
        assert _manifest().label_sequence() == [0, 1, 1, 2]

    def test_total_model_bytes(self):
        m = _manifest(sizes={0: 100, 1: 200, 2: 300})
        assert m.total_model_bytes == 600

    def test_missing_model_size_rejected(self):
        with pytest.raises(ValueError):
            _manifest(labels=(0, 5), sizes={0: 100})

    def test_gap_in_segments_rejected(self):
        segments = [SegmentRecord(index=0, start=0, n_frames=10, model_label=0),
                    SegmentRecord(index=1, start=15, n_frames=10, model_label=0)]
        with pytest.raises(ValueError):
            VideoManifest(video_name="v", width=64, height=48, fps=30.0,
                          crf=51, segments=segments, model_sizes={0: 10})

    @pytest.mark.parametrize("rows, message", [
        ([(0, 0, 5), (0, 5, 5)], "index 0"),          # duplicate index
        ([(0, 0, 5), (2, 5, 5)], "index 2"),          # index gap
        ([(1, 0, 5), (0, 5, 5)], "index 1"),          # out of order
        ([(0, 0, 5), (1, 5, 0)], "0 frames"),
        ([(0, 0, 5), (1, 5, -3)], "-3 frames"),
    ], ids=["duplicate", "gap", "order", "zero-frames", "negative-frames"])
    def test_broken_segment_tables_rejected(self, rows, message):
        """A manifest from a remote origin is input from outside: a table
        that would load one segment file twice, skip one, or hold an
        empty segment is refused."""
        segments = [SegmentRecord(index=i, start=s, n_frames=n, model_label=0)
                    for i, s, n in rows]
        with pytest.raises(ValueError, match=message):
            VideoManifest(video_name="v", width=64, height=48, fps=30.0,
                          crf=51, segments=segments, model_sizes={0: 10})


class TestModelCache:
    def test_fetch_once_per_label(self):
        fetched = []
        cache = ModelCache(fetch=lambda lab: fetched.append(lab) or lab)
        for lab in [0, 1, 1, 2, 2, 2, 3]:
            cache.get(lab)
        assert fetched == [0, 1, 2, 3]
        assert cache.stats.downloads == 4
        assert cache.stats.hits == 3

    def test_contains_and_len(self):
        cache = ModelCache(fetch=lambda lab: lab)
        cache.get(5)
        assert 5 in cache
        assert len(cache) == 1

    def test_hit_rate(self):
        cache = ModelCache(fetch=lambda lab: lab)
        for lab in [0, 0, 0, 0]:
            cache.get(lab)
        assert cache.stats.hit_rate == 0.75

    def test_lru_eviction(self):
        cache = ModelCache(fetch=lambda lab: lab, capacity=2)
        cache.get(0)
        cache.get(1)
        cache.get(2)          # evicts 0
        assert 0 not in cache
        assert cache.stats.evictions == 1
        cache.get(0)          # re-download
        assert cache.stats.downloads == 4

    def test_lru_recency_order(self):
        cache = ModelCache(fetch=lambda lab: lab, capacity=2)
        cache.get(0)
        cache.get(1)
        cache.get(0)          # 0 becomes most recent
        cache.get(2)          # evicts 1, not 0
        assert 0 in cache and 1 not in cache

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ModelCache(fetch=lambda lab: lab, capacity=0)

    def test_clear(self):
        cache = ModelCache(fetch=lambda lab: lab)
        cache.get(1)
        cache.clear()
        assert 1 not in cache


class TestFigure7Walkthrough:
    def test_paper_example(self):
        """Labels 0112223 download exactly at segments 0, 1, 3, 6."""
        flags, stats = simulate_caching([0, 1, 1, 2, 2, 2, 3])
        assert flags == [True, True, False, True, False, False, True]
        assert stats.downloads == 4
        assert stats.downloaded_labels == [0, 1, 2, 3]

    def test_all_same_label(self):
        flags, stats = simulate_caching([0] * 10)
        assert stats.downloads == 1
        assert flags[0] and not any(flags[1:])

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_property_downloads_equal_distinct_labels(self, labels):
        """Unbounded cache: downloads == number of distinct labels."""
        _, stats = simulate_caching(labels)
        assert stats.downloads == len(set(labels))

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40),
           st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_property_bounded_cache_at_least_distinct(self, labels, capacity):
        """Bounded cache can only download more, never less."""
        cache = ModelCache(fetch=lambda label: label, capacity=capacity)
        for label in labels:
            cache.get(label)
        stats = cache.stats
        assert stats.downloads >= len(set(labels))
        assert stats.downloads <= len(labels)
