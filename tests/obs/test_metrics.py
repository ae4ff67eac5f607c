"""Tests for the counter / gauge / histogram registry."""

import threading

import pytest

from repro.obs import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_accumulates_per_label_set(self):
        counter = MetricsRegistry().counter("dcsr_x_total")
        counter.inc(2, kind="segment")
        counter.inc(kind="segment")
        counter.inc(5, kind="model")
        assert counter.value(kind="segment") == 3.0
        assert counter.value(kind="model") == 5.0
        assert counter.value(kind="missing") == 0.0

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("dcsr_x_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_label_order_does_not_split_series(self):
        counter = MetricsRegistry().counter("dcsr_x_total")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2.0

    def test_invalid_label_name_rejected(self):
        counter = MetricsRegistry().counter("dcsr_x_total")
        with pytest.raises(ValueError, match="label"):
            counter.inc(**{"bad-name": 1})

    def test_invalid_label_name_rejected_on_every_call(self):
        """Valid label names are remembered; an invalid one never is,
        alone or next to names that already passed."""
        counter = MetricsRegistry().counter("dcsr_x_total")
        counter.inc(ok="1")
        for _ in range(3):
            with pytest.raises(ValueError, match="label"):
                counter.inc(**{"bad-name": 1})
            with pytest.raises(ValueError, match="label"):
                counter.inc(**{"ok": "1", "bad-name": 1})
            with pytest.raises(ValueError, match="label"):
                counter.value(**{"bad-name": 1})
        counter.inc(ok="1")
        assert counter.series() == {(("ok", "1"),): 2.0}


class TestGauge:
    def test_set_is_last_write_wins(self):
        gauge = MetricsRegistry().gauge("dcsr_fps")
        gauge.set(10.0)
        gauge.set(31.5)
        assert gauge.value() == 31.5

    def test_inc_accumulates(self):
        gauge = MetricsRegistry().gauge("dcsr_depth")
        gauge.inc()
        gauge.inc(2)
        assert gauge.value() == 3.0


class TestHistogram:
    def test_buckets_are_cumulative(self):
        hist = MetricsRegistry().histogram("dcsr_s", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 2.0):
            hist.observe(value)
        series = hist.series()[()]
        assert series[:3] == [1, 3, 3]           # <=0.01, <=0.1, <=1.0
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(2.105)

    def test_default_buckets_ascend(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            MetricsRegistry().histogram("dcsr_s", buckets=(1.0, 0.1))

    def test_empty_histogram_reads_zero(self):
        hist = MetricsRegistry().histogram("dcsr_s")
        assert hist.count() == 0
        assert hist.sum() == 0.0


class TestRegistry:
    def test_create_or_fetch_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("dcsr_x_total", "help text")
        b = registry.counter("dcsr_x_total")
        assert a is b
        assert isinstance(a, Counter)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("dcsr_x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("dcsr_x")

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="metric name"):
            MetricsRegistry().counter("bad name")

    def test_metrics_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("dcsr_b_total")
        registry.gauge("dcsr_a")
        registry.histogram("dcsr_c_seconds")
        assert [m.name for m in registry.metrics()] == \
            ["dcsr_a", "dcsr_b_total", "dcsr_c_seconds"]

    def test_concurrent_increments_do_not_lose_updates(self):
        counter = MetricsRegistry().counter("dcsr_x_total")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 4000.0

    def test_histogram_isinstance_check(self):
        registry = MetricsRegistry()
        hist = registry.histogram("dcsr_s")
        assert isinstance(hist, Histogram)
