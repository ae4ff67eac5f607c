"""Counter / gauge / histogram registry: the metrics half of the core.

One :class:`MetricsRegistry` per observability session; instruments are
created (or re-fetched) by name, optionally carry label dimensions, and
are cheap enough to update on hot paths (a dict lookup and a float add
under one lock).  :func:`repro.obs.export.prometheus_text` renders the
whole registry in the Prometheus text exposition format.

Naming follows Prometheus conventions: ``dcsr_<noun>_<unit>_total`` for
counters, ``dcsr_<noun>_<unit>`` for gauges and histograms.
"""

from __future__ import annotations

import re
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   60.0)


class _Metric:
    """Shared plumbing: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = lock
        self._series: dict[tuple, float | list] = {}
        #: Label-name tuples, in call order, that already passed the
        #: name check: a hot-path update re-checks no name.
        self._valid_names: set[tuple] = set()

    def _key(self, labels: dict) -> tuple:
        """The series key of ``labels``: sorted ``(name, str(value))``
        pairs, after checking each label name."""
        if not labels:
            return ()
        names = tuple(labels)
        if names not in self._valid_names:
            for name in names:
                if not _LABEL_RE.match(name):
                    raise ValueError(f"invalid label name {name!r}")
            self._valid_names.add(names)
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def series(self) -> dict[tuple, float | list]:
        """Snapshot of ``{label_key: value}`` (label_key is a sorted
        tuple of ``(name, value)`` pairs)."""
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {value})")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Metric):
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[self._key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    Each series holds ``[bucket_counts..., sum, count]``; bucket ``i``
    counts observations ``<= buckets[i]`` plus an implicit ``+Inf``
    bucket equal to ``count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: tuple = DEFAULT_BUCKETS):
        super().__init__(name, help, lock)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [0] * len(self.buckets) + [0.0, 0]
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series[i] += 1
            series[-2] += float(value)
            series[-1] += 1

    def count(self, **labels) -> int:
        series = self._series.get(self._key(labels))
        return int(series[-1]) if series else 0

    def sum(self, **labels) -> float:
        series = self._series.get(self._key(labels))
        return float(series[-2]) if series else 0.0


class MetricsRegistry:
    """Create-or-fetch registry of named instruments (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            return existing
        metric = cls(name, help, self._lock, **kwargs)
        with self._lock:
            return self._metrics.setdefault(name, metric)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def metrics(self) -> list[_Metric]:
        """All registered instruments, sorted by name (export order)."""
        with self._lock:
            return [self._metrics[n] for n in sorted(self._metrics)]
