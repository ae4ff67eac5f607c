"""Unified observability core: one clock/trace/metrics substrate.

Every timed path in the repo — server build stages, playback stages,
network retries, SR tiles, training epochs — measures through one
:class:`Observability` session: an injectable clock, a thread-safe span
tree, and a metrics registry.  ``BuildTelemetry`` and
``PlaybackTelemetry`` are thin typed views over it; exporters in
:mod:`repro.obs.export` turn the same records into JSON span trees,
Prometheus text, and the summary tables the CLI prints.

See ``docs/observability.md`` for the span model and exporter formats.
"""

from __future__ import annotations

from .clock import Clock, MonotonicClock, SimulatedClock, wall_clock
from .export import (
    cdf_points,
    format_table,
    prometheus_text,
    render_trace_summary,
    span_from_dict,
    span_to_dict,
    stage_totals,
    trace_to_json,
    write_metrics,
    write_trace,
)
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "Clock",
    "MonotonicClock",
    "SimulatedClock",
    "wall_clock",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Observability",
    "span_to_dict",
    "span_from_dict",
    "trace_to_json",
    "write_trace",
    "stage_totals",
    "prometheus_text",
    "write_metrics",
    "format_table",
    "cdf_points",
    "render_trace_summary",
]


class Observability:
    """One measurement session: clock + tracer + metrics registry.

    The default session runs on the shared process wall clock; tests
    inject a :class:`SimulatedClock` for exact, machine-independent
    durations.  Creating a session is cheap and recording into an
    unexported session costs a couple of clock reads per span — there is
    no separate "disabled" mode.
    """

    def __init__(self, clock: Clock | None = None,
                 root_name: str = "session"):
        self.clock = clock or wall_clock()
        self.tracer = Tracer(self.clock, root_name=root_name)
        self.metrics = MetricsRegistry()
