"""Exporters: JSON span trees, Prometheus text format, summary tables.

Three consumers, one substrate:

- :func:`trace_to_json` / :func:`write_trace` dump a span tree as JSON
  (``cli prepare/play --trace-out``, and
  :func:`repro.bench.runner.save_results` embeds the same dict so
  ``bench_results/*.json`` are self-describing);
- :func:`prometheus_text` / :func:`write_metrics` render a
  :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
  exposition format (``--metrics-out``);
- :func:`render_trace_summary` prints the per-stage breakdown through
  :func:`format_table` — the same renderer the telemetry summaries and
  benchmark tables use (it and :func:`cdf_points` live here, below every
  layer that prints, so no layer reaches up into ``repro.bench`` for
  them).

:func:`stage_totals` defines the canonical per-stage accounting rule:
spans carrying a ``stage`` attribute contribute their duration *minus*
the duration already covered by staged spans nested below them.  A
``decode`` span therefore excludes the ``sr``/``color`` hook time inside
it (matching :class:`~repro.core.client.PlaybackTelemetry`), while a
``train`` stage span keeps its full duration because its per-cluster and
per-epoch children are unstaged detail.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from .metrics import Histogram, MetricsRegistry
from .trace import Span, Tracer

__all__ = [
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


def _root_of(trace) -> Span | dict:
    """Accept a Tracer, a Span, an Observability session, or a parsed dict."""
    tracer = getattr(trace, "tracer", None)
    if tracer is not None:                      # Observability session
        trace = tracer
    root = getattr(trace, "root", None)
    if root is not None:                        # Tracer
        trace = root
    if not isinstance(trace, (Span, dict)):
        raise TypeError(f"cannot export a trace from {type(trace).__name__}")
    return trace


def _fields(node) -> tuple[str, float, dict, list]:
    if isinstance(node, Span):
        return node.name, node.elapsed, node.attrs, node.children
    return (node["name"], node.get("duration_s") or 0.0,
            node.get("attrs", {}), node.get("children", []))


# ------------------------------------------------------------------- JSON

def span_to_dict(span: Span) -> dict:
    """JSON-serializable dict of one span subtree (stable field set)."""
    return {
        "name": span.name,
        "start_s": span.start_s,
        "duration_s": span.duration_s,
        "attrs": dict(span.attrs),
        "children": [span_to_dict(c) for c in span.children],
    }


def span_from_dict(data: dict) -> Span:
    """Inverse of :func:`span_to_dict` (JSON round-trip)."""
    return Span(
        name=data["name"],
        start_s=float(data["start_s"]),
        duration_s=(None if data.get("duration_s") is None
                    else float(data["duration_s"])),
        attrs=dict(data.get("attrs", {})),
        children=[span_from_dict(c) for c in data.get("children", [])],
    )


def trace_to_json(trace, indent: int | None = 2) -> str:
    """The span tree as a JSON document."""
    root = _root_of(trace)
    payload = root if isinstance(root, dict) else span_to_dict(root)
    return json.dumps(payload, indent=indent)


def write_trace(path: str | Path, trace, indent: int | None = 2) -> Path:
    path = Path(path)
    path.write_text(trace_to_json(trace, indent=indent) + "\n")
    return path


# ----------------------------------------------------------- stage totals

def stage_totals(trace) -> dict[str, float]:
    """Per-stage seconds aggregated over the tree (see module docstring).

    Matches the telemetry contract: for every playback/build stage name,
    the returned total equals the corresponding
    ``stage_seconds[name]`` within float-summation noise.
    """
    totals: dict[str, float] = {}

    def visit(node) -> float:
        _name, duration, attrs, children = _fields(node)
        covered = 0.0
        for child in children:
            covered += visit(child)
        stage = attrs.get("stage")
        if stage:
            totals[stage] = totals.get(stage, 0.0) \
                + max(0.0, duration - covered)
            return duration
        return covered

    visit(_root_of(trace))
    return totals


def _stage_counts(trace) -> dict[str, int]:
    counts: dict[str, int] = {}

    def visit(node):
        _name, _duration, attrs, children = _fields(node)
        stage = attrs.get("stage")
        if stage:
            counts[stage] = counts.get(stage, 0) + 1
        for child in children:
            visit(child)

    visit(_root_of(trace))
    return counts


# -------------------------------------------------------------- Prometheus

def _fmt_value(value: float) -> str:
    value = float(value)
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_labels(pairs) -> str:
    if not pairs:
        return ""
    body = ",".join(
        '%s="%s"' % (k, str(v).replace("\\", r"\\").replace('"', r"\""))
        for k, v in pairs)
    return "{%s}" % body


def prometheus_text(registry: MetricsRegistry) -> str:
    """The whole registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for key, value in sorted(metric.series().items()):
            if isinstance(metric, Histogram):
                # Bucket counts are cumulative by construction (observe()
                # increments every bucket whose bound covers the value).
                total_count = value[-1]
                for bound, cumulative in zip(metric.buckets, value[:-2]):
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_fmt_labels(tuple(key) + (('le', _fmt_value(bound)),))}"
                        f" {_fmt_value(cumulative)}")
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_fmt_labels(tuple(key) + (('le', '+Inf'),))}"
                    f" {_fmt_value(total_count)}")
                lines.append(f"{metric.name}_sum{_fmt_labels(key)} "
                             f"{_fmt_value(value[-2])}")
                lines.append(f"{metric.name}_count{_fmt_labels(key)} "
                             f"{_fmt_value(total_count)}")
            else:
                lines.append(
                    f"{metric.name}{_fmt_labels(key)} {_fmt_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics(path: str | Path, registry: MetricsRegistry) -> Path:
    path = Path(path)
    path.write_text(prometheus_text(registry))
    return path


# ----------------------------------------------------------------- summary

def format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence],
) -> str:
    """Render an aligned text table.

    An empty ``title`` omits the ``== title ==`` banner, so callers that
    carry their own heading (the telemetry summaries) can still render
    their rows through the one shared table formatter.
    """
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"== {title} =="] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


def cdf_points(values: Sequence[float], n_points: int = 11) -> list[tuple[float, float]]:
    """(value, cumulative fraction) pairs at evenly spaced quantiles.

    Degenerate inputs are well-defined instead of crashing: an empty
    ``values`` yields ``[]``, and ``n_points=1`` yields the single
    ``(max, 1.0)`` point (no zero-division on the quantile spacing).
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    ordered = sorted(values)
    if not ordered:
        return []
    if n_points == 1:
        return [(ordered[-1], 1.0)]
    out = []
    for i in range(n_points):
        frac = i / (n_points - 1)
        idx = min(int(frac * (len(ordered) - 1)), len(ordered) - 1)
        out.append((ordered[idx], frac))
    return out


def render_trace_summary(trace, title: str = "trace summary") -> str:
    """One-screen per-stage table, rendered via :func:`format_table`."""
    totals = stage_totals(trace)
    counts = _stage_counts(trace)
    grand = sum(totals.values())
    rows = []
    for stage, seconds in totals.items():
        share = seconds / grand if grand > 0 else 0.0
        rows.append([stage, counts.get(stage, 0), seconds,
                     f"{share:.0%}"])
    rows.append(["total", sum(counts.values()), grand, "100%" if grand else "0%"])
    return format_table(title, ["stage", "spans", "seconds", "share"], rows)
