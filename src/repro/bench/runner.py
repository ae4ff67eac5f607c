"""Experiment output helpers: aligned tables and series printers.

Benchmarks print the same rows/series the paper's tables and figures
report, so a run of ``pytest benchmarks/ --benchmark-only -s`` regenerates
the evaluation section in text form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from ..obs import cdf_points, format_table
from ..obs.export import _root_of, span_to_dict

__all__ = ["format_table", "print_table", "print_series", "save_results",
           "cdf_points"]


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    print("\n" + format_table(title, headers, rows) + "\n")


def print_series(title: str, xs: Sequence, ys_by_name: dict[str, Sequence]) -> None:
    """Print a figure's line series as a table with X as the first column."""
    headers = ["x"] + list(ys_by_name)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[i] for series in ys_by_name.values()])
    print_table(title, headers, rows)


def save_results(name: str, payload: dict, directory: str | Path = "bench_results",
                 trace=None) -> Path:
    """Persist one experiment's numbers as JSON for EXPERIMENTS.md.

    ``trace`` (a :class:`~repro.obs.Span`, :class:`~repro.obs.Tracer`, or
    :class:`~repro.obs.Observability` session) embeds the run's span tree
    under a ``"trace"`` key, so the result file carries its own timing
    provenance — per-stage wall time, clock domains, attempt counts —
    next to the numbers it explains.
    """
    if trace is not None:
        root = _root_of(trace)
        payload = dict(payload)
        payload["trace"] = root if isinstance(root, dict) else span_to_dict(root)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=_json_default)
    return path


def load_results(name: str,
                 directory: str | Path = "bench_results") -> dict | None:
    """Read back a previously saved result file, or ``None`` if absent.

    Lets a benchmark *extend* another benchmark's JSON (several sections,
    one file) instead of clobbering it with the last writer's payload.
    """
    path = Path(directory) / f"{name}.json"
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)


def _json_default(obj):
    import numpy as np
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
