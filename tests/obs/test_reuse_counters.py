"""Reuse counters survive export: Prometheus text carries
``dcsr_sr_reused_tiles_total`` with the engine's exact count, and the
exported tile counters obey the three-way accounting invariant
(executed + skipped + reused == frames x grid) — so a dashboard reading
the scrape sees the same partition the engine computed.
"""

import numpy as np

from repro.obs import Observability, prometheus_text
from repro.sr import EDSR, EdsrConfig, InferenceEngine


def _scrape_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            return float(line.split()[-1])
    raise AssertionError(f"{name} not in scrape:\n{text}")


def _run_engine(obs):
    """Two passes over a half-flat frame: gate skips, reuse hits, and
    real execution all occur, so every counter is nonzero."""
    model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=21)
    frame = np.zeros((48, 64, 3), dtype=np.float32)
    frame[:16, :32] = np.random.default_rng(22).random((16, 32, 3))
    engine = InferenceEngine(model, tile=16, reuse=True,
                             skip_gate=1e-4, obs=obs)
    engine.enhance(frame)
    engine.enhance(frame)
    return engine


class TestReuseCounterExport:
    def test_prometheus_scrape_carries_the_reused_counter(self):
        obs = Observability(root_name="test")
        _run_engine(obs)
        text = prometheus_text(obs.metrics)
        assert "# TYPE dcsr_sr_reused_tiles_total counter" in text
        assert _scrape_value(text, "dcsr_sr_reused_tiles_total") == 12.0

    def test_exported_partition_matches_engine_accounting(self):
        obs = Observability(root_name="test")
        _run_engine(obs)
        text = prometheus_text(obs.metrics)
        executed = _scrape_value(text, "dcsr_sr_tiles_total")
        skipped = _scrape_value(text, "dcsr_sr_skipped_tiles_total")
        reused = _scrape_value(text, "dcsr_sr_reused_tiles_total")
        frames = _scrape_value(text, "dcsr_sr_frames_total")
        # 3x4 grid at tile=16 on 48x64, two frames.
        assert frames == 2.0
        assert executed + skipped + reused == frames * 12

    def test_counter_values_round_trip_through_registry(self):
        obs = Observability(root_name="test")
        engine = _run_engine(obs)
        reused = obs.metrics.counter("dcsr_sr_reused_tiles_total").value()
        executed = obs.metrics.counter("dcsr_sr_tiles_total").value()
        skipped = obs.metrics.counter("dcsr_sr_skipped_tiles_total").value()
        assert reused == 12.0
        assert executed + skipped + reused == 24.0
        # The per-call stats partition the same way.
        s = engine.stats
        assert s.tile_count + s.skipped_tiles + s.reused_tiles == 12
