"""The telemetry-as-view contract: spans, metrics, and the typed
telemetry fields all describe the same measurements.

The acceptance bar: for a fixed-seed run, ``stage_totals`` of the
exported span tree matches ``stage_seconds`` of the corresponding
telemetry within 1e-6 — build and playback alike.
"""

import json

import pytest

from repro.core import (
    DcsrClient,
    FastPathConfig,
    NetworkConfig,
    RetryPolicy,
    SimulatedNetwork,
)
from repro.obs import Observability, span_from_dict, stage_totals, trace_to_json


def assert_totals_match(telemetry):
    totals = stage_totals(telemetry.obs)
    for name, seconds in telemetry.stage_seconds.items():
        assert totals.get(name, 0.0) == pytest.approx(seconds, abs=1e-6), name


class TestBuildTrace:
    def test_stage_totals_match_build_telemetry(self, package):
        telemetry = package.telemetry
        assert set(telemetry.stage_seconds) <= set(stage_totals(telemetry.obs))
        assert_totals_match(telemetry)

    def test_build_counter_mirrors_stage_seconds(self, package):
        counter = package.telemetry.obs.metrics.counter(
            "dcsr_build_stage_seconds_total")
        for name, seconds in package.telemetry.stage_seconds.items():
            assert counter.value(stage=name) == pytest.approx(seconds)

    def test_training_spans_nest_inside_the_train_stage(self, package):
        root = package.telemetry.obs.tracer.root
        (train,) = [s for s in root.walk() if s.attrs.get("stage") == "train"]
        assert len(train.find("train_cluster")) == package.n_models
        (embed,) = [s for s in root.walk() if s.attrs.get("stage") == "embed"]
        assert len(embed.find("train_vae")) == 1


class TestPlaybackTrace:
    def test_stage_totals_match_playback_telemetry(self, package):
        client = DcsrClient(package)
        client.play()
        assert_totals_match(client.last_result.telemetry)

    def test_json_export_matches_telemetry(self, package):
        """The --trace-out contract: totals survive the JSON round trip."""
        client = DcsrClient(package)
        client.play()
        telemetry = client.last_result.telemetry
        tree = span_from_dict(json.loads(trace_to_json(client.obs)))
        totals = stage_totals(tree)
        for name, seconds in telemetry.stage_seconds.items():
            assert totals.get(name, 0.0) == pytest.approx(seconds, abs=1e-6)

    def test_simulated_download_spans_are_tagged(self, package):
        network = SimulatedNetwork(NetworkConfig(latency_s=0.05))
        client = DcsrClient(package, network=network,
                            retry=RetryPolicy(retries=1))
        client.play()
        downloads = client.obs.tracer.root.find("download")
        assert downloads
        assert all(s.attrs["clock"] == "simulated" for s in downloads)
        assert_totals_match(client.last_result.telemetry)

    def test_network_metrics_share_the_client_registry(self, package):
        network = SimulatedNetwork(NetworkConfig(latency_s=0.01))
        client = DcsrClient(package, network=network)
        client.play()
        attempts = client.obs.metrics.counter("dcsr_download_attempts_total")
        assert (attempts.value(kind="segment") + attempts.value(kind="model")
                == network.stats.attempts)

    def test_prefetch_session_matches_too(self, package):
        client = DcsrClient(
            package, fast_path=FastPathConfig(tile=24, prefetch=2))
        client.play()
        telemetry = client.last_result.telemetry
        assert telemetry.tile_count > 0
        assert_totals_match(telemetry)
        tiles = client.obs.metrics.counter("dcsr_sr_tiles_total")
        assert tiles.value() == telemetry.tile_count

    def test_telemetry_fields_unchanged_between_runs(self, package):
        """Deterministic fields agree across two fresh sessions (the
        refactor must not perturb non-timing telemetry)."""
        results = [DcsrClient(package).play() for _ in range(2)]
        a, b = (r.telemetry for r in results)
        assert a.native_fps == b.native_fps
        assert a.download_attempts == b.download_attempts
        assert a.peak_resident_frames == b.peak_resident_frames
        assert a.cache_hit_rate == b.cache_hit_rate
        assert [s.status for s in a.segments] == [s.status for s in b.segments]

    def test_explicit_obs_is_used(self, package):
        obs = Observability(root_name="mine")
        client = DcsrClient(package, obs=obs)
        client.play()
        assert client.obs is obs
        assert obs.tracer.root.find("play")
