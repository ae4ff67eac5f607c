"""The joint controller inside the client and the fleet scheduler."""

import numpy as np
import pytest

from repro.control import FixedController, GreedyKnapsackController
from repro.core.client import DcsrClient, FastPathConfig
from repro.core.network import NetworkConfig, SimulatedNetwork
from repro.devices import get_device
from repro.serve import FleetConfig, FleetSimulator


def _network(seed=1):
    return SimulatedNetwork(NetworkConfig(bandwidth_bps=4e6, seed=seed))


class TestClientController:
    def test_one_decision_per_segment(self, tiered_package, control_clip):
        controller = GreedyKnapsackController(get_device("laptop"))
        result = DcsrClient(tiered_package, network=_network(),
                            controller=controller).play(control_clip.frames)
        assert len(controller.decisions) == len(tiered_package.segments)
        assert result.telemetry.energy_joules > 0.0
        assert controller.played_seconds == pytest.approx(
            sum(s.n_frames for s in tiered_package.segments)
            / tiered_package.encoded.fps)

    def test_fixed_tier_downloads_each_label_once(self, tiered_package,
                                                  control_clip):
        controller = FixedController(get_device("desktop"), tier="dcSR-1")
        result = DcsrClient(tiered_package, network=_network(),
                            controller=controller).play(control_clip.frames)
        manifest = tiered_package.manifest
        labels = set(manifest.label_sequence())
        expected = sum(manifest.tier_size_for(label, "dcSR-1")
                       for label in labels)
        assert result.model_bytes == expected
        assert result.telemetry.sr_segments == len(tiered_package.segments)
        assert result.sr_inferences > 0

    def test_quantized_tier_downloads_quantized_bytes(self, tiered_package,
                                                      control_clip):
        controller = FixedController(get_device("desktop"), tier="dcSR-1",
                                     precision="int8")
        result = DcsrClient(tiered_package, network=_network(),
                            controller=controller).play(control_clip.frames)
        manifest = tiered_package.manifest
        labels = set(manifest.label_sequence())
        expected = sum(manifest.tier_size_for(label, "dcSR-1", "int8")
                       for label in labels)
        assert result.model_bytes == expected

    def test_controller_metrics_emitted(self, tiered_package, control_clip):
        controller = FixedController(get_device("jetson"), tier="dcSR-1")
        client = DcsrClient(tiered_package, network=_network(),
                            controller=controller)
        client.play(control_clip.frames)
        names = {m.name for m in client.obs.metrics.metrics()}
        assert "dcsr_controller_decisions_total" in names
        assert "dcsr_controller_energy_joules_total" in names

    def test_controller_rejects_pipelined_fast_path(self, tiered_package,
                                                    control_clip):
        """Name kept from when this combination raised.  One pipeline
        worker runs fetch -> decode -> feedback strictly in segment
        order, so a controlled ``prefetch`` session is the serial
        controlled session, bit for bit; only ``sr_batch > 1`` (fetching
        ahead of the feedback a decision needs) is still rejected."""
        def play(controller, fast_path):
            result = DcsrClient(tiered_package, network=_network(),
                                controller=controller,
                                fast_path=fast_path
                                ).play(control_clip.frames)
            return result, [d.key() for d in controller.decisions]

        # Always-on SR (every hook runs on the worker thread) and a
        # budget-bound greedy (decisions depend on the energy fed back).
        for make in (
                lambda: FixedController(get_device("desktop"),
                                        tier="dcSR-1"),
                lambda: GreedyKnapsackController(get_device("jetson"),
                                                 power_budget_w=2.0)):
            serial, serial_keys = play(make(), FastPathConfig())
            piped, piped_keys = play(make(), FastPathConfig(prefetch=2))
            assert piped_keys == serial_keys
            assert len(piped.frames) == len(serial.frames)
            for ours, theirs in zip(piped.frames, serial.frames):
                assert np.array_equal(ours, theirs)
            assert piped.telemetry.energy_joules \
                == serial.telemetry.energy_joules > 0.0
            assert piped.model_bytes == serial.model_bytes
            assert piped.sr_inferences == serial.sr_inferences

        with pytest.raises(ValueError, match="sr_batch"):
            DcsrClient(tiered_package,
                       controller=GreedyKnapsackController(
                           get_device("jetson")),
                       fast_path=FastPathConfig(prefetch=2, sr_batch=2))

    def test_tier_engines_come_from_the_engine_factory(self, tiered_package,
                                                       monkeypatch):
        """Regression: tier engines were built beside the label-engine
        factory and dropped ``reuse``."""
        import repro.core.client as client_mod

        built = []

        class Recording(client_mod.InferenceEngine):
            def __init__(self, model, **knobs):
                super().__init__(model, **knobs)
                built.append(self)

        monkeypatch.setattr(client_mod, "InferenceEngine", Recording)
        client = DcsrClient(
            tiered_package,
            controller=FixedController(get_device("desktop"), tier="dcSR-1",
                                       precision="int8"),
            fast_path=FastPathConfig(tile=24, reuse=True, kernel="blocked"))
        client.play()
        assert built
        for engine in built:
            assert engine.precision == "int8"    # the decision's, not fp32
            assert engine.reuse is not None
            assert engine.kernel == "blocked" and engine.tile == 24

    def test_sr_off_plays_passthrough(self, tiered_package, control_clip):
        # An unconstrained greedy on a package whose calibrated gains are
        # non-positive keeps SR off; playback must still complete cleanly.
        controller = GreedyKnapsackController(get_device("jetson"),
                                              power_budget_w=1.0)
        result = DcsrClient(tiered_package, network=_network(),
                            controller=controller).play(control_clip.frames)
        assert len(result.frames) == control_clip.n_frames
        assert not result.skipped_segments


class TestTierPersistence:
    def test_tier_table_and_checkpoints_round_trip(self, tiered_package,
                                                   control_clip, tmp_path):
        from repro.core.persist import load_package, save_package

        save_package(tiered_package, tmp_path)
        loaded = load_package(tmp_path)
        assert loaded.manifest.has_tiers
        assert loaded.manifest.tiers.keys() \
            == tiered_package.manifest.tiers.keys()
        for label, by_tier in tiered_package.manifest.tiers.items():
            for tier, by_precision in by_tier.items():
                for precision, record in by_precision.items():
                    back = loaded.manifest.tiers[label][tier][precision]
                    assert back.size_bytes == record.size_bytes
                    assert back.gain_db == record.gain_db
                    assert back.delta_db == record.delta_db
        assert set(loaded.tier_models) == set(tiered_package.tier_models)
        # A controller session over the from-disk package still works and
        # downloads the persisted checkpoint sizes.
        controller = FixedController(get_device("jetson"), tier="dcSR-1")
        result = DcsrClient(loaded, network=_network(),
                            controller=controller).play(control_clip.frames)
        labels = set(loaded.manifest.label_sequence())
        assert result.model_bytes == sum(
            loaded.manifest.tier_size_for(label, "dcSR-1")
            for label in labels)


class TestFleetController:
    def test_controller_requires_devices(self):
        with pytest.raises(ValueError):
            FleetConfig(sessions=2, controller="greedy")

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(sessions=2, devices=("toaster",))

    def test_playback_fleet_rejects_controller_with_sr_batch(self):
        """Every playback session's client rejects a controller with
        ``sr_batch > 1``, so the fleet does too, before any session;
        trace sessions ignore ``fast_path`` and keep accepting it."""
        fast = FastPathConfig(prefetch=2, sr_batch=2)
        with pytest.raises(ValueError, match="sr_batch"):
            FleetConfig(controller="greedy", devices=("jetson",),
                        fast_path=fast)
        FleetConfig(mode="trace", controller="greedy", devices=("jetson",),
                    fast_path=fast)

    def test_device_cycle(self):
        config = FleetConfig(sessions=5, devices=("jetson", "laptop"))
        assert [config.device_name_for(i) for i in range(4)] \
            == ["jetson", "laptop", "jetson", "laptop"]
        assert FleetConfig(sessions=2).device_name_for(0) is None

    def test_trace_fleet_energy_deterministic(self, tiered_package):
        def run():
            config = FleetConfig(
                sessions=4, mode="trace", arrival="uniform:0.5",
                bandwidth_bps=8e6, devices=("jetson", "laptop"),
                controller="greedy", power_budget_w=30.0, seed=2)
            return FleetSimulator(tiered_package, config).run()

        a, b = run(), run()
        assert a.telemetry.total_energy_joules \
            == b.telemetry.total_energy_joules
        assert a.telemetry.total_energy_joules > 0.0
        assert a.telemetry.total_model_bytes == b.telemetry.total_model_bytes

    def test_trace_fleet_without_devices_unchanged(self, tiered_package):
        config = FleetConfig(sessions=2, mode="trace")
        fleet = FleetSimulator(tiered_package, config).run()
        assert fleet.telemetry.total_energy_joules == 0.0
        assert fleet.telemetry.completed == 2

    def test_playback_fleet_with_devices_models_energy(self, tiered_package,
                                                       control_clip):
        config = FleetConfig(sessions=2, devices=("jetson",))
        fleet = FleetSimulator(tiered_package, config).run(
            control_clip.frames)
        assert fleet.telemetry.total_energy_joules > 0.0
        assert fleet.telemetry.mean_quality_per_joule > 0.0

    def test_playback_fleet_controller_sessions_complete(self,
                                                         tiered_package):
        config = FleetConfig(sessions=2, devices=("laptop",),
                             controller="fixed", controller_tier="dcSR-1")
        fleet = FleetSimulator(tiered_package, config).run()
        assert fleet.telemetry.completed == 2
        total = sum(s.result.model_bytes for s in fleet.completed())
        assert total > 0      # tier checkpoints were downloaded
