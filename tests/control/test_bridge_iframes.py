"""Regression: `LadderControllerPolicy` prices real per-segment I-frame
counts (ROADMAP bug — it used to assume one inference per segment, while
the client and fleet paths already used real counts)."""

from repro.abr import BitrateLadder, QualityLevel
from repro.control import FixedController, LadderControllerPolicy, iframe_counts
from repro.core.manifest import ModelTierRecord
from repro.devices import get_device
from repro.video.codec.gop import plan_segment


def _ladder(n_segments):
    levels = []
    for i, (mbit, quality) in enumerate(
            [(4.0, 40.0), (2.0, 34.0), (1.0, 28.0)]):
        levels.append(QualityLevel(
            level=i, crf=20 + i * 10,
            segment_bits=[int(mbit * 1e6)] * n_segments,
            segment_quality=[quality] * n_segments))
    return BitrateLadder(levels=levels,
                         segment_seconds=[2.0] * n_segments)


class _Frame:
    def __init__(self, ftype):
        self.ftype = ftype


class _Segment:
    def __init__(self, start, n_frames, ftypes=()):
        self.start = start
        self.n_frames = n_frames
        self.frames = [_Frame(t) for t in ftypes]


class _Codec:
    def __init__(self, n_b_frames=2, extra_i_interval=None):
        self.n_b_frames = n_b_frames
        self.extra_i_interval = extra_i_interval


class _Encoded:
    def __init__(self, segments, codec=None):
        self.segments = segments
        self.config = codec or _Codec()


class _FakeManifest:
    width = 64
    height = 48

    def __init__(self, labels):
        self._labels = list(labels)
        record = ModelTierRecord(precision="fp32", size_bytes=6000,
                                 delta_db=0.0, tier="dcSR-1",
                                 n_resblocks=1, n_filters=6, gain_db=1.0)
        self.tiers = {label: {"dcSR-1": {"fp32": record}}
                      for label in set(labels)}

    def label_sequence(self):
        return list(self._labels)


class _CapturingController(FixedController):
    """Records the inference count every decision was priced with."""

    def __init__(self, device, tier=None):
        super().__init__(device, tier=tier)
        self.seen_inferences = []

    def decide(self, ctx):
        self.seen_inferences.append(ctx.n_inferences)
        return super().decide(ctx)


class TestIframeCounts:
    def test_counts_from_frame_metadata(self):
        encoded = _Encoded([
            _Segment(0, 4, ftypes=["I", "P", "B", "I"]),
            _Segment(4, 3, ftypes=["I", "B", "P"]),
            _Segment(7, 5, ftypes=["I", "I", "I", "P", "B"]),
        ])
        assert iframe_counts(encoded) == [2, 1, 3]

    def test_gop_fallback_matches_plan(self):
        # Pre-frame-metadata packages load with empty ``frames``; counts
        # come from the GOP plan instead.
        codec = _Codec(n_b_frames=0, extra_i_interval=3)
        encoded = _Encoded([_Segment(0, 9), _Segment(9, 4)], codec=codec)
        expected = [
            sum(1 for plan in plan_segment(seg.start, seg.n_frames,
                                           codec.n_b_frames,
                                           codec.extra_i_interval)
                if plan.ftype == "I")
            for seg in encoded.segments
        ]
        assert iframe_counts(encoded) == expected
        assert expected[0] > 1        # the fallback must exercise >1 I


class TestPolicyPricing:
    def _run(self, policy, n_segments):
        ladder = _ladder(n_segments)
        for segment in range(n_segments):
            policy.choose_joint(ladder, segment, 8e6, 5.0)

    def test_encoded_supplies_real_counts(self):
        encoded = _Encoded([
            _Segment(0, 4, ftypes=["I", "P", "I", "I"]),
            _Segment(4, 3, ftypes=["I", "B", "P"]),
            _Segment(7, 4, ftypes=["I", "I", "P", "B"]),
        ])
        controller = _CapturingController(get_device("desktop"),
                                          tier="dcSR-1")
        policy = LadderControllerPolicy(controller,
                                        _FakeManifest([0, 1, 0]),
                                        encoded=encoded)
        self._run(policy, 3)
        assert controller.seen_inferences == [3, 1, 2]

    def test_explicit_counts_override_encoded(self):
        encoded = _Encoded([_Segment(0, 2, ftypes=["I", "I"]),
                            _Segment(2, 2, ftypes=["I", "P"])])
        controller = _CapturingController(get_device("desktop"),
                                          tier="dcSR-1")
        policy = LadderControllerPolicy(controller, _FakeManifest([0, 0]),
                                        n_inferences_by_segment=[7, 9],
                                        encoded=encoded)
        self._run(policy, 2)
        assert controller.seen_inferences == [7, 9]

    def test_without_encoded_defaults_to_one(self):
        controller = _CapturingController(get_device("desktop"),
                                          tier="dcSR-1")
        policy = LadderControllerPolicy(controller, _FakeManifest([0, 0]))
        self._run(policy, 2)
        assert controller.seen_inferences == [1, 1]

    def test_extra_iframes_raise_priced_energy(self):
        # The bug's observable effect: a segment with three I frames must
        # cost more energy than a one-I segment at the same tier.  Use a
        # 1080p-sized manifest so each inference burst is long enough to
        # register on the sampled power timeline.
        manifest = _FakeManifest([0, 0])
        manifest.width, manifest.height = 1920, 1080
        record = ModelTierRecord(precision="fp32", size_bytes=6000,
                                 delta_db=0.0, tier="dcSR-1",
                                 n_resblocks=8, n_filters=32, gain_db=1.0)
        manifest.tiers = {0: {"dcSR-1": {"fp32": record}}}
        one = _Encoded([_Segment(0, 3, ftypes=["I", "P", "B"]),
                        _Segment(3, 3, ftypes=["I", "P", "B"])])
        three = _Encoded([_Segment(0, 3, ftypes=["I", "I", "I"]),
                          _Segment(3, 3, ftypes=["I", "I", "I"])])
        energies = {}
        for name, encoded in (("one", one), ("three", three)):
            controller = FixedController(get_device("jetson"),
                                         tier="dcSR-1")
            policy = LadderControllerPolicy(controller, manifest,
                                            encoded=encoded)
            choice = policy.choose_joint(_ladder(2), 0, 8e6, 5.0)
            energies[name] = choice.energy_j
        assert energies["three"] > energies["one"]


class TestOneCounterEverywhere:
    """Regression: the I-frame count was computed three ways — the
    client's ``sum(...) or 1`` skipped the GOP-plan fallback the bridge
    and the fleet applied.  On a package whose per-frame metadata is
    empty (saved before frame info was persisted), a controlled client
    session, a controlled trace session and ``LadderControllerPolicy``
    must all price the same ``n_inferences``."""

    @staticmethod
    def _legacy(package):
        """``package`` as a pre-frame-info load: empty ``frames``, and a
        codec config whose GOP plan holds more than one I per segment
        (only pricing reads the plan; decode reads the bitstream)."""
        import dataclasses

        from repro.core.persist import StoredPackage

        encoded = dataclasses.replace(
            package.encoded,
            config=dataclasses.replace(package.encoded.config,
                                       extra_i_interval=2),
            segments=[dataclasses.replace(seg, frames=[])
                      for seg in package.encoded.segments])
        return StoredPackage(manifest=package.manifest, encoded=encoded,
                             models=package.models,
                             segments=package.segments,
                             tier_models=package.tier_models)

    def test_client_trace_and_policy_agree(self, tiered_package,
                                           monkeypatch):
        from repro.core.client import DcsrClient
        from repro.serve import FleetConfig, FleetSimulator

        legacy = self._legacy(tiered_package)
        expected = iframe_counts(legacy.encoded)
        assert max(expected) > 1      # `or 1` would get these wrong

        client_ctrl = _CapturingController(get_device("desktop"),
                                           tier="dcSR-1")
        DcsrClient(legacy, controller=client_ctrl).play()
        assert client_ctrl.seen_inferences == expected

        trace_ctrl = _CapturingController(get_device("desktop"),
                                          tier="dcSR-1")
        fleet = FleetSimulator(legacy, FleetConfig(
            sessions=1, mode="trace", devices=("desktop",),
            controller="fixed", controller_tier="dcSR-1"))
        monkeypatch.setattr(fleet, "_controller_for",
                            lambda session_id: trace_ctrl)
        fleet.run()
        assert trace_ctrl.seen_inferences == expected

        policy_ctrl = _CapturingController(get_device("desktop"),
                                           tier="dcSR-1")
        policy = LadderControllerPolicy(policy_ctrl, legacy.manifest,
                                        encoded=legacy.encoded)
        n = len(expected)
        ladder = _ladder(n)
        for segment in range(n):
            policy.choose_joint(ladder, segment, 8e6, 5.0)
        assert policy_ctrl.seen_inferences == expected
