"""The ABR simulator on the shared playout clock equals the recurrence it
replaced.

``reference_simulate.py`` keeps the simulator's own wait / drain / stall /
startup loop as it was.  Over seeded sessions — random three-rung ladders
with segments longer than the buffer cap and videos shorter than the
startup buffer, on constant, step and random-walk traces, at the module's
startup buffer and cap and at other bounds — ``simulate_session`` must
make the same decisions and book the same rebuffer, startup, energy and
bits.

The two compute the buffer with different float association (in place,
against ``deadline - start`` on the clock), so totals agree to 1e-12
relative, not bit for bit.  A policy that thresholds the buffer can flip
a decision at an exact tie; those policies are compared by replaying the
reference run's choices, which checks the recurrence without the tie.
"""

import math
import types

import numpy as np
import pytest

import repro.abr.simulate as simulate_module
from repro.abr import (
    AbrPolicy,
    BitrateLadder,
    BufferAbr,
    DcsrAwareAbr,
    QualityLevel,
    ThroughputAbr,
    constant_trace,
    random_walk_trace,
    simulate_session,
    step_trace,
)
from repro.control import (FixedController, GreedyKnapsackController,
                           LadderControllerPolicy)
from repro.core.manifest import ModelTierRecord
from repro.devices import get_device

from .reference_simulate import reference_simulate_session

#: Sessions per policy kind (five kinds: 2,000 sessions in all).
N_SESSIONS = 400
TIERS = ("dcSR-1", "dcSR-2")


class _FakeManifest:
    width = 64
    height = 48

    def __init__(self, n_segments, rng):
        self._labels = [int(rng.integers(0, 3)) for _ in range(n_segments)]
        self.tiers = {label: {tier: {"fp32": ModelTierRecord(
            precision="fp32", size_bytes=int(rng.integers(2_000, 60_000)),
            delta_db=0.0, tier=tier, n_resblocks=1 + i, n_filters=6,
            gain_db=float(rng.uniform(-0.2, 2.0)))}
            for i, tier in enumerate(TIERS)} for label in range(3)}

    def label_sequence(self):
        return list(self._labels)


class _FakeEncoded:
    """Duck-typed encoded video: ``counts[s]`` I frames in segment ``s``."""

    def __init__(self, counts):
        self.segments = [types.SimpleNamespace(
            frames=[types.SimpleNamespace(ftype="I")] * int(count))
            for count in counts]


def _ladder(rng) -> BitrateLadder:
    if rng.random() < 0.15:
        # Shorter than the startup buffer: playback starts at the end.
        n = int(rng.integers(1, 4))
        seconds = rng.uniform(0.1, 0.6, n)
    else:
        n = int(rng.integers(1, 13))
        seconds = rng.uniform(0.5, 10.0, n)     # some beyond the 8 s cap
    rate = rng.uniform(0.5e6, 4e6)
    levels = []
    for i, (scale, quality) in enumerate([(1.0, 40.0), (0.5, 34.0),
                                          (0.25, 28.0)]):
        levels.append(QualityLevel(
            level=i, crf=20 + 10 * i,
            segment_bits=[int(rate * scale * s * rng.uniform(0.7, 1.3))
                          for s in seconds],
            segment_quality=list(quality + rng.uniform(-1.0, 1.0, n))))
    return BitrateLadder(levels=levels, segment_seconds=list(seconds))


def _trace(rng, kind: int):
    if kind == 0:
        return constant_trace(rng.uniform(0.3e6, 6e6))
    if kind == 1:
        times = np.cumsum(rng.uniform(0.5, 20.0, int(rng.integers(1, 4))))
        return step_trace([(0.0, rng.uniform(0.3e6, 6e6))]
                          + [(float(t), rng.uniform(0.1e6, 6e6))
                             for t in times])
    return random_walk_trace(rng.uniform(0.5e6, 4e6), duration_s=60.0,
                             seed=int(rng.integers(0, 2**31)))


def _bounds(rng):
    """Half the sessions at the module's bounds, half elsewhere."""
    if rng.random() < 0.5:
        return simulate_module.STARTUP_BUFFER_S, simulate_module.MAX_BUFFER_S
    return (float(rng.choice([0.0, 2.0, 5.0])),
            float(rng.choice([4.0, 8.0, 30.0])))


def _throughput(rng, ladder):
    return ThroughputAbr()


def _dcsr_aware(rng, ladder):
    n = ladder.n_segments
    return DcsrAwareAbr(
        enhanced_quality=np.array([lvl.segment_quality for lvl in
                                   ladder.levels]) + rng.uniform(0, 3, (3, n)),
        model_bits_by_segment=list(rng.choice([0.0, 2e4, 3e5], n)),
        target_quality_db=rng.uniform(28.0, 40.0))


def _fixed_bridge(rng, ladder):
    tier = TIERS[int(rng.integers(0, 2))] if rng.random() < 0.7 else None
    return LadderControllerPolicy(
        FixedController(get_device(str(rng.choice(["jetson", "desktop"]))),
                        tier=tier),
        _FakeManifest(ladder.n_segments, rng),
        encoded=_FakeEncoded(rng.integers(1, 4, ladder.n_segments)))


def _buffer(rng, ladder):
    reservoir = rng.uniform(0.5, 6.0)
    return BufferAbr(reservoir_s=reservoir,
                     cushion_s=reservoir + rng.uniform(0.5, 8.0))


def _greedy(rng, ladder):
    device = get_device(str(rng.choice(["jetson", "laptop"])))
    return LadderControllerPolicy(
        GreedyKnapsackController(device,
                                 power_budget_w=rng.uniform(1.0, 30.0)),
        _FakeManifest(ladder.n_segments, rng))


class _Replay(AbrPolicy):
    """Answers with a recorded run's choices, noting the buffer it saw."""

    def __init__(self, choices):
        self._choices = iter(choices)
        self.seen = []

    def choose_joint(self, ladder, segment, throughput_estimate_bps,
                     buffer_s):
        self.seen.append((throughput_estimate_bps, buffer_s))
        return next(self._choices)


def _session(seed: int, monkeypatch):
    """One seeded (ladder, trace) plus the clock's bounds, patched in."""
    rng = np.random.default_rng(seed)
    ladder = _ladder(rng)
    trace = _trace(rng, seed % 3)
    startup, cap = _bounds(rng)
    monkeypatch.setattr(simulate_module, "STARTUP_BUFFER_S", startup)
    monkeypatch.setattr(simulate_module, "MAX_BUFFER_S", cap)
    return rng, ladder, trace, dict(startup_buffer_s=startup,
                                    max_buffer_s=cap)


def _close(a: float, b: float, scale: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * scale)


def _assert_same_totals(new, ref):
    scale = max(ref.played_seconds, ref.startup_seconds, 1.0)
    assert _close(new.rebuffer_seconds, ref.rebuffer_seconds, scale)
    assert _close(new.startup_seconds, ref.startup_seconds, scale)
    assert _close(new.energy_joules, ref.energy_joules,
                  max(ref.energy_joules, 1.0))
    assert new.video_bits == ref.video_bits
    assert new.extra_bits == ref.extra_bits
    assert new.played_seconds == ref.played_seconds
    assert new.qualities == ref.qualities
    assert new.switches == ref.switches


@pytest.mark.parametrize("make_policy", [_throughput, _dcsr_aware,
                                         _fixed_bridge])
def test_buffer_blind_policies_decide_and_book_alike(make_policy,
                                                     monkeypatch):
    for seed in range(N_SESSIONS):
        rng, ladder, trace, bounds = _session(seed, monkeypatch)
        state = rng.bit_generator.state
        ref = reference_simulate_session(ladder, make_policy(rng, ladder),
                                         trace, **bounds)
        rng.bit_generator.state = state          # the same policy again
        new = simulate_session(ladder, make_policy(rng, ladder), trace)
        assert new.levels == ref.levels, seed
        assert new.tiers == ref.tiers, seed
        _assert_same_totals(new, ref)


@pytest.mark.parametrize("make_policy", [_buffer, _greedy])
def test_buffer_policies_replayed_book_alike(make_policy, monkeypatch):
    for seed in range(N_SESSIONS):
        rng, ladder, trace, bounds = _session(seed, monkeypatch)
        ref = reference_simulate_session(ladder, make_policy(rng, ladder),
                                         trace, **bounds)
        replay = _Replay(ref.choices)
        new = simulate_session(ladder, replay, trace)
        assert new.levels == ref.levels, seed
        assert new.tiers == ref.tiers, seed
        _assert_same_totals(new, ref)
        # What the policy was shown: the same estimate and buffer.
        scale = max(ref.played_seconds, 1.0)
        for (est, buf), (ref_est, ref_buf) in zip(replay.seen, ref.seen):
            assert math.isclose(est, ref_est, rel_tol=1e-12)
            assert _close(buf, ref_buf, scale), seed


def test_sweep_reaches_every_regime(monkeypatch):
    """The seeded sessions include stalls forced by the cap, videos that
    end before the startup buffer fills, and every trace kind."""
    capped = short = stalled = 0
    for seed in range(N_SESSIONS):
        _, ladder, _, bounds = _session(seed, monkeypatch)
        capped += max(ladder.segment_seconds) > bounds["max_buffer_s"]
        short += sum(ladder.segment_seconds) < bounds["startup_buffer_s"]
    for seed in range(0, N_SESSIONS, 5):
        rng, ladder, trace, bounds = _session(seed, monkeypatch)
        stalled += simulate_session(ladder, _throughput(rng, ladder),
                                    trace).rebuffer_seconds > 0
    assert capped >= 20 and short >= 10 and stalled >= 5
