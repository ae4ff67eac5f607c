"""The single playback pipeline: one consumer loop over one segment
source, one fetch stage, one playout recurrence.

``test_fast_playback.py`` pins the pipeline's *output* bitwise against
the serial session; this file pins what the collapse of the three
iterators fixed or made uniform: the slot-bounded memory contract under
a slow consumer, consumer-side bookkeeping, fast-path knobs reaching
every engine, and construction-time validation.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    DcsrClient,
    DownloadError,
    FastPathConfig,
    NetworkConfig,
    RetryPolicy,
    ServerConfig,
    SimulatedNetwork,
    build_package,
)
from repro.core.session import PlayoutClock
from repro.features import VaeTrainConfig
from repro.serve import FleetConfig
from repro.sr import EDSR, EdsrConfig, InferenceEngine, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig


@pytest.fixture(scope="module")
def uniform_package():
    """Eight 4-frame segments: with every segment the same length the
    slot bound is tight, so one segment too many resident shows."""
    clip = make_video("uniform", "music", seed=7, size=(48, 64),
                      duration_seconds=3.2, fps=10, n_distinct_scenes=3)
    return build_package(clip, ServerConfig(
        codec=CodecConfig(crf=48), fixed_segment_len=4, k_override=1,
        vae_train=VaeTrainConfig(epochs=2, batch_size=4),
        sr_train=SrTrainConfig(epochs=2, steps_per_epoch=2, batch_size=8,
                               patch_size=16),
        micro_config=EdsrConfig(n_resblocks=1, n_filters=4),
        quantize_precisions=(), seed=0))


class TestSlotBound:
    @pytest.mark.parametrize("prefetch,sr_batch", [(1, 1), (2, 1), (2, 2)])
    def test_slow_consumer_memory_bound(self, uniform_package, prefetch,
                                        sr_batch):
        """A consumer that stalls after the first frame lets the workers
        run as far ahead as the slots allow — and no further: at most
        ``prefetch + sr_batch`` decoded segments (plus the held
        concealment frame) are ever resident."""
        client = DcsrClient(uniform_package, fast_path=FastPathConfig(
            prefetch=prefetch, sr_batch=sr_batch))
        frames = client.iter_frames()
        next(frames)
        time.sleep(1.0)             # workers fill every slot they may
        for _ in frames:
            pass
        peak = client.last_result.telemetry.peak_resident_frames
        longest = max(seg.n_frames for seg in uniform_package.segments)
        assert longest < peak <= (prefetch + sr_batch) * longest + 1

    def test_oversubscribed_pool_keeps_order_and_bound(self, uniform_package):
        """More workers than cores under a tiny switch interval: claims,
        turn-ordered fetches and slot accounting must not lose an update
        — every segment arrives once, in order, bitwise-equal to inline,
        within the slot bound."""
        import sys

        def play(fast_path):
            network = SimulatedNetwork(NetworkConfig(
                fail_rate=0.3, bandwidth_bps=2e6, seed=5))
            client = DcsrClient(uniform_package, network=network,
                                retry=RetryPolicy(retries=1), fallback=True,
                                fast_path=fast_path)
            return client.play()

        inline = play(FastPathConfig())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = play(FastPathConfig(prefetch=2, sr_batch=6))
        finally:
            sys.setswitchinterval(interval)
        assert [s.index for s in pooled.telemetry.segments] \
            == [s.index for s in inline.telemetry.segments]
        assert [s.status for s in pooled.telemetry.segments] \
            == [s.status for s in inline.telemetry.segments]
        assert len(pooled.frames) == len(inline.frames)
        for ours, theirs in zip(pooled.frames, inline.frames):
            assert np.array_equal(ours, theirs)
        assert pooled.total_bytes == inline.total_bytes
        longest = max(seg.n_frames for seg in uniform_package.segments)
        assert pooled.telemetry.peak_resident_frames <= 8 * longest + 1

    def test_inline_source_spawns_no_thread(self, package):
        import threading

        before = set(threading.enumerate())
        frames = DcsrClient(package,
                            fast_path=FastPathConfig(tile=24)).iter_frames()
        next(frames)
        assert set(threading.enumerate()) == before
        frames.close()

    def test_mid_session_close_returns_and_leaves_no_thread(
            self, uniform_package):
        """A pool thread can start segment *k* while *k − 1* is being
        cancelled: its fetch turn then never comes, and only the close
        flag lets it return.  Closing after the first frame, 30 times,
        with the threads' bytecode interleaved: every close returns and
        no segment thread outlives it."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(30):
                frames = DcsrClient(uniform_package, fast_path=FastPathConfig(
                    prefetch=2, sr_batch=6)).iter_frames()
                next(frames)
                assert _bounded(frames.close) is None
                assert not _segment_threads()
        finally:
            sys.setswitchinterval(interval)

    def test_failed_fetch_wakes_the_turns_behind_it(self, uniform_package):
        """Strict mode: segment 0's model fetch raises, so the turns the
        segments queued behind it wait for never come.  The session must
        still raise and shut its pool down, not hang."""
        network = SimulatedNetwork(NetworkConfig(fail_rate=1.0, seed=0))
        client = DcsrClient(uniform_package, network=network,
                            retry=RetryPolicy(retries=0, backoff_s=0.0),
                            fast_path=FastPathConfig(prefetch=2, sr_batch=6))
        assert isinstance(_bounded(client.play), DownloadError)
        assert not _segment_threads()


def _segment_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("dcsr-segment")]


def _bounded(call, timeout=30.0):
    """Run ``call`` on a daemon thread and return what it raised (or
    ``None``) — failing, instead of hanging the suite, if it has not
    returned within ``timeout`` seconds."""
    raised = []

    def run():
        try:
            call()
        except Exception as exc:        # handed back to the test
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{call} did not return"
    return raised[0] if raised else None


class TestConsumerSideBookkeeping:
    def test_abandoned_pipeline_reports_only_emitted_segments(self, package):
        """Workers fetch and decode ahead, but telemetry rows and the
        degradation lists are written by the consumer in segment order —
        an abandoned generator never reports segments it did not emit."""
        # Every download fails: each segment is concealed (and, with
        # fallback, would first have been marked fallback by its fetch).
        network = SimulatedNetwork(NetworkConfig(fail_rate=1.0, seed=0))
        client = DcsrClient(package, network=network,
                            retry=RetryPolicy(retries=0, backoff_s=0.0),
                            fallback=True,
                            fast_path=FastPathConfig(prefetch=3))
        frames = client.iter_frames()
        first = next(frames)
        time.sleep(0.5)             # let the worker run ahead
        frames.close()
        result = client.last_result
        assert [s.index for s in result.telemetry.segments] \
            == [first.segment_index]
        assert result.skipped_segments == [first.segment_index]
        assert result.fallback_segments == []

    def test_pipeline_and_inline_segments_rows_agree(self, package):
        def rows(fast_path):
            network = SimulatedNetwork(NetworkConfig(
                fail_rate=0.4, bandwidth_bps=2e6, latency_s=0.01, seed=11))
            result = DcsrClient(package, network=network, fallback=True,
                                retry=RetryPolicy(retries=1),
                                fast_path=fast_path).play()
            return ([(s.index, s.status, s.download_attempts, s.download_s)
                     for s in result.telemetry.segments],
                    result.video_bytes, result.model_bytes)

        inline = rows(FastPathConfig(tile=24))
        assert rows(FastPathConfig(tile=24, prefetch=2)) == inline
        assert rows(FastPathConfig(tile=24, prefetch=2, sr_batch=2)) == inline


class TestKnobsReachEveryEngine:
    def test_batched_session_honours_kernel(self, package, monkeypatch):
        """Regression: ``sr_batch > 1`` silently ran the shift kernel.
        Every engine a session builds — on whichever worker — must be
        built with every engine knob of its config."""
        import repro.core.client as client_mod

        built = []

        class Recording(client_mod.InferenceEngine):
            def __init__(self, model, **knobs):
                built.append(knobs)
                super().__init__(model, **knobs)

        monkeypatch.setattr(client_mod, "InferenceEngine", Recording)
        knobs = dict(tile=24, precision="fp16", skip_gate=1e-4, reuse=True,
                     kernel="blocked")
        for pipeline in (dict(), dict(prefetch=2), dict(sr_batch=2),
                         dict(prefetch=2, sr_batch=2)):
            built.clear()
            # Uncalibrated: the calibration engine is knobless by design.
            DcsrClient(package, fast_path=FastPathConfig(
                sr_threads=2, calibrate=False, **knobs, **pipeline)).play()
            assert built
            for engine_knobs in built:
                assert engine_knobs["threads"] == 2
                assert {k: engine_knobs[k] for k in knobs} == knobs


class TestEngineOwnership:
    def test_workers_sharing_one_model_play_the_serial_session(
            self, uniform_package):
        """Every worker of a ``k_override=1`` package enhances with the
        same model object: the lazily packed int8 weights (cold here —
        nothing in this module played int8 before) and the per-call
        ``engine.stats`` are what concurrent workers could trample.  Each
        worker owns its engines, so every session is the serial one: same
        frames, same per-segment tile accounting."""
        knobs = dict(tile=16, precision="int8", skip_gate=2e-3,
                     calibrate=False)

        def play(**pipeline):
            result = DcsrClient(uniform_package, fast_path=FastPathConfig(
                **knobs, **pipeline)).play()
            return result.frames, [
                (s.index, s.sr_inferences, s.sr_tiles, s.sr_flops,
                 s.sr_skipped_tiles) for s in result.telemetry.segments]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the workers' bytecode
        try:
            pooled = [play(prefetch=2, sr_batch=3) for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        frames, rows = play()
        assert sum(row[2] for row in rows) > 0      # tiles ran ...
        assert sum(row[4] for row in rows) > 0      # ... and tiles gated
        for pooled_frames, pooled_rows in pooled:
            assert pooled_rows == rows
            assert len(pooled_frames) == len(frames)
            for ours, theirs in zip(pooled_frames, frames):
                assert np.array_equal(ours, theirs)


class TestCalibration:
    def test_reference_forward_runs_once_per_session(self, uniform_package,
                                                     monkeypatch):
        """Calibration is the session's, not each thread's: the first
        segment in segment order that fetched a model and its payload
        runs the calibration forward — a whole-frame fp32 engine built
        with no knobs — whichever thread decodes it, so every pipeline
        calibrates on the same frame.  A slowed forward keeps the pool
        threads overlapping, where once per thread used to show."""
        import repro.core.client as client_mod

        inputs = []

        class Recording(client_mod.InferenceEngine):
            def __init__(self, model, **knobs):
                super().__init__(model, **knobs)
                self.calibrates = not knobs

            def enhance(self, rgb):
                if self.calibrates:
                    inputs.append(rgb.copy())
                    time.sleep(0.05)
                return super().enhance(rgb)

        monkeypatch.setattr(client_mod, "InferenceEngine", Recording)
        calibrated = []
        for pipeline in (dict(), dict(prefetch=2),
                         dict(prefetch=2, sr_batch=4)):
            inputs.clear()
            result = DcsrClient(uniform_package, fast_path=FastPathConfig(
                **pipeline)).play()
            assert len(inputs) == 1, pipeline
            assert result.telemetry.fast_path_speedup > 0
            calibrated.append(inputs[0])
        for frame in calibrated[1:]:
            assert np.array_equal(frame, calibrated[0])


#: Engine knobs no engine can be built with, as ``InferenceEngine``
#: keywords (``FastPathConfig`` spells ``threads`` ``sr_threads``).
BAD_ENGINE_KNOBS = [
    (dict(tile=0), ValueError, "tile must be >= 1"),
    (dict(tile=-5), ValueError, "tile must be >= 1"),
    (dict(threads=0), ValueError, "threads must be >= 1"),
    (dict(precision="fp64"), ValueError, "unknown precision"),
    (dict(kernel="winograd"), ValueError, "unknown kernel"),
    (dict(skip_gate="x"), TypeError, "skip_gate must be"),
    (dict(skip_gate=True), TypeError, "skip_gate must be"),
    (dict(skip_gate=-1.0), ValueError, "var_threshold must be >= 0"),
    # reuse is a switch: a number is not a mode, 0 and 1 included.
    (dict(reuse="yes"), TypeError, "reuse must be"),
    (dict(reuse=-0.5), TypeError, "reuse must be"),
    (dict(reuse=0.5), TypeError, "reuse must be"),
    (dict(reuse=1), TypeError, "reuse must be"),
    (dict(reuse=0), TypeError, "reuse must be"),
]

BAD_KNOB_IDS = [f"{name}={value}" for knobs, _, _ in BAD_ENGINE_KNOBS
                for name, value in knobs.items()]


class TestValidationAtConstruction:
    @pytest.mark.parametrize("knobs, error, message", BAD_ENGINE_KNOBS,
                             ids=BAD_KNOB_IDS)
    def test_engine_rejects_a_bad_knob(self, knobs, error, message):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=0)
        with pytest.raises(error, match=message):
            InferenceEngine(model, **knobs)

    @pytest.mark.parametrize("knobs, error, message", BAD_ENGINE_KNOBS,
                             ids=BAD_KNOB_IDS)
    def test_config_rejects_what_the_engine_rejects(self, knobs, error,
                                                    message):
        """The config runs the engine's own check, so a bad knob fails
        where the config is built — not inside the first I frame's hook,
        after the manifest, a model and a segment were downloaded."""
        if "threads" in knobs:
            knobs = {"sr_threads": knobs["threads"]}
        with pytest.raises(error, match=message):
            FastPathConfig(**knobs)

    def test_negative_prefetch_fails_in_the_config(self):
        with pytest.raises(ValueError, match="prefetch"):
            FastPathConfig(prefetch=-1)

    def test_fleet_config_rejects_it_before_any_session(self):
        with pytest.raises(ValueError, match="prefetch"):
            FleetConfig(fast_path=FastPathConfig(prefetch=-1))


class TestPlayoutWindow:
    def test_window_zero_is_the_serial_recurrence(self):
        """``window=0`` reproduces the serial accumulation bit for bit
        on simulated (compute-free) inputs, and saves nothing."""
        downloads = [0.31, 0.07, 1.9, 0.0, 0.45]
        clock = PlayoutClock()
        position, deadline, stall = 0.0, None, 0.0
        for seconds in downloads:
            clock.segment_ready(seconds, 4 / 10.0)
            position += seconds
            if deadline is None:
                deadline = position
            stall += max(0.0, position - deadline)
            deadline = max(position, deadline) + 4 / 10.0
            assert clock.position_s == position
        assert clock.startup_s == downloads[0]
        assert clock.stall_s == stall
        assert clock.overlap_s == 0.0

    def test_wider_window_hides_downloads_under_compute(self):
        def run(window):
            clock = PlayoutClock(window=window)
            for _ in range(4):
                clock.segment_ready(1.0, 10 / 10.0, compute_s=1.0)
            return clock

        serial, piped = run(0), run(2)
        assert serial.position_s == 8.0 and serial.overlap_s == 0.0
        # Downloads 2..4 run under the compute of 1..3.
        assert piped.position_s == 5.0
        assert piped.overlap_s == 3.0
        assert piped.stall_s < serial.stall_s
        assert np.isclose(piped.startup_s, serial.startup_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlayoutClock(max_buffer_s=0.0)
        with pytest.raises(ValueError):
            PlayoutClock(window=-1)


class TestPlayoutBounds:
    """The player's two bounds: a startup buffer and a buffer cap."""

    def test_startup_waits_for_the_startup_buffer(self):
        clock = PlayoutClock(startup_buffer_s=3.0)
        clock.segment_ready(1.0, 2.0)
        assert clock.buffer_s(1.0) == 2.0        # queued, not playing
        clock.segment_ready(1.0, 2.0)
        assert clock.startup_s == 2.0
        # The first deadline: both queued segments have displayed.
        assert clock.buffer_s(2.0) == 4.0
        clock.segment_ready(5.0, 2.0)
        assert clock.stall_s == 7.0 - 6.0

    def test_stream_shorter_than_the_buffer_starts_at_last_ready(self):
        clock = PlayoutClock(startup_buffer_s=5.0)
        clock.segment_ready(0.5, 1.0)
        clock.segment_ready(0.25, 1.0)
        assert clock.startup_s == 0.75
        assert clock.stall_s == 0.0

    def test_buffer_room_gates_only_once_playing(self):
        clock = PlayoutClock(startup_buffer_s=4.0, max_buffer_s=3.0)
        assert clock.download_start(2.0) == 0.0
        clock.segment_ready(0.5, 2.0)
        # 2 s queued + 2 s more exceeds the cap, but nothing plays yet.
        assert clock.download_start(2.0) == 0.5
        clock.segment_ready(0.5, 2.0)
        assert clock.startup_s == 1.0
        # Playing: 4 s buffered until 5.0; room for 2 s more at 4.0.
        assert clock.download_start(2.0) == 5.0 + 2.0 - 3.0

    def test_segment_longer_than_the_cap_stalls(self):
        clock = PlayoutClock(max_buffer_s=8.0)
        clock.segment_ready(1.0, 10.0)
        assert clock.download_start(10.0) == 11.0 + 10.0 - 8.0
        clock.segment_ready(1.0, 10.0)
        assert clock.stall_s == 10.0 - 8.0 + 1.0

    def test_buffer_is_never_negative(self):
        clock = PlayoutClock(max_buffer_s=8.0)
        clock.segment_ready(1.0, 10.0)
        assert clock.buffer_s(11.0) == 0.0
        assert clock.buffer_s(100.0) == 0.0
        clock.segment_ready(1.0, 10.0)           # stalled to 14.0
        assert clock.buffer_s(13.0) == 11.0
        assert clock.buffer_s(30.0) == 0.0

    @pytest.mark.parametrize("cap, start", [(1.5, 6.5), (2.5, 6.0)])
    def test_cap_and_window_take_the_later_gate(self, cap, start):
        clock = PlayoutClock(window=0, max_buffer_s=cap)
        clock.segment_ready(1.0, 1.0, compute_s=5.0)    # ready at 6.0
        # Pipeline room at 6.0; buffer room at 6.0 + 1.0 + 1.0 - cap.
        assert clock.download_start(1.0) == start
