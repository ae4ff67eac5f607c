"""The streaming session engine: fault injection, telemetry, and the
bounded-memory generator contract.

Complements ``test_failure_injection.py`` (which checks that raw
components fail loudly): here the *client* is expected to degrade
gracefully — conceal corrupt segments, fall back when a model cannot be
fetched, retry transient download failures — while keeping exact byte and
telemetry accounting.
"""

import numpy as np
import pytest

from repro.core import (
    PLAYBACK_STAGES,
    DcsrClient,
    DownloadError,
    NetworkConfig,
    RetryPolicy,
    SimulatedNetwork,
    download_with_retry,
)
from repro.core.persist import StoredPackage
from repro.video.codec import (
    Decoder,
    EncodedSegment,
    EncodedVideo,
    SegmentMetadataError,
    TruncatedStreamError,
)


def _clone_package_with(package, *, segments=None, models=None):
    return StoredPackage(
        manifest=package.manifest,
        encoded=package.encoded if segments is None else segments,
        models=models if models is not None else package.models,
        segments=package.segments,
    )


def _with_truncated_segment(package, which: int):
    """A copy of the package whose ``which``-th segment payload is cut."""
    encoded = EncodedVideo(width=package.encoded.width,
                           height=package.encoded.height,
                           fps=package.encoded.fps,
                           config=package.encoded.config)
    for seg in package.encoded.segments:
        if seg.index == which:
            seg = EncodedSegment(index=seg.index, start=seg.start,
                                 n_frames=seg.n_frames,
                                 payload=seg.payload[: len(seg.payload) // 3],
                                 frames=seg.frames)
        encoded.segments.append(seg)
    return _clone_package_with(package, segments=encoded)


class TestSimulatedNetwork:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(fail_rate=1.5)
        with pytest.raises(ValueError):
            NetworkConfig(bandwidth_bps=0)
        with pytest.raises(ValueError):
            NetworkConfig(latency_s=-1)

    def test_transfer_time_from_bandwidth_and_latency(self):
        net = SimulatedNetwork(NetworkConfig(bandwidth_bps=8e6, latency_s=0.1))
        # 1 MB over 8 Mbit/s = 1 s, plus the RTT.
        assert np.isclose(net.download("segment", 0, 1_000_000), 1.1)
        assert net.stats.bytes_delivered == 1_000_000

    def test_schedule_drives_failures_deterministically(self):
        net = SimulatedNetwork(failure_schedule=[True, False, True])
        with pytest.raises(DownloadError):
            net.download("segment", 0, 10)
        assert net.download("segment", 0, 10) == 0.0
        with pytest.raises(DownloadError):
            net.download("model", 1, 10)
        assert net.stats.attempts == 3
        assert net.stats.failures == 2

    def test_retry_succeeds_within_budget(self):
        net = SimulatedNetwork(NetworkConfig(latency_s=0.2),
                               failure_schedule=[True, True, False])
        retry = RetryPolicy(retries=2, backoff_s=0.1, backoff_factor=2.0)
        seconds, attempts = download_with_retry(net, retry, "segment", 0, 0)
        assert attempts == 3
        # Two failed attempts + backoffs (0.1, 0.2) + the success.
        assert np.isclose(seconds, 3 * 0.2 + 0.1 + 0.2)

    def test_retry_budget_exhausted_carries_accounting(self):
        net = SimulatedNetwork(failure_schedule=[True] * 3)
        with pytest.raises(DownloadError) as info:
            download_with_retry(net, RetryPolicy(retries=2, backoff_s=0.0),
                                "segment", 5, 10)
        assert info.value.attempts == 3

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestTypedDecodeErrors:
    def test_truncated_payload_is_typed_and_backwards_compatible(self, package):
        broken = _with_truncated_segment(package, 0)
        seg = broken.encoded.segments[0]
        with pytest.raises(TruncatedStreamError) as info:
            Decoder().decode_segment(seg, package.encoded.width,
                                     package.encoded.height)
        assert isinstance(info.value, ValueError)   # old contract
        assert isinstance(info.value, EOFError)     # old contract

    def test_metadata_mismatch_is_typed(self, package):
        seg = package.encoded.segments[0]
        broken = EncodedSegment(index=seg.index, start=seg.start,
                                n_frames=seg.n_frames + 3,
                                payload=seg.payload, frames=seg.frames)
        with pytest.raises(SegmentMetadataError):
            Decoder().decode_segment(broken, package.encoded.width,
                                     package.encoded.height)


class TestDecoderReuse:
    def test_hook_count_resets_per_segment(self, package):
        """Regression: one decoder reused across segments must not
        accumulate hook counts from prior calls."""
        calls = []
        decoder = Decoder(i_frame_hook=lambda f, d: calls.append(d) or f)
        seg = package.encoded.segments[0]
        decoder.decode_segment(seg, package.encoded.width,
                               package.encoded.height)
        first = decoder.hook_invocations
        assert first >= 1
        decoder.decode_segment(seg, package.encoded.width,
                               package.encoded.height)
        assert decoder.hook_invocations == first  # not 2 * first

    def test_decode_video_still_counts_all_segments(self, package):
        decoder = Decoder(i_frame_hook=lambda f, d: f)
        decoded = decoder.decode_video(package.encoded)
        n_i = sum(1 for t in decoded.frame_types if t == "I")
        assert decoded.hook_invocations == n_i


class TestGeneratorContract:
    def test_iter_frames_matches_play(self, package, small_clip):
        played = DcsrClient(package).play(small_clip.frames)
        streamed = DcsrClient(package)
        frames = [f for f in streamed.iter_frames(small_clip.frames)]
        result = streamed.last_result

        assert [f.display for f in frames] == list(range(small_clip.n_frames))
        for a, b in zip(played.frames, frames):
            np.testing.assert_array_equal(a, b.rgb)
        # Satellite invariant: byte accounting identical across entry points.
        assert result.video_bytes == played.video_bytes
        assert result.model_bytes == played.model_bytes
        assert result.frame_types == played.frame_types
        assert result.psnr_per_frame == played.psnr_per_frame
        assert result.sr_inferences == played.sr_inferences

    def test_play_result_carries_telemetry(self, package, small_clip):
        result = DcsrClient(package).play(small_clip.frames)
        telemetry = result.telemetry
        assert telemetry is not None
        assert set(telemetry.stage_seconds) <= set(PLAYBACK_STAGES)
        assert telemetry.native_fps == package.encoded.fps
        assert telemetry.achieved_fps > 0
        assert len(telemetry.segments) == len(package.segments)
        # Stage totals are exactly the per-segment sums.
        for name in telemetry.stage_seconds:
            assert np.isclose(
                telemetry.stage_seconds[name],
                sum(getattr(s, f"{name}_s") for s in telemetry.segments))
        assert telemetry.cache_hit_rate == result.cache_stats.hit_rate
        assert any(line.startswith("playback stages")
                   for line in telemetry.summary_lines())

    def test_peak_residency_is_one_segment(self, package, small_clip):
        client = DcsrClient(package)
        for _ in client.iter_frames():
            pass
        peak = client.last_result.telemetry.peak_resident_frames
        longest = max(seg.n_frames for seg in package.segments)
        assert 0 < peak <= longest + 1      # one segment + the held frame
        assert peak < small_clip.n_frames   # never the whole video

    def test_abandoned_generator_still_finalizes(self, package):
        client = DcsrClient(package)
        gen = client.iter_frames()
        next(gen)
        gen.close()
        assert client.last_result.telemetry is not None
        assert client.last_result.model_bytes > 0

    def test_replay_reports_its_own_cache_session(self, package):
        """A second ``play()`` on one client runs against the models the
        first one left in the store: it downloads nothing, and says so —
        in every field, without rewriting the first result."""
        client = DcsrClient(package)
        first = client.play()
        downloads, hit_rate = first.cache_stats.downloads, \
            first.cache_stats.hit_rate
        assert downloads == len(first.model_downloads) > 0
        second = client.play()
        assert second.model_bytes == 0
        assert second.model_downloads == []
        assert second.cache_stats.downloads == 0
        assert second.telemetry.cache_hit_rate == 1.0
        # The first session's numbers are frozen, not a shared object.
        assert second.cache_stats is not first.cache_stats
        assert first.cache_stats.downloads == downloads
        assert first.cache_stats.hit_rate == hit_rate
        for a, b in zip(first.frames, second.frames):
            np.testing.assert_array_equal(a, b)


class TestConcealment:
    def test_corrupt_midstream_segment_is_concealed(self, package, small_clip):
        which = package.encoded.segments[1].index
        broken = _with_truncated_segment(package, which)
        result = DcsrClient(broken).play(small_clip.frames)

        assert result.skipped_segments == [which]
        assert len(result.frames) == small_clip.n_frames
        seg = package.segments[1]
        # Concealed displays hold the last good frame and are typed "C".
        last_good = result.frames[seg.start - 1]
        for display in range(seg.start, seg.end):
            assert result.frame_types[display] == "C"
            np.testing.assert_array_equal(result.frames[display], last_good)
        telemetry = result.telemetry
        assert telemetry.n_concealed == 1
        assert telemetry.segments[1].status == "concealed"

    def test_corrupt_first_segment_shows_black(self, package):
        which = package.encoded.segments[0].index
        broken = _with_truncated_segment(package, which)
        result = DcsrClient(broken).play()
        seg = package.segments[0]
        assert result.skipped_segments == [which]
        assert not result.frames[seg.start].any()

    def test_concealed_bytes_not_counted(self, package):
        which = package.encoded.segments[1].index
        broken = _with_truncated_segment(package, which)
        result = DcsrClient(broken).play()
        # The truncated payload still downloads (bytes on the wire), but
        # comparing against the intact package shows only the cut bytes.
        intact = DcsrClient(package).play()
        lost = (package.encoded.segments[1].n_bytes
                - broken.encoded.segments[1].n_bytes)
        assert result.video_bytes == intact.video_bytes - lost

    def test_download_failure_after_retries_conceals(self, package, small_clip):
        # Attempt order for segment 0: model 0 (ok), then the segment
        # download, which fails through its whole retry budget.
        net = SimulatedNetwork(failure_schedule=[False, True, True])
        client = DcsrClient(package, network=net,
                            retry=RetryPolicy(retries=1, backoff_s=0.05))
        result = client.play(small_clip.frames)
        first = package.segments[0]
        assert result.skipped_segments == [first.index]
        assert len(result.frames) == small_clip.n_frames
        assert result.telemetry.segments[0].download_attempts >= 3
        # Failed attempts and backoff cost simulated stall time.
        assert result.telemetry.segments[0].download_s > 0


class TestRetries:
    def test_transient_failures_recovered_by_retry(self, package, small_clip):
        # First two attempts fail (model 0, then its retry); budget of 2
        # retries absorbs both, so playback is byte-identical to clean.
        net = SimulatedNetwork(failure_schedule=[True, True])
        client = DcsrClient(package, network=net,
                            retry=RetryPolicy(retries=2, backoff_s=0.01))
        result = client.play(small_clip.frames)
        clean = DcsrClient(package).play(small_clip.frames)

        assert result.skipped_segments == []
        assert result.fallback_segments == []
        for a, b in zip(result.frames, clean.frames):
            np.testing.assert_array_equal(a, b)
        assert result.video_bytes == clean.video_bytes
        assert result.model_bytes == clean.model_bytes
        assert net.stats.failures == 2
        assert result.telemetry.download_attempts == net.stats.attempts

    def test_fail_rate_session_completes_with_degradation_records(
            self, package, small_clip):
        """The acceptance path: heavy injected loss + retries completes
        and reports what was degraded instead of raising."""
        net = SimulatedNetwork(NetworkConfig(fail_rate=0.8, seed=11))
        client = DcsrClient(package, network=net,
                            retry=RetryPolicy(retries=0, backoff_s=0.0),
                            fallback=True)
        result = client.play(small_clip.frames)
        assert len(result.frames) == small_clip.n_frames
        assert result.skipped_segments or result.fallback_segments
        statuses = {s.status for s in result.telemetry.segments}
        assert statuses & {"concealed", "fallback"}


class TestModelFallback:
    def test_missing_model_falls_back_to_passthrough(self, package, small_clip):
        models = dict(package.models)
        label = package.manifest.model_label_for(package.segments[0].index)
        del models[label]
        broken = _clone_package_with(package, models=models)

        result = DcsrClient(broken, fallback=True).play(small_clip.frames)
        expected_fallbacks = [s.index for s in package.segments
                              if package.manifest.model_label_for(s.index)
                              == label]
        assert result.fallback_segments == expected_fallbacks
        assert len(result.frames) == small_clip.n_frames
        # No model bytes are charged for the missing label.
        charged = sum(package.manifest.model_sizes[l]
                      for l in result.model_downloads)
        assert result.model_bytes == charged
        assert label not in result.model_downloads

    def test_fallback_segments_match_plain_decode(self, package, small_clip):
        """A passthrough-enhanced segment is the plain decode of that
        segment: no enhancement, no crash."""
        from repro.core import play_low
        models = dict(package.models)
        label = package.manifest.model_label_for(package.segments[0].index)
        del models[label]
        broken = _clone_package_with(package, models=models)
        result = DcsrClient(broken, fallback=True).play(small_clip.frames)
        low = play_low(package, small_clip.frames)
        seg = package.segments[0]
        for display in range(seg.start, seg.end):
            np.testing.assert_array_equal(result.frames[display],
                                          low.frames[display])

    def test_strict_mode_still_raises(self, package):
        models = dict(package.models)
        del models[next(iter(models))]
        broken = _clone_package_with(package, models=models)
        with pytest.raises(KeyError):
            DcsrClient(broken).play()

    def test_model_download_failure_with_fallback(self, package, small_clip):
        # Model 0's download fails through the whole budget -> fallback;
        # everything after succeeds (schedule exhausted, fail_rate 0).
        net = SimulatedNetwork(failure_schedule=[True, True])
        client = DcsrClient(package, network=net,
                            retry=RetryPolicy(retries=1, backoff_s=0.0),
                            fallback=True)
        result = client.play(small_clip.frames)
        assert result.fallback_segments[:1] == [package.segments[0].index]
        assert len(result.frames) == small_clip.n_frames
        # The label was never cached, so a later segment with the same
        # label re-attempts the download (and succeeds).
        assert result.cache_stats.failed_fetches == 1


class TestDoubleFault:
    def test_concealment_supersedes_fallback(self, package, small_clip):
        """A segment whose model fetch AND payload download both fail is
        concealed only — the degradation lists stay disjoint."""
        # Segment 0: model download fails (2 attempts), then the segment
        # download fails too (2 attempts). Everything after succeeds.
        net = SimulatedNetwork(failure_schedule=[True] * 4)
        client = DcsrClient(package, network=net,
                            retry=RetryPolicy(retries=1, backoff_s=0.0),
                            fallback=True)
        result = client.play(small_clip.frames)
        first = package.segments[0].index
        assert first in result.skipped_segments
        assert first not in result.fallback_segments
        assert not (set(result.skipped_segments)
                    & set(result.fallback_segments))
        assert result.telemetry.segments[0].status == "concealed"
        assert result.telemetry.n_concealed == len(result.skipped_segments)
        assert result.telemetry.n_fallback == len(result.fallback_segments)


class TestSessionMetrics:
    def test_stall_ratio_zero_on_clean_session(self, package):
        from repro.core import stall_ratio
        result = DcsrClient(package).play()
        ratio = stall_ratio(result.telemetry)
        assert 0.0 <= ratio < 1.0

    def test_stall_ratio_grows_with_injected_latency(self, package):
        from repro.core import stall_ratio
        slow = SimulatedNetwork(NetworkConfig(latency_s=5.0))
        stalled = DcsrClient(package, network=slow).play()
        clean = DcsrClient(package).play()
        assert stall_ratio(stalled.telemetry) > stall_ratio(clean.telemetry)
        assert stall_ratio(stalled.telemetry) <= 1.0

    def test_goodput_drops_under_injected_loss(self, package):
        """Failed attempts burn latency without delivering bytes, so the
        lossy link's goodput lands strictly below the clean link's."""
        from repro.core import session_goodput_bps
        bw, rtt = 10e6, 0.05
        clean_net = SimulatedNetwork(
            NetworkConfig(bandwidth_bps=bw, latency_s=rtt))
        clean = DcsrClient(package, network=clean_net).play()
        lossy_net = SimulatedNetwork(
            NetworkConfig(fail_rate=0.5, bandwidth_bps=bw, latency_s=rtt,
                          seed=3))
        lossy = DcsrClient(package, network=lossy_net,
                           retry=RetryPolicy(retries=5, backoff_s=0.0),
                           fallback=True).play()
        assert lossy_net.stats.failures > 0
        assert session_goodput_bps(clean) < bw  # latency always costs
        assert session_goodput_bps(lossy) < session_goodput_bps(clean)

    def test_goodput_requires_telemetry(self, package):
        from repro.core import PlaybackResult, session_goodput_bps
        with pytest.raises(ValueError):
            session_goodput_bps(PlaybackResult())
