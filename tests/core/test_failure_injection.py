"""Failure-injection tests: how the system behaves when things go wrong.

The paper assumes a well-behaved CDN; a deployable client must fail loudly
and predictably on corrupted streams, missing models, and broken hooks.
"""

import numpy as np
import pytest

from repro.core import DcsrClient, ModelCache
from repro.core.persist import StoredPackage
from repro.video.codec import Decoder, EncodedSegment


def _clone_package_with(package, *, segments=None, models=None, manifest=None):
    return StoredPackage(
        manifest=manifest if manifest is not None else package.manifest,
        encoded=package.encoded if segments is None else segments,
        models=models if models is not None else package.models,
        segments=package.segments,
    )


class TestCorruptBitstreams:
    def test_truncated_segment_raises(self, package):
        seg = package.encoded.segments[0]
        broken = EncodedSegment(index=seg.index, start=seg.start,
                                n_frames=seg.n_frames,
                                payload=seg.payload[: len(seg.payload) // 3],
                                frames=seg.frames)
        with pytest.raises((ValueError, EOFError)):
            Decoder().decode_segment(broken, package.encoded.width,
                                     package.encoded.height)

    def test_bitflipped_header_raises_or_misdecodes_loudly(self, package):
        seg = package.encoded.segments[0]
        payload = bytearray(seg.payload)
        payload[0] ^= 0xFF  # QP byte
        payload[1] ^= 0xFF  # frame-count prefix
        broken = EncodedSegment(index=seg.index, start=seg.start,
                                n_frames=seg.n_frames,
                                payload=bytes(payload), frames=seg.frames)
        with pytest.raises((ValueError, EOFError)):
            Decoder().decode_segment(broken, package.encoded.width,
                                     package.encoded.height)

    def test_wrong_frame_count_metadata(self, package):
        seg = package.encoded.segments[0]
        broken = EncodedSegment(index=seg.index, start=seg.start,
                                n_frames=seg.n_frames + 3,
                                payload=seg.payload, frames=seg.frames)
        with pytest.raises(ValueError):
            Decoder().decode_segment(broken, package.encoded.width,
                                     package.encoded.height)


class TestMissingModels:
    def test_missing_model_raises_keyerror(self, package):
        models = dict(package.models)
        label = next(iter(models))
        del models[label]
        broken = _clone_package_with(package, models=models)
        with pytest.raises(KeyError):
            DcsrClient(broken).play()

    def test_cache_fetch_failure_propagates(self):
        def flaky_fetch(label):
            raise ConnectionError("CDN timeout")
        cache = ModelCache(fetch=flaky_fetch)
        with pytest.raises(ConnectionError):
            cache.get(0)
        # The failed download is not recorded as a success.
        assert cache.stats.downloads == 0
        assert 0 not in cache

    def test_cache_retry_after_failure_succeeds(self):
        attempts = []

        def fetch(label):
            attempts.append(label)
            if len(attempts) == 1:
                raise ConnectionError("transient")
            return label

        cache = ModelCache(fetch=fetch)
        with pytest.raises(ConnectionError):
            cache.get(7)
        assert cache.get(7) == 7
        assert cache.stats.downloads == 1


class TestBrokenHooks:
    def test_hook_exception_propagates(self, package):
        def exploding(frame, display):
            raise RuntimeError("model inference crashed")

        decoder = Decoder(i_frame_hook=exploding)
        with pytest.raises(RuntimeError):
            decoder.decode_video(package.encoded)

    def test_hook_returning_garbage_type(self, package):
        decoder = Decoder(i_frame_hook=lambda f, d: np.zeros(3))
        with pytest.raises(TypeError):
            decoder.decode_video(package.encoded)


class TestCachePressure:
    def test_capacity_one_replays_correctly(self, package, small_clip):
        """Worst-case memory pressure: every distinct label re-downloads,
        but playback output is unchanged."""
        unbounded = DcsrClient(package).play(small_clip.frames)
        bounded = DcsrClient(package, model_cache=ModelCache(capacity=1)
                             ).play(small_clip.frames)
        for a, b in zip(unbounded.frames, bounded.frames):
            np.testing.assert_array_equal(a, b)
        assert bounded.cache_stats.downloads >= unbounded.cache_stats.downloads
        assert bounded.model_bytes >= unbounded.model_bytes

    def test_eviction_count_consistent(self, package):
        result = DcsrClient(package,
                            model_cache=ModelCache(capacity=1)).play()
        stats = result.cache_stats
        assert stats.evictions == max(0, stats.downloads - 1)
