"""Cross-module integration and property-based tests.

These tie several subsystems together: synthetic video through the codec
with randomized settings, server-pipeline determinism, and consistency
between the client and a hand-assembled decode path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import (
    detect_segments,
    fixed_length_segments,
    make_video,
    psnr_yuv,
    rgb_to_yuv420,
)
from repro.video.codec import CodecConfig, Decoder, Encoder


class TestCodecPropertyRoundTrip:
    @given(
        crf=st.integers(5, 51),
        n_b=st.integers(0, 3),
        deblock=st.booleans(),
        genre=st.sampled_from(["news", "sports", "music"]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_configuration_round_trips(self, crf, n_b, deblock, genre, seed):
        """For any codec configuration and content, the decoder reproduces
        frame count, types, and positive quality monotone in CRF."""
        clip = make_video("prop", genre, seed=seed, size=(32, 32),
                          duration_seconds=1.0, fps=8)
        segments = fixed_length_segments(clip.n_frames, 4)
        encoded = Encoder(CodecConfig(crf=crf, n_b_frames=n_b,
                                      deblock=deblock)).encode(
            clip.frames, segments, fps=clip.fps)
        decoded = Decoder().decode_video(encoded)
        assert decoded.n_frames == clip.n_frames
        assert decoded.frame_types[0] == "I"
        assert len(decoded.i_frame_indices) >= len(segments)
        originals = [rgb_to_yuv420(f) for f in clip.frames]
        values = [psnr_yuv(a, b) for a, b in zip(originals, decoded.frames)]
        finite = [v for v in values if np.isfinite(v)]
        if finite:
            assert min(finite) > 15.0  # decodes to something resembling input

    @given(seed=st.integers(0, 30))
    @settings(max_examples=8, deadline=None)
    def test_segment_isolation_property(self, seed):
        """Decoding segments in any order yields the same frames as decoding
        the whole video (closed GOPs)."""
        clip = make_video("iso", "music", seed=seed, size=(32, 32),
                          duration_seconds=2.0, fps=8)
        segments = fixed_length_segments(clip.n_frames, 5)
        encoded = Encoder(CodecConfig(crf=35)).encode(clip.frames, segments,
                                                      fps=clip.fps)
        whole = Decoder().decode_video(encoded)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(encoded.segments))
        pieces = {}
        for idx in order:
            seg = encoded.segments[idx]
            for item in Decoder().decode_segment(seg, encoded.width,
                                                 encoded.height):
                pieces[item.display] = item.frame
        for display, frame in pieces.items():
            assert frame == whole.frames[display]


class TestPipelineDeterminism:
    @pytest.mark.tier2
    def test_build_package_fully_deterministic(self, small_clip, small_config):
        from repro.core import build_package
        a = build_package(small_clip, small_config)
        b = build_package(small_clip, small_config)
        assert a.manifest.label_sequence() == b.manifest.label_sequence()
        assert a.manifest.enhance_in_loop == b.manifest.enhance_in_loop
        assert a.selection.k == b.selection.k
        x = np.random.default_rng(0).uniform(size=(1, 3, 16, 16)).astype(np.float32)
        for label in a.models:
            np.testing.assert_array_equal(a.models[label].forward(x),
                                          b.models[label].forward(x))
        for sa, sb in zip(a.encoded.segments, b.encoded.segments):
            assert sa.payload == sb.payload

    def test_client_matches_manual_decode(self, package, small_clip):
        """DcsrClient's output equals a hand-assembled decode with the same
        models applied through the raw decoder hook."""
        from repro.core import DcsrClient
        from repro.core.client import enhance_yuv_frame
        from repro.sr import InferenceEngine
        from repro.video import yuv420_to_rgb

        client_frames = DcsrClient(package).play().frames

        manual = {}
        display_only = not package.manifest.enhance_in_loop
        for seg, enc_seg in zip(package.segments, package.encoded.segments):
            label = package.manifest.model_label_for(seg.index)
            engine = InferenceEngine(package.models[label])
            decoder = Decoder(
                i_frame_hook=lambda f, d, e=engine: enhance_yuv_frame(e, f),
                hook_display_only=display_only)
            for item in decoder.decode_segment(enc_seg, package.encoded.width,
                                               package.encoded.height):
                manual[item.display] = yuv420_to_rgb(item.frame)

        for display in sorted(manual):
            np.testing.assert_array_equal(client_frames[display],
                                          manual[display])


class TestSegmentationCodecAgreement:
    def test_detected_segments_encode_decode(self):
        """Shot detection output feeds the encoder without adjustment."""
        clip = make_video("agree", "music", seed=3, size=(32, 48),
                          duration_seconds=8.0, fps=10, n_distinct_scenes=3)
        segments = detect_segments(clip.frames, max_length=25)
        encoded = Encoder(CodecConfig(crf=40)).encode(clip.frames, segments,
                                                      fps=clip.fps)
        decoded = Decoder().decode_video(encoded)
        # Every segment boundary is an I frame.
        for seg in segments:
            assert decoded.frame_types[seg.start] == "I"
        assert decoded.n_frames == clip.n_frames
