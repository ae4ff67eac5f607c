"""Bitwise oracle for the frame-batched codec.

The production decoder parses a frame once, transforms and
motion-compensates it in whole-frame batches and intra-predicts by
anti-diagonal wavefront; ``scalar_reference.py`` keeps the block-at-a-time
interpreter it replaced.  Over a seeded sweep of the encoder's
configuration surface the two must agree plane for plane and bit count for
bit count, and the encoder's payloads must equal the digests recorded from
the scalar codec (``oracle_payload_digests.json``) — the batched transform,
wavefront mode decision and frame-level motion compensation may not move a
single bit.

The tier-1 run covers a seeded third of the grid; the ``tier2``
parametrisation covers all of it.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.video import make_video
from repro.video.codec import (CodecConfig, Decoder, Encoder, forward_dct,
                               inverse_dct)
from repro.video.codec.motion import MB, predict_frame, vectors_leave_frame
from repro.video.frame import YuvFrame
from repro.video.segment import Segment

from . import scalar_reference as ref

DIGESTS = json.loads(
    (Path(__file__).parent / "oracle_payload_digests.json").read_text())

GRID = list(itertools.product(
    (20, 45, 51),                    # crf
    (0, 2),                          # n_b_frames
    (True, False),                   # half_pel
    (True, False),                   # deblock
    (None, 2),                       # extra_i_interval
    ((48, 64), (48, 80), (32, 16)),  # (height, width)
))
_TIER1 = set(random.Random(13).sample(range(len(GRID)), len(GRID) // 3))
N_FRAMES = 7
GENRES = ("sports", "news", "gaming")


def case_key(case) -> str:
    crf, n_b, half_pel, deblock, extra_i, (h, w) = case
    return (f"crf{crf}-b{n_b}-hp{int(half_pel)}-db{int(deblock)}"
            f"-i{extra_i}-{h}x{w}")


def encode_case(index: int):
    """The sweep's clip and encode for grid entry ``index`` (seeded by it)."""
    crf, n_b, half_pel, deblock, extra_i, size = GRID[index]
    clip = make_video("oracle", GENRES[index % len(GENRES)], seed=500 + index,
                      size=size, duration_seconds=N_FRAMES / 10.0, fps=10.0)
    # Two closed GOPs, so segment-local display offsets are exercised.
    segments = [Segment(0, 0, 4), Segment(1, 4, N_FRAMES)]
    config = CodecConfig(crf=crf, n_b_frames=n_b, half_pel=half_pel,
                         deblock=deblock, extra_i_interval=extra_i)
    return Encoder(config).encode(clip.frames, segments, fps=clip.fps)


def payload_digest(encoded) -> str:
    sha = hashlib.sha256()
    for seg in encoded.segments:
        sha.update(seg.payload)
    return sha.hexdigest()[:16]


def _check_case(index: int) -> None:
    encoded = encode_case(index)
    key = case_key(GRID[index])
    assert payload_digest(encoded) == DIGESTS[key], (
        f"{key}: encoder payload differs from the scalar codec's")
    decoder = Decoder()
    for seg in encoded.segments:
        expected = ref.decode_segment(seg, encoded.width, encoded.height)
        got = decoder.decode_segment(seg, encoded.width, encoded.height)
        assert [(d.display, d.ftype, d.n_bits) for d in got] == [
            (display, ftype, n_bits) for display, ftype, _, n_bits in expected
        ], key
        for d, (display, ftype, frame, _) in zip(got, expected):
            context = f"{key}: {ftype} frame {display}"
            np.testing.assert_array_equal(d.frame.y, frame.y, err_msg=context)
            np.testing.assert_array_equal(d.frame.u, frame.u, err_msg=context)
            np.testing.assert_array_equal(d.frame.v, frame.v, err_msg=context)
        # The encoder's own accounting is the reference's bit count too.
        assert sorted((f.display, f.n_bits) for f in seg.frames) == sorted(
            (display, n_bits) for display, _, _, n_bits in expected), key


def test_digest_file_covers_the_grid():
    assert set(DIGESTS) == {case_key(case) for case in GRID}


@pytest.mark.parametrize("index", sorted(_TIER1),
                         ids=lambda i: case_key(GRID[i]))
def test_decoder_and_encoder_match_scalar_codec(index):
    _check_case(index)


@pytest.mark.tier2
@pytest.mark.parametrize("index", sorted(set(range(len(GRID))) - _TIER1),
                         ids=lambda i: case_key(GRID[i]))
def test_decoder_and_encoder_match_scalar_codec_full_grid(index):
    _check_case(index)


@pytest.mark.parametrize("half_pel", [True, False], ids=["halfpel", "intpel"])
def test_predict_frame_matches_per_macroblock_compensation(half_pel):
    """Random modes and vectors, many of them out of frame — more than the
    encoder's search ever picks: ``vectors_leave_frame`` flags exactly the
    macroblocks the scalar compensation rejects, and ``predict_frame``
    equals it on the rest."""
    rng = np.random.default_rng(11)
    height, width = 48, 80
    refs = [YuvFrame(rng.integers(0, 256, (height, width)),
                     rng.integers(0, 256, (height // 2, width // 2)),
                     rng.integers(0, 256, (height // 2, width // 2)))
            for _ in range(2)]
    origins = [(y0, x0) for y0 in range(0, height, MB)
               for x0 in range(0, width, MB)]
    n_mb = len(origins)
    for n_refs in (1, 2):
        for _ in range(40):
            modes = (rng.integers(0, 3, n_mb) if n_refs == 2
                     else np.zeros(n_mb, dtype=np.intp))
            mvs = rng.integers(-12, 13, (n_mb, 2, 2))
            expected = []
            for (y0, x0), mode, vectors in zip(origins, modes, mvs):
                try:
                    expected.append(ref.predict_from_refs(
                        refs[:n_refs], int(mode),
                        [tuple(v) for v in vectors.tolist()], y0, x0, half_pel))
                except ValueError:
                    expected.append(None)
            leaving = vectors_leave_frame(height, width, modes, mvs, half_pel)
            assert leaving.tolist() == [e is None for e in expected]
            mvs[leaving] = 0
            planes = predict_frame(refs[:n_refs], modes, mvs, half_pel)
            for k, (want, bad) in enumerate(zip(expected, leaving)):
                if bad:
                    continue
                for plane, block in zip(planes, want):  # macroblock-major
                    assert np.array_equal(plane[k], block)


class TestTransformMatchesEinsum:
    """``dct.py`` is two matmuls; the scalar codec contracted with einsum."""

    @pytest.fixture(scope="class")
    def blocks(self):
        rng = np.random.default_rng(7)
        return np.concatenate([
            rng.uniform(-255, 255, size=(200, 8, 8)),
            rng.integers(-40, 40, size=(200, 8, 8)).astype(np.float64),
            np.zeros((1, 8, 8)),
        ])

    @pytest.mark.parametrize("new, old", [
        (forward_dct, ref.einsum_forward_dct),
        (inverse_dct, ref.einsum_inverse_dct),
    ], ids=["forward", "inverse"])
    def test_stacked_equals_per_block_equals_einsum(self, blocks, new, old):
        stacked = new(blocks)
        for block, out in zip(blocks, stacked):
            expected = old(block)
            assert np.array_equal(new(block), expected)
            assert np.array_equal(out, expected)
        grid = blocks[:192].reshape(12, 16, 8, 8)
        assert np.array_equal(new(grid), stacked[:192].reshape(grid.shape))

    def test_integer_input_is_promoted(self):
        levels = np.arange(64, dtype=np.int64).reshape(8, 8)
        assert np.array_equal(inverse_dct(levels),
                              ref.einsum_inverse_dct(levels))
