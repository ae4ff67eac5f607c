"""The vectorised I-frame decode held to the loops it replaced.

An intra frame is parsed in array passes over a per-bit Exp-Golomb table
(``BitReader.ue_table`` → ``entropy.read_led_blocks``) and its three planes
are rebuilt on one wavefront (``residual.reconstruct_intra``).  Four things
hold that to the old behaviour:

- ``reference_intra.py`` keeps the per-symbol walk and the per-plane
  wavefront verbatim; on every I frame of the oracle and fuzz streams and
  on one 352x640 frame the array passes must return the walk's ``(modes,
  coded, levels)`` and end bit (``array_equal``, same dtypes), without
  falling back to it.
- one hand-built stream per way a code or a block can be wrong, or merely
  wider than the table holds: the decoder must end exactly as
  ``scalar_reference`` does — the same planes, or ``TruncatedStreamError``
  where it runs out of bits and ``CorruptStreamError`` where it objects.
- decoding an intact I frame makes no ``BitReader.read_ue`` call after the
  frame header, so a silent return to the per-symbol loop fails on a
  count, not on a stopwatch; the ``timing`` test then holds the table
  build plus the array passes to twice the walk's speed.
- the fused reconstruction equals the per-plane one on frames from one
  chroma block up, every mode present.
"""

import time

import numpy as np
import pytest

from repro.video import make_video
from repro.video.codec import (BitReader, BitWriter, CodecConfig,
                               CorruptStreamError, Decoder, EncodedSegment,
                               Encoder, TruncatedStreamError)
from repro.video.codec import decoder as decoder_module
from repro.video.codec.entropy import read_led_blocks, write_se, write_ue
from repro.video.codec.residual import parse_intra_blocks, reconstruct_intra
from repro.video.segment import Segment

from . import reference_intra
from . import scalar_reference as ref
from .test_decode_fuzz import HEIGHT, WIDTH, _streams
from .test_decode_oracle import _TIER1, encode_case

FRAME_SIZE = (352, 640)


def _intra_frames(segment, width, height):
    """``(start bit, n_blocks)`` of every I frame the decoder parses."""
    found = []

    def spy(reader, n_blocks):
        found.append((reader.bit_position, n_blocks))
        return parse_intra_blocks(reader, n_blocks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoder_module, "parse_intra_blocks", spy)
        Decoder().decode_segment(segment, width, height)
    return found


def _assert_parse_matches_walk(segment, width, height):
    frames = _intra_frames(segment, width, height)
    assert frames
    # One reader for the segment's frames, as in the decoder: a later I
    # frame is parsed from the table the first one built.
    vector = BitReader(segment.payload)
    for start, n_blocks in frames:
        walk = BitReader(segment.payload)
        walk.seek(start)
        expected = reference_intra.parse_intra_blocks(walk, n_blocks)
        vector.seek(start)
        got = read_led_blocks(vector, n_blocks)
        assert got is not None, f"fell back at bit {start}"
        for new, old in zip(got, expected):
            assert new.dtype == old.dtype and np.array_equal(new, old)
        assert vector.bit_position == walk.bit_position


@pytest.fixture(scope="module")
def frame_segment():
    """One 352x640 I frame, as the play workloads decode them."""
    clip = make_video("frame", "news", seed=5, size=FRAME_SIZE,
                      duration_seconds=0.1, fps=10.0)
    return Encoder(CodecConfig(crf=45)).encode(
        clip.frames, [Segment(0, 0, 1)], fps=clip.fps).segments[0]


# ------------------------------------------------- (a) equal to the walk

@pytest.mark.parametrize("index", sorted(_TIER1)[::4])
def test_oracle_streams_parse_as_the_walk_does(index):
    encoded = encode_case(index)
    for segment in encoded.segments:
        _assert_parse_matches_walk(segment, encoded.width, encoded.height)


def test_fuzz_streams_parse_as_the_walk_does():
    for segment in _streams():
        _assert_parse_matches_walk(segment, WIDTH, HEIGHT)


def test_full_size_frame_parses_as_the_walk_does(frame_segment):
    height, width = FRAME_SIZE
    _assert_parse_matches_walk(frame_segment, width, height)


# ------------------------------------------- (b) one stream per anomaly

def _block(writer, mode=0, pairs=(), count=None):
    write_ue(writer, mode)
    write_ue(writer, len(pairs) if count is None else count)
    for run, level in pairs:
        write_ue(writer, run)
        write_se(writer, level)


def _written(blocks):
    writer = BitWriter()
    writer.write_uint(30, 8)        # QP
    writer.write_uint(0, 8)         # no deblocking, integer-pel
    for code in (1, 0, 0):          # one frame; type I; display 0
        write_ue(writer, code)
    for block in blocks:
        _block(writer, **block)
    return writer


def _segment(blocks, cut_bits=0):
    """A 16x16 one-I-frame segment from six ``_block`` argument dicts.

    ``cut_bits`` drops that many bits off the end of the block data; the
    first block's level is then chosen so that the cut falls on a byte
    and no padding follows it.
    """
    writer = _written(blocks)
    if cut_bits:
        for level in range(1, 400):
            writer = _written([{"pairs": ((0, level),)}] + blocks[1:])
            if (writer.bit_length - cut_bits) % 8 == 0:
                break
        else:
            raise AssertionError("no level aligns the cut")
    keep = (writer.bit_length - cut_bits + 7) // 8
    return EncodedSegment(index=0, start=0, n_frames=1,
                          payload=writer.getvalue()[:keep], frames=[])


def _six(last, **first):
    return [first] + [{}] * 4 + [last]


WIDE = 2 ** 28          # se code with 29 prefix zeros: past the table
ANOMALIES = {
    "prefix of 29 zeros": (_six({"pairs": ((3, WIDE),)}), 0),
    "prefix of 64 zeros": (_six({"pairs": ((3, -2 ** 63),)}), 0),
    "prefix of 65 zeros": (_six({"pairs": ((2 ** 65, 1),)}), 0),
    # ue(2**20) is 20 zeros, a one, 20 suffix bits; ue(0) follows.  Every
    # code is an odd number of bits, so only an odd cut can reach a byte.
    "ends inside a prefix": (_six({"mode": 2 ** 20}), 29),
    "ends inside a suffix": (_six({"mode": 2 ** 20}), 9),
    "65 nonzeros": (_six({"pairs": ((0, 1),) * 65}), 0),
    "zigzag position 64": (_six({"pairs": ((40, 1), (23, -1))}), 0),
    "mode 3 on the last block": (_six({"mode": 3, "pairs": ((0, 2),)}), 0),
    "level of 2**63": (_six({"pairs": ((0, 2 ** 63),)}), 0),
}
DECODABLE = {"prefix of 29 zeros", "prefix of 64 zeros"}


@pytest.mark.parametrize("name", ANOMALIES)
def test_anomalies_end_as_the_scalar_reference_does(name):
    blocks, cut_bits = ANOMALIES[name]
    segment = _segment(blocks, cut_bits)
    try:
        expected = ref.decode_segment(segment, 16, 16)
    except EOFError:
        expected = TruncatedStreamError
    except (ValueError, OverflowError):
        expected = CorruptStreamError
    assert (name in DECODABLE) == isinstance(expected, list)
    assert ("ends inside" in name) == (expected is TruncatedStreamError)
    if isinstance(expected, list):
        (got,) = Decoder().decode_segment(segment, 16, 16)
        (_, _, frame, n_bits), = expected
        assert got.n_bits == n_bits
        for plane in "yuv":
            assert np.array_equal(getattr(got.frame, plane),
                                  getattr(frame, plane))
        return
    with pytest.raises(CorruptStreamError) as raised:
        Decoder().decode_segment(segment, 16, 16)
    assert isinstance(raised.value, TruncatedStreamError) == (
        expected is TruncatedStreamError)


def test_intact_hand_built_stream_takes_the_vector_pass():
    """The anomaly streams differ from this one in one code each, so it is
    that code, not the hand-built framing, that sends them to the walk; a
    prefix of 28 zeros is the widest code the table holds."""
    widest = 2 ** 27 + 5
    segment = _segment(_six({"mode": 2, "pairs": ((40, 1), (22, -widest))},
                            mode=1, pairs=((0, 7),)))
    (start, n_blocks), = _intra_frames(segment, 16, 16)
    reader = BitReader(segment.payload)
    reader.seek(start)
    modes, coded, levels = read_led_blocks(reader, n_blocks)
    assert modes.tolist() == [1, 0, 0, 0, 0, 2] and coded.tolist() == [0, 5]
    assert sorted(levels[1][levels[1] != 0].tolist()) == [-widest, 1]
    assert 0 <= reader.bits_remaining < 8
    (got,) = Decoder().decode_segment(segment, 16, 16)
    (_, _, frame, n_bits), = ref.decode_segment(segment, 16, 16)
    assert got.n_bits == n_bits
    for plane in "yuv":
        assert np.array_equal(getattr(got.frame, plane), getattr(frame, plane))


# ------------------------------------------------ (c) no per-symbol loop

def test_intact_frame_makes_no_per_symbol_read(frame_segment, monkeypatch):
    calls = []
    read_ue = BitReader.read_ue

    def counted(self):
        calls.append(self.bit_position)
        return read_ue(self)

    monkeypatch.setattr(BitReader, "read_ue", counted)
    height, width = FRAME_SIZE
    Decoder().decode_segment(frame_segment, width, height)
    # ue(n_frames), ue(frame type), ue(display): the headers, nothing else.
    assert len(calls) == 3, f"{len(calls)} read_ue calls"


@pytest.mark.timing
def test_vector_parse_is_twice_as_fast_as_the_walk(frame_segment):
    height, width = FRAME_SIZE
    (start, n_blocks), = _intra_frames(frame_segment, width, height)

    def best(parse):
        times = []
        for _ in range(7):
            reader = BitReader(frame_segment.payload)   # no table yet
            reader.seek(start)
            tick = time.perf_counter()
            assert parse(reader, n_blocks) is not None
            times.append(time.perf_counter() - tick)
        return min(times)

    walk = best(reference_intra.parse_intra_blocks)
    vector = best(read_led_blocks)
    assert walk >= 2.0 * vector, (
        f"walk {walk * 1e3:.2f} ms, table + vector parse {vector * 1e3:.2f} ms")


# ------------------------------------------------ (d) fused reconstruction

@pytest.mark.parametrize("size", [(16, 16), (16, 64), (64, 16), (48, 64)],
                         ids=lambda size: f"{size[0]}x{size[1]}")
def test_fused_reconstruction_equals_per_plane(size):
    height, width = size
    rng = np.random.default_rng(height * 100 + width)
    n_luma = (height // 8) * (width // 8)
    n_blocks = n_luma * 3 // 2
    for qp in (20, 38, 51):
        modes = rng.permutation(np.arange(n_blocks) % 3).astype(np.intp)
        coded = np.flatnonzero(rng.random(n_blocks) < 0.7)
        levels = rng.integers(-40, 41, (len(coded), 64))
        levels[rng.random(levels.shape) < 0.8] = 0
        got = reconstruct_intra(modes, coded, levels, qp, height, width)
        start = 0
        for plane, (count, shrink) in zip(
                got, ((n_luma, 1), (n_luma // 4, 2), (n_luma // 4, 2))):
            stop = start + count
            lo, hi = np.searchsorted(coded, (start, stop))
            expected = reference_intra.reconstruct_plane_intra(
                modes[start:stop], coded[lo:hi] - start, levels[lo:hi], qp,
                height // shrink, width // shrink)
            assert plane.dtype == np.uint8
            assert np.array_equal(plane, expected)
            start = stop
