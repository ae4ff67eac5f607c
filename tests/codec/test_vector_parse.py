"""The vectorised decode held to the loops it replaced.

An intra frame is parsed in array passes over a per-bit Exp-Golomb table
(``BitReader.ue_table`` → ``entropy.read_led_blocks``) and its three planes
are rebuilt on one wavefront (``residual.reconstruct_intra``); a P or B
frame is parsed over per-bit macroblock ends built from the same table
(``residual.parse_inter_macroblocks``).  Four things hold that to the old
behaviour:

- ``reference_intra.py`` and ``reference_inter.py`` keep the per-symbol
  walks (and ``reference_intra.py`` the per-plane wavefront) verbatim; on
  every frame of the oracle and fuzz streams and on 352x640 I, P and B
  frames the array passes must return the walk's arrays and end bit
  (``array_equal``, same dtypes), without falling back to it.
- one hand-built stream per way a code, a block or a macroblock can be
  wrong, or merely wider than the table holds: the decoder must end
  exactly as ``scalar_reference`` does — the same planes, or
  ``TruncatedStreamError`` where it runs out of bits and
  ``CorruptStreamError`` where it objects.
- decoding intact frames makes ``BitReader.read_ue`` calls for the frame
  headers only, so a silent return to the per-symbol loop fails on a
  count, not on a stopwatch; the ``timing`` tests then hold the table
  builds plus the array passes to twice the walk's speed.
- the fused reconstruction equals the per-plane one on frames from one
  chroma block up, every mode present.
"""

import random
import time

import numpy as np
import pytest

from repro.video import make_video
from repro.video.codec import (BitReader, BitWriter, CodecConfig,
                               CorruptStreamError, Decoder, EncodedSegment,
                               Encoder, TruncatedStreamError)
from repro.video.codec import decoder as decoder_module
from repro.video.codec.entropy import read_led_blocks, write_se, write_ue
from repro.video.codec.residual import (_read_macroblocks,
                                       parse_inter_macroblocks,
                                       parse_intra_blocks, reconstruct_intra)
from repro.video.segment import Segment

from . import reference_inter, reference_intra
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

def _ue(writer, value):
    """ue(value) of any size: ``write_ue`` refuses a prefix over 64 zeros,
    and the "prefix of 65 zeros" stream needs one."""
    code = value + 1
    writer.write_bits(code, 2 * code.bit_length() - 1)


def _block(writer, mode=0, pairs=(), count=None):
    write_ue(writer, mode)
    write_ue(writer, len(pairs) if count is None else count)
    for run, level in pairs:
        _ue(writer, run)
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


def _assert_ends_as_reference(segment, decodable, truncated, width=16):
    """Decode a hand-built ``16 x width`` segment and require the scalar
    reference's outcome: its planes and bits, or the error class it
    implies.  ``decodable``/``truncated`` say which outcome that is."""
    try:
        expected = ref.decode_segment(segment, width, 16)
    except EOFError:
        expected = TruncatedStreamError
    except (ValueError, OverflowError):
        expected = CorruptStreamError
    assert decodable == isinstance(expected, list)
    assert truncated == (expected is TruncatedStreamError)
    if isinstance(expected, list):
        got = Decoder().decode_segment(segment, width, 16)
        assert len(got) == len(expected)
        for frame, (_, _, want, n_bits) in zip(got, expected):
            assert frame.n_bits == n_bits
            for plane in "yuv":
                assert np.array_equal(getattr(frame.frame, plane),
                                      getattr(want, plane))
        return
    with pytest.raises(CorruptStreamError) as raised:
        Decoder().decode_segment(segment, width, 16)
    assert isinstance(raised.value, TruncatedStreamError) == truncated


@pytest.mark.parametrize("name", ANOMALIES)
def test_anomalies_end_as_the_scalar_reference_does(name):
    blocks, cut_bits = ANOMALIES[name]
    _assert_ends_as_reference(_segment(blocks, cut_bits),
                              decodable=name in DECODABLE,
                              truncated="ends inside" in name)


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
    assert 0 <= 8 * len(segment.payload) - reader.bit_position < 8
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


# ============================================================ P and B frames

def _inter_frames(segment, width, height):
    """``(start bit, n_mb, bidirectional)`` of every P or B frame the
    decoder parses."""
    found = []

    def spy(reader, n_mb, bidirectional):
        found.append((reader.bit_position, n_mb, bidirectional))
        return parse_inter_macroblocks(reader, n_mb, bidirectional)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoder_module, "parse_inter_macroblocks", spy)
        Decoder().decode_segment(segment, width, height)
    return found


def _assert_inter_parse_matches_walk(segment, width, height):
    frames = _inter_frames(segment, width, height)
    # One reader for the segment's frames, as in the decoder: a later P or
    # B frame is parsed from the tables the first one built.
    vector = BitReader(segment.payload)
    for start, n_mb, bidirectional in frames:
        walk = BitReader(segment.payload)
        walk.seek(start)
        expected = reference_inter.parse_inter_macroblocks(
            walk, n_mb, bidirectional)
        vector.seek(start)
        got = _read_macroblocks(vector, n_mb, bidirectional)
        assert got is not None, f"fell back at bit {start}"
        for new, old in zip(got, expected):
            assert new.dtype == old.dtype and np.array_equal(new, old)
        assert vector.bit_position == walk.bit_position
    return frames


@pytest.fixture(scope="module")
def inter_segment():
    """One 352x640 segment decoded I, P, B, as the play workloads do."""
    clip = make_video("frames", "sports", seed=1, size=FRAME_SIZE,
                      duration_seconds=0.3, fps=10.0)
    return Encoder(CodecConfig(crf=45, n_b_frames=1)).encode(
        clip.frames, [Segment(0, 0, 3)], fps=clip.fps).segments[0]


# ------------------------------------------------- (e) equal to the walk

@pytest.mark.parametrize("index", sorted(_TIER1)[::4])
def test_oracle_streams_parse_inter_frames_as_the_walk_does(index):
    encoded = encode_case(index)
    frames = []
    for segment in encoded.segments:
        frames += _assert_inter_parse_matches_walk(
            segment, encoded.width, encoded.height)
    assert frames


def test_fuzz_streams_parse_inter_frames_as_the_walk_does():
    for segment in _streams():
        frames = _assert_inter_parse_matches_walk(segment, WIDTH, HEIGHT)
        assert {bidirectional for _, _, bidirectional in frames} == {
            False, True}


def test_full_size_p_and_b_frames_parse_as_the_walk_does(inter_segment):
    height, width = FRAME_SIZE
    frames = _assert_inter_parse_matches_walk(inter_segment, width, height)
    assert [bidirectional for _, _, bidirectional in frames] == [False, True]


# ------------------------------------------- (f) one stream per anomaly

def _se(writer, value):
    """se(value) of any size (see ``_ue``)."""
    _ue(writer, 2 * value - 1 if value > 0 else -2 * value)


def _macroblock(writer, mode=None, vectors=((0, 0),), blocks=()):
    """One macroblock: ``ue(mode)`` for a B frame, the vectors, the skip
    flag (set when ``blocks`` is empty), then six ``(pairs, count)``
    blocks."""
    if mode is not None:
        _ue(writer, mode)
    for dy, dx in vectors:
        _se(writer, dy)
        _se(writer, dx)
    writer.write_bit(0 if blocks else 1)
    for pairs, count in blocks:
        _ue(writer, len(pairs) if count is None else count)
        for run, level in pairs:
            _ue(writer, run)
            _se(writer, level)


def _inter_written(macroblock, bidirectional, n_mb, level=0):
    """A ``16 x 16 n_mb`` segment: an I frame, then a P frame predicted from
    it and, if ``bidirectional``, a B frame between the two.  Every
    macroblock is a skipped zero vector but the last frame's last, which is
    ``macroblock`` (``_macroblock`` arguments); ``level`` is the I frame's
    one coefficient.  Returns the writer and the bit the last frame's
    macroblocks start at."""
    n_frames = 3 if bidirectional else 2
    writer = BitWriter()
    writer.write_uint(30, 8)        # QP
    writer.write_uint(0, 8)         # no deblocking, integer-pel
    write_ue(writer, n_frames)
    for code in (0, 0):             # type I, display 0
        write_ue(writer, code)
    _block(writer, pairs=((0, level),) if level else ())
    for _ in range(6 * n_mb - 1):
        _block(writer)
    for code in (1, n_frames - 1, n_frames - 1):    # P, from frame 0
        write_ue(writer, code)
    if bidirectional:
        for _ in range(n_mb):
            _macroblock(writer)
        for code in (2, 1, 1, 1):   # B at display 1, from frames 0 and 2
            write_ue(writer, code)
    start = writer.bit_length
    for _ in range(n_mb - 1):
        _macroblock(writer, mode=0 if bidirectional else None)
    _macroblock(writer, **macroblock)
    return writer, start


def _inter_segment(macroblock, bidirectional, n_mb, cut_bits=0,
                   aligned=False):
    """``_inter_written``'s segment, with ``cut_bits`` dropped off its end;
    with a cut, or ``aligned``, the I frame's level is chosen so that the
    data ends on a byte and no padding follows it.  Every code is an odd
    number of bits, so the data is ``n_mb`` bits long modulo 2: only an
    even cut of a two-macroblock frame, or an odd one of a one-macroblock
    frame, can reach a byte."""
    level = 0
    if cut_bits or aligned:
        for level in range(1, 400):
            writer, start = _inter_written(macroblock, bidirectional, n_mb,
                                           level)
            if (writer.bit_length - cut_bits) % 8 == 0:
                break
        else:
            raise AssertionError("no level aligns the end")
    writer, start = _inter_written(macroblock, bidirectional, n_mb, level)
    keep = (writer.bit_length - cut_bits + 7) // 8
    segment = EncodedSegment(index=0, start=0,
                             n_frames=3 if bidirectional else 2,
                             payload=writer.getvalue()[:keep], frames=[])
    return segment, start


def _coded(first=(), last=(), count=None):
    """Six blocks: ``first`` and ``last`` the pairs of the first and last
    (``count`` overriding the first's n_nonzero), the rest empty."""
    return ((first, count),) + (((), None),) * 4 + ((last, None),)


INTER_ANOMALIES = {
    # name: (macroblock, bidirectional, macroblocks per frame, cut bits)
    "B mode 3": ({"mode": 3}, True, 1, 0),
    "skip flag is the last bit (P)": ({}, False, 2, 0),
    "skip flag is the last bit (B)": ({"mode": 1}, True, 2, 0),
    "65 nonzeros": ({"blocks": _coded(first=((0, 1),) * 65)}, False, 1, 0),
    "n_nonzero of 65, data ends": (
        {"blocks": _coded(first=((0, 1),), count=65)}, False, 1, 0),
    "zigzag position 64": (
        {"mode": 2, "vectors": ((0, 0), (0, 0)),
         "blocks": _coded(last=((40, 1), (23, -1)))}, True, 1, 0),
    "vector prefix of 29 zeros": ({"vectors": ((WIDE, 0),)}, False, 1, 0),
    "vector prefix of 64 zeros": (
        {"mode": 2, "vectors": ((0, 0), (0, 2 ** 63))}, True, 1, 0),
    "level prefix of 29 zeros": (
        {"blocks": _coded(last=((3, WIDE),))}, False, 1, 0),
    "ends inside a macroblock's blocks": (
        {"blocks": _coded(first=((0, 5), (2, -3)))}, False, 1, 5),
    "ends before the skip flag": ({"mode": 0}, True, 1, 1),
}
INTER_DECODABLE = {"skip flag is the last bit (P)",
                   "skip flag is the last bit (B)",
                   "level prefix of 29 zeros"}


@pytest.mark.parametrize("name", INTER_ANOMALIES)
def test_inter_anomalies_end_as_the_scalar_reference_does(name):
    macroblock, bidirectional, n_mb, cut_bits = INTER_ANOMALIES[name]
    aligned = "last bit" in name
    segment, start = _inter_segment(macroblock, bidirectional, n_mb,
                                     cut_bits, aligned)
    # Only the intact frames whose codes the table holds take the array
    # passes; every other one is handed to the walk.
    reader = BitReader(segment.payload)
    reader.seek(start)
    parsed = _read_macroblocks(reader, n_mb, bidirectional)
    assert (parsed is not None) == aligned
    if aligned:
        assert reader.bit_position == 8 * len(segment.payload)
    _assert_ends_as_reference(segment, decodable=name in INTER_DECODABLE,
                              truncated=name.startswith("ends"),
                              width=16 * n_mb)


def test_random_bits_parse_as_the_walk_does_or_fall_back():
    """Seeded random bytes — mostly set bits, so many macroblocks parse —
    read as P and B frames from an odd start: the array passes return a
    frame only where the walk returns the same one, and fall back,
    reader untouched, wherever the walk raises."""
    rng = random.Random(1)
    taken = 0
    for case in range(2000):
        data = bytes(rng.choice((0xFF, 0xFF, 0x80, 0x40, rng.randrange(256)))
                     for _ in range(rng.randrange(1, 60)))
        n_mb, bidirectional = rng.randrange(1, 12), rng.random() < 0.5
        start = rng.randrange(8)
        walk, vector = BitReader(data), BitReader(data)
        walk.seek(start)
        vector.seek(start)
        try:
            expected = reference_inter.parse_inter_macroblocks(
                walk, n_mb, bidirectional)
        except (EOFError, ValueError):
            expected = None
        got = _read_macroblocks(vector, n_mb, bidirectional)
        if got is None:
            assert vector.bit_position == start, case
            continue
        taken += 1
        assert expected is not None, f"case {case}: {data.hex()}"
        for new, old in zip(got, expected):
            assert new.dtype == old.dtype and np.array_equal(new, old), case
        assert vector.bit_position == walk.bit_position, case
    assert taken > 200


# ------------------------------------------------ (g) no per-symbol loop

def test_intact_inter_frames_make_header_reads_only(inter_segment,
                                                    monkeypatch):
    calls = []
    read_ue = BitReader.read_ue

    def counted(self):
        calls.append(self.bit_position)
        return read_ue(self)

    monkeypatch.setattr(BitReader, "read_ue", counted)
    height, width = FRAME_SIZE
    Decoder().decode_segment(inter_segment, width, height)
    # ue(n_frames); I: type, display; P: + forward distance; B: + both.
    assert len(calls) == 1 + 2 + 3 + 4, f"{len(calls)} read_ue calls"


@pytest.mark.timing
def test_inter_vector_parse_is_twice_as_fast_as_the_walk(inter_segment):
    height, width = FRAME_SIZE
    frames = _inter_frames(inter_segment, width, height)

    def best(parse):
        times = []
        for _ in range(7):
            # A fresh reader whose code table the I frame already built:
            # the macroblock tables are timed with the parse.
            reader = BitReader(inter_segment.payload)
            reader.ue_table()
            tick = time.perf_counter()
            for start, n_mb, bidirectional in frames:
                reader.seek(start)
                assert parse(reader, n_mb, bidirectional) is not None
            times.append(time.perf_counter() - tick)
        return min(times)

    walk = best(reference_inter.parse_inter_macroblocks)
    vector = best(_read_macroblocks)
    assert walk >= 2.0 * vector, (
        f"walk {walk * 1e3:.2f} ms, tables + vector parse "
        f"{vector * 1e3:.2f} ms")
