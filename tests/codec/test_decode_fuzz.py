"""Seeded mutation sweep over the bitstream decoder.

The segment payload is the one input the client does not control, so a
damaged one must end in frames of the declared shape or in a
``DecodeError`` subclass — the exception ``DcsrClient`` conceals — and
never in a bare ``ValueError``, ``IndexError`` or ``OverflowError``.

Every mutation is also decoded by the scalar reference
(``scalar_reference.py``), which pins down *what* the batched decoder
accepts: it decodes exactly the streams the reference decodes, to the same
planes, with one intended exception — it additionally rejects a frame whose
display index repeats or lies outside the segment.

Mutations come from a fixed seed, so a failure replays.  Tier 1 runs a few
hundred; the ``tier2`` parameter runs the deep sweep through the same test.
"""

import random

import numpy as np
import pytest

from repro.core import DcsrClient
from repro.core.persist import StoredPackage
from repro.video import make_video
from repro.video.codec import (BitReader, BitWriter, CodecConfig,
                               CorruptStreamError, DecodeError, Decoder,
                               EncodedSegment, EncodedVideo, Encoder,
                               TruncatedStreamError)
from repro.video.codec.entropy import decode_coeff_block, write_se, write_ue
from repro.video.codec.residual import parse_inter_macroblocks
from repro.video.segment import Segment

from . import scalar_reference as ref

HEIGHT, WIDTH = 48, 64
N_FRAMES = 6


def _streams() -> list[EncodedSegment]:
    """Intact 48x64 I/P/B segments, half-pel on and off."""
    clip = make_video("fuzz", "sports", seed=21, size=(HEIGHT, WIDTH),
                      duration_seconds=N_FRAMES / 10.0, fps=10.0)
    segments = [Segment(0, 0, N_FRAMES)]
    return [
        Encoder(CodecConfig(crf=40, n_b_frames=2, half_pel=half_pel)).encode(
            clip.frames, segments, fps=clip.fps).segments[0]
        for half_pel in (True, False)
    ]


def _mutate(payload: bytes, rng: random.Random) -> tuple[str, bytes]:
    data = bytearray(payload)
    kind = rng.choice(("bit flip", "byte overwrite", "truncation"))
    if kind == "bit flip":
        at = rng.randrange(len(data) * 8)
        data[at >> 3] ^= 0x80 >> (at & 7)
        return f"{kind} at bit {at}", bytes(data)
    if kind == "byte overwrite":
        at = rng.randrange(len(data))
        data[at] = rng.randrange(256)
        return f"{kind} at byte {at} with {data[at]:#04x}", bytes(data)
    keep = rng.randrange(len(data))
    return f"{kind} to {keep} bytes", bytes(data[:keep])


def _with_payload(segment: EncodedSegment, payload: bytes) -> EncodedSegment:
    return EncodedSegment(index=segment.index, start=segment.start,
                          n_frames=segment.n_frames, payload=payload,
                          frames=segment.frames)


def _reference_outcome(segment: EncodedSegment):
    """The scalar decode's frames, or ``None`` where it raises."""
    try:
        return ref.decode_segment(segment, WIDTH, HEIGHT)
    except (ValueError, EOFError, OverflowError):
        return None


@pytest.mark.parametrize("seed, n_mutations", [
    pytest.param(0, 300, id="tier1"),
    pytest.param(1, 6000, id="deep", marks=pytest.mark.tier2),
])
def test_mutated_streams_decode_or_raise_decode_error(seed, n_mutations):
    rng = random.Random(seed)
    streams = _streams()
    outcomes = {"decoded": 0, "raised": 0}
    for case in range(n_mutations):
        intact = streams[case % len(streams)]
        what, payload = _mutate(intact.payload, rng)
        segment = _with_payload(intact, payload)
        context = f"seed {seed} case {case}: {what}"
        expected = _reference_outcome(segment)
        try:
            frames = Decoder().decode_segment(segment, WIDTH, HEIGHT)
        except DecodeError:
            outcomes["raised"] += 1
            if expected is not None:
                displays = [display for display, _, _, _ in expected]
                assert sorted(displays) != list(range(N_FRAMES)), (
                    f"{context}: rejected a stream the reference decodes")
            continue
        # Anything but a DecodeError propagates and fails the test.
        outcomes["decoded"] += 1
        assert expected is not None, (
            f"{context}: decoded a stream the reference rejects")
        assert sorted(d.display for d in frames) == list(range(N_FRAMES)), context
        for got, (display, ftype, frame, n_bits) in zip(frames, expected):
            assert (got.display, got.ftype, got.n_bits) == (
                display, ftype, n_bits), context
            assert got.frame.y.shape == (HEIGHT, WIDTH), context
            assert got.frame.u.shape == (HEIGHT // 2, WIDTH // 2), context
            np.testing.assert_array_equal(got.frame.y, frame.y, err_msg=context)
            np.testing.assert_array_equal(got.frame.u, frame.u, err_msg=context)
            np.testing.assert_array_equal(got.frame.v, frame.v, err_msg=context)
    # The sweep must reach both outcomes to mean anything.
    assert outcomes["decoded"] and outcomes["raised"], outcomes


def test_exp_golomb_window_read_matches_bit_by_bit():
    """``BitReader.read_ue`` finds the terminating 1 in a byte window; on
    sparse random bytes (long zero prefixes, early ends) it must return the
    value, position and failure the bit-by-bit read does — and levels or
    vectors too wide for 64 bits are corrupt, not an ``OverflowError``."""
    rng = random.Random(3)
    for case in range(3000):
        data = bytes(rng.choice((0, 0, 0, rng.randrange(256)))
                     for _ in range(rng.randrange(24)))
        fast, slow = BitReader(data), BitReader(data)
        skip = rng.randrange(8) if data else 0
        fast.read_bits(skip)
        slow.read_bits(skip)
        outcomes = []
        for reader, read in ((fast, BitReader.read_ue), (slow, ref.read_ue)):
            try:
                outcomes.append((read(reader), reader.bit_position))
            except EOFError:
                outcomes.append("eof")
            except ValueError:
                outcomes.append("prefix too long")
        assert outcomes[0] == outcomes[1], f"case {case}: {data.hex()} +{skip}"

    for value in (2 ** 63, 2 ** 64):
        writer = BitWriter()
        write_se(writer, value)
        write_se(writer, 0)
        writer.write_bit(1)
        with pytest.raises(CorruptStreamError):
            parse_inter_macroblocks(BitReader(writer.getvalue()), 1, False)
        writer = BitWriter()
        for code in (1, 0):             # one nonzero, zero run
            write_ue(writer, code)
        write_se(writer, value)
        with pytest.raises(CorruptStreamError):
            decode_coeff_block(BitReader(writer.getvalue()))


def test_grammar_violations_are_typed():
    """Each class of grammar violation a mutation can cause surfaces as
    ``CorruptStreamError``; only running out of bits is ``Truncated``."""
    rng = random.Random(5)
    intact = _streams()[0]
    seen: set[str] = set()
    for _ in range(400):
        at = rng.randrange(len(intact.payload) * 8)
        data = bytearray(intact.payload)
        data[at >> 3] ^= 0x80 >> (at & 7)
        try:
            Decoder().decode_segment(_with_payload(intact, bytes(data)),
                                     WIDTH, HEIGHT)
        except TruncatedStreamError:
            seen.add("truncated")
        except CorruptStreamError as exc:
            seen.add("vector" if "leave the reference frame" in str(exc)
                     else "grammar")
    # Out-of-frame vectors were the commonest bare ValueError before.
    assert {"vector", "grammar", "truncated"} <= seen, seen


def test_client_conceals_a_corrupt_segment(package, small_clip):
    """A bit flip that breaks the grammar mid-stream (not a truncation)
    ends in ``skipped_segments``, not in a traceback out of ``play()``."""
    victim = package.encoded.segments[1]
    width, height = package.encoded.width, package.encoded.height
    rng = random.Random(9)
    for _ in range(500):
        at = rng.randrange(len(victim.payload) * 8)
        data = bytearray(victim.payload)
        data[at >> 3] ^= 0x80 >> (at & 7)
        broken = _with_payload(victim, bytes(data))
        try:
            Decoder().decode_segment(broken, width, height)
        except TruncatedStreamError:
            continue
        except CorruptStreamError:
            break
    else:
        pytest.fail("no bit flip produced a CorruptStreamError")

    encoded = EncodedVideo(width=width, height=height,
                           fps=package.encoded.fps,
                           config=package.encoded.config)
    encoded.segments = [broken if seg.index == victim.index else seg
                        for seg in package.encoded.segments]
    damaged = StoredPackage(manifest=package.manifest, encoded=encoded,
                            models=package.models, segments=package.segments)
    result = DcsrClient(damaged).play(small_clip.frames)
    assert result.skipped_segments == [victim.index]
    assert len(result.frames) == small_clip.n_frames
