"""Bit-level writer/reader for the codec bitstream, and the decode errors.

The encoder produces a real byte string that the decoder parses back, so
compressed segment sizes used in the bandwidth experiments (Figure 10) are
measured, not estimated.

Exp-Golomb data is read one code at the cursor (:meth:`BitReader.read_ue`:
headers, inter frames, anything irregular) or tokenised whole — the code at
*every* bit, :meth:`BitReader.ue_table` — for :mod:`.entropy`'s I-frame parse.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader", "DecodeError", "CorruptStreamError",
           "TruncatedStreamError", "SegmentMetadataError"]


class DecodeError(ValueError):
    """Base of all bitstream decode failures.

    Subclasses ``ValueError`` so pre-typed callers keep working; the
    streaming client catches this (plus ``EOFError``) to distinguish
    *corrupt input* — concealable — from client bugs such as a broken
    enhancement hook, which keep raising ``TypeError``/``RuntimeError``.
    """


class CorruptStreamError(DecodeError):
    """The payload violates the bitstream grammar (bad code, missing ref)."""


class TruncatedStreamError(CorruptStreamError, EOFError):
    """The payload ended mid-frame (also an ``EOFError`` for old callers)."""


class SegmentMetadataError(DecodeError):
    """Segment header and out-of-band metadata disagree."""


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._n_acc = 0

    def write_bit(self, bit: int) -> None:
        self._acc = (self._acc << 1) | (bit & 1)
        self._n_acc += 1
        if self._n_acc == 8:
            self._bytes.append(self._acc)
            self._acc = 0
            self._n_acc = 0

    def write_bits(self, value: int, n_bits: int) -> None:
        """Write the ``n_bits`` low bits of ``value``, MSB first."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if value < 0 or (n_bits < 64 and value >> n_bits):
            raise ValueError(f"value {value} does not fit in {n_bits} bits")
        for shift in range(n_bits - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_uint(self, value: int, n_bits: int = 32) -> None:
        """Fixed-width unsigned integer."""
        self.write_bits(value, n_bits)

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._n_acc

    def getvalue(self) -> bytes:
        """Byte-align (zero padding) and return the buffer."""
        out = bytearray(self._bytes)
        if self._n_acc:
            out.append(self._acc << (8 - self._n_acc))
        return bytes(out)


# Longest legal Exp-Golomb prefix (zeros before the terminating 1).
_MAX_UE_PREFIX = 64
# Bytes that always hold one whole code from any bit offset:
# 7 + prefix + 1 + suffix bits, rounded up.
_UE_WINDOW = (7 + 2 * _MAX_UE_PREFIX + 1 + 7) // 8
# Longest prefix ``ue_table`` decodes: 7 + 57 bits fit one 64-bit window.
_TABLE_PREFIX = 28


class BitReader:
    """MSB-first bit reader over a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position
        self._end = len(data) * 8
        self._ue_table: tuple[np.ndarray, np.ndarray] | None = None

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise EOFError("bitstream exhausted")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, n_bits: int) -> int:
        pos = self._pos
        stop = pos + n_bits
        if stop > self._end:
            self._pos = self._end
            raise EOFError("bitstream exhausted")
        self._pos = stop
        last = (stop + 7) >> 3
        window = int.from_bytes(self._data[pos >> 3:last], "big")
        return (window >> (last * 8 - stop)) & ((1 << n_bits) - 1)

    def read_uint(self, n_bits: int = 32) -> int:
        return self.read_bits(n_bits)

    def read_ue(self) -> int:
        """One unsigned Exp-Golomb code.

        The code's zero prefix is measured in one step, as the distance to
        the leading 1 of a byte window, instead of one call per bit.  The
        outcomes are those of the bit-by-bit read: ``CorruptStreamError``
        once a 65th prefix zero is seen, ``EOFError`` when the data ends
        inside the prefix or the suffix.
        """
        pos = self._pos
        first = pos >> 3
        chunk = self._data[first:first + _UE_WINDOW]
        avail = len(chunk) * 8 - (pos & 7)      # window bits from ``pos`` on
        window = int.from_bytes(chunk, "big") & ((1 << avail) - 1)
        zeros = avail - window.bit_length()
        if zeros > _MAX_UE_PREFIX:
            raise CorruptStreamError(
                "corrupt Exp-Golomb code (prefix too long)")
        n_bits = 2 * zeros + 1
        if not window or n_bits > avail:
            self._pos = self._end
            raise EOFError("bitstream exhausted")
        self._pos = pos + n_bits
        return (window >> (avail - n_bits)) - 1

    def read_se(self) -> int:
        """Signed Exp-Golomb code (H.264 mapping: 0, 1, -1, 2, -2, ...)."""
        code = self.read_ue()
        return (code + 1) >> 1 if code & 1 else -(code >> 1)

    def ue_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(value, after)`` of the Exp-Golomb code starting at *every* bit
        of the ``n``-bit payload; built on first use and kept.

        ``value[p]`` (``p < n``) is what :meth:`read_ue` returns at bit
        ``p`` and ``after[p]`` the bit it stops at.  A code the table does
        not hold (over 28 prefix zeros, or cut off by the end of the data,
        as at ``p == n``) has ``after[p] == n + 1``, its own image too:
        following ``after`` ends there, and every bit passed on the way
        but the last starts a code :meth:`read_ue` reads alike.
        """
        if self._ue_table is None:
            raw = np.frombuffer(self._data, dtype=np.uint8)
            n = self._end
            bits = np.unpackbits(raw)
            # The 1 ending the prefix that starts at each bit: the ones
            # before a bit number the first one at or after it.
            ones = np.append(np.flatnonzero(bits.view(np.bool_)), 2 * n)
            rank = np.cumsum(bits, dtype=np.int32) - bits
            lead = ones.astype(np.int32).take(rank)
            zeros = lead - np.arange(n, dtype=np.int32)
            after = np.full(n + 2, n + 1)
            np.add(lead, zeros + 1, out=after[:n])
            after[:n][(zeros > _TABLE_PREFIX) | (after[:n] > n)] = n + 1
            # 64 bits from each byte on, big-endian, then from each bit on:
            # the code is the top ``2 * zeros + 1`` of them.
            padded = np.concatenate([raw, np.zeros(8, dtype=np.uint8)])
            code = np.repeat(np.ascontiguousarray(
                np.lib.stride_tricks.sliding_window_view(padded, 8)[:len(raw)]
            ).view(">u8").ravel().astype(np.uint64), 8)
            code <<= np.tile(np.arange(8, dtype=np.uint8), len(raw))
            code >>= (63 - 2 * np.minimum(zeros, _TABLE_PREFIX)).astype(
                np.uint8)
            value = code.astype(np.int32)
            value -= 1
            self._ue_table = value, after
        return self._ue_table

    def seek(self, bit_position: int) -> None:
        """Move the cursor to a bit already known to lie in the data."""
        self._pos = bit_position

    @property
    def bits_remaining(self) -> int:
        return self._end - self._pos

    @property
    def bit_position(self) -> int:
        return self._pos
