"""Tests for the bit-level I/O and entropy coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.codec.bitstream import BitReader, BitWriter
from repro.video.codec.entropy import (
    encode_coeff_block,
    read_se,
    read_ue,
    write_se,
    write_ue,
    zigzag_order,
)

from .scalar_reference import decode_coeff_block


class TestBitWriterReader:
    def test_single_bits(self):
        w = BitWriter()
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        for b in pattern:
            w.write_bit(b)
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in range(len(pattern))] == pattern

    def test_write_bits_roundtrip(self):
        w = BitWriter()
        w.write_bits(0b10110, 5)
        w.write_bits(0b01, 2)
        r = BitReader(w.getvalue())
        assert r.read_bits(5) == 0b10110
        assert r.read_bits(2) == 0b01

    def test_uint_roundtrip(self):
        w = BitWriter()
        w.write_uint(123456789, 32)
        assert BitReader(w.getvalue()).read_uint(32) == 123456789

    def test_value_too_big_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(8, 3)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(-1, 4)

    @pytest.mark.parametrize("value,n_bits", [
        (1 << 70, 64), (1 << 64, 64), (1 << 65, 65), (1, 0), (2**100, 99)])
    def test_value_too_big_raises_at_every_width(self, value, n_bits):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(value, n_bits)
        assert w.bit_length == 0

    @pytest.mark.parametrize("n_bits", [63, 64, 65, 129])
    def test_widest_value_roundtrips(self, n_bits):
        w = BitWriter()
        w.write_bit(1)
        w.write_bits((1 << n_bits) - 1, n_bits)
        r = BitReader(w.getvalue())
        assert r.read_bit() == 1
        assert r.read_bits(n_bits) == (1 << n_bits) - 1

    def test_bit_length_tracks(self):
        w = BitWriter()
        assert w.bit_length == 0
        w.write_bits(0, 13)
        assert w.bit_length == 13

    def test_padding_on_getvalue(self):
        w = BitWriter()
        w.write_bit(1)
        data = w.getvalue()
        assert len(data) == 1
        assert data[0] == 0b10000000

    def test_eof_raises(self):
        r = BitReader(b"")
        with pytest.raises(EOFError):
            r.read_bit()

    @given(st.integers(0, 7),
           st.lists(st.tuples(st.integers(0, 2**140), st.integers(0, 130)),
                    max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_property_write_bits_matches_per_bit_writer(self, lead, runs):
        """One-shot ``write_bits`` gives the bytes and ``bit_length`` of a
        writer that appends one bit at a time, from any bit offset and at
        any width, 0 and >= 64 included."""
        w, bits = BitWriter(), []
        for bit in range(lead):
            w.write_bit(bit & 1)
            bits.append(bit & 1)
        for value, n_bits in runs:
            value &= (1 << n_bits) - 1
            w.write_bits(value, n_bits)
            bits.extend((value >> shift) & 1
                        for shift in range(n_bits - 1, -1, -1))
        assert w.bit_length == len(bits)
        bits += [0] * (-len(bits) % 8)
        assert w.getvalue() == bytes(
            int("".join(map(str, bits[i:i + 8])), 2)
            for i in range(0, len(bits), 8))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_property_bit_roundtrip(self, bits):
        w = BitWriter()
        for b in bits:
            w.write_bit(b)
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in range(len(bits))] == bits


class TestExpGolomb:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 100, 2**16])
    def test_ue_roundtrip(self, value):
        w = BitWriter()
        write_ue(w, value)
        assert read_ue(BitReader(w.getvalue())) == value

    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 63, -64, 1000, -999])
    def test_se_roundtrip(self, value):
        w = BitWriter()
        write_se(w, value)
        assert read_se(BitReader(w.getvalue())) == value

    def test_ue_negative_raises(self):
        with pytest.raises(ValueError):
            write_ue(BitWriter(), -1)

    @pytest.mark.parametrize("value", [2**64 - 1, 2**65 - 2])
    def test_ue_roundtrips_at_the_reader_prefix_limit(self, value):
        """64 prefix zeros: the longest code ``read_ue`` accepts."""
        w = BitWriter()
        w.write_bits(0b101, 3)
        write_ue(w, value)
        assert w.bit_length == 3 + 129
        r = BitReader(w.getvalue())
        assert r.read_bits(3) == 0b101
        assert read_ue(r) == value

    def test_ue_past_the_reader_prefix_limit_raises_at_write(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            write_ue(w, 2**65 - 1)
        assert w.bit_length == 0

    def test_ue_code_lengths(self):
        """Small values use fewer bits (the point of Exp-Golomb)."""
        def bits(v):
            w = BitWriter()
            write_ue(w, v)
            return w.bit_length
        assert bits(0) == 1
        assert bits(1) == 3
        assert bits(2) == 3
        assert bits(3) == 5
        assert bits(0) < bits(5) < bits(500)

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_property_ue_sequence_roundtrip(self, values):
        w = BitWriter()
        for v in values:
            write_ue(w, v)
        r = BitReader(w.getvalue())
        assert [read_ue(r) for _ in values] == values

    @given(st.lists(st.integers(-5_000, 5_000), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_property_se_sequence_roundtrip(self, values):
        w = BitWriter()
        for v in values:
            write_se(w, v)
        r = BitReader(w.getvalue())
        assert [read_se(r) for _ in values] == values


class TestZigzag:
    def test_is_permutation(self):
        order = zigzag_order(8)
        assert sorted(order.tolist()) == list(range(64))

    def test_4x4_known_prefix(self):
        order = zigzag_order(4)
        # (0,0), (0,1), (1,0), (2,0), (1,1), (0,2), ...
        assert order[:6].tolist() == [0, 1, 4, 8, 5, 2]

    def test_cached(self):
        assert zigzag_order(8) is zigzag_order(8)


class TestCoeffBlock:
    def test_zero_block_is_cheap(self):
        w = BitWriter()
        encode_coeff_block(w, np.zeros((8, 8), dtype=np.int64))
        assert w.bit_length == 1  # just ue(0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        block = rng.integers(-20, 20, size=(8, 8))
        block[rng.uniform(size=(8, 8)) < 0.7] = 0
        w = BitWriter()
        encode_coeff_block(w, block)
        out = decode_coeff_block(BitReader(w.getvalue()), 8)
        np.testing.assert_array_equal(out, block)

    def test_roundtrip_dense(self):
        rng = np.random.default_rng(1)
        block = rng.integers(-100, 100, size=(8, 8))
        block[block == 0] = 1
        w = BitWriter()
        encode_coeff_block(w, block)
        np.testing.assert_array_equal(
            decode_coeff_block(BitReader(w.getvalue()), 8), block)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            encode_coeff_block(BitWriter(), np.zeros((4, 8), dtype=np.int64))

    def test_sparse_blocks_cost_fewer_bits(self):
        sparse = np.zeros((8, 8), dtype=np.int64)
        sparse[0, 0] = 5
        dense = np.ones((8, 8), dtype=np.int64)
        ws, wd = BitWriter(), BitWriter()
        encode_coeff_block(ws, sparse)
        encode_coeff_block(wd, dense)
        assert ws.bit_length < wd.bit_length

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        block = rng.integers(-50, 50, size=(8, 8))
        block[rng.uniform(size=(8, 8)) < rng.uniform(0.3, 0.95)] = 0
        w = BitWriter()
        encode_coeff_block(w, block)
        np.testing.assert_array_equal(
            decode_coeff_block(BitReader(w.getvalue()), 8), block)
