"""Bit-exact cross-checks of the block bitstream and codec kernels.

The block kernels must be indistinguishable from the original per-bit
implementations (preserved in :mod:`repro._kernels.reference`): identical
payload bytes, identical bit lengths, and exact round-trips for arbitrary
width sequences (0–64) and hostile float payloads (NaN/±inf bit patterns,
−0.0, denormals, empty and length-1 series).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._kernels import BlockBitReader, BlockBitWriter, clz64, ctz64, pack_bits
from repro._kernels.reference import (
    ReferenceBitReader,
    ReferenceBitWriter,
    reference_chimp_decode,
    reference_chimp_encode,
    reference_gorilla_decode,
    reference_gorilla_encode,
)
from repro.exceptions import CodecError, InvalidSeriesError
from repro.lossless import ChimpCodec, GorillaCodec

_FIELDS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=(1 << 64) - 1),
              st.integers(min_value=0, max_value=64)),
    min_size=0, max_size=120)


class TestBlockBitstreamProperties:
    @settings(max_examples=60, deadline=None)
    @given(_FIELDS)
    def test_block_writer_matches_reference_bytes(self, fields):
        block = BlockBitWriter()
        reference = ReferenceBitWriter()
        for value, width in fields:
            block.write_bits(value, width)
            reference.write_bits(value, width)
        assert block.bit_length == reference.bit_length
        assert block.to_bytes() == reference.to_bytes()

    @settings(max_examples=60, deadline=None)
    @given(_FIELDS)
    def test_write_bits_array_matches_sequential(self, fields):
        sequential = BlockBitWriter()
        for value, width in fields:
            sequential.write_bits(value, width)
        batched = BlockBitWriter()
        batched.write_bits_array(
            np.array([value for value, _ in fields], dtype=np.uint64),
            np.array([width for _, width in fields], dtype=np.int64))
        assert batched.bit_length == sequential.bit_length
        assert batched.to_bytes() == sequential.to_bytes()

    @settings(max_examples=60, deadline=None)
    @given(_FIELDS)
    @example([(0b1011, 4), (0xDEADBEEF, 32), (0x1FFFFFFFFFFFFF, 53)])
    def test_roundtrip_and_cross_reads(self, fields):
        writer = BlockBitWriter()
        for value, width in fields:
            writer.write_bits(value, width)
        payload = writer.to_bytes()
        bit_length = writer.bit_length
        expected = [value & ((1 << width) - 1) for value, width in fields]
        widths = [width for _, width in fields]

        block_reader = BlockBitReader(payload, bit_length)
        assert [block_reader.read_bits(w) for w in widths] == expected
        # The reference reader must agree on block-written bytes and
        # vice versa (the byte layouts are the same format).
        reference_reader = ReferenceBitReader(payload, bit_length)
        assert [reference_reader.read_bits(w) for w in widths] == expected
        array_reader = BlockBitReader(payload, bit_length)
        assert array_reader.read_bits_array(
            np.asarray(widths, dtype=np.int64)).tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(_FIELDS)
    def test_mixed_chunk_append(self, fields):
        """Interleaving write_bits and write_bits_array keeps the layout."""
        sequential = BlockBitWriter()
        mixed = BlockBitWriter()
        for index, (value, width) in enumerate(fields):
            sequential.write_bits(value, width)
            if index % 2:
                mixed.write_bits(value, width)
            else:
                mixed.write_bits_array(np.array([value], dtype=np.uint64),
                                       np.array([width], dtype=np.int64))
        assert mixed.to_bytes() == sequential.to_bytes()
        assert mixed.bit_length == sequential.bit_length


class TestBlockBitstreamEdges:
    def test_zero_width_fields(self):
        writer = BlockBitWriter()
        writer.write_bits(0xFFFF, 0)
        assert writer.bit_length == 0
        writer.write_bits(0b101, 3)
        writer.write_bits(12345, 0)
        assert writer.bit_length == 3
        reader = BlockBitReader(writer.to_bytes(), writer.bit_length)
        assert reader.read_bits(0) == 0
        assert reader.read_bits(3) == 0b101

    def test_single_bit_api_roundtrip_and_accounting(self):
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        writer = BlockBitWriter()
        writer.write_bits(0, 13)
        assert writer.bit_length == 13
        for bit in pattern:
            writer.write_bit(bit)
        assert writer.bit_length == 13 + len(pattern)
        reader = BlockBitReader(writer.to_bytes(), writer.bit_length)
        assert reader.read_bits(13) == 0
        assert [reader.read_bit() for _ in pattern] == pattern

    def test_invalid_widths_raise(self):
        with pytest.raises(CodecError):
            BlockBitWriter().write_bits(1, 65)
        with pytest.raises(CodecError):
            BlockBitWriter().write_bits(1, -1)
        with pytest.raises(CodecError):
            BlockBitReader(b"\x00" * 16).read_bits(65)
        with pytest.raises(CodecError):
            pack_bits([1], [70])

    def test_read_past_end_raises(self):
        writer = BlockBitWriter()
        writer.write_bits(3, 2)
        reader = BlockBitReader(writer.to_bytes(), writer.bit_length)
        assert reader.read_bits(2) == 3
        with pytest.raises(CodecError):
            reader.read_bit()
        with pytest.raises(CodecError):
            BlockBitReader(writer.to_bytes(), 2).read_bits_array(
                np.asarray([2, 1], dtype=np.int64))

    def test_special_float_bit_patterns(self):
        specials = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                    5e-324, -5e-324, 1e308, -1e308]
        patterns = np.asarray(specials, dtype=np.float64).view(np.uint64)
        writer = BlockBitWriter()
        for bits in patterns:
            writer.write_bits(int(bits), 64)
        reader = BlockBitReader(writer.to_bytes(), writer.bit_length)
        decoded_bits = np.asarray([reader.read_bits(64) for _ in specials],
                                  dtype=np.uint64)
        assert np.array_equal(decoded_bits, patterns)
        decoded = decoded_bits.view(np.float64)
        # -0.0 must keep its sign bit, NaN its exact payload.
        assert np.signbit(decoded[3])
        assert np.isnan(decoded[0])

    def test_overstated_bit_length_raises_not_pad_zeros(self):
        # A stated bit_length beyond the payload must fail on read instead
        # of silently serving the word-padding zeros.
        reader = BlockBitReader(b"\x01", bit_length=16)
        with pytest.raises(CodecError):
            reader.read_bits(16)
        ok = BlockBitReader(b"\x01", bit_length=16)
        assert ok.read_bits(8) == 1
        with pytest.raises(CodecError):
            ok.read_bits(8)

    def test_swar_popcount_matches_native(self):
        from repro._kernels.bitops import _popcount64_swar, popcount64

        rng = np.random.default_rng(3)
        samples = np.concatenate([
            rng.integers(0, 1 << 63, 500).astype(np.uint64),
            np.array([0, 1, (1 << 64) - 1, 1 << 63], dtype=np.uint64),
        ])
        assert _popcount64_swar(samples).tolist() == popcount64(samples).tolist()

    def test_bitcount_kernels(self):
        values = np.array([0, 1, 2, 3, 1 << 63, (1 << 64) - 1, 0x00F0_0000_0000_0000],
                          dtype=np.uint64)
        expected_clz = [64, 63, 62, 62, 0, 0, 8]
        expected_ctz = [64, 0, 1, 0, 63, 0, 52]
        assert clz64(values).tolist() == expected_clz
        assert ctz64(values).tolist() == expected_ctz


_CODEC_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64,
                          allow_subnormal=True)


class TestCodecCrossChecks:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_CODEC_FLOATS, min_size=1, max_size=60))
    def test_gorilla_byte_identical_to_reference(self, values):
        signal = np.asarray(values, dtype=np.float64)
        payload, bits, count = GorillaCodec().encode(signal)
        reference_payload, reference_bits, reference_count = \
            reference_gorilla_encode(signal)
        assert (payload, bits, count) == (reference_payload, reference_bits,
                                          reference_count)
        assert np.array_equal(GorillaCodec().decode(payload, bits, count), signal)
        assert np.array_equal(reference_gorilla_decode(payload, bits, count), signal)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_CODEC_FLOATS, min_size=1, max_size=60))
    def test_chimp_byte_identical_to_reference(self, values):
        signal = np.asarray(values, dtype=np.float64)
        payload, bits, count = ChimpCodec().encode(signal)
        reference_payload, reference_bits, reference_count = \
            reference_chimp_encode(signal)
        assert (payload, bits, count) == (reference_payload, reference_bits,
                                          reference_count)
        assert np.array_equal(ChimpCodec().decode(payload, bits, count), signal)
        assert np.array_equal(reference_chimp_decode(payload, bits, count), signal)

    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
    def test_negative_zero_and_denormals(self, codec_cls):
        signal = np.array([0.0, -0.0, 5e-324, -5e-324, -0.0, 0.0, 1.0, -0.0])
        codec = codec_cls()
        payload, bits, count = codec.encode(signal)
        decoded = codec.decode(payload, bits, count)
        assert decoded.view(np.uint64).tolist() == signal.view(np.uint64).tolist()

    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
    def test_length_one_series(self, codec_cls):
        codec = codec_cls()
        payload, bits, count = codec.encode(np.array([-123.456]))
        assert (bits, count) == (64, 1)
        assert codec.decode(payload, bits, count).tolist() == [-123.456]

    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
    def test_empty_series_rejected(self, codec_cls):
        with pytest.raises(InvalidSeriesError):
            codec_cls().encode(np.array([], dtype=np.float64))

    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
    def test_nan_and_inf_series_rejected(self, codec_cls):
        # The validation layer rejects non-finite *series* (their bit
        # patterns still travel fine through the raw bitstream, covered
        # above); the behaviour matches the original implementation.
        with pytest.raises(InvalidSeriesError):
            codec_cls().encode(np.array([1.0, float("nan")]))
        with pytest.raises(InvalidSeriesError):
            codec_cls().encode(np.array([1.0, float("inf")]))

    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
    def test_truncated_payload_raises(self, codec_cls):
        codec = codec_cls()
        signal = np.linspace(0.0, 1.0, 32)
        payload, bits, count = codec.encode(signal)
        with pytest.raises(CodecError):
            codec.decode(payload[: len(payload) // 2], bits, count)
        with pytest.raises(CodecError):
            codec.decode(payload, bits // 2, count)
