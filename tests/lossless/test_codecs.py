"""Tests for the Gorilla / Chimp codecs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CodecError
from repro.lossless import ChimpCodec, GorillaCodec


class TestCodecsRoundtrip:
    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
    def test_exact_roundtrip_on_typical_signals(self, codec_cls):
        rng = np.random.default_rng(0)
        signals = {
            "noise": rng.normal(0, 1, 500),
            "rounded-sensor": np.round(np.sin(np.arange(500) / 9) * 25 + 60, 2),
            "integers": rng.integers(0, 500, 500).astype(float),
            "many-repeats": np.repeat(rng.normal(0, 1, 50), 10),
            "constant": np.full(200, 42.125),
            "single": np.array([1.5]),
        }
        codec = codec_cls()
        for name, signal in signals.items():
            payload, bits, count = codec.encode(signal)
            decoded = codec.decode(payload, bits, count)
            assert np.array_equal(decoded, signal), f"{codec.name} failed on {name}"

    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
    def test_repeated_values_compress_below_raw(self, codec_cls):
        signal = np.repeat([1.25, 2.5, 2.5, 2.5], 100)
        bits_per_value = codec_cls().bits_per_value(signal)
        assert bits_per_value < 64

    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
    def test_special_float_values(self, codec_cls):
        signal = np.array([0.0, -0.0, 1e308, -1e308, 5e-324, 1.0])
        codec = codec_cls()
        payload, bits, count = codec.encode(signal)
        assert np.array_equal(codec.decode(payload, bits, count), signal)

    def test_decode_requires_positive_count(self):
        codec = GorillaCodec()
        payload, bits, _count = codec.encode(np.array([1.0, 2.0]))
        with pytest.raises(CodecError):
            codec.decode(payload, bits, 0)

    def test_chimp_beats_gorilla_on_low_precision_data(self):
        # Chimp's claim to fame: fewer bits on values with few trailing zeros.
        rng = np.random.default_rng(5)
        signal = np.round(rng.normal(100, 5, 2000), 1)
        assert ChimpCodec().bits_per_value(signal) <= GorillaCodec().bits_per_value(signal) * 1.1


class TestCodecsProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e12, max_value=1e12),
                    min_size=1, max_size=80))
    def test_gorilla_roundtrip_random_floats(self, values):
        codec = GorillaCodec()
        signal = np.asarray(values, dtype=np.float64)
        payload, bits, count = codec.encode(signal)
        assert np.array_equal(codec.decode(payload, bits, count), signal)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e12, max_value=1e12),
                    min_size=1, max_size=80))
    def test_chimp_roundtrip_random_floats(self, values):
        codec = ChimpCodec()
        signal = np.asarray(values, dtype=np.float64)
        payload, bits, count = codec.encode(signal)
        assert np.array_equal(codec.decode(payload, bits, count), signal)
