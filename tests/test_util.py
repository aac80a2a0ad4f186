"""Tests for repro._util helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    fmt_bytes,
    fmt_ms,
    hash_bytes,
    hash_bytes_many,
    percentile,
    rng_for,
    round_up,
    stable_seed,
)


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)

    def test_distinct_parts_distinct_seeds(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a") != stable_seed("b")

    def test_order_matters(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_no_concatenation_ambiguity(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_64_bit_range(self):
        seed = stable_seed("anything")
        assert 0 <= seed < 2**64


class TestRngFor:
    def test_same_parts_same_stream(self):
        a = rng_for("x", 3).integers(0, 1000, 10)
        b = rng_for("x", 3).integers(0, 1000, 10)
        assert list(a) == list(b)

    def test_different_parts_different_stream(self):
        a = rng_for("x", 3).integers(0, 1000, 10)
        b = rng_for("x", 4).integers(0, 1000, 10)
        assert list(a) != list(b)


class TestHashBytes:
    def test_deterministic(self):
        assert hash_bytes(b"hello") == hash_bytes(b"hello")

    def test_truncation_bits(self):
        for bits in (8, 16, 40, 64):
            assert hash_bytes(b"data", bits) < 2**bits

    def test_truncation_is_prefix_consistent(self):
        full = hash_bytes(b"data", 64)
        assert hash_bytes(b"data", 16) == full & 0xFFFF

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            hash_bytes(b"x", 0)
        with pytest.raises(ValueError):
            hash_bytes(b"x", 161)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_distinct_inputs_rarely_collide_at_64_bits(self, a, b):
        if a != b:
            # Not a collision proof, just a sanity property on samples.
            assert hash_bytes(a) != hash_bytes(b) or len(a) + len(b) > 0

    def test_hash_bytes_many_matches_scalar(self):
        chunks = [bytes([i] * 64) for i in range(20)] + [b"", b"x"]
        for bits in (8, 32, 63, 64):
            batched = hash_bytes_many(chunks, bits)
            assert batched.dtype == np.uint64
            assert batched.tolist() == [hash_bytes(c, bits) for c in chunks]
        with pytest.raises(ValueError):
            hash_bytes_many(chunks, 65)
        with pytest.raises(ValueError):
            hash_bytes_many(chunks, 0)


class TestRoundUp:
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
    def test_result_is_multiple_and_minimal(self, value, multiple):
        result = round_up(value, multiple)
        assert result % multiple == 0
        assert result >= value
        assert result - value < multiple

    def test_rejects_non_positive_multiple(self):
        with pytest.raises(ValueError):
            round_up(5, 0)


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_within_min_max(self, values):
        p = percentile(values, 90)
        assert min(values) - 1e-9 <= p <= max(values) + 1e-9


class TestFormatting:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512B"
        assert fmt_bytes(2048) == "2.0KB"
        assert fmt_bytes(3 * 1024 * 1024) == "3.0MB"

    def test_fmt_ms(self):
        assert fmt_ms(0.5) == "500us"
        assert fmt_ms(12.34) == "12.3ms"
        assert fmt_ms(2500) == "2.50s"
