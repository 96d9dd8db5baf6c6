"""Unit and property tests for the BitArray substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitarray import BitArray, aligned_bits


class TestBasics:
    def test_initially_zero(self):
        ba = BitArray(100)
        assert ba.count_ones() == 0
        assert len(ba) == 100

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BitArray(0)

    def test_set_and_test(self):
        ba = BitArray(256)
        ba.set_bit(0)
        ba.set_bit(63)
        ba.set_bit(64)
        ba.set_bit(255)
        assert ba.test_bit(0) and ba.test_bit(63) and ba.test_bit(64)
        assert ba.test_bit(255)
        assert not ba.test_bit(1)
        assert ba.count_ones() == 4

    def test_fill_ratio(self):
        ba = BitArray(64)
        for i in range(16):
            ba.set_bit(i)
        assert ba.fill_ratio() == pytest.approx(0.25)

    def test_clear(self):
        ba = BitArray(64)
        ba.set_bit(5)
        ba.clear()
        assert ba.count_ones() == 0

    def test_storage_is_word_aligned(self):
        assert BitArray(65).storage_bits == 128


class TestVectorizedBits:
    @given(
        st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=200)
    )
    @settings(max_examples=50)
    def test_vector_matches_scalar(self, positions):
        scalar = BitArray(1000)
        vector = BitArray(1000)
        for pos in positions:
            scalar.set_bit(pos)
        vector.set_bits(np.array(positions, dtype=np.uint64))
        assert scalar == vector
        probe = np.arange(1000, dtype=np.uint64)
        got = vector.test_bits(probe)
        expected = np.zeros(1000, dtype=bool)
        expected[list(set(positions))] = True
        assert np.array_equal(got, expected)

    def test_duplicate_positions(self):
        ba = BitArray(64)
        ba.set_bits(np.array([7, 7, 7], dtype=np.uint64))
        assert ba.count_ones() == 1

    @pytest.mark.parametrize(
        "count,spread",
        # spread = bits per position: 8 takes the packed dense path,
        # 5_000 the per-element OR.
        [(0, 8), (1, 8), (40, 8), (4_000, 8), (60_000, 8), (3, 5_000), (90, 5_000)],
    )
    def test_dense_and_sparse_batches_match_word_or(self, count, spread):
        """set_bits packs dense batches and ORs sparse ones per element;
        both must equal the plain per-word OR of every position."""
        rng = np.random.default_rng(count)
        ba = BitArray(1_000_000)
        ba.set_bit(12_345)  # existing bits survive the OR
        positions = rng.integers(
            20_000, 20_000 + spread * count + 1, count, dtype=np.uint64
        )
        expected = ba.words.copy()
        np.bitwise_or.at(
            expected,
            positions >> np.uint64(6),
            np.uint64(1) << (positions & np.uint64(63)),
        )
        ba.set_bits(positions)
        assert np.array_equal(ba.words, expected)

    @pytest.mark.parametrize("count", [1, 5_000])
    def test_out_of_range_position_raises(self, count):
        ba = BitArray(1_000)  # 16 words: positions 0..1023 are stored
        positions = np.zeros(count, dtype=np.uint64)
        positions[-1] = 1_024
        with pytest.raises(IndexError):
            ba.set_bits(positions)
        assert ba.count_ones() == 0
        ba.set_bits(np.array([1_023], dtype=np.uint64))  # padding bit: fine
        assert ba.test_bit(1_023)


class TestFields:
    def test_read_field_aligned(self):
        ba = BitArray(128)
        ba.set_bit(8)
        ba.set_bit(9)
        assert ba.read_field(8, 8) == 0b11
        assert ba.read_field(15, 8) == 0b11  # same aligned byte
        assert ba.read_field(16, 8) == 0

    def test_or_field(self):
        ba = BitArray(128)
        ba.or_field(70, 8, 0b1010)
        # Field containing bit 70 starts at 64.
        assert ba.test_bit(65) and ba.test_bit(67)
        assert not ba.test_bit(64)

    def test_full_word_field(self):
        ba = BitArray(128)
        ba.set_bit(64)
        ba.set_bit(127)
        assert ba.read_field(100, 64) == (1 << 63) | 1

    @given(
        st.integers(min_value=0, max_value=511),
        st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    )
    def test_field_view_matches_bits(self, pos, width):
        ba = BitArray(512)
        ba.set_bit(pos)
        field = ba.read_field(pos, width)
        offset = pos % width
        assert (field >> offset) & 1 == 1


class TestAnyInRange:
    def test_empty_interval(self):
        ba = BitArray(128)
        assert not ba.any_in_range(10, 5)

    def test_single_word(self):
        ba = BitArray(128)
        ba.set_bit(10)
        assert ba.any_in_range(10, 10)
        assert ba.any_in_range(0, 63)
        assert not ba.any_in_range(11, 63)
        assert not ba.any_in_range(0, 9)

    def test_cross_word(self):
        ba = BitArray(256)
        ba.set_bit(130)
        assert ba.any_in_range(0, 255)
        assert ba.any_in_range(64, 191)
        assert not ba.any_in_range(0, 129)
        assert not ba.any_in_range(131, 255)

    @given(
        st.lists(st.integers(min_value=0, max_value=299), max_size=10),
        st.integers(min_value=0, max_value=299),
        st.integers(min_value=0, max_value=299),
    )
    @settings(max_examples=100)
    def test_matches_naive(self, positions, a, b):
        lo, hi = min(a, b), max(a, b)
        ba = BitArray(300)
        for pos in positions:
            ba.set_bit(pos)
        expected = any(lo <= p <= hi for p in positions)
        assert ba.any_in_range(lo, hi) == expected


class TestAnyInRanges:
    """Vectorized any_in_range (rank-based) matches the scalar one."""

    @given(
        st.lists(st.integers(min_value=0, max_value=299), max_size=12),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=299),
                st.integers(min_value=0, max_value=299),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=100)
    def test_matches_scalar(self, positions, raw_ranges):
        ba = BitArray(300)
        for pos in positions:
            ba.set_bit(pos)
        ranges = [(min(a, b), max(a, b)) for a, b in raw_ranges]
        lo = np.array([r[0] for r in ranges], dtype=np.uint64)
        hi = np.array([r[1] for r in ranges], dtype=np.uint64)
        got = ba.any_in_ranges(lo, hi)
        expected = [ba.any_in_range(a, b) for a, b in ranges]
        assert got.tolist() == expected

    def test_empty_input(self):
        ba = BitArray(64)
        got = ba.any_in_ranges(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
        )
        assert got.shape == (0,) and got.dtype == np.bool_

    def test_last_bit_boundary(self):
        ba = BitArray(192)
        ba.set_bit(191)
        got = ba.any_in_ranges(
            np.array([0, 191, 0], dtype=np.uint64),
            np.array([190, 191, 191], dtype=np.uint64),
        )
        assert got.tolist() == [False, True, True]


class TestRunLengths:
    def test_zero_runs(self):
        ba = BitArray(16)
        for pos in (3, 4, 10):
            ba.set_bit(pos)
        # bits: 000 11 00000 1 00000  -> zero runs 3, 5, 5
        assert sorted(ba.zero_run_lengths().tolist()) == [3, 5, 5]

    def test_one_runs(self):
        ba = BitArray(8)
        for pos in (0, 1, 5):
            ba.set_bit(pos)
        assert sorted(ba.one_run_lengths().tolist()) == [1, 2]

    def test_all_zero(self):
        ba = BitArray(64)
        assert ba.zero_run_lengths().tolist() == [64]
        assert ba.one_run_lengths().tolist() == []


class TestSerialization:
    def test_round_trip(self):
        ba = BitArray(200)
        for pos in (0, 1, 63, 64, 199):
            ba.set_bit(pos)
        restored = BitArray.from_bytes(ba.to_bytes(), 200)
        assert restored == ba

    def test_length_mismatch_rejected(self):
        ba = BitArray(64)
        with pytest.raises(ValueError):
            BitArray.from_bytes(ba.to_bytes(), 256)

    def test_equality_needs_same_size(self):
        a, b = BitArray(64), BitArray(128)
        assert a != b


class TestAlignedBits:
    def test_rounds_to_words(self):
        assert aligned_bits(100, 8) == 128
        assert aligned_bits(64, 64) == 64

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            aligned_bits(100, 3)
