"""Unit tests for repro._util bit helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    MASK64,
    bulk_point_eval,
    bulk_range_eval,
    ceil_div,
    ceil_log2,
    check_key,
    domain_max,
    domain_size,
    floor_log2,
    is_power_of_two,
    mask,
    one_row,
    round_up,
)


class TestMask:
    def test_zero_bits(self):
        assert mask(0) == 0

    def test_small(self):
        assert mask(3) == 0b111

    def test_64_bits(self):
        assert mask(64) == (1 << 64) - 1


class TestDomain:
    def test_size(self):
        assert domain_size(16) == 65536

    def test_max(self):
        assert domain_max(16) == 65535

    def test_check_key_accepts_bounds(self):
        assert check_key(0, 8) == 0
        assert check_key(255, 8) == 255

    def test_check_key_rejects_overflow(self):
        with pytest.raises(ValueError):
            check_key(256, 8)

    def test_check_key_rejects_negative(self):
        with pytest.raises(ValueError):
            check_key(-1, 8)


class TestLogs:
    def test_floor_log2_powers(self):
        for exp in range(0, 63):
            assert floor_log2(1 << exp) == exp

    def test_floor_log2_between(self):
        assert floor_log2(5) == 2
        assert floor_log2(1023) == 9

    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(5) == 3
        assert ceil_log2(1024) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            floor_log2(0)
        with pytest.raises(ValueError):
            ceil_log2(-3)

    @given(st.integers(min_value=1, max_value=1 << 64))
    def test_floor_ceil_consistency(self, value):
        lo, hi = floor_log2(value), ceil_log2(value)
        assert (1 << lo) <= value <= (1 << hi)
        assert hi - lo <= 1


class TestRounding:
    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3

    def test_round_up(self):
        assert round_up(65, 64) == 128
        assert round_up(64, 64) == 64

    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=10**6))
    def test_round_up_properties(self, value, multiple):
        result = round_up(value, multiple)
        assert result >= value
        assert result % multiple == 0
        assert result - value < multiple


class TestPowerOfTwo:
    def test_powers(self):
        for exp in range(0, 20):
            assert is_power_of_two(1 << exp)

    def test_non_powers(self):
        for value in (0, 3, 5, 6, 7, 9, 100, -2, -4):
            assert not is_power_of_two(value)


class TestOneRow:
    def test_key_is_a_one_item_uint64_batch(self):
        row = one_row(5)
        assert row.shape == (1,)
        assert row.dtype == np.uint64
        assert row.tolist() == [5]

    def test_bounds_are_a_one_row_pair(self):
        row = one_row(3, 9)
        assert row.shape == (1, 2)
        assert row.dtype == np.uint64
        assert row.tolist() == [[3, 9]]

    def test_top_of_domain_stays_exact(self):
        # Without a pinned dtype, [[0, 2**64 - 1]] becomes float64.
        assert one_row(0, MASK64).tolist() == [[0, MASK64]]
        assert one_row(MASK64).tolist() == [MASK64]

    @pytest.mark.parametrize("bad", [-1, 1 << 64])
    def test_rejects_values_outside_the_domain(self, bad):
        with pytest.raises(ValueError, match="64-bit unsigned domain"):
            one_row(bad)
        with pytest.raises(ValueError, match="64-bit unsigned domain"):
            one_row(0, bad)

    def test_accepts_numpy_integers(self):
        row = one_row(np.int64(4), np.uint64(MASK64))
        assert row.tolist() == [[4, MASK64]]

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            one_row(1.5)


class TestBulkEval:
    def test_point_adapter_hands_the_scalar_fn_python_ints(self):
        seen = []
        keys = np.array([0, 7, MASK64], dtype=np.uint64)
        out = bulk_point_eval(lambda key: seen.append(key) or key % 2 == 1, keys)
        assert out.dtype == bool
        assert out.tolist() == [False, True, True]
        assert seen == [0, 7, MASK64]
        assert all(type(key) is int for key in seen)

    def test_range_adapter_hands_the_scalar_fn_python_int_pairs(self):
        seen = []
        bounds = np.array([[0, 3], [8, MASK64]], dtype=np.uint64)
        out = bulk_range_eval(lambda lo, hi: seen.append((lo, hi)) or lo > 0, bounds)
        assert out.tolist() == [False, True]
        assert seen == [(0, 3), (8, MASK64)]
        assert all(type(v) is int for pair in seen for v in pair)

    def test_empty_batches_never_call_the_scalar_fn(self):
        def fail(*args):
            raise AssertionError("called on an empty batch")

        points = bulk_point_eval(fail, np.empty(0, dtype=np.uint64))
        ranges = bulk_range_eval(fail, np.empty((0, 2), dtype=np.uint64))
        assert points.shape == ranges.shape == (0,)
        assert points.dtype == ranges.dtype == bool
