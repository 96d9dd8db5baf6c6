"""Tests for dyadic intervals and the two-path range planner (Sect. 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dyadic import (
    RecordingOracle,
    covering_prefix_range,
    di_bounds,
    dyadic_decompose,
    level_of_range,
    path_step,
    prefix_of,
    two_path_range_lookup,
)


class TestPrefixes:
    def test_prefix_of(self):
        assert prefix_of(42, 0) == 42
        assert prefix_of(42, 4) == 2
        assert prefix_of(0x002A, 12) == 0

    def test_di_bounds(self):
        assert di_bounds(0b11, 1) == (6, 7)  # the paper's Sect. 2 example
        assert di_bounds(0, 3) == (0, 7)

    def test_level_of_range(self):
        assert level_of_range(5, 5) == 0
        assert level_of_range(0, 7) == 3
        assert level_of_range(0, 8) == 4

    def test_level_of_range_rejects_empty(self):
        with pytest.raises(ValueError):
            level_of_range(6, 5)


class TestDecompose:
    def test_paper_example(self):
        """I=[45,60] decomposes as in Fig. 7."""
        pieces = dyadic_decompose(45, 60)
        intervals = [di_bounds(p, lvl) for lvl, p in pieces]
        assert intervals == [(45, 45), (46, 47), (48, 55), (56, 59), (60, 60)]

    def test_single_point(self):
        assert dyadic_decompose(7, 7) == [(0, 7)]

    def test_aligned_block(self):
        assert dyadic_decompose(8, 15) == [(3, 1)]

    def test_max_level_cap(self):
        pieces = dyadic_decompose(0, 15, max_level=2)
        assert all(level <= 2 for level, _ in pieces)
        assert len(pieces) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dyadic_decompose(5, 4)

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=200)
    def test_partition_property(self, lo, width):
        hi = lo + width
        pieces = dyadic_decompose(lo, hi)
        cursor = lo
        for level, prefix in pieces:
            p_lo, p_hi = di_bounds(prefix, level)
            assert p_lo == cursor, "pieces must be contiguous"
            cursor = p_hi + 1
        assert cursor == hi + 1, "pieces must cover exactly [lo, hi]"

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(max_examples=100)
    def test_minimality(self, lo, width):
        """Greedy decomposition is the canonical minimal one: no two adjacent
        sibling DIs (which could merge into their parent)."""
        hi = lo + width
        pieces = dyadic_decompose(lo, hi)
        for (l1, p1), (l2, p2) in zip(pieces, pieces[1:], strict=False):
            if l1 == l2 and p1 ^ 1 == p2 and p1 % 2 == 0:
                pytest.fail(f"siblings {(l1, p1)} and {(l2, p2)} not merged")


class TestCoveringPrefixRange:
    def test_basic(self):
        assert covering_prefix_range(45, 60, 3) == (5, 7)
        assert covering_prefix_range(0, 7, 3) == (0, 0)

    def test_level_zero(self):
        assert covering_prefix_range(5, 9, 0) == (5, 9)


def exact_filter_probes(keys: set[int], levels):
    """Build exact probe oracles over a key set (reference filter)."""

    def probe_bit(layer, prefix):
        level = levels[layer]
        return any((k >> level) == prefix for k in keys)

    def probe_mask(layer, p_lo, p_hi):
        level = levels[layer]
        return any(p_lo <= (k >> level) <= p_hi for k in keys)

    return probe_bit, probe_mask


LAYOUTS = [
    [0, 4, 8, 12],
    [0, 2, 4, 6, 8, 10, 12, 14],
    [0, 5, 10, 16],
    [0, 16],
    [0, 7, 14],
    [0, 1, 2, 3],
]


class TestTwoPathPlanner:
    LEVELS = [0, 4, 8, 12]  # the paper's d=16, Delta=4 layout

    def test_fig7_probe_pattern(self):
        """For I=[45,60] the planner probes the Fig. 7 intervals."""
        oracle = RecordingOracle(bit_answer=True, mask_answer=False)
        result = two_path_range_lookup(
            45, 60, self.LEVELS, oracle.probe_bit, oracle.probe_mask
        )
        assert result is False
        # Coverings: [0,4095] at layer 3, [0,255] at layer 2, then the split
        # coverings [32,47] and [48,63] at layer 1 (prefixes 2 and 3).
        assert oracle.bit_probes == [(3, 0), (2, 0), (1, 2), (1, 3)]
        # Decomposition masks at layer 0: [45,47] (left) and [48,60] (right).
        assert sorted(oracle.mask_probes) == [(0, 45, 47), (0, 48, 60)]

    def test_mask_ranges_partition_query(self):
        oracle = RecordingOracle()
        two_path_range_lookup(45, 60, self.LEVELS, oracle.probe_bit, oracle.probe_mask)
        ranges = oracle.mask_key_ranges(self.LEVELS)
        cursor = 45
        for lo, hi in ranges:
            assert lo == cursor
            cursor = hi + 1
        assert cursor == 61

    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.sampled_from(LAYOUTS),
    )
    @settings(max_examples=300)
    def test_mask_partition_property(self, a, b, levels):
        lo, hi = min(a, b), max(a, b)
        oracle = RecordingOracle()
        two_path_range_lookup(lo, hi, levels, oracle.probe_bit, oracle.probe_mask)
        ranges = oracle.mask_key_ranges(levels)
        cursor = lo
        for r_lo, r_hi in ranges:
            assert r_lo == cursor
            cursor = r_hi + 1
        assert cursor == hi + 1

    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.sampled_from(LAYOUTS),
    )
    @settings(max_examples=300)
    def test_coverings_contain_bounds(self, a, b, levels):
        """On the full probe tree every covering contains a query bound,
        and no covering or mask is probed twice."""
        lo, hi = min(a, b), max(a, b)
        oracle = RecordingOracle()
        two_path_range_lookup(lo, hi, levels, oracle.probe_bit, oracle.probe_mask)
        for layer, prefix in oracle.bit_probes:
            d_lo, d_hi = di_bounds(prefix, levels[layer])
            contains_lo = d_lo <= lo <= d_hi
            contains_hi = d_lo <= hi <= d_hi
            assert contains_lo or contains_hi, "covering must contain a bound"
        assert len(set(oracle.bit_probes)) == len(oracle.bit_probes)
        assert len(set(oracle.mask_probes)) == len(oracle.mask_probes)

    def test_unset_path_covering_gates_its_deeper_masks(self):
        """I=[45,60]: once the left path's covering (1, 2) reads unset, its
        layer-0 mask [45,47] is never probed; the right path goes on."""
        bits, masks = [], []

        def probe_bit(layer, prefix):
            bits.append((layer, prefix))
            return (layer, prefix) != (1, 2)

        def probe_mask(layer, p_lo, p_hi):
            masks.append((layer, p_lo, p_hi))
            return False

        assert not two_path_range_lookup(45, 60, self.LEVELS, probe_bit, probe_mask)
        assert bits == [(3, 0), (2, 0), (1, 2), (1, 3)]
        assert masks == [(0, 48, 60)]

    @given(
        st.sets(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
    )
    @settings(max_examples=300)
    def test_exact_oracle_gives_exact_answer(self, keys, a, b):
        """With exact probes the planner IS an exact range-emptiness test."""
        lo, hi = min(a, b), max(a, b)
        probe_bit, probe_mask = exact_filter_probes(keys, self.LEVELS)
        got = two_path_range_lookup(lo, hi, self.LEVELS, probe_bit, probe_mask)
        expected = any(lo <= k <= hi for k in keys)
        assert got == expected

    @given(
        st.sets(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.sampled_from(LAYOUTS),
    )
    @settings(max_examples=200)
    def test_exactness_for_any_layout(self, keys, a, b, levels):
        lo, hi = min(a, b), max(a, b)
        probe_bit, probe_mask = exact_filter_probes(keys, levels)
        got = two_path_range_lookup(lo, hi, levels, probe_bit, probe_mask)
        assert got == any(lo <= k <= hi for k in keys)

    def test_early_exit_on_empty_covering(self):
        oracle = RecordingOracle(bit_answer=False)
        result = two_path_range_lookup(
            45, 46, self.LEVELS, oracle.probe_bit, oracle.probe_mask
        )
        assert result is False
        assert len(oracle.bit_probes) == 1  # stopped at the top covering
        assert oracle.mask_probes == []

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            two_path_range_lookup(5, 4, self.LEVELS, lambda *_: True, lambda *_: True)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            two_path_range_lookup(0, 1, [1, 4], lambda *_: True, lambda *_: True)

    def test_exact_dyadic_query_single_mask(self):
        """A query equal to one DI needs exactly one decomposition probe."""
        oracle = RecordingOracle(mask_answer=True)
        assert two_path_range_lookup(
            32, 47, self.LEVELS, oracle.probe_bit, oracle.probe_mask
        )
        assert oracle.mask_probes == [(1, 2, 2)]
        assert oracle.bit_probes == [(3, 0), (2, 0)]


class TestPathStep:
    """One phase-2 step on a path: the decomposition span and the covering
    prefix together tile, on the lower level, the part of the path's parent
    DI that lies inside the query on the key's side."""

    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=300)
    def test_left_step_tiles_parent_di_from_key(self, key, level, gap):
        parent = level + gap
        span, prefix = path_step(key, level, parent, right=False)
        parent_hi = (((key >> parent) + 1) << parent) - 1
        covered = list(range(span[0], span[1] + 1)) if span else []
        if prefix is not None:
            covered = [prefix] + covered
        assert covered == list(range(key >> level, (parent_hi >> level) + 1))
        assert (prefix is None) == (key == (key >> level) << level)
        if span is not None:
            assert span[0] << level >= key  # the span lies inside the query

    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=300)
    def test_right_step_tiles_parent_di_to_key(self, key, level, gap):
        parent = level + gap
        span, prefix = path_step(key, level, parent, right=True)
        parent_lo = (key >> parent) << parent
        covered = list(range(span[0], span[1] + 1)) if span else []
        if prefix is not None:
            covered = covered + [prefix]
        assert covered == list(range(parent_lo >> level, (key >> level) + 1))
        assert (prefix is None) == (key == (((key >> level) + 1) << level) - 1)
        if span is not None:
            assert ((span[1] + 1) << level) - 1 <= key

    def test_fig7_steps(self):
        """I=[45,60]: at the key level both bounds are aligned, so each path
        ends in one mask, [45,47] and [48,60]; one level up, 45's DI [44,47]
        has no sibling inside its parent [32,47] beyond it, so the left path
        probes no span, only the covering bit of prefix 11."""
        assert path_step(45, 0, 4, right=False) == ((45, 47), None)
        assert path_step(60, 0, 4, right=True) == ((48, 60), None)
        assert path_step(45, 2, 4, right=False) == (None, 11)
