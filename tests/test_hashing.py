"""Tests for the hashing substrate (scalar/vector equivalence is critical)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    HashFamily,
    double_hash_positions,
    double_hash_positions_array,
    pmhf_position,
    splitmix64,
    splitmix64_array,
    splitmix64_multi_seed,
)

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestSplitMix:
    @given(u64, st.integers(min_value=0, max_value=1 << 32))
    @settings(max_examples=200)
    def test_scalar_matches_vector(self, value, seed):
        scalar = splitmix64(value, seed=seed)
        vector = int(splitmix64_array(np.array([value], dtype=np.uint64), seed=seed)[0])
        assert scalar == vector

    @given(st.lists(u64, min_size=1, max_size=5), st.lists(u64, min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_multi_seed_broadcasts_per_row_seeds(self, values, seeds):
        grid = np.tile(np.array(values, dtype=np.uint64), (len(seeds), 1))
        column = np.array(seeds, dtype=np.uint64)[:, None]
        got = splitmix64_multi_seed(grid, column)
        assert got.tolist() == [
            [splitmix64(value, seed=seed) for value in values] for seed in seeds
        ]

    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_seed_changes_output(self):
        assert splitmix64(42, seed=1) != splitmix64(42, seed=2)

    def test_output_is_64_bit(self):
        for value in (0, 1, (1 << 64) - 1):
            assert 0 <= splitmix64(value) < (1 << 64)

    def test_avalanche(self):
        """Flipping one input bit flips roughly half the output bits."""
        flips = []
        for bit in range(64):
            a = splitmix64(0)
            b = splitmix64(1 << bit)
            flips.append(bin(a ^ b).count("1"))
        mean = sum(flips) / len(flips)
        assert 24 < mean < 40


class TestHashFamily:
    def test_members_differ(self):
        family = HashFamily(4, base_seed=9)
        outputs = {family.hash(i, 12345) for i in range(4)}
        assert len(outputs) == 4

    def test_mod_in_range(self):
        family = HashFamily(3)
        for i in range(3):
            for value in (0, 7, 1 << 60):
                assert 0 <= family.hash_mod(i, value, 97) < 97

    def test_array_matches_scalar(self):
        family = HashFamily(2, base_seed=5)
        values = np.array([3, 1 << 40, 17], dtype=np.uint64)
        got = family.hash_mod_array(1, values, 1009)
        expected = [family.hash_mod(1, int(v), 1009) for v in values]
        assert list(got) == expected

    def test_reproducible_by_seed(self):
        a, b = HashFamily(2, base_seed=7), HashFamily(2, base_seed=7)
        assert a.seeds == b.seeds

    def test_rejects_zero_functions(self):
        with pytest.raises(ValueError):
            HashFamily(0)


class TestDoubleHashing:
    @given(u64, st.integers(min_value=1, max_value=12))
    @settings(max_examples=100)
    def test_scalar_matches_vector(self, key, k):
        scalar = double_hash_positions(key, k, 4096, seed=3)
        vector = double_hash_positions_array(
            np.array([key], dtype=np.uint64), k, 4096, seed=3
        )[:, 0]
        assert scalar == list(vector)

    @given(u64)
    def test_positions_in_range(self, key):
        for pos in double_hash_positions(key, 6, 1000):
            assert 0 <= pos < 1000

    def test_probe_sequence_varies(self):
        positions = double_hash_positions(123, 8, 1 << 20)
        assert len(set(positions)) > 4


class TestPmhfPosition:
    """The paper's Fig. 4 example is covered in test_paper_examples; here we
    check the structural PMHF properties on arbitrary hash functions."""

    def test_monotone_within_word(self):
        def h(x):
            return x * 2654435761 % 97

        base = pmhf_position(h, 0b1010000, level=0, delta=5, num_words=97)
        for offset in range(16):
            pos = pmhf_position(h, 0b1010000 + offset, level=0, delta=5, num_words=97)
            assert pos == base + offset

    def test_word_aligned(self):
        def h(x):
            return x + 13

        pos = pmhf_position(h, 0, level=0, delta=4, num_words=11)
        assert pos % 8 == pos % 8  # trivially true; check alignment of base
        assert (pos - (0 & 7)) % 8 == 0

    @given(u64, st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=40))
    @settings(max_examples=100)
    def test_offset_preserved(self, key, delta, level):
        def h(x):
            return splitmix64(x)

        word_bits = 1 << (delta - 1)
        pos = pmhf_position(h, key, level=level, delta=delta, num_words=64)
        assert pos % word_bits == (key >> level) % word_bits

    @given(u64, st.integers(min_value=2, max_value=7))
    @settings(max_examples=100)
    def test_adjacent_prefixes_adjacent_bits(self, key, delta):
        """Keys sharing all but the lowest delta-1 prefix bits land in one word."""
        def h(x):
            return splitmix64(x)

        word_bits = 1 << (delta - 1)
        group_base = (key >> (delta - 1)) << (delta - 1)
        positions = [
            pmhf_position(h, group_base + i, level=0, delta=delta, num_words=128)
            for i in range(word_bits)
        ]
        assert positions == list(range(positions[0], positions[0] + word_bits))
