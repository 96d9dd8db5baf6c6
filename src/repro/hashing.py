"""Hash primitives shared by every filter.

The package standardizes on the SplitMix64 finalizer as its mixing function:
it is cheap, passes the usual avalanche tests, and — crucially for this
reproduction — is easy to express both as scalar Python-int arithmetic (used
on the per-query hot path) and as vectorized NumPy ``uint64`` arithmetic
(used for bulk inserts and bulk probes).  Both forms compute bit-identical
results, which the test suite asserts.

Double hashing (Kirsch & Mitzenmacher [23 in the paper]) is provided for the
RocksDB/LevelDB-style Bloom-filter baselines, which derive all ``k`` probe
positions from two base hashes.
"""

from __future__ import annotations

import numpy as np

from repro._util import MASK64

__all__ = [
    "splitmix64",
    "splitmix64_array",
    "splitmix64_multi_seed",
    "HashFamily",
    "double_hash_positions",
    "double_hash_positions_array",
    "pmhf_position",
]

_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(value: int, seed: int = 0) -> int:
    """SplitMix64 finalizer of ``value`` (scalar Python ints, 64-bit wrap)."""
    z = (value + seed * _GOLDEN + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _C1) & MASK64
    z = ((z ^ (z >> 27)) * _C2) & MASK64
    return z ^ (z >> 31)


def splitmix64_array(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a ``uint64`` array."""
    z = values.astype(np.uint64, copy=True)
    z += np.uint64((seed * _GOLDEN + _GOLDEN) & MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_C2)
    return z ^ (z >> np.uint64(31))


def splitmix64_multi_seed(values: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` with a *per-element* seed array.

    ``seeds`` (uint64) broadcasts against ``values``; each element equals
    ``splitmix64(value, seed)`` of its pair.  bloomRF's stacked point
    kernel passes a ``(probes, 1)`` seed column and a ``(probes, keys)``
    group matrix, hashing every key through every (layer, replica) hash
    function in one vector operation.
    """
    z = values.astype(np.uint64, copy=True)
    z += seeds * np.uint64(_GOLDEN) + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_C2)
    return z ^ (z >> np.uint64(31))


class HashFamily:
    """A family of independent 64-bit hash functions ``h_0 .. h_{k-1}``.

    Each member is a SplitMix64 finalizer with a distinct derived seed, so the
    family behaves like independently drawn hash functions.  A ``HashFamily``
    is deterministic for a given ``base_seed`` — filters built with the same
    seed are reproducible bit for bit (this also makes serialization trivial:
    only the seed needs to be stored).
    """

    __slots__ = ("base_seed", "_seeds")

    def __init__(self, num_functions: int, base_seed: int = 0x5EED) -> None:
        if num_functions <= 0:
            raise ValueError(f"need at least one hash function, got {num_functions}")
        self.base_seed = base_seed
        # Derive decorrelated per-function seeds from the base seed.
        self._seeds = [splitmix64(i, seed=base_seed) for i in range(num_functions)]

    def __len__(self) -> int:
        return len(self._seeds)

    @property
    def seeds(self) -> list[int]:
        """The derived per-function seeds (read-only view)."""
        return list(self._seeds)

    def hash(self, index: int, value: int) -> int:
        """Apply member ``index`` to ``value`` (full 64-bit output)."""
        return splitmix64(value, seed=self._seeds[index])

    def hash_mod(self, index: int, value: int, modulus: int) -> int:
        """Member ``index`` reduced to ``[0, modulus)``."""
        return splitmix64(value, seed=self._seeds[index]) % modulus

    def hash_array(self, index: int, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hash` over a ``uint64`` array."""
        return splitmix64_array(values, seed=self._seeds[index])

    def hash_mod_array(
        self, index: int, values: np.ndarray, modulus: int
    ) -> np.ndarray:
        """Vectorized :meth:`hash_mod` over a ``uint64`` array."""
        return self.hash_array(index, values) % np.uint64(modulus)


def double_hash_positions(key: int, k: int, num_bits: int, seed: int = 0) -> list[int]:
    """``k`` probe positions via double hashing (LevelDB/RocksDB style).

    ``position_i = (h1 + i * h2) mod num_bits`` with ``h2`` forced odd so the
    probe sequence cycles through the whole array.
    """
    h1 = splitmix64(key, seed=seed)
    h2 = splitmix64(key, seed=seed + 1) | 1
    return [((h1 + i * h2) & MASK64) % num_bits for i in range(k)]


def double_hash_positions_array(
    keys: np.ndarray, k: int, num_bits: int, seed: int = 0
) -> np.ndarray:
    """Vectorized :func:`double_hash_positions`: shape ``(k, len(keys))``."""
    keys = keys.astype(np.uint64, copy=False)
    h1 = splitmix64_array(keys, seed=seed)
    h2 = splitmix64_array(keys, seed=seed + 1) | np.uint64(1)
    out = np.empty((k, keys.size), dtype=np.uint64)
    m = np.uint64(num_bits)
    for i in range(k):
        out[i] = (h1 + np.uint64(i) * h2) % m
    return out


def pmhf_position(
    base_hash, key: int, level: int, delta: int, num_words: int
) -> int:
    """Piecewise-monotone hash position (Sect. 3.2), hash-agnostic form.

    ``MH(x) = (h(x >> (level + delta - 1)) mod num_words) * 2**(delta-1)
              + ((x >> level) & (2**(delta-1) - 1))``

    ``base_hash`` is any integer hash ``h``.  This pure helper exists so the
    paper's worked example (Fig. 4, with ``h(x) = a + b*x``) can be verified
    bit for bit in the tests; :class:`repro.core.bloomrf.BloomRF` inlines the
    same arithmetic with SplitMix64 hashes.
    """
    word_bits = 1 << (delta - 1)
    word_index = base_hash(key >> (level + delta - 1)) % num_words
    return word_index * word_bits + ((key >> level) & (word_bits - 1))
