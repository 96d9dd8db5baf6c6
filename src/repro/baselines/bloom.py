"""Standard Bloom filters (the paper's point-filter baseline).

Two construction styles are provided, matching the systems the paper
compares against:

* ``style="rocksdb"`` — ``k = floor(ln 2 * bits_per_key)`` independent-probe
  positions derived by double hashing, like RocksDB's full filter (the paper:
  "BFs have 10 * ln 2 = 6.93 hash functions, floored to 6 in RocksDB").
* ``style="optimal"`` — ``k`` rounded to the nearest integer of the optimum.

Only point lookups are supported; this is exactly the limitation motivating
point-range filters (Sect. 1).
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_bounds_rows, round_up
from repro.bitarray import BitArray
from repro.hashing import double_hash_positions, double_hash_positions_array

__all__ = ["BloomFilter", "optimal_num_hashes", "bits_for_fpr"]


def optimal_num_hashes(bits_per_key: float, style: str = "rocksdb") -> int:
    """Hash count for a space budget: floored (RocksDB) or rounded (optimal)."""
    raw = math.log(2) * bits_per_key
    if style == "rocksdb":
        return max(1, math.floor(raw))
    if style == "optimal":
        return max(1, round(raw))
    raise ValueError(f"unknown Bloom filter style {style!r}")


def bits_for_fpr(n_keys: int, fpr: float) -> int:
    """Standard sizing: ``m = -n ln(eps) / (ln 2)^2`` bits."""
    if not 0 < fpr < 1:
        raise ValueError(f"fpr must be in (0, 1), got {fpr}")
    return max(64, math.ceil(-n_keys * math.log(fpr) / (math.log(2) ** 2)))


class BloomFilter:
    """Classic Bloom filter over integer keys."""

    def __init__(
        self,
        n_keys: int,
        bits_per_key: float,
        style: str = "rocksdb",
        num_hashes: int | None = None,
        seed: int = 0xB10F,
    ) -> None:
        if n_keys <= 0:
            raise ValueError(f"n_keys must be positive, got {n_keys}")
        if bits_per_key <= 0:
            raise ValueError(f"bits_per_key must be positive, got {bits_per_key}")
        self.num_bits = round_up(max(int(n_keys * bits_per_key), 64), 64)
        self.num_hashes = (
            num_hashes if num_hashes is not None else optimal_num_hashes(bits_per_key, style)
        )
        self.seed = seed
        self._bits = BitArray(self.num_bits)
        self._num_keys = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_keys

    @property
    def size_bits(self) -> int:
        return self.num_bits

    def fill_ratio(self) -> float:
        return self._bits.fill_ratio()

    @property
    def bits(self) -> BitArray:
        """Raw storage (scatter diagnostics for Fig. 5 read this)."""
        return self._bits

    # ------------------------------------------------------------------
    def insert(self, key: int) -> None:
        for pos in double_hash_positions(key, self.num_hashes, self.num_bits, self.seed):
            self._bits.set_bit(pos)
        self._num_keys += 1

    def insert_many(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        positions = double_hash_positions_array(
            keys, self.num_hashes, self.num_bits, self.seed
        )
        self._bits.set_bits(positions.ravel())
        self._num_keys += int(keys.size)

    def contains_point(self, key: int) -> bool:
        return all(
            self._bits.test_bit(pos)
            for pos in double_hash_positions(
                key, self.num_hashes, self.num_bits, self.seed
            )
        )

    def contains_point_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        positions = double_hash_positions_array(
            keys, self.num_hashes, self.num_bits, self.seed
        )
        result = np.ones(keys.size, dtype=bool)
        for row in positions:
            result &= self._bits.test_bits(row)
        return result

    __contains__ = contains_point

    # ------------------------------------------------------------------
    def contains_range(self, l_key: int, r_key: int) -> bool:
        """Conservative range probe: always "maybe" (True).

        A point filter cannot prune ranges — exactly the limitation that
        motivates point-range filters (Sect. 1).  Exposed so the Bloom
        baseline satisfies the uniform :class:`repro.api.RangeFilter`
        protocol; the answer is sound (never a false negative).
        """
        if l_key > r_key:
            raise ValueError(f"empty query range [{l_key}, {r_key}]")
        return True

    def contains_range_many(self, bounds: np.ndarray) -> np.ndarray:
        """Bulk form of :meth:`contains_range`: all-True per query row."""
        return np.ones(check_bounds_rows(bounds).shape[0], dtype=bool)

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def expected_fpr(self) -> float:
        """Analytic ``(1 - e^{-kn/m})^k`` for the current load."""
        if self._num_keys == 0:
            return 0.0
        return (
            1.0 - math.exp(-self.num_hashes * self._num_keys / self.num_bits)
        ) ** self.num_hashes

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the shared framed format (see :mod:`repro.serial`)."""
        from repro import serial

        return serial.pack_frame(
            serial.KIND_BLOOM,
            {
                "num_bits": self.num_bits,
                "num_hashes": self.num_hashes,
                "seed": self.seed,
                "num_keys": self._num_keys,
            },
            self._bits.to_bytes(),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Reconstruct a filter serialized with :meth:`to_bytes`."""
        from repro import serial

        header, payloads = serial.unpack_frame(
            data, expect_kind=serial.KIND_BLOOM
        )
        if len(payloads) != 1:
            raise ValueError(
                f"Bloom frame carries {len(payloads)} payloads, expected 1"
            )
        filt = cls.__new__(cls)
        filt.num_bits = int(header["num_bits"])
        filt.num_hashes = int(header["num_hashes"])
        filt.seed = int(header["seed"])
        filt._num_keys = int(header["num_keys"])
        filt._bits = BitArray.from_bytes(payloads[0], filt.num_bits)
        return filt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BloomFilter(bits={self.num_bits}, k={self.num_hashes}, "
            f"keys={self._num_keys})"
        )
