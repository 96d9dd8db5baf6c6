"""Sorted String Table: sorted keys, values, block layout, fences, filter.

Matches the paper's setup: compaction-disabled L0, block-based table format,
512-byte values, one *full filter block* per SST built through the filter
policy, plus per-block fence pointers (min/max).  The filter block is the
:class:`~repro.api.RangeFilter` itself; its bytes are its ``to_bytes()``
frame.  Values may be stored (real KV mode) or left virtual (benchmark
mode) — either way their size fixes how many entries share a 4-KB block
and hence how filter decisions translate into block reads.

Tombstones ride along as a flag array: the filter indexes tombstoned keys
too (a filter cannot un-insert), so a probe may return "maybe" for a deleted
key — the block read then resolves it, exactly like RocksDB.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro._util import one_row
from repro.api import RangeFilter
from repro.baselines.fence import FencePointers
from repro.lsm.filter_policy import SpecPolicy
from repro.lsm.iostats import BLOCK_READ_LATENCY_S, IOStats

__all__ = ["SSTable"]

_KEY_BYTES = 8


class SSTable:
    """One immutable sorted run with filter + fences (+ optional payload)."""

    def __init__(
        self,
        keys: np.ndarray,
        policy: SpecPolicy,
        values: "Sequence[bytes] | None" = None,
        tombstones: np.ndarray | None = None,
        value_bytes: int = 512,
        block_bytes: int = 4096,
        prebuilt_filter: RangeFilter | None = None,
        prebuilt_block: bytes | None = None,
    ) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            raise ValueError("an SSTable needs at least one key")
        if np.any(keys[1:] < keys[:-1]):
            raise ValueError("SSTable keys must be sorted")
        if values is not None and len(values) != keys.size:
            raise ValueError("values must align with keys")
        if tombstones is not None and len(tombstones) != keys.size:
            raise ValueError("tombstones must align with keys")
        self.keys = keys
        self.values = values
        self.tombstones = (
            np.asarray(tombstones, dtype=bool)
            if tombstones is not None
            else np.zeros(keys.size, dtype=bool)
        )
        self.value_bytes = value_bytes
        self.block_bytes = block_bytes
        self.entries_per_block = max(1, block_bytes // (_KEY_BYTES + value_bytes))
        # Sortedness was just validated above; skip the fence re-check.
        self.fences = FencePointers.build(
            keys, block_size=self.entries_per_block, presorted=True
        )
        start = time.perf_counter()
        if prebuilt_filter is not None:
            # A store reopen hands over the block it just deserialized from
            # this run's own file; no key is re-hashed.
            self.filter: RangeFilter = prebuilt_filter
        else:
            self.filter = policy.build(keys)
        self.build_time_s = time.perf_counter() - start
        start = time.perf_counter()
        # A store reopen hands the block bytes straight from disk next to
        # the deserialized filter — re-serializing them would only redo
        # (and re-charge) work whose result is already in hand.
        self.filter_block = (
            prebuilt_block
            if prebuilt_block is not None
            else self.filter.to_bytes()
        )
        self.serialize_time_s = time.perf_counter() - start

    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return int(self.keys.size)

    @property
    def num_live_keys(self) -> int:
        return int(self.keys.size - np.sum(self.tombstones))

    # ------------------------------------------------------------------
    # probe paths (stats-instrumented)
    # ------------------------------------------------------------------
    def get(self, key: int, stats: IOStats):
        """Point lookup of one key in this run alone: a one-row
        :meth:`get_many` plus the value fetch.

        The store's reads probe every run in one pass instead
        (:meth:`LsmDB.get_value <repro.lsm.db.LsmDB.get_value>`); a
        newest-first loop of this method is the per-run walk whose
        answers and accounting that pass reproduces.

        Returns ``(found_entry, value_or_None, is_tombstone)`` where
        ``found_entry`` says whether this SST holds *any* version of key.
        """
        row = one_row(key)
        found, tombstone = self.get_many(row, stats)
        if not found[0]:
            return False, None, False
        if tombstone[0]:
            return True, None, True
        if self.values is None:
            return True, b"", False
        return True, self.values[int(self.keys.searchsorted(row[0]))], False

    def scan(self, l_key: int, r_key: int, stats: IOStats) -> bool:
        """Range emptiness probe of one range: a one-row :meth:`scan_many`."""
        return bool(self.scan_many(one_row(l_key, r_key), stats)[0])

    def get_many(
        self, keys: np.ndarray, stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Point lookup of a key batch: filter -> fences -> block reads.

        Returns ``(found, tombstone)`` boolean arrays — ``found[i]`` says
        this SST holds *some* version of ``keys[i]``; :meth:`get` fetches
        the value of a one-key batch.  The filter's vectorized probe is
        consulted once for the whole batch; fences and block reads are
        charged per filter-positive key.  This is the one-run form of the
        store's run-set pass
        (:meth:`LsmDB.get_many <repro.lsm.db.LsmDB.get_many>`).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
        idx = self.keys.searchsorted(keys)
        # Past the end, the clipped index holds the largest key: never equal.
        found = self.keys.take(idx, mode="clip") == keys
        start = time.perf_counter()
        positive = self.filter.contains_point_many(keys)
        stats.filter_cpu_s += time.perf_counter() - start
        missed = stats.record_probes(positive, found)
        assert not missed, "filter produced a false negative"
        blocks = 0
        for key in keys[positive].tolist():
            blocks += len(self.fences.blocks_for_point(key))
        stats.blocks_read += blocks
        stats.io_wait_s += blocks * BLOCK_READ_LATENCY_S
        # A present key always passes its filter and its fence, so the
        # block read answers with the ground truth.
        return found, found & self.tombstones.take(idx, mode="clip")

    def scan_many(self, bounds: np.ndarray, stats: IOStats) -> np.ndarray:
        """Range emptiness probe of a bounds batch: range filter -> fences
        -> block reads.

        One boolean per ``(lo, hi)`` row: does this SST hold any entry
        (live or tombstone) in range?  Versions are reconciled by the DB's
        newest-wins pass.  The filter's vectorized range probe is consulted
        once for the whole batch.  This is the one-run form of the store's
        range pass
        (:meth:`LsmDB.scan_nonempty_many
        <repro.lsm.db.LsmDB.scan_nonempty_many>`), and a loop of it over
        the runs is the per-run walk that pass reproduces.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if bounds.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        # Some key lies in [lo, hi] iff fewer keys sort below lo than up to hi.
        present = self.keys.searchsorted(
            bounds[:, 1], side="right"
        ) > self.keys.searchsorted(bounds[:, 0])
        start = time.perf_counter()
        positive = self.filter.contains_range_many(bounds)
        stats.filter_cpu_s += time.perf_counter() - start
        missed = stats.record_probes(positive, present)
        assert not missed, "filter produced a false negative"
        blocks = 0
        for lo, hi in bounds[positive].tolist():
            blocks += len(self.fences.blocks_for_range(lo, hi))
        stats.blocks_read += blocks
        stats.io_wait_s += blocks * BLOCK_READ_LATENCY_S
        # A non-empty range always passes its filter and its fences, so
        # the block reads answer with the ground truth.
        return present

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SSTable(keys={self.num_keys}, live={self.num_live_keys}, "
            f"blocks={self.fences.num_blocks}, filter_bits={self.filter.size_bits})"
        )
