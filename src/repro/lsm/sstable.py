"""Sorted String Table: sorted keys, values, block layout, fences, filter.

Matches the paper's setup: compaction-disabled L0, block-based table format,
512-byte values, one *full filter block* per SST built through the filter
policy, plus per-block fence pointers (min/max).  Values may be stored
(real KV mode) or left virtual (benchmark mode) — either way their size
fixes how many entries share a 4-KB block and hence how filter decisions
translate into block reads.

Tombstones ride along as a flag array: the filter indexes tombstoned keys
too (a filter cannot un-insert), so a probe may return "maybe" for a deleted
key — the block read then resolves it, exactly like RocksDB.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.baselines.fence import FencePointers
from repro.lsm.filter_policy import FilterHandle, FilterPolicy
from repro.lsm.iostats import IOStats, SimulatedDevice

__all__ = ["SSTable"]

_KEY_BYTES = 8


class SSTable:
    """One immutable sorted run with filter + fences (+ optional payload)."""

    def __init__(
        self,
        keys: np.ndarray,
        policy: FilterPolicy,
        values: "Sequence[bytes] | None" = None,
        tombstones: np.ndarray | None = None,
        value_bytes: int = 512,
        block_bytes: int = 4096,
        prebuilt_filter: FilterHandle | None = None,
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
            self.filter: FilterHandle = prebuilt_filter
        else:
            self.filter = policy.build(keys)
        self.build_time_s = time.perf_counter() - start
        start = time.perf_counter()
        # A store reopen hands the block bytes straight from disk next to
        # the deserialized handle — re-serializing them would only redo
        # (and re-charge) work whose result is already in hand.
        self.filter_block = (
            prebuilt_block
            if prebuilt_block is not None
            else self.filter.serialize()
        )
        self.serialize_time_s = time.perf_counter() - start

    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return int(self.keys.size)

    @property
    def num_live_keys(self) -> int:
        return int(self.keys.size - np.sum(self.tombstones))

    @property
    def min_key(self) -> int:
        return int(self.keys[0])

    @property
    def max_key(self) -> int:
        return int(self.keys[-1])

    # ------------------------------------------------------------------
    # probe paths (stats-instrumented)
    # ------------------------------------------------------------------
    def get(self, key: int, stats: IOStats, device: SimulatedDevice):
        """Point lookup: filter -> fences -> block read -> binary search.

        Returns ``(found_entry, value_or_None, is_tombstone)`` where
        ``found_entry`` says whether this SST holds *any* version of key.
        """
        index = self._index_of(key)
        truly_present = index is not None
        start = time.perf_counter()
        positive = self.filter.probe_point(key)
        stats.filter_cpu_s += time.perf_counter() - start
        stats.record_probe(positive, truly_present)
        assert positive or not truly_present, "filter produced a false negative"
        if not positive:
            return False, None, False
        blocks = self.fences.blocks_for_point(key)
        if not blocks:
            return False, None, False  # fences prune the FP without I/O
        stats.blocks_read += len(blocks)
        stats.io_wait_s += len(blocks) * device.read_latency_s
        if index is None:
            return False, None, False
        if self.tombstones[index]:
            return True, None, True
        value = self.values[index] if self.values is not None else b""
        return True, value, False

    def scan(
        self, l_key: int, r_key: int, stats: IOStats, device: SimulatedDevice
    ) -> bool:
        """Range emptiness probe: range filter -> fences -> block reads.

        True when this SST holds any entry (live or tombstone) in range —
        versions are reconciled by the DB's merging scan.
        """
        truly_present = self._has_entry_in_range(l_key, r_key)
        start = time.perf_counter()
        positive = self.filter.probe_range(l_key, r_key)
        stats.filter_cpu_s += time.perf_counter() - start
        stats.record_probe(positive, truly_present)
        assert positive or not truly_present, "filter produced a false negative"
        if not positive:
            return False
        blocks = self.fences.blocks_for_range(l_key, r_key)
        if not blocks:
            return False
        stats.blocks_read += len(blocks)
        stats.io_wait_s += len(blocks) * device.read_latency_s
        return truly_present

    def get_many(
        self, keys: np.ndarray, stats: IOStats, device: SimulatedDevice
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`get` presence check: one filter probe batch per SST.

        Returns ``(found, tombstone)`` boolean arrays — ``found[i]`` says
        this SST holds *some* version of ``keys[i]``; value retrieval stays
        on the scalar path.  The filter block is consulted once for the
        whole batch through its bulk interface; fences and block reads are
        charged per filter-positive key with the same accounting as the
        scalar :meth:`get` (asserted by the tests).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = keys.size
        found = np.zeros(n, dtype=bool)
        tombstone = np.zeros(n, dtype=bool)
        if n == 0:
            return found, tombstone
        positive, idx, truly_present = self._probe_filter_points(keys, stats)
        for i in np.nonzero(positive)[0]:
            blocks = self.fences.blocks_for_point(int(keys[i]))
            if not blocks:
                continue  # fences prune the FP without I/O
            stats.blocks_read += len(blocks)
            stats.io_wait_s += len(blocks) * device.read_latency_s
            if truly_present[i]:
                found[i] = True
                tombstone[i] = self.tombstones[idx[i]]
        return found, tombstone

    def probe_filter_points_many(
        self, keys: np.ndarray, stats: IOStats
    ) -> np.ndarray:
        """Batched filter-block point probe: pure filter CPU, no I/O.

        The point counterpart of :meth:`probe_filter_many` — consults the
        filter once for the whole key batch and records the probe outcomes
        against ground truth; fences and block reads are left to the caller.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        positive, _, _ = self._probe_filter_points(keys, stats)
        return positive

    def _probe_filter_points(
        self, keys: np.ndarray, stats: IOStats
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared stats-charged bulk point probe.

        Returns ``(positive, sorted_index, truly_present)`` where
        ``sorted_index[i]`` locates ``keys[i]`` in the sorted key array when
        ``truly_present[i]``.
        """
        idx = np.searchsorted(self.keys, keys)
        safe = np.minimum(idx, self.keys.size - 1)
        truly_present = (idx < self.keys.size) & (self.keys[safe] == keys)
        start = time.perf_counter()
        positive = self.filter.probe_point_many(keys)
        stats.filter_cpu_s += time.perf_counter() - start
        stats.record_probes(positive, truly_present)
        assert not np.any(truly_present & ~positive), (
            "filter produced a false negative"
        )
        return positive, idx, truly_present

    def probe_filter_many(
        self, bounds: np.ndarray, stats: IOStats
    ) -> np.ndarray:
        """Batched filter-block range probe: pure filter CPU, no I/O.

        Consults this SST's range filter once for the whole batch through
        its bulk interface and records the probe outcomes against ground
        truth; fences and block reads are left to the caller.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if bounds.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        idx = np.searchsorted(self.keys, bounds[:, 0])
        truly_present = (idx < self.keys.size) & (
            self.keys[np.minimum(idx, self.keys.size - 1)] <= bounds[:, 1]
        )
        start = time.perf_counter()
        positive = self.filter.probe_range_many(bounds)
        stats.filter_cpu_s += time.perf_counter() - start
        stats.record_probes(positive, truly_present)
        assert not np.any(truly_present & ~positive), (
            "filter produced a false negative"
        )
        return positive

    def scan_many(
        self, bounds: np.ndarray, stats: IOStats, device: SimulatedDevice
    ) -> np.ndarray:
        """Batched :meth:`scan`: one filter-block probe batch per SST.

        Returns a boolean array (one entry per query) with the same
        semantics and stats accounting as the scalar path; the range filter
        is consulted once for the whole batch through its bulk interface.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        n = bounds.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        positive = self.probe_filter_many(bounds, stats)
        lo = bounds[:, 0]
        hi = bounds[:, 1]
        out = np.zeros(n, dtype=bool)
        for i in np.nonzero(positive)[0]:
            blocks = self.fences.blocks_for_range(int(lo[i]), int(hi[i]))
            if not blocks:
                continue
            stats.blocks_read += len(blocks)
            stats.io_wait_s += len(blocks) * device.read_latency_s
            out[i] = self._has_entry_in_range(int(lo[i]), int(hi[i]))
        return out

    def entries_in_range(self, l_key: int, r_key: int):
        """Yield ``(key, value, is_tombstone)`` for entries in range, sorted."""
        lo = int(np.searchsorted(self.keys, np.uint64(l_key)))
        hi = int(np.searchsorted(self.keys, np.uint64(r_key), side="right"))
        for index in range(lo, hi):
            value = self.values[index] if self.values is not None else b""
            yield int(self.keys[index]), value, bool(self.tombstones[index])

    # ------------------------------------------------------------------
    # exact helpers (ground truth for stats; also the "block read" result)
    # ------------------------------------------------------------------
    def _index_of(self, key: int) -> int | None:
        idx = int(np.searchsorted(self.keys, np.uint64(key)))
        if idx < self.keys.size and int(self.keys[idx]) == key:
            return idx
        return None

    def _has_entry_in_range(self, l_key: int, r_key: int) -> bool:
        idx = int(np.searchsorted(self.keys, np.uint64(l_key)))
        return idx < self.keys.size and int(self.keys[idx]) <= r_key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SSTable(keys={self.num_keys}, live={self.num_live_keys}, "
            f"blocks={self.fences.num_blocks}, filter_bits={self.filter.size_bits})"
        )
