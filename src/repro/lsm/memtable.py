"""Write buffer of the LSM substrate.

RocksDB absorbs writes in a main-memory delta (memtable) and builds the SST
filter only at flush time, when the SST's full key set is known — the system
property that lets *offline* PRFs work inside an LSM at all (the paper's
Problem 2 discussion).  The memtable here is a plain hash map with
sort-on-flush semantics, standing in for RocksDB's HashSkipList: the paper
itself notes that searching the delta "is handled otherwise, e.g. through
its organization", so probe structure inside the memtable is not part of any
reproduced experiment.

Supports values and deletes: a delete writes a *tombstone* that shadows any
older version of the key in lower levels until compaction drops it.

Range reads answer from a sorted snapshot of the buffered keys and their
live flags, built on the first range read after a write and reused until
the next one, so a scan pays one ``searchsorted`` here instead of a pass
over every entry.
"""

from __future__ import annotations

import numpy as np

from repro._util import one_row

__all__ = ["MemTable", "TOMBSTONE"]


class _Tombstone:
    """Sentinel marking a deleted key (survives until compaction)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()


class MemTable:
    """Unsorted write buffer with sorted flush; newest write wins."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: dict[int, bytes | _Tombstone] = {}
        # Bumped after every write; a range snapshot is valid while its
        # stamp equals it (see _sorted).
        self._version = 0
        self._snapshot: tuple[int, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes = b"") -> None:
        self._entries[key] = value
        self._written()

    def put_many(
        self, keys: np.ndarray, values: list[bytes] | None = None
    ) -> None:
        """Bulk :meth:`put`: one dict update for the whole batch.

        ``values`` aligns with ``keys`` when given (later duplicates win,
        exactly like the scalar loop); without it every key stores ``b""``
        — the benchmark-mode write shape, which skips per-key Python
        bookkeeping entirely.
        """
        keys = np.asarray(keys, dtype=np.uint64).tolist()
        if values is None:
            self._entries.update(dict.fromkeys(keys, b""))
        elif len(values) != len(keys):
            raise ValueError("values must align with keys")
        else:
            self._entries.update(zip(keys, values, strict=True))
        self._written()

    def delete(self, key: int) -> None:
        """Record a tombstone (shadows older versions on lower levels)."""
        self._entries[key] = TOMBSTONE
        self._written()

    def delete_many(self, keys: np.ndarray) -> None:
        """Bulk :meth:`delete`: tombstone every key in one dict update."""
        keys = np.asarray(keys, dtype=np.uint64).tolist()
        self._entries.update(dict.fromkeys(keys, TOMBSTONE))
        self._written()

    def _written(self) -> None:
        """Drop the range snapshot: the entries just changed."""
        self._version += 1
        self._snapshot = None

    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The range snapshot: ``(keys, live_before)``.

        ``keys`` holds every buffered key (tombstones included), sorted;
        ``live_before[i]`` counts the live ones among ``keys[:i]``.  It is
        built from one copy of the entries and published as one tuple
        stamped with the write count it was built after; a write bumps the
        count, so a snapshot built while a write lands is never reused.
        """
        snapshot = self._snapshot
        if snapshot is None or snapshot[0] != self._version:
            version = self._version
            items = list(self._entries.items())
            keys = np.fromiter((k for k, _ in items), dtype=np.uint64, count=len(items))
            live = np.fromiter(
                (v is not TOMBSTONE for _, v in items), dtype=bool, count=len(items)
            )
            order = np.argsort(keys)
            live_before = np.zeros(len(items) + 1, dtype=np.int64)
            np.cumsum(live[order], out=live_before[1:])
            snapshot = self._snapshot = (version, keys[order], live_before)
        return snapshot[1], snapshot[2]

    # ------------------------------------------------------------------
    def get(self, key: int) -> bytes | _Tombstone | None:
        """Value, TOMBSTONE, or None when the memtable knows nothing."""
        return self._entries.get(key)

    def contains_point(self, key: int) -> bool:
        """Is a *live* version of ``key`` buffered here?"""
        value = self._entries.get(key)
        return value is not None and value is not TOMBSTONE

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bulk :meth:`get` status: ``(known, live)`` boolean arrays.

        ``known[i]`` — the memtable holds *some* version of ``keys[i]``
        (live or tombstone) and therefore settles the lookup; ``live[i]`` —
        that version is not a tombstone.  Memtables answer exactly, so this
        is plain dict probing, vector-shaped for the DB's batched reads.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        known = np.zeros(keys.size, dtype=bool)
        live = np.zeros(keys.size, dtype=bool)
        if not self._entries:
            return known, live
        entries = self._entries
        for i, key in enumerate(keys.tolist()):
            value = entries.get(key)
            if value is not None:
                known[i] = True
                live[i] = value is not TOMBSTONE
        return known, live

    def contains_range(self, l_key: int, r_key: int) -> bool:
        """Exact live-key range check: a one-row :meth:`contains_range_many`."""
        return bool(self.contains_range_many(one_row(l_key, r_key))[0])

    def contains_range_many(self, bounds: np.ndarray) -> np.ndarray:
        """Does each ``(lo, hi)`` row of inclusive bounds hold a live key?

        Two ``searchsorted`` calls over the range snapshot answer the
        whole batch: a row holds a live key iff more live keys sort up to
        ``hi`` than below ``lo``.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if not self._entries or bounds.shape[0] == 0:
            return np.zeros(bounds.shape[0], dtype=bool)
        keys, live_before = self._sorted()
        below = keys.searchsorted(bounds[:, 0])
        upto = keys.searchsorted(bounds[:, 1], side="right")
        return live_before[upto] > live_before[below]

    def entries_in_range(self, l_key: int, r_key: int) -> list[tuple[int, object]]:
        """All buffered entries (incl. tombstones) in [l_key, r_key], sorted.

        The range snapshot gives the keys; only their values are read from
        the entries.
        """
        if not self._entries:
            return []
        keys, _ = self._sorted()
        below = int(keys.searchsorted(np.uint64(l_key)))
        upto = int(keys.searchsorted(np.uint64(r_key), side="right"))
        entries = self._entries
        return [(key, entries[key]) for key in keys[below:upto].tolist()]

    # ------------------------------------------------------------------
    def drain_sorted(self):
        """Flush: return (keys, values, tombstone flags) sorted; clear.

        ``keys`` is a uint64 array; ``values`` a list aligned with it;
        tombstoned slots carry ``b""`` in values and True in the flag array.
        The sort runs as one NumPy ``argsort`` over the key array (keys are
        dict keys, hence distinct) instead of a Python-level item sort.
        """
        n = len(self._entries)
        keys = np.fromiter(self._entries.keys(), dtype=np.uint64, count=n)
        raw = list(self._entries.values())
        self._entries.clear()
        self._written()
        order = np.argsort(keys)
        keys = keys[order]
        tombstones = np.fromiter(
            (v is TOMBSTONE for v in raw), dtype=bool, count=n
        )[order]
        values = [
            b"" if raw[i] is TOMBSTONE else raw[i] for i in order.tolist()
        ]
        return keys, values, tombstones
