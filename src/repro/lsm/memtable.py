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

Range reads answer from a sorted range index of the buffered keys and
their live flags, so a scan pays one ``searchsorted`` here instead of a
pass over every entry.  The first range read builds the index; from then
on each write merges its batch into it (RocksDB's memtable likewise stays
sorted as it inserts and never re-sorts for a read), so reads between
writes never rebuild it.  A memtable that is only written to keeps no
index and pays nothing for it, and a flush drops it.

Writes, flushes and the publishing of a range index serialize on one
lock, so writers may race each other and a flush; readers take no lock
on the hot path and may race all of them.
"""

from __future__ import annotations

import threading

import numpy as np

from repro._util import one_row

__all__ = ["MemTable", "TOMBSTONE"]


class _Tombstone:
    """Sentinel marking a deleted key (survives until compaction)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()


class _RangeIndex:
    """The buffered keys, sorted, with their live flags.

    ``stamp`` is a write count the index reflects: every write counted
    up to it is in the index.  Its arrays are never mutated, so a writer
    publishes a new index and a reader holding the old one keeps a
    consistent view.  ``entries`` is the memtable's dict the keys came
    from: a flush swaps in a new dict rather than clearing this one, so
    every indexed key can be read from it.
    """

    __slots__ = ("stamp", "keys", "live", "entries", "_live_before")

    def __init__(
        self, stamp: int, keys: np.ndarray, live: np.ndarray, entries: dict
    ) -> None:
        self.stamp = stamp
        self.keys = keys
        self.live = live
        self.entries = entries
        self._live_before: np.ndarray | None = None

    @property
    def live_before(self) -> np.ndarray:
        """``live_before[i]`` counts the live keys among ``keys[:i]``
        (derived on first use, once per index)."""
        live_before = self._live_before
        if live_before is None:
            live_before = np.zeros(self.keys.size + 1, dtype=np.int64)
            np.cumsum(self.live, out=live_before[1:])
            self._live_before = live_before
        return live_before

    def merged(self, keys, live: bool, stamp: int) -> "_RangeIndex":
        """A new index with every key of ``keys`` set to ``live``.

        One ``searchsorted`` places the batch's distinct keys: keys
        already indexed get their flag in a copied flag array, and new
        keys are spliced in at their slots in one pass per array.  An
        index of no keys (built by a reader that lost the entries to a
        flush) becomes the batch itself.
        """
        batch = np.unique(np.asarray(keys, dtype=np.uint64))
        if self.keys.size == 0:
            return _RangeIndex(stamp, batch, np.full(batch.size, live), self.entries)
        at = self.keys.searchsorted(batch)
        known = self.keys.take(at, mode="clip") == batch
        flags = self.live.copy()
        flags[at[known]] = live
        if known.all():
            return _RangeIndex(stamp, self.keys, flags, self.entries)
        fresh = ~known
        slots = at[fresh] + np.arange(np.count_nonzero(fresh))
        size = self.keys.size + slots.size
        kept = np.ones(size, dtype=bool)
        kept[slots] = False
        merged_keys = np.empty(size, dtype=np.uint64)
        merged_keys[kept] = self.keys
        merged_keys[slots] = batch[fresh]
        merged_flags = np.empty(size, dtype=bool)
        merged_flags[kept] = flags
        merged_flags[slots] = live
        return _RangeIndex(stamp, merged_keys, merged_flags, self.entries)


class MemTable:
    """Unsorted write buffer with sorted flush; newest write wins."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: dict[int, bytes | _Tombstone] = {}
        # Held by every write and flush, and to publish a range index.
        self._lock = threading.Lock()
        # Bumped after every write; the range index is valid while its
        # stamp equals it (see _range_index).
        self._version = 0
        self._snapshot: _RangeIndex | None = None
        #: Range indexes built from the entries (writes merge instead).
        self.index_builds = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes = b"") -> None:
        with self._lock:
            self._entries[key] = value
            self._written((key,), live=True)

    def put_many(
        self, keys: np.ndarray, values: list[bytes] | None = None
    ) -> None:
        """Bulk :meth:`put`: one dict update for the whole batch.

        ``values`` aligns with ``keys`` when given (later duplicates win,
        exactly like the scalar loop); without it every key stores ``b""``
        — the benchmark-mode write shape, which skips per-key Python
        bookkeeping entirely.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        listed = keys.tolist()
        if values is not None and len(values) != len(listed):
            raise ValueError("values must align with keys")
        with self._lock:
            if values is None:
                self._entries.update(dict.fromkeys(listed, b""))
            else:
                self._entries.update(zip(listed, values, strict=True))
            self._written(keys, live=True)

    def delete(self, key: int) -> None:
        """Record a tombstone (shadows older versions on lower levels)."""
        with self._lock:
            self._entries[key] = TOMBSTONE
            self._written((key,), live=False)

    def delete_many(self, keys: np.ndarray) -> None:
        """Bulk :meth:`delete`: tombstone every key in one dict update."""
        keys = np.asarray(keys, dtype=np.uint64)
        with self._lock:
            self._entries.update(dict.fromkeys(keys.tolist(), TOMBSTONE))
            self._written(keys, live=False)

    def _written(self, keys, *, live: bool) -> None:
        """Count the write that just set ``keys`` to ``live``, and bring
        the range index along; called with the lock held.

        The batch merges into an index stamped with the count before this
        write (one that reflects every earlier write); any other index is
        dropped, and with no index the write does nothing more.  The lock
        keeps other writes, flushes and index publishes out until the new
        index is published.  The count moves before it is: a reader in
        between sees a stale stamp and rebuilds, and never takes the old
        index for the new count.
        """
        stamp = self._version
        index = self._snapshot
        merged = (
            index.merged(keys, live, stamp + 1)
            if index is not None and index.stamp == stamp
            else None
        )
        self._version = stamp + 1
        self._snapshot = merged

    def _range_index(self) -> _RangeIndex:
        """The current range index, built from the entries if none is.

        It is built from a copy of the entries taken under the lock with
        the write count, so it reflects exactly the writes counted by its
        stamp.  The sort runs outside the lock, and the index is published
        only if no write or flush landed meanwhile (otherwise the caller
        still reads it: it holds every write acknowledged before the call).
        """
        index = self._snapshot
        if index is None or index.stamp != self._version:
            with self._lock:
                stamp = self._version
                entries = self._entries
                items = list(entries.items())
            keys = np.fromiter((k for k, _ in items), dtype=np.uint64, count=len(items))
            live = np.fromiter(
                (v is not TOMBSTONE for _, v in items), dtype=bool, count=len(items)
            )
            order = np.argsort(keys)
            index = _RangeIndex(stamp, keys[order], live[order], entries)
            self.index_builds += 1
            with self._lock:
                if self._version == stamp:
                    self._snapshot = index
        return index

    # ------------------------------------------------------------------
    def get(self, key: int) -> bytes | _Tombstone | None:
        """Value, TOMBSTONE, or None when the memtable knows nothing."""
        return self._entries.get(key)

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

        Two ``searchsorted`` calls over the range index answer the whole
        batch: a row holds a live key iff more live keys sort up to ``hi``
        than below ``lo``.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if not self._entries or bounds.shape[0] == 0:
            return np.zeros(bounds.shape[0], dtype=bool)
        index = self._range_index()
        below = index.keys.searchsorted(bounds[:, 0])
        upto = index.keys.searchsorted(bounds[:, 1], side="right")
        live_before = index.live_before
        return live_before[upto] > live_before[below]

    def range_slice(
        self, l_key: int, r_key: int
    ) -> tuple[np.ndarray, np.ndarray, list]:
        """The buffered entries in ``[l_key, r_key]``, tombstones included:
        ``(keys, tombstones, values)``, sorted by key.

        Two ``searchsorted`` calls over the range index slice out the
        keys; their values are read once from the entries the index was
        built over (the buffered entries as of the index, even if a flush
        has drained them since), and a tombstone's value is
        :data:`TOMBSTONE` with its flag set.
        """
        if not self._entries:
            return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool), []
        index = self._range_index()
        below = int(index.keys.searchsorted(np.uint64(l_key)))
        upto = int(index.keys.searchsorted(np.uint64(r_key), side="right"))
        keys = index.keys[below:upto]
        entries = index.entries
        values = [entries[key] for key in keys.tolist()]
        tombstones = np.fromiter(
            (value is TOMBSTONE for value in values), dtype=bool, count=len(values)
        )
        return keys, tombstones, values

    # ------------------------------------------------------------------
    def drain_sorted(self):
        """Flush: return (keys, values, tombstone flags) sorted; empty.

        The memtable starts a new entry dict; the drained one stays intact
        for readers holding a range index over it.

        ``keys`` is a uint64 array; ``values`` a list aligned with it;
        tombstoned slots carry ``b""`` in values and True in the flag array.
        The sort runs as one NumPy ``argsort`` over the key array (keys are
        dict keys, hence distinct) instead of a Python-level item sort.
        """
        with self._lock:
            entries = self._entries
            self._entries = {}
            self._version += 1
            self._snapshot = None
        n = len(entries)
        keys = np.fromiter(entries.keys(), dtype=np.uint64, count=n)
        raw = list(entries.values())
        order = np.argsort(keys)
        keys = keys[order]
        tombstones = np.fromiter(
            (v is TOMBSTONE for v in raw), dtype=bool, count=n
        )[order]
        values = [
            b"" if raw[i] is TOMBSTONE else raw[i] for i in order.tolist()
        ]
        return keys, values, tombstones
