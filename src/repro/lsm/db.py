"""The LSM key-value store: memtable + L0 SSTables (+ optional compaction).

This is the system harness for Experiments 1, 2 and the Fig. 12.C/G
measurements — and a usable KV store: point gets, deletes via tombstones,
and range scans (newest version wins) over the SSTs, consulting
every SST's filter block and fence pointers and charging a fixed
simulated latency per block read.  All probe outcomes
and time buckets land in :class:`~repro.lsm.iostats.IOStats`.

Reads make one filter pass per request, not one per run: a
:class:`~repro.lsm.filter_policy.RunSetFilter` over the run list answers
a runs x keys (or runs x rows) "maybe" matrix, and a per-run
``searchsorted`` gives the matching truth matrix.  ``get_many``,
``get_value`` and ``may_contain_many`` are reductions of the point pair
(one hash per key and hash function for all same-config runs), and they
charge ``IOStats`` exactly the probes, outcomes and block reads of the
newest-first walk that stops at a key's newest version.
``scan_nonempty_many``, ``scan`` and ``scan_may_contain`` are reductions
of the range pair (:meth:`LsmDB._range_pass`): every cell is charged in
one ``record_probes`` call, then one fence lookup per positive cell,
exactly what a loop of per-run range probes charges.  A row's versions
then reconcile over the runs its truth column names: the memtable's and
those runs' ``searchsorted`` slices, newest first, go through the one
newest-wins pass compaction uses too (:func:`_newest_wins`), and values
are read only for the entries a ``scan`` returns.  The run-set filter is
cached against the identity of the copy-on-write run list, together with
its own run tuple.

Every write takes one path: ``put``/``delete`` are one-key
``put_many``/``delete_many`` calls, validated like any batch, and one
chunk loop (:meth:`LsmDB._write`) buffers each memtable-sized chunk
through :meth:`LsmDB._buffer` — the one method the persistent engine
overrides to log the chunk first.

Compaction is disabled by default, matching the paper's RocksDB setup
(overlapping L0 runs are exactly what makes per-SST filters matter);
:meth:`LsmDB.compact` is provided for KV-store completeness and drops
shadowed versions and tombstones.

Concurrency contract (machine-checked by ``repro lint``): readers take
lock-free copy-on-write snapshots of ``self.sstables``, so every swap of
the run list — and every call into a ``*_locked`` method or
``_commit_merge`` — must hold ``self._maintenance_lock``
(``lock-discipline``).  Writes and flushes may race each other: the
memtable serializes its writes, drains and range-index publishes on its
own lock.  The compaction-stress suite additionally runs
under :class:`repro.testing.LockOrderWatcher`, which fails on lock-order
cycles and on unlocked run-list swaps at runtime.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro._util import one_row
from repro.api import FilterSpec
from repro.lsm.compaction import (
    CompactionScheduler,
    SizeTieredPolicy,
    coerce_compaction,
    compaction_to_dict,
)
from repro.lsm.filter_policy import RunSetFilter, SpecPolicy, coerce_policy
from repro.lsm.iostats import BLOCK_READ_LATENCY_S, IOStats
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import SSTable

__all__ = ["LsmDB"]


def _newest_wins(
    keys: list[np.ndarray], tombstones: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newest-wins version merge of sorted key arrays listed newest first.

    ``tombstones[i]`` flags the tombstones among ``keys[i]``.  Returns
    ``(unique, newest, dead)``: every distinct key, ascending; the position
    of its newest version in the concatenation of ``keys``; and whether
    that version is a tombstone.  One ``np.unique`` pass, no per-key
    Python: it keeps each key's *first* occurrence, which the newest-first
    order makes its newest version.
    """
    unique, newest = np.unique(np.concatenate(keys), return_index=True)
    return unique, newest, np.concatenate(tombstones)[newest]


class _RunSet:
    """A run list's filter pass, paired with the runs it was built from.

    ``source`` is the list object it was built for (the cache key: the run
    list is only ever swapped, never mutated); ``runs`` is its own tuple,
    so a reader always pairs rows of the "maybe" matrix with the right
    runs even if the list is swapped meanwhile.  The groups of stacked
    filter words that ``previous`` already built are reused.
    """

    __slots__ = ("source", "runs", "filters")

    def __init__(self, source: list[SSTable], previous: "_RunSet | None" = None) -> None:
        self.source = source
        self.runs = tuple(source)
        self.filters = RunSetFilter(
            [sst.filter for sst in self.runs],
            previous=None if previous is None else previous.filters,
        )


class LsmDB:
    """Minimal RocksDB-like store (L0 runs, newest first).

    ``policy`` selects the per-SST filter blocks: a
    :class:`~repro.lsm.filter_policy.SpecPolicy`, a
    :class:`~repro.api.FilterSpec` (wrapped in one), or None for fence
    pointers only.
    """

    def __init__(
        self,
        policy: SpecPolicy | FilterSpec | None = None,
        memtable_capacity: int = 1 << 16,
        value_bytes: int = 512,
        block_bytes: int = 4096,
        store_values: bool = False,
        compaction=None,
        compaction_scheduler: CompactionScheduler | None = None,
    ) -> None:
        self.policy = coerce_policy(policy)
        self.memtable = MemTable(memtable_capacity)
        self.sstables: list[SSTable] = []
        self.value_bytes = value_bytes
        self.block_bytes = block_bytes
        self.store_values = store_values
        self.stats = IOStats()
        # Background compaction: ``compaction`` picks merge windows (None
        # = manual, the paper's compaction-disabled L0 setup).  All run-set
        # mutations (flush, compact, merge commits) serialize on the
        # maintenance lock; ``self.sstables`` itself is only ever swapped
        # wholesale (copy-on-write), never mutated in place, so readers
        # get an immutable snapshot without taking any lock.
        self.compaction = coerce_compaction(compaction)
        self._maintenance_lock = threading.RLock()
        self._run_set = _RunSet(self.sstables)
        self._owns_scheduler = False
        self._scheduler = compaction_scheduler
        if self.compaction is not None and self._scheduler is None:
            self._scheduler = CompactionScheduler(max_workers=1)
            self._owns_scheduler = True

    # ------------------------------------------------------------------
    # lifecycle (uniform Store interface)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine resources: drain background compaction workers.

        An in-flight merge finishes (and commits) before this returns;
        further triggers are refused.  Idempotent.
        """
        if self._owns_scheduler and self._scheduler is not None:
            self._scheduler.close()

    def sync(self) -> None:
        """Make all flushed runs durable.

        A no-op for the in-memory store; the persistent engines
        (:mod:`repro.lsm.store`) override this to write run files and the
        store manifest, so callers can request durability through the one
        :class:`~repro.api.Store` interface regardless of backing.
        """

    def commit_barrier(self) -> None:
        """Block until every acknowledged write is power-loss durable.

        A no-op for the in-memory store (there is nothing more durable
        than the memtable).  :class:`~repro.lsm.store.PersistentLsmDB`
        overrides this with the WAL's group-commit barrier, so a caller —
        the serving layer acking a write group — can wait for the
        covering fsync through the one :class:`~repro.api.Store`
        interface regardless of backing.
        """

    def wal_info(self) -> dict:
        """Write-ahead-log state: empty, as the in-memory store keeps no
        log (:class:`~repro.lsm.store.PersistentLsmDB` reports its own)."""
        return {}

    def __enter__(self) -> "LsmDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes = b"") -> None:
        """Insert or overwrite one key: a one-key :meth:`put_many`."""
        self.put_many(one_row(key), [value])

    def delete(self, key: int) -> None:
        """Delete one key via tombstone: a one-key :meth:`delete_many`."""
        self.delete_many(one_row(key))

    def put_many(
        self, keys: np.ndarray, values: list[bytes] | None = None
    ) -> None:
        """Insert or overwrite a key batch; flushes whenever the memtable fills.

        Duplicate keys within a batch overwrite exactly like sequential
        puts (see :meth:`_write` for the flush boundaries).
        """
        keys = self._validated_keys(keys)
        if values is not None and len(values) != keys.size:
            raise ValueError("values must align with keys")
        self._write(keys, values, delete=False)

    def delete_many(self, keys: np.ndarray) -> None:
        """Tombstone a key batch (shadows older versions until compaction)."""
        self._write(self._validated_keys(keys), None, delete=True)

    def _write(
        self, keys: np.ndarray, values: list[bytes] | None, *, delete: bool
    ) -> None:
        """The one chunk loop behind every write.

        Each chunk fills the memtable to capacity through :meth:`_buffer`
        (one dict update, no per-key Python), then flushes — so for
        distinct keys the run layout is identical to one-key calls'
        (asserted by the tests).  With duplicate keys only the flush
        boundaries may differ (the memtable holds fewer entries than keys
        consumed), which changes no answer.
        """
        n = keys.size
        start = 0
        while start < n:
            room = self.memtable.capacity - len(self.memtable)
            if room <= 0:
                self.flush()
                continue
            stop = min(start + room, n)
            self._buffer(
                keys[start:stop],
                values[start:stop] if values is not None else None,
                delete=delete,
                last=stop == n,
            )
            start = stop
            if self.memtable.is_full:
                self.flush()

    def _buffer(
        self,
        keys: np.ndarray,
        values: list[bytes] | None,
        *,
        delete: bool,
        last: bool,
    ) -> None:
        """Apply one chunk of a write to the memtable.

        ``last`` marks the write call's final chunk; the persistent engine
        logs every chunk before it mutates the memtable and commits its
        write-ahead log after the last one.
        """
        if delete:
            self.memtable.delete_many(keys)
        else:
            self.memtable.put_many(keys, values)

    def flush(self) -> None:
        """Flush the memtable into a new L0 SSTable (newest first).

        The run list is *replaced*, not mutated (copy-on-write), so a
        concurrent reader iterating its snapshot never sees a half-made
        update; when a background policy is configured the flush then
        notifies the scheduler (the auto-compaction trigger).
        """
        flushed = False
        with self._maintenance_lock:
            if len(self.memtable):
                keys, values, tombstones = self.memtable.drain_sorted()
                sst = self._make_sstable(
                    keys,
                    values if self.store_values else None,
                    tombstones,
                )
                self.sstables = [sst] + self.sstables
                flushed = True
        if flushed:
            self._after_flush()

    def _after_flush(self) -> None:
        """Post-flush hook: trigger the background compaction scheduler."""
        if self._scheduler is not None and self.compaction is not None:
            self._scheduler.notify(self)

    def drain_compaction(self) -> None:
        """Block until background compaction is quiescent.

        Returns immediately on a manual store.  Useful before reading
        :meth:`compaction_info` counters or benchmarking a settled run
        layout; answers never require it (reads are correct mid-merge).
        """
        if self._scheduler is not None:
            self._scheduler.drain()

    def bulk_load(self, keys: np.ndarray, num_sstables: int) -> None:
        """Load an insertion-ordered key stream into ``num_sstables`` runs.

        Mirrors how sequential memtable flushes partition a write stream:
        each chunk is sorted on flush, chunks overlap arbitrarily in key
        space (the L0 shape that makes filters matter).  Each run's filter
        block is built through the policy's bulk path — one ``insert_many``
        per-layer sweep over the whole chunk, never per-key scalar inserts.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if num_sstables <= 0:
            raise ValueError(f"num_sstables must be positive, got {num_sstables}")
        with self._maintenance_lock:
            for chunk in np.array_split(keys, num_sstables):
                if chunk.size == 0:
                    continue
                sorted_chunk = np.unique(chunk)
                self.sstables = [
                    self._make_sstable(sorted_chunk, None, None)
                ] + self.sstables

    def compact(self) -> None:
        """Merge every run into one, dropping shadowed versions/tombstones.

        The merged run's filter is built from its surviving keys (see
        :meth:`_merge_tables`), so it is sized for the run it guards.
        """
        with self._maintenance_lock:
            self.flush()
            if not self.sstables:
                return
            merged = self._merge_tables(self.sstables, drop_tombstones=True)
            self.sstables = [merged] if merged is not None else []

    def _merge_tables(
        self, tables: list[SSTable], *, drop_tombstones: bool
    ) -> SSTable | None:
        """One merged run from a newest-first window of runs (or None when
        nothing survives).

        The window's versions reconcile in the newest-wins pass that scans
        use too (:func:`_newest_wins`); the merged run's filter is one bulk
        ``policy.build`` over the surviving keys, as for a flushed run
        (paper Sect. 9: one filter per SST, built from that SST's keys), so
        bits/key stays at the spec however many merges a key has been
        through.
        ``drop_tombstones`` is only sound when the window
        includes the store's oldest run — an interior merge must keep its
        tombstones, which still shadow versions in older runs.

        Pure function of the (immutable) input runs: background workers
        call it outside the maintenance lock.
        """
        unique_keys, newest, newest_tombstones = _newest_wins(
            [sst.keys for sst in tables], [sst.tombstones for sst in tables]
        )
        keep = (
            ~newest_tombstones
            if drop_tombstones
            else np.ones(unique_keys.size, dtype=bool)
        )
        if not np.any(keep):
            return None
        values = None
        if self.store_values:
            combined: list[bytes] = []
            for sst in tables:
                combined.extend(
                    sst.values
                    if sst.values is not None
                    else [b""] * sst.num_keys
                )
            values = [combined[i] for i in newest[keep].tolist()]
        return self._make_sstable(
            unique_keys[keep],
            values,
            None if drop_tombstones else newest_tombstones[keep],
        )

    def maybe_compact(self, policy=None) -> dict | None:
        """Run one policy-selected background merge; None when quiescent.

        The scheduler's work unit.  Three phases: (1) under the
        maintenance lock, snapshot the run list and ask the policy for a
        contiguous merge window; (2) *outside* the lock, build the merged
        run from the window's immutable SSTables — reads and flushes
        proceed concurrently against their own snapshots; (3) under the
        lock again, splice the merged run over the window and commit.
        Flushes only *prepend*, so the window is still intact unless a
        manual :meth:`compact` superseded it — then the merged run is
        discarded (the manual result already covers it) and None is
        returned.  Returns a small dict of merge accounting otherwise.

        ``policy`` overrides :attr:`compaction` for this one call (the
        CLI's one-shot foreground pass) without touching engine state —
        on a persistent store the merge commit re-writes the manifest
        from :attr:`compaction`, so a *temporarily assigned* policy would
        leak into the manifest; an argument cannot.
        """
        policy = self.compaction if policy is None else policy
        if policy is None:
            return None
        with self._maintenance_lock:
            snapshot = self.sstables
            window = policy.pick([sst.num_keys for sst in snapshot])
            if window is None:
                return None
            start, stop = window
            victims = snapshot[start:stop]
            if not 0 <= start < stop <= len(snapshot) or len(victims) < 2:
                return None
            # Tombstones drop only when nothing older remains to shadow.
            # Decided on the snapshot, still valid at commit: flushes only
            # prepend (the oldest run stays put) and any manual compact
            # aborts the commit entirely.
            drop = stop == len(snapshot)
        merged = self._merge_tables(victims, drop_tombstones=drop)
        with self._maintenance_lock:
            current = self.sstables
            try:
                at = current.index(victims[0])
            except ValueError:
                return None  # superseded by a manual compact mid-merge
            if current[at : at + len(victims)] != victims:
                return None
            replacement = [merged] if merged is not None else []
            self.sstables = current[:at] + replacement + current[at + len(victims):]
            self._commit_merge()
        return {
            "input_runs": len(victims),
            "input_keys": int(sum(sst.num_keys for sst in victims)),
            "output_keys": int(merged.num_keys) if merged is not None else 0,
        }

    def _commit_merge(self) -> None:
        """Post-splice commit hook (the persistent store syncs here);
        called with the maintenance lock held."""

    def compaction_info(self) -> dict:
        """Policy, per-level run layout, and scheduler state (inspect)."""
        policy = self.compaction
        describe = policy if policy is not None else SizeTieredPolicy()
        run_keys = [sst.num_keys for sst in self.sstables]
        return {
            "policy": compaction_to_dict(policy),
            "levels": describe.describe_levels(run_keys),
            "pending": (
                policy is not None and policy.pick(run_keys) is not None
            ),
            "scheduler": (
                self._scheduler.info() if self._scheduler is not None else None
            ),
        }

    def _make_sstable(
        self,
        sorted_keys: np.ndarray,
        values: list[bytes] | None,
        tombstones: np.ndarray | None,
    ) -> SSTable:
        return SSTable(
            sorted_keys,
            policy=self.policy,
            values=values,
            tombstones=tombstones,
            value_bytes=self.value_bytes,
            block_bytes=self.block_bytes,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> bool:
        """Is a live version of ``key`` present? A one-row :meth:`get_many`:
        the answer is a tombstone flag, so no value is read."""
        return bool(self.get_many(one_row(key))[0])

    def get_value(self, key: int) -> bytes | None:
        """Newest live value of ``key``, or None (absent or deleted).

        The memtable answers first; otherwise one filter pass over every
        run (a one-key :meth:`_newest_versions`) finds the newest run
        holding the key, and only that run's value is fetched.
        """
        row = one_row(key)
        buffered = self.memtable.get(int(row[0]))
        if buffered is not None:
            return None if buffered is TOMBSTONE else buffered
        runs, holder = self._newest_versions(row)
        if holder[0] < 0:
            return None
        sst = runs[holder[0]]
        slot = int(sst.keys.searchsorted(row[0]))
        if sst.tombstones[slot]:
            return None
        return sst.values[slot] if sst.values is not None else b""

    @staticmethod
    def _validated_keys(keys: np.ndarray) -> np.ndarray:
        """Shared key validation for the batched point paths: refuses
        negative keys instead of silently wrapping them into uint64."""
        arr = np.asarray(keys)  # repro-lint: ignore[dtype-discipline] -- validation must see the caller's dtype to reject floats/negatives before astype(uint64)
        if arr.size == 0:
            return np.zeros(0, dtype=np.uint64)
        if arr.ndim != 1:
            raise ValueError(f"keys must be one-dimensional, got shape {arr.shape}")
        if arr.dtype.kind not in "iu":
            raise TypeError(f"keys must be integers, got dtype {arr.dtype}")
        if arr.dtype.kind == "i" and int(arr.min()) < 0:
            raise ValueError(f"negative key {int(arr.min())}")
        return arr.astype(np.uint64, copy=False)

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched :meth:`get`: one boolean per key (newest version live?).

        The memtable settles what it holds; the other keys take one filter
        pass over every run (:meth:`_newest_versions`), and each key's
        answer is its newest run version's tombstone flag.  Answers and
        ``IOStats.counters()`` equal those of a newest-first walk of
        one-key probes per run (asserted by the tests).
        """
        keys = self._validated_keys(keys)
        n = keys.size
        result = np.zeros(n, dtype=bool)
        if n == 0:
            return result
        # Probing in key order makes each run's searchsorted cache-friendly.
        pending = np.argsort(keys)
        if len(self.memtable):
            known, live = self.memtable.lookup_many(keys)
            result[known] = live[known]
            pending = pending[~known[pending]]
            if pending.size == 0:
                return result
        runs, holder = self._newest_versions(keys[pending])
        for run in set(holder[holder >= 0].tolist()):
            mine = pending[holder == run]
            sst = runs[run]
            result[mine] = ~sst.tombstones[sst.keys.searchsorted(keys[mine])]
        return result

    def _newest_versions(
        self, keys: np.ndarray
    ) -> tuple[tuple[SSTable, ...], np.ndarray]:
        """Find each key's newest run version with one filter pass.

        Returns ``(runs, holder)``: ``runs[holder[i]]`` is the newest run
        holding ``keys[i]`` (``holder[i]`` is -1 when none does).  The
        truth comes first (:meth:`_presence`); the filter pass then probes
        each key in the runs down to its holder (all of them when it has
        none), which are the cells the newest-first walk probes.
        ``IOStats`` is charged for those cells and for the block reads of
        their positives: a present key's fence always holds it, so each
        true positive reads one block, and a false positive reads one when
        a fence spans the key.
        """
        run_set = self._current_run_set()
        runs = run_set.runs
        if not runs:
            return runs, np.full(keys.size, -1)
        found = self._presence(runs, keys)
        held = found.any(axis=0)
        holder = np.where(held, found.argmax(axis=0), -1)
        depth = np.where(held, holder + 1, len(runs))
        maybe = self._filter_pass(run_set.filters.probe_point_many, keys, depth)
        probed = np.arange(len(runs))[:, None] < depth
        self._record(maybe[probed], found[probed])
        blocks = int(np.count_nonzero(held))
        rows, cols = np.nonzero(maybe & probed & ~found)
        for row, key in zip(rows.tolist(), keys[cols].tolist(), strict=True):
            blocks += len(runs[row].fences.blocks_for_point(key))
        self.stats.blocks_read += blocks
        self.stats.io_wait_s += blocks * BLOCK_READ_LATENCY_S
        return runs, holder

    @staticmethod
    def _presence(runs: tuple[SSTable, ...], keys: np.ndarray) -> np.ndarray:
        """``(runs, keys)``: does the run hold the key? (a ``searchsorted``
        per run)."""
        # Past the end, the clipped index holds the largest key: never equal.
        return np.array(
            [sst.keys.take(sst.keys.searchsorted(keys), mode="clip") == keys for sst in runs],
            dtype=bool,
        ).reshape(len(runs), keys.size)

    def _current_run_set(self) -> _RunSet:
        """The run-set filter of the current run list, rebuilt after a swap."""
        run_set = self._run_set
        if run_set.source is not self.sstables:
            run_set = self._run_set = _RunSet(self.sstables, run_set)
        return run_set

    def _filter_pass(self, probe, *args) -> np.ndarray:
        """A run set's "maybe" matrix from ``probe(*args)`` (a
        :class:`RunSetFilter <repro.lsm.filter_policy.RunSetFilter>`
        method), timed into ``filter_cpu_s``."""
        start = time.perf_counter()
        maybe = probe(*args)
        self.stats.filter_cpu_s += time.perf_counter() - start
        return maybe

    def _record(self, maybe: np.ndarray, found: np.ndarray) -> None:
        """Record probe outcomes against the truth; a filter never misses."""
        missed = self.stats.record_probes(maybe, found)
        assert not missed, "filter produced a false negative"

    def may_contain_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched filter-level membership probe: may ``key`` be present?

        The point counterpart of :meth:`scan_may_contain`: one filter pass
        probes every key in every run (all cells are charged, against a
        ``searchsorted`` per run), then the memtable is consulted.  Pure
        filter CPU — no fence lookups and no block reads are charged, and
        tombstones are *not* resolved (a filter cannot un-insert).  A True
        is a *may-contain* — resolve with :meth:`get_many` when the exact
        answer matters.
        """
        keys = self._validated_keys(keys)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        order = np.argsort(keys)  # key order: see get_many
        ordered = keys[order]
        run_set = self._current_run_set()
        maybe = self._filter_pass(run_set.filters.probe_point_many, ordered)
        self._record(maybe, self._presence(run_set.runs, ordered))
        result = np.empty(keys.size, dtype=bool)
        result[order] = maybe.any(axis=0)
        if len(self.memtable):
            known, _ = self.memtable.lookup_many(keys)
            result |= known
        return result

    def scan_nonempty(self, l_key: int, r_key: int) -> bool:
        """Does ``[l_key, r_key]`` hold any live key? (Exp. 1's probe shape).

        A one-row :meth:`scan_nonempty_many`.
        """
        return bool(self.scan_nonempty_many(one_row(l_key, r_key))[0])

    @staticmethod
    def _validated_bounds(bounds: np.ndarray) -> np.ndarray:
        """Shared bounds validation for the scan paths: rejects inverted
        ranges and refuses negative keys instead of silently wrapping them
        into uint64."""
        arr = np.asarray(bounds)  # repro-lint: ignore[dtype-discipline] -- validation must see the caller's dtype to reject floats/negatives before astype(uint64)
        if arr.size == 0:
            return np.zeros((0, 2), dtype=np.uint64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"bounds must have shape (n, 2), got {arr.shape}")
        if arr.dtype.kind not in "iu":
            raise TypeError(f"bounds must be integers, got dtype {arr.dtype}")
        if arr.dtype.kind == "i" and int(arr.min()) < 0:
            raise ValueError(f"negative query bound {int(arr.min())}")
        arr = arr.astype(np.uint64, copy=False)
        inverted = arr[:, 0] > arr[:, 1]
        if np.any(inverted):
            i = int(np.argmax(inverted))
            raise ValueError(
                f"empty query range [{int(arr[i, 0])}, {int(arr[i, 1])}]"
            )
        return arr

    @staticmethod
    def _validated_limit(limit) -> int | None:
        """Shared ``scan`` limit validation: None or a non-negative int
        (a bool is refused, although Python counts it as an int)."""
        if limit is None:
            return None
        if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)):
            raise TypeError(f"limit must be an integer or None, got {type(limit).__name__}")
        if limit < 0:
            raise ValueError(f"negative scan limit {limit}")
        return int(limit)

    def scan_may_contain(self, bounds: np.ndarray) -> np.ndarray:
        """Batched filter-level emptiness probe: may ``[lo, hi]`` be non-empty?

        One boolean per ``(lo, hi)`` row: one range filter pass over every
        run (:meth:`_range_pass`, all cells charged), OR-ed per row, then
        the memtable.  Pure filter CPU — no fence lookups and no block
        reads are charged.
        A True is a *may-contain* — resolve with :meth:`scan_nonempty_many`
        or :meth:`scan` when the exact answer matters.
        """
        bounds = self._validated_bounds(bounds)
        if bounds.size == 0:
            return np.zeros(0, dtype=bool)
        _, _, _, maybe = self._range_pass(bounds, read_blocks=False)
        result = maybe.any(axis=0)
        if len(self.memtable):
            result |= self.memtable.contains_range_many(bounds)
        return result

    def scan_nonempty_many(self, bounds: np.ndarray) -> np.ndarray:
        """Does each ``(lo, hi)`` row hold any live key? One boolean per row.

        One range filter pass probes every run for every row
        (:meth:`_range_pass`; the paper's workloads are empty — the worst
        case — and real scans must merge all overlapping runs).  The
        memtable settles a row it holds a live key for; any other row
        whose truth column names a run reconciles its versions over those
        runs only (:meth:`_range_versions`) and asks whether any newest
        version is live — no value is read.
        """
        bounds = self._validated_bounds(bounds)
        if bounds.size == 0:
            return np.zeros(0, dtype=bool)
        runs, first, present, _ = self._range_pass(bounds, read_blocks=True)
        out = self.memtable.contains_range_many(bounds)
        for i in np.nonzero(~out & present.any(axis=0))[0].tolist():
            lo, hi = bounds[i].tolist()
            _, dead, _ = self._range_versions(lo, hi, runs, first, present, i)
            out[i] = not dead.all()
        return out

    def scan(self, l_key: int, r_key: int, limit: int | None = None):
        """Merged live entries in range, newest version wins, sorted by key.

        Returns ``[(key, value), ...]``, at most ``limit`` of them (a
        non-negative integer or None).  A one-row :meth:`_range_pass`
        charges every run's filter, the runs that hold an entry in range
        are reconciled (:meth:`_range_versions`), and values are read only
        for the entries returned.
        """
        limit = self._validated_limit(limit)
        keys, at, value_of = self._scan_keys(l_key, r_key, limit)
        return [
            (key, value_of(i))
            for key, i in zip(keys.tolist(), at.tolist(), strict=True)
        ]

    def _scan_keys(self, l_key, r_key, limit):
        """:meth:`scan` with its value reads deferred: ``(keys, at,
        value_of)``, where ``keys`` are the first ``limit`` live keys in
        range, ascending, and ``value_of(at[i])`` reads ``keys[i]``'s
        value (see :meth:`_range_versions`)."""
        bounds = self._validated_bounds(one_row(l_key, r_key))
        runs, first, present, _ = self._range_pass(bounds, read_blocks=True)
        keys, dead, value_of = self._range_versions(
            l_key, r_key, runs, first, present, 0
        )
        live = np.nonzero(~dead)[0][:limit]
        return keys[live], live, value_of

    def _range_pass(
        self, bounds: np.ndarray, *, read_blocks: bool
    ) -> tuple[tuple[SSTable, ...], list[np.ndarray], np.ndarray, np.ndarray]:
        """One range filter pass over every run: ``(runs, first, present,
        maybe)``.

        ``first`` and ``present`` come from :meth:`_range_presence`;
        ``present`` and ``maybe`` (the
        :class:`RunSetFilter <repro.lsm.filter_policy.RunSetFilter>`'s
        answer) are ``(runs, rows)``.  Every cell is one filter probe,
        recorded against ``present`` in one call; with ``read_blocks``,
        each positive cell also charges the blocks its run's fences
        overlap — exactly what a loop of
        :meth:`SSTable.scan_many <repro.lsm.sstable.SSTable.scan_many>`
        over the runs charges (asserted by the tests).
        """
        run_set = self._current_run_set()
        runs = run_set.runs
        if not runs:
            empty = np.zeros((0, bounds.shape[0]), dtype=bool)
            return runs, [], empty, empty
        first, present = self._range_presence(runs, bounds)
        maybe = self._filter_pass(run_set.filters.probe_range_many, bounds)
        self._record(maybe, present)
        if read_blocks:
            blocks = 0
            rows, cols = np.nonzero(maybe)
            for row, (lo, hi) in zip(rows.tolist(), bounds[cols].tolist(), strict=True):
                blocks += len(runs[row].fences.blocks_for_range(lo, hi))
            self.stats.blocks_read += blocks
            self.stats.io_wait_s += blocks * BLOCK_READ_LATENCY_S
        return runs, first, present, maybe

    @staticmethod
    def _range_presence(
        runs: tuple[SSTable, ...], bounds: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """``(first, present)``: ``first[run][row]`` indexes the run's
        first key >= the row's ``lo``, and ``present`` (``(runs, rows)``)
        says whether the run holds a key in ``[lo, hi]`` (one
        ``searchsorted`` per run over every row)."""
        lo, hi = bounds[:, 0], bounds[:, 1]
        first = [sst.keys.searchsorted(lo) for sst in runs]
        # Past the end the clipped index holds the largest key, which is
        # < lo and so never in range.
        at = np.array(
            [sst.keys.take(idx, mode="clip") for sst, idx in zip(runs, first, strict=True)],
            dtype=np.uint64,
        ).reshape(len(runs), lo.size)
        return first, (at >= lo) & (at <= hi)

    def _range_versions(self, l_key, r_key, runs, first, present, row):
        """Newest-wins reconciliation of ``[l_key, r_key]``, the bounds of
        row ``row`` of a :meth:`_range_pass`: the memtable's slice first,
        then the slices of the runs whose ``present`` cell is set, newest
        first, in one :func:`_newest_wins` pass.  A slice starts at the
        run's ``first`` index for the row, so only its end is searched.

        Returns ``(keys, dead, value_of)``: every key in range, ascending,
        whether its newest version is a tombstone, and ``value_of(i)``,
        which reads the value of ``keys[i]``'s newest version (from the
        memtable slice or its run) only when called.
        """
        keys, tombstones, values = self.memtable.range_slice(l_key, r_key)
        slices, flags = [keys], [tombstones]
        sources = [(values, 0)]  # each slice's values, and its first slot
        hi = np.uint64(r_key)
        for run in np.nonzero(present[:, row])[0].tolist():  # newest first
            sst = runs[run]
            start = int(first[run][row])
            stop = int(sst.keys.searchsorted(hi, side="right"))
            slices.append(sst.keys[start:stop])
            flags.append(sst.tombstones[start:stop])
            sources.append((sst.values, start))
        unique, newest, dead = _newest_wins(slices, flags)
        starts = np.cumsum([0] + [part.size for part in slices])

        def value_of(i: int) -> bytes:
            at = int(newest[i])
            source = int(starts.searchsorted(at, side="right")) - 1
            values, offset = sources[source]
            if values is None:
                return b""
            return values[offset + at - int(starts[source])]

        return unique, dead, value_of

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return len(self.memtable) + sum(s.num_keys for s in self.sstables)

    @property
    def num_sstables(self) -> int:
        return len(self.sstables)

    @property
    def filter_bits(self) -> int:
        return sum(s.filter.size_bits for s in self.sstables)

    def filter_bits_per_key(self) -> float:
        stored = sum(s.num_keys for s in self.sstables)
        return self.filter_bits / stored if stored else 0.0

    def construction_times(self) -> tuple[float, float]:
        """(total filter build seconds, total serialization seconds)."""
        return (
            sum(s.build_time_s for s in self.sstables),
            sum(s.serialize_time_s for s in self.sstables),
        )

    def reset_stats(self) -> IOStats:
        """Zero the stats in place; returns a snapshot of the old values.

        In place because loaded SST frames capture a reference to this
        object at open time (the decompressed-block cache records its
        hits and misses through it) — swapping in a fresh object would
        silently detach their accounting.
        """
        return self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LsmDB(policy={self.policy.name}, sstables={len(self.sstables)}, "
            f"keys={self.num_keys})"
        )
