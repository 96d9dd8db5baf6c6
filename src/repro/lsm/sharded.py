"""ShardedLsmDB — a shard-aware LSM engine: N per-shard stores, one API.

The package's one sharding layer: instead of sharding a single filter, the
whole LSM engine is partitioned into N independent
:class:`~repro.lsm.db.LsmDB` instances — each with its own memtable, SSTable
set, per-run filter blocks (each built from its own run's keys), and
:class:`~repro.lsm.iostats.IOStats` — behind the batch API of the unsharded
store.  Batches are partitioned through the shared layer in
:mod:`repro.parallel`, each shard's slice runs in the caller's thread in
shard order, and the answers are scattered back into input order, so
callers cannot tell the difference (the exactness-ladder tests pin this
down).

Why shard the *engine* and not just the filter
----------------------------------------------
Partitioning the write stream means each shard flushes its own, smaller run
sequence: a store that would accumulate ``L`` overlapping L0 runs unsharded
accumulates ``~L/N`` runs *per shard*, and a point lookup consults only its
owning shard's runs — an ``N``-fold cut in filter probes and fence checks
per key.  This is the move RocksDB deployments make with
column-family/key-range sharding, and what the ROADMAP's Fig. 12.B
scale-out direction asks for.

Shards run inline, not on a thread pool: a shard's slice of a small
request is mostly Python bookkeeping around short NumPy calls that holds
the GIL, so worker threads add a handoff per shard and overlap little (a
server pinned to one CPU overlaps nothing).  Writes and maintenance calls
try every shard even when one raises, then re-raise the first error.

Exactness
---------
Every read path resolves exactly (filters only accelerate; the newest-wins
pass reconciles versions), and the partitioner routes each key to exactly one
shard — so ``get_many`` / ``scan_nonempty_many`` / ``scan`` answers are
bit-identical to an unsharded :class:`LsmDB` fed the same operations, and
:attr:`stats` (the word-level merge of the per-shard ``IOStats``) reports
the aggregate probe/block accounting of the shards exactly (``IOStats``
merging is a plain counter sum, so order never matters).  Filter-level
*maybe* answers (``may_contain_many`` / ``scan_may_contain``) stay sound —
no false negatives — but probe different run partitions than the unsharded
store, so their false-positive sets may differ.

Range queries follow the partition scheme: with ``"hash"`` dispatch the
keys of a range scatter over every shard, so all shards probe it and the
answers are OR-ed; with ``"range"`` dispatch a query is clipped to its
overlapping shards only, so narrow scans touch one shard.

Lifecycle: use as a context manager (or call :meth:`close`) to drain the
background compaction scheduler deterministically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import one_row
from repro.api import FilterSpec
from repro.lsm.compaction import (
    CompactionScheduler,
    coerce_compaction,
    compaction_to_dict,
)
from repro.lsm.db import LsmDB
from repro.lsm.filter_policy import SpecPolicy, coerce_policy
from repro.lsm.iostats import IOStats
from repro.parallel import (
    group_by_owner,
    make_partitioner,
    run_bounds_batch,
    run_point_batch,
)

__all__ = ["ShardedLsmDB"]


def _coerce_shard_policies(policy, num_shards: int) -> list:
    """Per-shard policy list from one policy/spec or a sequence of them.

    A single policy/spec/None is shared by every shard (the policies are
    stateless builders).  A sequence supplies one entry per shard —
    per-shard filter configuration (e.g. more bits/key on a hot shard),
    the ROADMAP's "per-shard config sizing" direction.
    """
    if isinstance(policy, (list, tuple)):
        if len(policy) != num_shards:
            raise ValueError(
                f"got {len(policy)} per-shard policies for {num_shards} shards"
            )
        return [coerce_policy(p) for p in policy]
    return [coerce_policy(policy)] * num_shards


def shard_scheduler(compaction, num_shards: int) -> CompactionScheduler | None:
    """The one background scheduler every shard of a store shares (None
    for a manual policy): per-shard merges run on its workers, while each
    shard's maintenance lock keeps its own run-set mutations serialized."""
    if compaction is None:
        return None
    return CompactionScheduler(max_workers=num_shards, name="lsm-compaction")


class ShardedLsmDB:
    """N per-shard :class:`LsmDB` engines behind the one-store batch API.

    ``policy`` accepts everything :class:`LsmDB` does — a policy object, a
    :class:`~repro.api.FilterSpec`, or None — plus a sequence of those
    (one per shard) for per-shard filter sizing.  :meth:`of` puts shards
    built elsewhere (the on-disk store's) behind the same API.
    """

    def __init__(
        self,
        policy: SpecPolicy | FilterSpec | Sequence | None = None,
        num_shards: int = 4,
        partition: str = "hash",
        memtable_capacity: int = 1 << 16,
        value_bytes: int = 512,
        block_bytes: int = 4096,
        store_values: bool = False,
        domain_bits: int = 64,
        compaction=None,
    ) -> None:
        compaction = coerce_compaction(compaction)
        scheduler = shard_scheduler(compaction, num_shards)
        # ``memtable_capacity`` is per shard: each shard flushes after its
        # own ``capacity`` writes, so a sharded store builds N interleaved
        # sequences of same-size runs (each run's filter is sized for the
        # keys it actually holds — per-shard sizing for free).  The policy
        # objects are stateless, so shards may share one.
        self._init(
            [
                LsmDB(
                    policy=shard_policy,
                    memtable_capacity=memtable_capacity,
                    value_bytes=value_bytes,
                    block_bytes=block_bytes,
                    store_values=store_values,
                    compaction=compaction,
                    compaction_scheduler=scheduler,
                )
                for shard_policy in _coerce_shard_policies(policy, num_shards)
            ],
            partition,
            domain_bits,
        )

    @classmethod
    def of(
        cls, shards: Sequence[LsmDB], partition: str = "hash", domain_bits: int = 64
    ) -> "ShardedLsmDB":
        """``shards`` behind the one-store API, routed by ``partition``.

        The shards must share one compaction policy and
        :func:`shard_scheduler`, which :meth:`close` then stops.
        """
        db = cls.__new__(cls)
        db._init(list(shards), partition, domain_bits)
        return db

    def _init(self, shards: list[LsmDB], partition: str, domain_bits: int) -> None:
        self._partitioner = make_partitioner(partition, len(shards), domain_bits)
        self.num_shards = len(shards)
        self.partition = partition
        self.shards = shards
        self.store_values = shards[0].store_values
        self.compaction = shards[0].compaction
        self._scheduler = shards[0]._scheduler

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every shard (an on-disk shard flushes and closes its
        log), then drain background compaction and stop its workers
        (idempotent)."""
        try:
            self._fan_out_all(lambda shard: shard.close())
        finally:
            if self._scheduler is not None:
                self._scheduler.close()

    def __enter__(self) -> "ShardedLsmDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def shard_of(self, key: int) -> int:
        return self._partitioner.owner_of(key)

    def shard_of_many(self, keys: np.ndarray) -> np.ndarray:
        """Owning shard index per key (vectorized dispatch function)."""
        return self._partitioner.owner_of_many(keys)

    def _run_per_shard(self, jobs: list[tuple[int, object]], fn) -> None:
        """Run ``fn(shard, payload)`` per job in the caller, in shard order.

        Every job runs even after one raises, and the first error is then
        re-raised: a failing shard never keeps the others from taking
        their part of a write or a maintenance call.
        """
        first: Exception | None = None
        for s, payload in jobs:
            try:
                fn(self.shards[s], payload)
            except Exception as exc:  # re-raised below, after every shard
                if first is None:
                    first = exc
        if first is not None:
            raise first

    def _fan_out_all(self, fn) -> None:
        """Run ``fn(shard)`` on every shard (see :meth:`_run_per_shard`)."""
        self._run_per_shard(
            [(s, None) for s in range(self.num_shards)],
            lambda shard, _: fn(shard),
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes = b"") -> None:
        """Insert or overwrite one key: a one-key :meth:`put_many`."""
        self.put_many(one_row(key), [value])

    def delete(self, key: int) -> None:
        """Tombstone one key: a one-key :meth:`delete_many`."""
        self.delete_many(one_row(key))

    def put_many(
        self, keys: np.ndarray, values: list[bytes] | None = None
    ) -> None:
        """Bulk ingest: partition the batch, one ``put_many`` per shard.

        Each shard absorbs its sub-batch through the chunked bulk write
        path (memtable fills + flushes with ``insert_many``-built filter
        blocks); later duplicates win exactly like sequential puts because
        partitioning is order-preserving within a shard.
        """
        keys = LsmDB._validated_keys(keys)
        if values is not None and len(values) != keys.size:
            raise ValueError("values must align with keys")
        if keys.size == 0:
            return
        owner = self.shard_of_many(keys)
        jobs = []
        for s, idx in group_by_owner(owner):
            shard_values = (
                [values[i] for i in idx.tolist()] if values is not None else None
            )
            jobs.append((s, (keys[idx], shard_values)))
        self._run_per_shard(
            jobs, lambda shard, job: shard.put_many(job[0], job[1])
        )

    def delete_many(self, keys: np.ndarray) -> None:
        """Bulk delete: partition the batch, one ``delete_many`` per shard."""
        keys = LsmDB._validated_keys(keys)
        if keys.size == 0:
            return
        owner = self.shard_of_many(keys)
        jobs = [(s, keys[idx]) for s, idx in group_by_owner(owner)]
        self._run_per_shard(jobs, lambda shard, chunk: shard.delete_many(chunk))

    def flush(self) -> None:
        """Flush every shard's memtable into a new per-shard L0 run."""
        self._fan_out_all(lambda shard: shard.flush())

    def sync(self) -> None:
        """Make every shard's flushed runs durable (no-op when in-memory)."""
        self._fan_out_all(lambda shard: shard.sync())

    def commit_barrier(self) -> None:
        """Wait for every shard's covering group commit (one fsync per
        shard WAL at most; no-op for in-memory shards)."""
        self._fan_out_all(lambda shard: shard.commit_barrier())

    def bulk_load(self, keys: np.ndarray, num_sstables: int) -> None:
        """Load an insertion-ordered stream into ``num_sstables`` runs *per
        shard*: the stream is partitioned first, then each shard chunks its
        share exactly like :meth:`LsmDB.bulk_load` (filters built through
        the bulk ``insert_many`` path)."""
        keys = np.asarray(keys, dtype=np.uint64)
        owner = self.shard_of_many(keys)
        jobs = [(s, keys[idx]) for s, idx in group_by_owner(owner)]
        self._run_per_shard(
            jobs, lambda shard, chunk: shard.bulk_load(chunk, num_sstables)
        )

    def compact(self) -> None:
        """Compact every shard (vectorized newest-wins merge per shard)."""
        self._fan_out_all(lambda shard: shard.compact())

    def drain_compaction(self) -> None:
        """Block until the shared background scheduler is quiescent."""
        if self._scheduler is not None:
            self._scheduler.drain()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> bool:
        """Is a live version of ``key`` present? A one-row :meth:`get_many`
        (owning shard only; no value is read)."""
        return bool(self.get_many(one_row(key))[0])

    def get_value(self, key: int) -> bytes | None:
        """Newest live value of ``key``, or None (absent or deleted)."""
        key = int(one_row(key)[0])
        return self.shards[self.shard_of(key)].get_value(key)

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched :meth:`get`: each key probes exactly its owning shard.

        Bit-identical to the unsharded :meth:`LsmDB.get_many` over the same
        operation stream (asserted by the exactness-ladder tests); each
        shard walks only its own — ``~N``-fold shorter — run list.
        """
        keys = LsmDB._validated_keys(keys)
        result = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return result
        return run_point_batch(
            self.shards, self._partitioner, keys,
            LsmDB.get_many, result,
        )

    def may_contain_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched filter-level membership probe (pure filter CPU).

        Sound — a present key always answers True — but the false-positive
        set may differ from the unsharded store's: each key consults its
        shard's filter blocks, which index a different run partitioning.
        """
        keys = LsmDB._validated_keys(keys)
        result = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return result
        return run_point_batch(
            self.shards, self._partitioner, keys,
            LsmDB.may_contain_many, result,
        )

    def scan_nonempty(self, l_key: int, r_key: int) -> bool:
        """Does ``[l_key, r_key]`` hold any live key? (exact answer)."""
        return bool(self.scan_nonempty_many(one_row(l_key, r_key))[0])

    def scan_nonempty_many(self, bounds: np.ndarray) -> np.ndarray:
        """Batched range-emptiness: per-shard probes OR-ed per query.

        See :func:`repro.parallel.run_bounds_batch`: the full batch on
        every shard for hash dispatch, clipped overlap-only queries for
        range dispatch.  Each shard answers exactly for its partition, so
        the OR equals the unsharded answer bit for bit.
        """
        bounds = LsmDB._validated_bounds(bounds)
        n = bounds.shape[0]
        result = np.zeros(n, dtype=bool)
        if n == 0:
            return result
        return run_bounds_batch(
            self.shards, self._partitioner, bounds,
            LsmDB.scan_nonempty_many, result,
        )

    def scan_may_contain(self, bounds: np.ndarray) -> np.ndarray:
        """Batched filter-level emptiness probe (sound *maybe* answers)."""
        bounds = LsmDB._validated_bounds(bounds)
        n = bounds.shape[0]
        result = np.zeros(n, dtype=bool)
        if n == 0:
            return result
        return run_bounds_batch(
            self.shards, self._partitioner, bounds,
            LsmDB.scan_may_contain, result,
        )

    def scan(self, l_key: int, r_key: int, limit: int | None = None):
        """Merged live entries in range, newest version wins, sorted by key.

        Each key lives in exactly one shard, so there are no cross-shard
        version conflicts: the shards' reconciled live keys merge into one
        key-sorted result (identical to the unsharded scan's), and values
        are read only for the ``limit`` entries returned.  ``limit`` is
        validated once, before any shard runs.
        """
        limit = LsmDB._validated_limit(limit)
        bounds = LsmDB._validated_bounds(one_row(l_key, r_key))
        parts = [
            self.shards[s]._scan_keys(int(clipped[0, 0]), int(clipped[0, 1]), limit)
            for s, _, clipped in self._partitioner.split_bounds(bounds)
        ]
        keys = np.concatenate([part[0] for part in parts])
        at = np.concatenate([part[1] for part in parts])
        owner = np.repeat(np.arange(len(parts)), [part[0].size for part in parts])
        order = np.argsort(keys, kind="stable")[:limit]
        return [
            (key, parts[o][2](i))
            for key, o, i in zip(
                keys[order].tolist(),
                owner[order].tolist(),
                at[order].tolist(),
                strict=True,
            )
        ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IOStats:
        """Merged per-shard stats: aggregate accounting of the whole store."""
        return IOStats.merged([shard.stats for shard in self.shards])

    def reset_stats(self) -> IOStats:
        """Reset every shard's stats; returns the merged old aggregate."""
        return IOStats.merged([shard.reset_stats() for shard in self.shards])

    @property
    def num_keys(self) -> int:
        return sum(shard.num_keys for shard in self.shards)

    @property
    def num_sstables(self) -> int:
        """Total runs across all shards (per-shard lists stay separate)."""
        return sum(len(shard.sstables) for shard in self.shards)

    @property
    def filter_bits(self) -> int:
        return sum(shard.filter_bits for shard in self.shards)

    def filter_bits_per_key(self) -> float:
        stored = sum(
            sst.num_keys for shard in self.shards for sst in shard.sstables
        )
        return self.filter_bits / stored if stored else 0.0

    def construction_times(self) -> tuple[float, float]:
        """(total filter build seconds, total serialization seconds)."""
        totals = [shard.construction_times() for shard in self.shards]
        return (
            sum(t[0] for t in totals),
            sum(t[1] for t in totals),
        )

    def wal_info(self) -> dict:
        """The shards' write-ahead-log state, counts summed (CLI, STATS);
        empty for in-memory shards, which keep no log."""
        infos = [shard.wal_info() for shard in self.shards]
        if not infos[0]:
            return {}
        merged = {
            "sync": infos[0]["sync"],
            "group_commit": infos[0]["group_commit"],
            "epoch": max(info["epoch"] for info in infos),
            "recovered_torn_tail": any(
                info["recovered_torn_tail"] for info in infos
            ),
        }
        for field in (
            "records",
            "bytes",
            "fsyncs",
            "pending_ops",
            "replayed_records",
            "replayed_ops",
            "discarded_stale_records",
        ):
            merged[field] = sum(info[field] for info in infos)
        return merged

    def compaction_info(self) -> dict:
        """Aggregated per-shard compaction state: summed per-level run
        counts, the shared policy, and the shared scheduler's counters."""
        infos = [shard.compaction_info() for shard in self.shards]
        levels: dict[int, dict] = {}
        for info in infos:
            for entry in info["levels"]:
                bucket = levels.setdefault(
                    entry["level"],
                    {"level": entry["level"], "runs": 0, "keys": 0},
                )
                bucket["runs"] += entry["runs"]
                bucket["keys"] += entry["keys"]
        return {
            "policy": compaction_to_dict(self.compaction),
            "levels": [levels[level] for level in sorted(levels)],
            "pending": any(info["pending"] for info in infos),
            "scheduler": (
                self._scheduler.info() if self._scheduler is not None else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedLsmDB(shards={self.num_shards}, "
            f"partition={self.partition!r}, keys={self.num_keys}, "
            f"sstables={self.num_sstables})"
        )
