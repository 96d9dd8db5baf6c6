"""Partition/dispatch layer for sharded execution.

The package's one sharding layer, :class:`repro.lsm.sharded.ShardedLsmDB`
(N per-shard LSM engines, each with its own runs and per-run filters),
does three things with every batch: decide which shard owns each key,
run each shard's sub-batch, and scatter the per-shard answers back into
input order.  This module holds that machinery (Bloofi makes the same
move: many filters behind one dispatch layer).

Partitioners
------------
* :class:`HashPartitioner` — a key's shard is ``splitmix64(key) mod N``;
  point batches touch exactly one shard per key, range queries scatter over
  the whole keyspace so every shard must be consulted.
* :class:`RangePartitioner` — the domain splits into N equal contiguous
  sub-ranges; point batches touch one shard per key and a range query is
  clipped to its overlapping shards only.

Both expose the same vectorized interface (``owner_of_many`` /
``owner_of`` / ``split_bounds``), so callers never branch on the scheme.

Executor
--------
Foreground requests run every shard's sub-batch inline, in the caller's
thread and in shard order (:func:`run_point_batch`,
:func:`run_bounds_batch`): a small request's per-shard work is mostly
Python bookkeeping that holds the GIL, so a thread handoff per shard
costs more than it could overlap.  :class:`ShardPool` is the background
executor: a lazily created ``ThreadPoolExecutor`` behind an explicit
lifecycle (a context manager with an idempotent
:meth:`~ShardPool.close`), which the compaction scheduler submits its
merges to.

Worker-path contract (machine-checked by ``repro lint``): pool workers
must never swallow exceptions silently — failures are recorded or
re-raised so callers see them (``exception-discipline``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.hashing import splitmix64_array

__all__ = [
    "HashPartitioner",
    "RangePartitioner",
    "ShardPool",
    "make_partitioner",
    "group_by_owner",
    "run_point_batch",
    "run_bounds_batch",
    "PARTITION_SCHEMES",
]

PARTITION_SCHEMES = ("hash", "range")

# Seed for the hash-partition dispatch; independent of any filter seed so
# shard routing never correlates with in-shard probe positions.
_DISPATCH_SEED = 0x5AAD


class HashPartitioner:
    """Uniform hash dispatch: shard of ``key`` is ``splitmix64(key) mod N``."""

    scheme = "hash"

    def __init__(self, num_partitions: int, domain_bits: int = 64) -> None:
        _check_partition_count(num_partitions, domain_bits)
        self.num_partitions = num_partitions
        self.domain_bits = domain_bits

    def owner_of_many(self, keys: np.ndarray) -> np.ndarray:
        """Owning shard index per key (vectorized dispatch function)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if self.num_partitions == 1:
            return np.zeros(keys.size, dtype=np.int64)
        return (
            splitmix64_array(keys, seed=_DISPATCH_SEED)
            % np.uint64(self.num_partitions)
        ).astype(np.int64)

    def owner_of(self, key: int) -> int:
        return int(self.owner_of_many(np.array([key], dtype=np.uint64))[0])

    def split_bounds(
        self, bounds: np.ndarray
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Per-shard ``(shard, query_indices, clipped_bounds)`` jobs.

        Hashed keys of any range scatter over every shard, so each shard
        must probe the full batch with the original bounds.
        """
        idx = np.arange(bounds.shape[0])
        return [(s, idx, bounds) for s in range(self.num_partitions)]


class RangePartitioner:
    """Contiguous-domain dispatch: N equal sub-ranges of ``[0, 2**d)``."""

    scheme = "range"

    def __init__(self, num_partitions: int, domain_bits: int = 64) -> None:
        _check_partition_count(num_partitions, domain_bits)
        self.num_partitions = num_partitions
        self.domain_bits = domain_bits
        domain = 1 << domain_bits
        # boundaries[s] is shard s's first key; equal-width contiguous
        # sub-domains (the last shard absorbs the rounding remainder).
        self.boundaries = np.array(
            [(s * domain) // num_partitions for s in range(num_partitions)],
            dtype=np.uint64,
        )
        self._domain_max = np.uint64(((1 << domain_bits) - 1) & ((1 << 64) - 1))

    def owner_of_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if self.num_partitions == 1:
            return np.zeros(keys.size, dtype=np.int64)
        side = np.searchsorted(self.boundaries, keys, side="right") - 1
        return side.astype(np.int64)

    def owner_of(self, key: int) -> int:
        return int(self.owner_of_many(np.array([key], dtype=np.uint64))[0])

    def partition_range(self, shard: int) -> tuple[int, int]:
        """Inclusive ``[lo, hi]`` key range owned by ``shard``."""
        lo = int(self.boundaries[shard])
        hi = (
            int(self.boundaries[shard + 1]) - 1
            if shard + 1 < self.num_partitions
            else int(self._domain_max)
        )
        return lo, hi

    def split_bounds(
        self, bounds: np.ndarray
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Per-shard ``(shard, query_indices, clipped_bounds)`` jobs.

        Each query is clipped to the shards its ``[lo, hi]`` overlaps, so
        narrow queries touch one shard and only domain-wide scans fan out.
        """
        lo_shard = self.owner_of_many(bounds[:, 0])
        hi_shard = self.owner_of_many(bounds[:, 1])
        jobs: list[tuple[int, np.ndarray, np.ndarray]] = []
        for s in range(self.num_partitions):
            overlap = np.nonzero((lo_shard <= s) & (hi_shard >= s))[0]
            if overlap.size == 0:
                continue
            shard_lo, shard_hi = self.partition_range(s)
            clipped = np.stack(
                [
                    np.maximum(bounds[overlap, 0], np.uint64(shard_lo)),
                    np.minimum(bounds[overlap, 1], np.uint64(shard_hi)),
                ],
                axis=1,
            )
            jobs.append((s, overlap, clipped))
        return jobs


Partitioner = HashPartitioner | RangePartitioner


def make_partitioner(
    scheme: str, num_partitions: int, domain_bits: int = 64
) -> Partitioner:
    """Factory keyed by scheme name (``"hash"`` or ``"range"``)."""
    if scheme == "hash":
        return HashPartitioner(num_partitions, domain_bits)
    if scheme == "range":
        return RangePartitioner(num_partitions, domain_bits)
    raise ValueError(
        f"partition must be one of {PARTITION_SCHEMES}, got {scheme!r}"
    )


def _check_partition_count(num_partitions: int, domain_bits: int) -> None:
    if num_partitions <= 0:
        raise ValueError(f"num_shards must be positive, got {num_partitions}")
    if num_partitions > (1 << domain_bits):
        # More shards than keys in the domain would leave some shards with
        # an empty (inverted) sub-range.
        raise ValueError(
            f"num_shards {num_partitions} exceeds the "
            f"{domain_bits}-bit domain size"
        )


def group_by_owner(
    owner: np.ndarray,
) -> list[tuple[int, np.ndarray]]:
    """``(shard, positions)`` for every shard present in ``owner``.

    ``positions`` are the batch indices routed to that shard, in input
    order — the caller slices its batch with them and scatters the
    per-shard answers back through the same index arrays.  One stable
    ``argsort`` groups the batch by shard (keeping input order inside a
    group) and a ``bincount`` gives the group sizes.
    """
    order = owner.argsort(kind="stable")
    groups = []
    start = 0
    for s, count in enumerate(np.bincount(owner).tolist()):
        if count:
            groups.append((s, order[start : start + count]))
            start += count
    return groups


def run_point_batch(
    shards: Sequence,
    partitioner: Partitioner,
    keys: np.ndarray,
    method: Callable[[object, np.ndarray], np.ndarray],
    out: np.ndarray,
) -> np.ndarray:
    """The shared point-batch scatter/gather: route, run, write back.

    Each key's sub-batch goes to its owning shard via ``method(shard,
    keys_of_shard)``, in shard order, and the per-shard answers land at
    their original batch positions in ``out``.  The sharded store's point
    paths (``get_many``, ``may_contain_many``) are this one loop.
    """
    for s, idx in group_by_owner(partitioner.owner_of_many(keys)):
        out[idx] = method(shards[s], keys[idx])
    return out


def run_bounds_batch(
    shards: Sequence,
    partitioner: Partitioner,
    bounds: np.ndarray,
    method: Callable[[object, np.ndarray], np.ndarray],
    out: np.ndarray,
) -> np.ndarray:
    """The shared range-batch scatter/gather: split, run, OR back.

    The partitioner emits per-shard ``(query indices, clipped bounds)``
    jobs — the full batch on every shard for hash dispatch, overlap-only
    clipped queries for range dispatch — and per-query answers are the OR
    over the shards that probed them.  The OR preserves
    no-false-negatives: the key witnessing a hit lives in exactly one
    shard, and that shard cannot miss it.
    """
    for s, idx, clipped in partitioner.split_bounds(bounds):
        out[idx] |= method(shards[s], clipped)
    return out


class ShardPool:
    """Explicitly managed worker pool for background jobs.

    The executor is created lazily on first use and torn down by
    :meth:`close` (idempotent; using the pool after close lazily recreates
    it).  Use as a context manager so loops that build many stores never
    leak worker threads.
    """

    def __init__(self, max_workers: int, name: str = "shard") -> None:
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._name = name
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix=self._name,
            )
        return self._executor

    @property
    def is_open(self) -> bool:
        return self._executor is not None

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[tuple[int, object]],
        fn: Callable[[int, object], object],
    ) -> list:
        """Execute ``fn(shard_index, payload)`` for each job; results in order.

        A single job runs inline (no pool round-trip for the common
        narrow-query case); otherwise one task per job is submitted and the
        results are collected in job order.
        """
        if len(jobs) == 1:
            s, payload = jobs[0]
            return [fn(s, payload)]
        pool = self._pool()
        futures = [pool.submit(fn, s, payload) for s, payload in jobs]
        return [f.result() for f in futures]

    def submit(self, fn: Callable, *args):
        """Submit one asynchronous task; returns its ``Future``.

        The background-work entry point (the compaction scheduler runs
        its per-engine drain loops through this): unlike :meth:`run` it
        never executes inline — callers rely on getting control back
        immediately.
        """
        return self._pool().submit(fn, *args)
