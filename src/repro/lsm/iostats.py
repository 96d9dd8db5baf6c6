"""Execution statistics for the LSM substrate (drives Figs. 9, 10, 12.C, 12.G).

The paper's system experiments report an execution-time breakdown per probe
workload: *filter probe* CPU, *residual* CPU, filter *deserialization*, and
*I/O wait* (Fig. 12.G).  Our substrate measures real CPU time for the filter
and bookkeeping paths and charges a fixed simulated latency per block read —
the substitution documented in DESIGN.md: what matters for the paper's
claims is how filter FPR converts block reads into I/O wait, which this
accounting preserves exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = ["BLOCK_READ_LATENCY_S", "IOStats"]

#: Simulated latency charged to ``io_wait_s`` per block read.
BLOCK_READ_LATENCY_S = 100e-6


@dataclass
class IOStats:
    """Counters + time buckets accumulated by a DB instance."""

    # Filter-level outcomes (per filter probe, ground truth known):
    filter_probes: int = 0
    filter_positives: int = 0
    filter_true_positives: int = 0
    filter_false_positives: int = 0
    filter_true_negatives: int = 0
    # I/O:
    blocks_read: int = 0
    # Decompressed-block cache (compressed stores only; an in-memory or
    # uncompressed store leaves both at zero).  Deliberately *not* part of
    # counters(): hit/miss splits depend on cache budget and access order,
    # while counters() is the bit-for-bit exactness comparison set.
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    # Time buckets (seconds):
    filter_cpu_s: float = 0.0
    residual_cpu_s: float = 0.0
    deserialization_s: float = 0.0
    io_wait_s: float = 0.0

    def __post_init__(self) -> None:
        # Deliberately NOT a dataclass field: ``reset()`` zeros fields in
        # place and ``replace(self)`` snapshots them, and the lock must
        # survive both untouched.
        self._hot_lock = threading.Lock()

    def bump(self, **deltas: int) -> None:
        """Atomically add ``deltas`` to the named counter fields.

        The hot-path form of ``stats.field += n`` for counters that can be
        bumped from concurrent reader threads (the decompressed-block
        cache hooks live inside mmap'd SST frames shared by every
        reader): a bare ``+=`` is a read-modify-write that loses updates
        under contention.  One uncontended lock acquisition is ~100ns, so
        the single-threaded path cost is unmeasurable next to a block
        decompression.
        """
        with self._hot_lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def add_cache_hit(self, n: int = 1) -> None:
        """Atomic ``block_cache_hits += n`` (see :meth:`bump`)."""
        with self._hot_lock:
            self.block_cache_hits += n

    def add_cache_miss(self, n: int = 1) -> None:
        """Atomic ``block_cache_misses += n`` (see :meth:`bump`)."""
        with self._hot_lock:
            self.block_cache_misses += n

    def record_probes(self, positives, truths) -> int:
        """Classify filter probes against ground truth (parallel boolean
        arrays: the filter's answers, and whether the key or range is
        really present).

        Returns the number of false negatives (a truly present key the
        filter rejected): every filter in this package guarantees none,
        and the per-run walk of :class:`~repro.lsm.sstable.SSTable`
        asserts it.  The store's filter-first reads never search a
        negative cell, so they pass only searched truths and see none.
        """
        positives = np.asarray(positives, dtype=bool)
        truths = np.asarray(truths, dtype=bool)
        n_pos = int(np.count_nonzero(positives))
        n_tp = int(np.count_nonzero(positives & truths))
        missed = int(np.count_nonzero(truths)) - n_tp
        self.filter_probes += positives.size
        self.filter_positives += n_pos
        self.filter_true_positives += n_tp
        self.filter_false_positives += n_pos - n_tp
        self.filter_true_negatives += positives.size - n_pos - missed
        return missed

    def record_counts(
        self, probes: int, true_positives: int, false_positives: int
    ) -> None:
        """Classify ``probes`` filter probes whose positives are already
        told apart; every other probe was a true negative."""
        self.filter_probes += probes
        self.filter_positives += true_positives + false_positives
        self.filter_true_positives += true_positives
        self.filter_false_positives += false_positives
        self.filter_true_negatives += probes - true_positives - false_positives

    @property
    def fpr(self) -> float:
        """Observed filter FPR: FP / (FP + TN) over empty probes."""
        denominator = self.filter_false_positives + self.filter_true_negatives
        if denominator == 0:
            return 0.0
        return self.filter_false_positives / denominator

    @property
    def total_time_s(self) -> float:
        return (
            self.filter_cpu_s
            + self.residual_cpu_s
            + self.deserialization_s
            + self.io_wait_s
        )

    def reset(self) -> "IOStats":
        """Zero every field in place; returns a snapshot of the old values.

        In place, not by swapping in a fresh object: long-lived readers
        (the decompressed-block cache hooks inside mmap'd SST frames)
        capture a reference to their DB's stats at open time and must keep
        recording into the live object across resets.
        """
        with self._hot_lock:
            snapshot = replace(self)
            for field in fields(self):
                setattr(self, field.name, field.default)
        return snapshot

    def merge(self, other: "IOStats") -> None:
        """Accumulate another stats object into this one.

        Counters and time buckets are plain sums, so merging the per-shard
        stats of a sharded run yields the same aggregate accounting as one
        unsharded run over the same probes (order never matters).
        """
        with self._hot_lock:
            self._merge_locked(other)

    def _merge_locked(self, other: "IOStats") -> None:
        for name in (
            "filter_probes",
            "filter_positives",
            "filter_true_positives",
            "filter_false_positives",
            "filter_true_negatives",
            "blocks_read",
            "block_cache_hits",
            "block_cache_misses",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in (
            "filter_cpu_s",
            "residual_cpu_s",
            "deserialization_s",
            "io_wait_s",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __iadd__(self, other: "IOStats") -> "IOStats":
        """``stats += other`` — operator form of :meth:`merge`."""
        self.merge(other)
        return self

    @classmethod
    def merged(cls, parts: "list[IOStats] | tuple[IOStats, ...]") -> "IOStats":
        """Fresh stats equal to the sum of ``parts`` (inputs untouched)."""
        total = cls()
        for part in parts:
            total += part
        return total

    def counters(self) -> dict[str, int]:
        """Probe/IO counters as a dict (exactness tests compare these)."""
        return {
            "filter_probes": self.filter_probes,
            "filter_positives": self.filter_positives,
            "filter_true_positives": self.filter_true_positives,
            "filter_false_positives": self.filter_false_positives,
            "filter_true_negatives": self.filter_true_negatives,
            "blocks_read": self.blocks_read,
        }

    def breakdown(self) -> dict[str, float]:
        """Fig. 12.G-style buckets (seconds)."""
        return {
            "filter_probe_s": self.filter_cpu_s,
            "residual_cpu_s": self.residual_cpu_s,
            "deserialization_s": self.deserialization_s,
            "io_wait_s": self.io_wait_s,
        }
