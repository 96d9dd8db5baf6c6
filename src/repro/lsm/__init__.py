"""LSM-tree substrate — the RocksDB stand-in for the system experiments.

Memtable + L0 SSTables with per-SST full filter blocks (through
:mod:`repro.lsm.filter_policy`), fence pointers, a fixed simulated latency
per block read that surfaces in :class:`repro.lsm.iostats.IOStats`, and
pluggable background compaction (:mod:`repro.lsm.compaction`: size-tiered
and leveled policies behind a worker-thread scheduler, manual by default).
"""

from repro.lsm.compaction import (
    COMPACTION_POLICIES,
    CompactionScheduler,
    LeveledPolicy,
    SizeTieredPolicy,
    coerce_compaction,
)
from repro.lsm.db import LsmDB
from repro.lsm.filter_policy import SpecPolicy, policy_by_name
from repro.lsm.iostats import IOStats
from repro.lsm.memtable import MemTable
from repro.lsm.sharded import ShardedLsmDB
from repro.lsm.sstable import SSTable
from repro.lsm.store import PersistentLsmDB
from repro.lsm.wal import WriteAheadLog

__all__ = [
    "LsmDB",
    "ShardedLsmDB",
    "PersistentLsmDB",
    "WriteAheadLog",
    "MemTable",
    "SSTable",
    "IOStats",
    "SpecPolicy",
    "policy_by_name",
    "SizeTieredPolicy",
    "LeveledPolicy",
    "CompactionScheduler",
    "COMPACTION_POLICIES",
    "coerce_compaction",
]
