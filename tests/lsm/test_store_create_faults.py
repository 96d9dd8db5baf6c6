"""Crash-point fault injection for store creation and shard commits.

One manifest describes every shard of a store, so creating one must
never leave a directory that can neither be reopened nor initialized
again: :class:`repro.testing.FaultInjector` crashes ``open_store`` at
each syscall of creating a 1- and a 2-shard store, and ``open_store``
with the same arguments must then succeed every time — with a fresh
store, or with the empty one the crashed call had finished writing.

A shard's commit rewrites that one manifest: it must carry every other
shard's last *committed* entry, never a run another shard holds in
memory but has not written.
"""

import random

import numpy as np
import pytest

from repro.api import FilterSpec, open_store
from repro.lsm.db import LsmDB
from repro.lsm.store import read_store_manifest
from repro.testing import FaultInjector, InjectedCrash

SPEC = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})


def _create(root, shards):
    return open_store(path=root, filter=SPEC, shards=shards, memtable_capacity=32)


@pytest.mark.parametrize("shards", [1, 2])
def test_crash_during_creation_never_bricks_the_path(tmp_path, shards):
    with FaultInjector(tmp_path / "dry") as counter:
        db = _create(tmp_path / "dry", shards)
    db.close()
    syscalls = counter.count
    assert syscalls >= 3 * (shards + 1), f"creation made {syscalls} syscalls"

    rng = random.Random(shards)
    keys = np.arange(0, 640, 5, dtype=np.uint64)
    for crash_at in range(1, syscalls + 1):
        root = tmp_path / f"crash-{crash_at}"
        with pytest.raises(InjectedCrash):
            with FaultInjector(root, crash_at=crash_at, rng=rng):
                _create(root, shards)
        with _create(root, shards) as db:
            assert db.num_keys == 0 and db.num_sstables == 0, crash_at
            db.put_many(keys)
        with open_store(path=root) as db:
            assert getattr(db, "num_shards", 1) == shards
            assert db.get_many(keys).all(), crash_at
            assert db.num_keys == keys.size


@pytest.mark.parametrize("crash_at", [10, 12])
def test_recreation_removes_the_logs_of_a_crashed_creation(tmp_path, crash_at):
    """A crashed 3-shard creation leaves a third log behind (a temporary
    at the 10th syscall, a whole ``WAL-0002.brf`` at the 12th); no
    manifest names it, so re-creating the path with 2 shards removes it."""
    root = tmp_path / "db"
    with pytest.raises(InjectedCrash):
        with FaultInjector(root, crash_at=crash_at):
            _create(root, 3)
    assert any(p.name.startswith("WAL-0002") for p in root.iterdir())
    _create(root, 2).close()
    assert sorted(p.name for p in root.iterdir()) == [
        "STORE.brf",
        "WAL-0000.brf",
        "WAL-0001.brf",
    ]


def test_a_commit_writes_only_the_committed_entries_of_other_shards(tmp_path):
    root = tmp_path / "db"
    keys = np.arange(200, dtype=np.uint64)
    db = open_store(path=root, filter=SPEC, shards=2, memtable_capacity=1024)
    db.put_many(keys)
    other = db.shards[1]
    before = read_store_manifest(root)["shards"][1]
    files = sorted(p.name for p in root.glob("sst-*"))
    # Shard 1 drains its memtable into a run that exists in memory only...
    LsmDB.flush(other)
    assert len(other.sstables) == 1
    # ...while shard 0 commits a run of its own.
    db.shards[0].flush()
    manifest = read_store_manifest(root)["shards"]
    assert manifest[1] == before
    assert len(manifest[0]["runs"]) == 1
    written = sorted(p.name for p in root.glob("sst-*"))
    assert written == sorted(files + [manifest[0]["runs"][0]["file"] + ".sst"])
    # Dropped without a commit, shard 1's writes come back from its log.
    del db, other
    with open_store(path=root) as back:
        assert back.get_many(keys).all()
        assert back.wal_info()["replayed_ops"] == keys.size - len(
            back.shards[0].sstables[0].keys
        )
