"""ShardedLsmDB runs each shard's slice in the caller's thread.

No foreground call — read, write or maintenance — starts a thread, in
memory or on disk, under either partition scheme; and a write or
maintenance call still tries every shard when one raises, then raises
the first error.
"""

import threading

import numpy as np
import pytest

from repro import FilterSpec, open_store

U64 = (1 << 64) - 1
SPEC = FilterSpec("bloomrf", {"bits_per_key": 12, "max_range": 1 << 16})


def _calls(db):
    """Every foreground call of the store API, in a run that exercises
    flushes (the memtable holds 64 entries per shard)."""
    keys = np.arange(1, 1_000, dtype=np.uint64) * np.uint64(18_000_000_000_000_001)
    bounds = np.stack([keys[::7], keys[::7] + np.uint64(1 << 40)], axis=1)
    return [
        ("put", lambda: db.put(5, b"five")),
        ("put_many", lambda: db.put_many(keys, [b"v"] * keys.size)),
        ("delete", lambda: db.delete(int(keys[3]))),
        ("delete_many", lambda: db.delete_many(keys[::5])),
        ("get", lambda: db.get(5)),
        ("get_value", lambda: db.get_value(int(keys[1]))),
        ("get_many", lambda: db.get_many(keys)),
        ("may_contain_many", lambda: db.may_contain_many(keys)),
        ("scan_nonempty", lambda: db.scan_nonempty(0, U64)),
        ("scan_nonempty_many", lambda: db.scan_nonempty_many(bounds)),
        ("scan_may_contain", lambda: db.scan_may_contain(bounds)),
        ("scan", lambda: db.scan(0, U64, 32)),
        ("commit_barrier", db.commit_barrier),
        ("flush", db.flush),
        ("sync", db.sync),
        ("compact", db.compact),
    ]


@pytest.mark.parametrize("partition", ["hash", "range"])
@pytest.mark.parametrize("persistent", [False, True], ids=["memory", "path"])
def test_no_foreground_call_starts_a_thread(persistent, partition, tmp_path, monkeypatch):
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    path = str(tmp_path / "db") if persistent else None
    with open_store(
        path=path, filter=SPEC, shards=2, partition=partition,
        memtable_capacity=64, store_values=True,
    ) as db:
        for name, call in _calls(db):
            call()
            assert started == [], name  # no thread at all, "lsm-shard-*" included
        assert all(len(shard.sstables) for shard in db.shards)


@pytest.mark.parametrize("method", ["flush", "commit_barrier", "sync", "compact"])
def test_maintenance_tries_every_shard_and_raises_the_first_error(method, monkeypatch):
    with open_store(filter=SPEC, shards=3, memtable_capacity=64) as db:
        tried = []

        def failing(index, fails):
            def call():
                tried.append(index)
                if fails:
                    raise RuntimeError(f"shard {index}")

            return call

        for index, shard in enumerate(db.shards):
            monkeypatch.setattr(shard, method, failing(index, index != 1))
        with pytest.raises(RuntimeError, match="shard 0"):
            getattr(db, method)()
        assert tried == [0, 1, 2]


@pytest.mark.parametrize("method", ["put_many", "delete_many"])
def test_writes_reach_every_shard_when_one_raises(method, monkeypatch):
    keys = np.array([1, (1 << 63) + 1], dtype=np.uint64)  # one per shard
    with open_store(filter=SPEC, shards=2, partition="range", memtable_capacity=64) as db:
        if method == "delete_many":
            db.put_many(keys)
        real = getattr(db.shards[0], method)

        def failing(*args):
            real(*args)
            raise OSError("shard 0 log")

        monkeypatch.setattr(db.shards[0], method, failing)
        with pytest.raises(OSError, match="shard 0 log"):
            getattr(db, method)(keys)
        assert db.shards[1].get(int(keys[1])) == (method == "put_many")
