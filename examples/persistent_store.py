#!/usr/bin/env python3
"""Persistent on-disk store walkthrough: create, ingest, crash, reopen.

``open_store(path=...)`` backs the LSM engines with one directory of
versioned ``repro.serial`` frames: one store manifest for every shard,
one write-ahead log per shard, plus one SST file per run holding its
data and filter block.
Closing and reopening the store changes no answer — filter blocks are
deserialized, never rebuilt — and every *acknowledged* write survives a
crash: it reaches the log before the memtable, so reopening after a
``kill -9`` replays it.

This store is opened with ``compaction="size-tiered"``: background
workers merge similar-sized runs whenever a flush trips the policy, so
the run count stays bounded under a sustained write burst without any
foreground ``compact()`` call — and without changing a single answer.

The last section opens a second store on the compressed read tier:
``compression="zlib"`` writes every run as independently CRC'd
compressed blocks (the codec rides in the manifest), reopen keeps the
value blocks mapped and decodes them on demand, and hot value reads come
out of the shared decompressed-block cache.

Run: ``python examples/persistent_store.py``
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import FilterSpec, open_store


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="bloomrf-store-"))
    path = root / "db"
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(0, 1 << 64, 50_000, dtype=np.uint64))
    spec = FilterSpec("bloomrf", {"bits_per_key": 16, "max_range": 1 << 20})

    # ------------------------------------------------------------------
    # 1. Create: a fresh directory becomes a store; the manifest is
    #    written immediately, runs appear as the memtable flushes.
    # ------------------------------------------------------------------
    with open_store(
        path=path, filter=spec, shards=4, partition="hash",
        memtable_capacity=1 << 11, store_values=True,
        compaction="size-tiered",   # persisted with the store
    ) as db:
        values = [b"payload-%d" % i for i in range(keys.size)]
        db.put_many(keys, values)
        db.delete_many(keys[:500])          # tombstones persist too
        live_before = db.get_many(keys[:2_000])
        print(f"ingested {keys.size} keys into {db.num_shards} shards "
              f"({db.num_sstables} runs)")
    # Leaving the context manager flushed the memtable and synced every
    # run file + manifest — the store is durable now.

    on_disk = sorted(p.relative_to(root) for p in root.rglob("*.brf"))
    print("manifest/log frames on disk:", ", ".join(str(p) for p in on_disk))

    # ------------------------------------------------------------------
    # 2. Reopen: the persisted spec/shards/geometry win; filter blocks
    #    are deserialized (the Fig. 12.G "deserialization" bucket), so
    #    answers and probe accounting match the never-closed store.
    # ------------------------------------------------------------------
    with open_store(path=path) as db:
        assert [shard.spec for shard in db.shards] == [spec] * 4
        assert np.array_equal(db.get_many(keys[:2_000]), live_before)
        assert not db.get(int(keys[0]))     # the delete survived
        assert db.get_value(int(keys[1_000])) == b"payload-1000"
        print(f"reopened: {db.num_keys} entries, filter deserialization "
              f"took {db.stats.deserialization_s * 1e3:.1f} ms")

        # Reads are exact; the filters only decide which runs get probed.
        lo = int(keys[5_000])
        print(f"scan_nonempty([{lo}, {lo}]) = "
              f"{bool(db.scan_nonempty(lo, lo))}")

        # 3. Write burst: every flush notifies the background scheduler,
        #    which merges similar-sized runs underneath the foreground
        #    writes.  The run count stays bounded instead of growing by
        #    one per flush; replaced files are pruned at each commit.
        for _ in range(8):
            db.put_many(rng.integers(0, 1 << 64, 5_000, dtype=np.uint64))
        db.drain_compaction()        # settle before reading the counters
        info = db.compaction_info()
        sched = info["scheduler"]
        print(f"after the burst: {db.num_sstables} runs, "
              f"{sched['merges']} background merges "
              f"(policy {info['policy']['policy']})")
        for level in info["levels"]:
            print(f"  level {level['level']}: {level['runs']} runs, "
                  f"{level['keys']} keys")

    # A second reopen sees the compacted state (the policy is in the
    # manifest, so background compaction resumes automatically).
    with open_store(path=path) as db:
        print(f"final reopen: {db.num_keys} entries across "
              f"{db.num_sstables} runs")

    # ------------------------------------------------------------------
    # 4. Crash durability: drop the store WITHOUT close() or flush().
    #    The writes below live only in the write-ahead log — reopening
    #    replays them, so nothing acknowledged is lost.  (`wal_sync`
    #    picks the fsync policy: "always" per call, "batch" group
    #    commit — the default — or "off".)
    # ------------------------------------------------------------------
    db = open_store(path=path)
    db.put(123_456_789, b"logged-before-the-memtable")
    db.delete(int(keys[2_000]))
    del db                                  # simulated kill -9

    with open_store(path=path) as db:       # replay happens here
        info = db.wal_info()
        print(f"crash recovery replayed {info['replayed_ops']} ops "
              f"(sync mode {info['sync']!r})")
        assert db.get_value(123_456_789) == b"logged-before-the-memtable"
        assert not db.get(int(keys[2_000]))  # the delete survived too

    # ------------------------------------------------------------------
    # 5. Compressed read tier: per-block compression + a block cache.
    #    The codec is persisted in the manifest (a reopen inherits it);
    #    the block-cache budget is a runtime knob.  Reopen checks every
    #    run's checksum, loads keys and filters into memory, and leaves
    #    the value blocks mapped; answers and probe counters stay
    #    bit-identical to the uncompressed store.
    # ------------------------------------------------------------------
    zpath = root / "zdb"
    payload = b"status=ok method=GET path=/api/v1/items latency_ms=007 " * 4
    with open_store(
        path=zpath, filter=spec, memtable_capacity=1 << 11,
        store_values=True, compression="zlib",  # or {"codec": "zlib",
    ) as db:                                    #     "block_bytes": 1 << 16}
        db.put_many(keys[:20_000], [payload] * 20_000)
    raw = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    packed = sum(f.stat().st_size for f in zpath.rglob("*") if f.is_file())
    print(f"compressed store: {packed / 1024:.0f} KiB on disk "
          f"(uncompressed store above: {raw / 1024:.0f} KiB)")

    with open_store(path=zpath) as db:   # value blocks stay mapped
        assert db.get_value(int(keys[7])) == payload  # block decoded on demand
        for k in keys[:512]:
            db.get_value(int(k))        # cold: decompress + fill the cache
        for k in keys[:512]:
            db.get_value(int(k))        # hot: served from the block cache
        print(f"block cache after a hot re-read: "
              f"{db.stats.block_cache_hits} hits, "
              f"{db.stats.block_cache_misses} misses")

    shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
