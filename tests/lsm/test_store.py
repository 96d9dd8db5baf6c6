"""Reopen equivalence of the persistent engines: save→load changes nothing.

The on-disk rungs of the exactness ladder:

* a reopened :class:`PersistentLsmDB` answers ``get_many`` /
  ``scan_nonempty_many`` bit-identically to the in-memory store fed the
  same operations — **and** its filter-probe / block-read
  :class:`~repro.lsm.iostats.IOStats` counters match exactly, because
  filter blocks are deserialized (never rebuilt) and the run layout
  round-trips;
* the same holds shard by shard for a sharded store (a
  :class:`~repro.lsm.sharded.ShardedLsmDB` of :class:`PersistentLsmDB`
  shards);
* a 1-shard on-disk store reproduces the unsharded on-disk store's
  answers and accounting exactly (the persistence layer extends the
  ladder pinned by ``tests/lsm/test_sharded_lsm.py``).
"""

import numpy as np
import pytest

from repro.api import FilterSpec, open_store
from repro.lsm import LsmDB, PersistentLsmDB, ShardedLsmDB, SpecPolicy
from repro.lsm.blocks import SlicedValues

SPEC = FilterSpec("bloomrf", {"bits_per_key": 16, "max_range": 1 << 16})
CAPACITY = 1 << 9


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(71)
    keys = rng.integers(0, 1 << 64, 8_000, dtype=np.uint64)
    deleted = keys[:400]
    probes = np.concatenate(
        [keys[::4], rng.integers(0, 1 << 64, 2_000, dtype=np.uint64)]
    )
    lo = rng.integers(0, 1 << 63, 1_000, dtype=np.uint64)
    width = np.uint64(1) << rng.integers(4, 24, 1_000, dtype=np.uint64)
    bounds = np.stack(
        [lo, np.minimum(lo + width, np.uint64((1 << 64) - 1))], axis=1
    )
    return keys, deleted, probes, bounds


def apply_workload(db, keys, deleted):
    db.put_many(keys)
    db.delete_many(deleted)
    db.flush()  # identical run layout on both sides of the comparison
    return db


def drive_reads(db, probes, bounds):
    db.reset_stats()
    got = db.get_many(probes)
    scanned = db.scan_nonempty_many(bounds)
    return got, scanned, db.stats.counters()


class TestUnshardedReopen:
    def test_reopen_matches_in_memory_answers_and_accounting(
        self, tmp_path, workload
    ):
        keys, deleted, probes, bounds = workload
        memory = apply_workload(
            LsmDB(policy=SpecPolicy(SPEC), memtable_capacity=CAPACITY),
            keys,
            deleted,
        )
        disk = apply_workload(
            open_store(
                path=tmp_path / "db", filter=SPEC, memtable_capacity=CAPACITY
            ),
            keys,
            deleted,
        )
        disk.close()
        reopened = open_store(path=tmp_path / "db")
        mem_got, mem_scanned, mem_counters = drive_reads(memory, probes, bounds)
        got, scanned, counters = drive_reads(reopened, probes, bounds)
        assert np.array_equal(got, mem_got)
        assert np.array_equal(scanned, mem_scanned)
        # Filter blocks were deserialized, not rebuilt: the probe-level
        # accounting (probes, positives, FPs, block reads) matches exactly.
        assert counters == mem_counters
        reopened.close()

    def test_reopened_filter_blocks_are_bit_identical(self, tmp_path, workload):
        keys, deleted, _, _ = workload
        disk = apply_workload(
            open_store(
                path=tmp_path / "db", filter=SPEC, memtable_capacity=CAPACITY
            ),
            keys,
            deleted,
        )
        blocks = [sst.filter_block for sst in disk.sstables]
        disk.close()
        reopened = open_store(path=tmp_path / "db")
        assert [sst.filter_block for sst in reopened.sstables] == blocks
        reopened.close()

    def test_reopen_charges_deserialization_not_build(self, tmp_path, workload):
        keys, deleted, _, _ = workload
        disk = apply_workload(
            open_store(
                path=tmp_path / "db", filter=SPEC, memtable_capacity=CAPACITY
            ),
            keys,
            deleted,
        )
        disk.close()
        reopened = open_store(path=tmp_path / "db")
        assert reopened.stats.deserialization_s > 0.0
        # Deserialized filters skip policy.build: per-run build time only
        # covers the hand-off, far below an actual filter construction.
        build_s, _ = reopened.construction_times()
        fresh_build_s, _ = disk.construction_times()
        assert build_s < fresh_build_s
        reopened.close()

    def test_values_round_trip(self, tmp_path):
        keys = np.arange(0, 900, 3, dtype=np.uint64)
        values = [b"payload-%d" % int(k) for k in keys]
        with open_store(
            path=tmp_path / "db",
            filter=SPEC,
            memtable_capacity=128,
            store_values=True,
        ) as db:
            db.put_many(keys, values)
        with open_store(path=tmp_path / "db") as reopened:
            assert reopened.get_value(300) == b"payload-300"
            assert reopened.get_value(301) is None
            assert reopened.scan(0, 30) == [
                (int(k), v) for k, v in zip(keys[:11], values[:11], strict=True)
            ]

    def test_sync_after_compact_prunes_old_runs(self, tmp_path, workload):
        keys, deleted, probes, _ = workload
        disk = apply_workload(
            open_store(
                path=tmp_path / "db", filter=SPEC, memtable_capacity=CAPACITY
            ),
            keys,
            deleted,
        )
        before = disk.get_many(probes)
        assert len(list((tmp_path / "db").glob("sst-*.sst"))) > 1
        disk.compact()
        assert len(list((tmp_path / "db").glob("sst-*.sst"))) == 1
        disk.close()
        with open_store(path=tmp_path / "db") as reopened:
            assert np.array_equal(reopened.get_many(probes), before)
            assert not reopened.get(int(deleted[0]))


class TestShardedReopen:
    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_reopen_matches_in_memory_sharded(
        self, tmp_path, workload, partition
    ):
        keys, deleted, probes, bounds = workload
        with apply_workload(
            ShardedLsmDB(
                policy=SpecPolicy(SPEC),
                num_shards=4,
                partition=partition,
                memtable_capacity=CAPACITY,
            ),
            keys,
            deleted,
        ) as memory:
            disk = apply_workload(
                open_store(
                    path=tmp_path / "db",
                    filter=SPEC,
                    shards=4,
                    partition=partition,
                    memtable_capacity=CAPACITY,
                ),
                keys,
                deleted,
            )
            disk.close()
            with open_store(path=tmp_path / "db") as reopened:
                assert isinstance(reopened, ShardedLsmDB)
                assert all(
                    isinstance(shard, PersistentLsmDB)
                    for shard in reopened.shards
                )
                assert reopened.partition == partition
                mem_got, mem_scanned, mem_counters = drive_reads(
                    memory, probes, bounds
                )
                got, scanned, counters = drive_reads(reopened, probes, bounds)
                assert np.array_equal(got, mem_got)
                assert np.array_equal(scanned, mem_scanned)
                assert counters == mem_counters

    def test_one_shard_on_disk_equals_unsharded_on_disk(
        self, tmp_path, workload
    ):
        """The persistence rung of the 1-shard == unsharded identity."""
        keys, deleted, probes, bounds = workload
        unsharded = apply_workload(
            open_store(
                path=tmp_path / "flat", filter=SPEC, memtable_capacity=CAPACITY
            ),
            keys,
            deleted,
        )
        unsharded.close()
        single = apply_workload(
            open_store(
                path=tmp_path / "one",
                filter=SPEC,
                shards=1,
                memtable_capacity=CAPACITY,
            ),
            keys,
            deleted,
        )
        single.close()
        with open_store(path=tmp_path / "flat") as flat, open_store(
            path=tmp_path / "one"
        ) as one:
            flat_got, flat_scanned, flat_counters = drive_reads(
                flat, probes, bounds
            )
            got, scanned, counters = drive_reads(one, probes, bounds)
            assert np.array_equal(got, flat_got)
            assert np.array_equal(scanned, flat_scanned)
            assert counters == flat_counters

    def test_per_shard_specs_round_trip(self, tmp_path):
        specs = [
            FilterSpec("bloomrf", {"bits_per_key": 10, "max_range": 1 << 10}),
            FilterSpec("bloomrf", {"bits_per_key": 20, "max_range": 1 << 10}),
            FilterSpec("bloom", {"bits_per_key": 12}),
        ]
        keys = np.arange(0, 1 << 63, 1 << 52, dtype=np.uint64)
        with open_store(
            path=tmp_path / "db", filter=specs, shards=3, partition="range"
        ) as db:
            db.put_many(keys)
        with open_store(path=tmp_path / "db") as reopened:
            assert [shard.policy.spec for shard in reopened.shards] == specs
            assert reopened.get_many(keys).all()

    def test_sharded_stats_merge_after_reopen(self, tmp_path, workload):
        keys, deleted, probes, bounds = workload
        disk = apply_workload(
            open_store(
                path=tmp_path / "db",
                filter=SPEC,
                shards=3,
                memtable_capacity=CAPACITY,
            ),
            keys,
            deleted,
        )
        disk.close()
        from repro.lsm import IOStats

        with open_store(path=tmp_path / "db") as reopened:
            reopened.reset_stats()
            reopened.get_many(probes)
            reopened.scan_nonempty_many(bounds)
            total = IOStats.merged([s.stats for s in reopened.shards])
            assert reopened.stats.counters() == total.counters()


class TestDurabilitySemantics:
    def test_unflushed_memtable_survives_via_the_wal(self, tmp_path):
        db = open_store(path=tmp_path / "db", filter=SPEC)
        db.put_many(np.arange(100, dtype=np.uint64))
        # No flush: the acknowledged writes live only in the memtable and
        # the write-ahead log.  A reopen from the current on-disk state
        # replays the log — nothing acknowledged is ever lost...
        replayed = open_store(path=tmp_path / "db")
        assert replayed.get_many(np.arange(100, dtype=np.uint64)).all()
        assert replayed.last_recovery["replayed_ops"] == 100
        # ...and flush() migrates them into runs, truncating the log.
        db.flush()
        reopened = open_store(path=tmp_path / "db")
        assert reopened.get_many(np.arange(100, dtype=np.uint64)).all()
        assert reopened.last_recovery["replayed_ops"] == 0
        assert reopened.wal_info()["records"] == 0
        db.close()

    def test_sync_is_part_of_the_store_protocol(self, tmp_path):
        from repro.api import Store

        with open_store(path=tmp_path / "db", filter=SPEC) as disk:
            assert isinstance(disk, Store)
        with open_store(filter=SPEC) as memory:
            assert isinstance(memory, Store)
            memory.sync()  # no-op, but part of the uniform interface

    def test_read_only_open_close_writes_nothing(self, tmp_path):
        """Pure reads must not touch the store directory: a query-only
        open/close cycle leaves every file byte- and inode-identical."""
        import os

        path = tmp_path / "db"
        with open_store(path=path, filter=SPEC, shards=2,
                        memtable_capacity=128) as db:
            db.put_many(np.arange(1_000, dtype=np.uint64))
        before = {
            str(p): (os.stat(p).st_ino, os.stat(p).st_mtime_ns)
            for p in path.rglob("*") if p.is_file()
        }
        with open_store(path=path) as reader:
            assert reader.get_many(np.arange(64, dtype=np.uint64)).all()
            reader.flush()  # no new runs -> still nothing to write
        after = {
            str(p): (os.stat(p).st_ino, os.stat(p).st_mtime_ns)
            for p in path.rglob("*") if p.is_file()
        }
        assert after == before

    @pytest.mark.parametrize("op", ["compact", "flush"])
    def test_compact_writes_the_manifest_once(self, tmp_path, monkeypatch, op):
        """One flush or one compact rewrites the manifest exactly once.

        The memtable drain inside compact skips its interim sync (one
        replace, not two plus a discarded run), and a flush persists the
        grown run set the same way as compaction: one whole-frame rewrite."""
        import repro.lsm.store as store_mod

        db = open_store(path=tmp_path / "db", filter=SPEC,
                        memtable_capacity=128)
        db.put_many(np.arange(700, dtype=np.uint64))
        db.put_many(np.arange(350, 1_050, dtype=np.uint64))
        manifest_writes = []
        real = store_mod._atomic_write
        monkeypatch.setattr(
            store_mod,
            "_atomic_write",
            lambda path, data: (
                manifest_writes.append(path)
                if path.name == store_mod.MANIFEST_NAME
                else None,
                real(path, data),
            )[-1],
        )
        getattr(db, op)()
        assert len(manifest_writes) == 1
        db.close()
        with open_store(path=tmp_path / "db") as reopened:
            assert reopened.get_many(np.arange(1_050, dtype=np.uint64)).all()

    def test_a_flushed_run_is_one_file(self, tmp_path, monkeypatch):
        """A run is one ``.sst`` frame holding its filter block: a flush
        replaces the run file, then the manifest (then rotates the log),
        and leaves no other file behind."""
        import os

        from repro.lsm.store import MANIFEST_NAME
        from repro.lsm.wal import wal_name

        root = tmp_path / "db"
        db = open_store(path=root, filter=SPEC, memtable_capacity=1024)
        db.put_many(np.arange(500, dtype=np.uint64))
        replaced = []
        real_replace = os.replace

        def counting_replace(src, dst, *args, **kw):
            replaced.append(os.path.basename(dst))
            return real_replace(src, dst, *args, **kw)

        monkeypatch.setattr(os, "replace", counting_replace)
        db.flush()
        monkeypatch.setattr(os, "replace", real_replace)
        run = "sst-000000.sst"
        assert replaced == [run, MANIFEST_NAME, wal_name(0)]
        assert sorted(p.name for p in root.iterdir()) == sorted(
            [MANIFEST_NAME, wal_name(0), run]
        )
        db.close()

    def test_close_is_idempotent(self, tmp_path):
        db = open_store(path=tmp_path / "db", filter=SPEC, shards=2)
        db.put_many(np.arange(500, dtype=np.uint64))
        db.close()
        db.close()
        with open_store(path=tmp_path / "db") as reopened:
            assert reopened.num_keys == 500


# One non-default value per open_store argument that a reopen checks or
# passes through.
_CREATION_ARGS = {
    "partition": "range",
    "domain_bits": 32,
    "memtable_capacity": 256,
    "value_bytes": 64,
    "block_bytes": 1024,
    "store_values": True,
    "wal_sync": "always",
    "wal_group_commit": 8,
    "compaction": "size-tiered",
    "compression": "zlib",
    "block_cache_bytes": 1 << 16,
}


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("name", sorted(_CREATION_ARGS))
def test_reopen_with_the_creation_arguments(tmp_path, name, shards):
    """The exact call that created a store reopens it.  An unsharded
    store ignores the routing knobs (``partition``, ``domain_bits``) at
    creation, so its reopen does too."""
    args = {"filter": SPEC, "shards": shards, name: _CREATION_ARGS[name]}
    keys = np.arange(0, 3_000, 3, dtype=np.uint64)
    with open_store(path=tmp_path / "db", **args) as db:
        db.put_many(keys)
    with open_store(path=tmp_path / "db", **args) as db:
        assert db.get_many(keys).all()
        assert db.num_keys == keys.size


class TestReadTierExactness:
    """The read tier (per-block compression, block cache) extends the
    exactness ladder: every knob combination answers and accounts
    bit-identically to the uncompressed store."""

    KNOBS = [
        {"block_cache_bytes": 1 << 12},
        {"compression": "zlib"},
        {"compression": {"codec": "zlib", "block_bytes": 1 << 12}},
        {"compression": "zlib", "block_cache_bytes": 1 << 12},
    ]

    def _build(self, path, workload, **create_kw):
        keys, deleted, _, _ = workload
        db = apply_workload(
            open_store(
                path=path,
                filter=SPEC,
                memtable_capacity=CAPACITY,
                store_values=True,
                **create_kw,
            ),
            keys,
            deleted,
        )
        db.close()

    @pytest.mark.parametrize("knobs", KNOBS)
    def test_knobs_match_eager_uncompressed_store(
        self, tmp_path, workload, knobs
    ):
        keys, deleted, probes, bounds = workload
        create = {
            k: v for k, v in knobs.items() if k in ("compression",)
        }
        self._build(tmp_path / "base", workload)
        self._build(tmp_path / "tier", workload, **create)
        with open_store(path=tmp_path / "base") as base, open_store(
            path=tmp_path / "tier", **knobs
        ) as tier:
            base_got, base_scanned, base_counters = drive_reads(
                base, probes, bounds
            )
            got, scanned, counters = drive_reads(tier, probes, bounds)
            assert np.array_equal(got, base_got)
            assert np.array_equal(scanned, base_scanned)
            assert counters == base_counters
            for k in keys[:50:5]:
                assert tier.get_value(int(k)) == base.get_value(int(k))

    @pytest.mark.parametrize("shards", [1, 3])
    def test_compressed_mmap_reopen_is_bit_identical(
        self, tmp_path, workload, shards
    ):
        """A compressed reopen reproduces the still-open store's answers
        and probe accounting exactly, sharded or not."""
        keys, deleted, probes, bounds = workload
        live = apply_workload(
            open_store(
                path=tmp_path / "db",
                filter=SPEC,
                shards=shards,
                memtable_capacity=CAPACITY,
                compression="zlib",
            ),
            keys,
            deleted,
        )
        live_got, live_scanned, live_counters = drive_reads(
            live, probes, bounds
        )
        live.close()
        with open_store(path=tmp_path / "db") as reopened:
            got, scanned, counters = drive_reads(reopened, probes, bounds)
            assert np.array_equal(got, live_got)
            assert np.array_equal(scanned, live_scanned)
            assert counters == live_counters

    def test_zlib_store_shrinks_compressible_values_on_disk(self, tmp_path):
        """Redundant values (a unique prefix plus a repetitive tail, like
        stored JSON or log lines) take at least 30 % fewer bytes on disk
        under zlib than uncompressed, for the same data and run layout."""
        keys = np.random.default_rng(67).integers(
            0, 1 << 64, 3_000, dtype=np.uint64
        )
        values = [b"value-%016x|" % int(k) + b"abcdefghijklmnop" * 30 for k in keys]
        disk_bytes = {}
        for codec in (None, "zlib"):
            path = tmp_path / str(codec)
            with open_store(
                path=path,
                filter=SPEC,
                memtable_capacity=CAPACITY,
                store_values=True,
                compression=codec,
            ) as db:
                db.put_many(keys, values)
                db.flush()
            disk_bytes[codec] = sum(
                p.stat().st_size for p in path.rglob("*") if p.is_file()
            )
        assert 1 - disk_bytes["zlib"] / disk_bytes[None] >= 0.30

    def test_block_cache_counters_surface_in_iostats(self, tmp_path):
        keys = np.arange(0, 3_000, 3, dtype=np.uint64)
        values = [b"v%08d" % int(k) * 8 for k in keys]
        with open_store(
            path=tmp_path / "db",
            filter=SPEC,
            memtable_capacity=256,
            store_values=True,
            compression={"codec": "zlib", "block_bytes": 1 << 10},
        ) as db:
            db.put_many(keys, values)
        with open_store(path=tmp_path / "db") as db:
            for k in keys[:200]:
                assert db.get_value(int(k)) is not None
            first = db.stats.block_cache_misses
            assert first > 0
            for k in keys[:200]:  # hot re-read: served from the cache
                db.get_value(int(k))
            assert db.stats.block_cache_hits > 0
            assert db.stats.block_cache_misses == first
            # The hit/miss split is cache policy, not probe accounting:
            # it must stay out of the exactness counter set.
            assert "block_cache_hits" not in db.stats.counters()

    def test_cache_counters_survive_reset_stats(self, tmp_path):
        """reset_stats() must not detach the cache's accounting: loaded
        SST frames capture the stats object at open time, so the reset
        has to zero it in place rather than swap in a fresh one."""
        keys = np.arange(0, 3_000, 3, dtype=np.uint64)
        values = [b"v%08d" % int(k) * 8 for k in keys]
        with open_store(
            path=tmp_path / "db",
            filter=SPEC,
            memtable_capacity=256,
            store_values=True,
            compression={"codec": "zlib", "block_bytes": 1 << 10},
        ) as db:
            db.put_many(keys, values)
        with open_store(path=tmp_path / "db") as db:
            old = db.reset_stats()
            assert old.block_cache_misses == 0
            for k in keys[:200]:
                db.get_value(int(k))
            assert db.stats.block_cache_misses > 0
            snapshot = db.reset_stats()
            assert snapshot.block_cache_misses > 0
            assert db.stats.block_cache_misses == 0
            for k in keys[:200]:  # hot re-read, recorded post-reset
                db.get_value(int(k))
            assert db.stats.block_cache_hits > 0

    def test_uncompressed_store_never_touches_the_cache(self, tmp_path):
        keys = np.arange(500, dtype=np.uint64)
        with open_store(
            path=tmp_path / "db",
            filter=SPEC,
            memtable_capacity=128,
            store_values=True,
        ) as db:
            db.put_many(keys, [b"x" * 16] * keys.size)
        with open_store(path=tmp_path / "db") as db:
            for k in keys[:100]:
                assert db.get_value(int(k)) == b"x" * 16
            assert db.stats.block_cache_hits == 0
            assert db.stats.block_cache_misses == 0

    def test_tiny_cache_budget_still_answers_exactly(self, tmp_path):
        keys = np.arange(0, 2_000, 2, dtype=np.uint64)
        values = [b"payload-%06d" % int(k) for k in keys]
        with open_store(
            path=tmp_path / "db",
            filter=SPEC,
            memtable_capacity=256,
            store_values=True,
            compression={"codec": "zlib", "block_bytes": 1 << 10},
        ) as db:
            db.put_many(keys, values)
        # A budget below one block caches nothing; answers are unchanged.
        with open_store(path=tmp_path / "db", block_cache_bytes=64) as db:
            for k, v in zip(keys[:100].tolist(), values[:100], strict=True):
                assert db.get_value(k) == v
            assert db.stats.block_cache_hits == 0

    def test_compression_conflict_and_inheritance_on_reopen(self, tmp_path):
        with open_store(
            path=tmp_path / "db", filter=SPEC, compression="zlib"
        ) as db:
            db.put_many(np.arange(300, dtype=np.uint64))
        # Reopen inherits the persisted codec with no arguments...
        with open_store(path=tmp_path / "db") as db:
            assert db._compression == {
                "codec": "zlib", "block_bytes": 1 << 16,
            }
        # ...accepts the matching spec, and rejects a conflicting one.
        with open_store(path=tmp_path / "db", compression="zlib") as db:
            assert db.get(5)
        with pytest.raises(ValueError, match="compression"):
            open_store(
                path=tmp_path / "db",
                compression={"codec": "zlib", "block_bytes": 1 << 12},
            )

    def test_read_tier_knobs_require_a_path(self):
        for kw in (
            {"compression": "zlib"},
            {"block_cache_bytes": 1 << 20},
        ):
            with pytest.raises(ValueError, match="persistent store"):
                open_store(filter=SPEC, **kw)

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_reopen_owns_keys_and_filter_words_and_keeps_values_lazy(
        self, tmp_path, workload, compression, shards
    ):
        """The one reopen path: run keys, tombstones and filter words are
        owned, aligned arrays (probes never touch the mapping), while
        values stay a lazy view over the run file.  There is no knob to
        pick another path."""
        keys, deleted, _, _ = workload
        with open_store(
            path=tmp_path / "db",
            filter=SPEC,
            shards=shards,
            memtable_capacity=CAPACITY,
            store_values=True,
            compression=compression,
        ) as db:
            db.put_many(keys, [b"v%d" % i for i in range(keys.size)])
            db.delete_many(deleted)
        with pytest.raises(TypeError, match="mmap"):
            open_store(path=tmp_path / "db", mmap=True)
        with open_store(path=tmp_path / "db") as db:
            engines = db.shards if shards > 1 else [db]
            runs = [sst for engine in engines for sst in engine.sstables]
            assert runs
            for sst in runs:
                words = sst.filter._bits.words
                for array in (sst.keys, sst.tombstones, words):
                    assert array.flags.owndata
                    assert array.flags.aligned
                assert isinstance(sst.values, SlicedValues)
            assert db.get(int(keys[400]))  # keys[:400] were deleted
            assert db.get_value(int(keys[401])) == b"v401"

    def test_compaction_over_mmapped_compressed_runs(self, tmp_path):
        """Compaction merges reopened runs and prunes their files while
        value views over the mappings may still exist — POSIX keeps the
        mapped pages valid, and the merged store answers exactly."""
        keys = np.arange(0, 4_000, 2, dtype=np.uint64)
        with open_store(
            path=tmp_path / "db",
            filter=SPEC,
            memtable_capacity=256,
            store_values=True,
            compression="zlib",
        ) as db:
            db.put_many(keys, [b"c%06d" % int(k) for k in keys])
        with open_store(path=tmp_path / "db") as db:
            assert len(db.sstables) > 1
            db.compact()
            assert len(db.sstables) == 1
            assert db.get_value(2000) == b"c002000"
        with open_store(path=tmp_path / "db") as db:
            assert db.get_value(2000) == b"c002000"
            assert db.get_value(2001) is None
