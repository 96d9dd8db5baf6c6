"""Tests for the LSM substrate: memtable, SSTables, DB, stats accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import filter_from_bytes
from repro.lsm import (
    IOStats,
    LsmDB,
    MemTable,
    SpecPolicy,
    ShardedLsmDB,
    SSTable,
    policy_by_name,
)
from repro.lsm.db import _newest_wins
from repro.lsm.filter_policy import VECTOR_MIN_BATCH, VECTOR_MIN_ROWS, RunSetFilter

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
U64 = (1 << 64) - 1


class TestMemTable:
    def test_put_and_contains(self):
        mt = MemTable(capacity=4)
        mt.put(10)
        assert mt.get(10) == b""
        assert mt.get(11) is None

    def test_is_full(self):
        mt = MemTable(capacity=2)
        mt.put(1)
        assert not mt.is_full
        mt.put(2)
        assert mt.is_full

    @given(st.sets(u64, max_size=100), u64, u64)
    @settings(max_examples=100)
    def test_range_matches_naive(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        mt = MemTable(capacity=1000)
        for key in keys:
            mt.put(key)
        assert mt.contains_range(lo, hi) == any(lo <= k <= hi for k in keys)

    def test_drain_sorted(self):
        mt = MemTable(capacity=10)
        for key in (5, 1, 9, 1):
            mt.put(key)
        keys, values, tombstones = mt.drain_sorted()
        assert list(keys) == [1, 5, 9]
        assert values == [b"", b"", b""]
        assert not tombstones.any()
        assert len(mt) == 0

    def test_values_and_tombstones(self):
        mt = MemTable(capacity=10)
        mt.put(1, b"one")
        mt.put(2, b"two")
        mt.delete(1)
        known, live = mt.lookup_many(np.array([1, 2], dtype=np.uint64))
        assert known.tolist() == [True, True]
        assert live.tolist() == [False, True]
        assert mt.get(2) == b"two"
        keys, values, tombstones = mt.drain_sorted()
        assert list(keys) == [1, 2]
        assert list(tombstones) == [True, False]
        assert values[1] == b"two"

    def test_range_skips_tombstones(self):
        mt = MemTable(capacity=10)
        mt.put(5, b"x")
        mt.delete(5)
        assert not mt.contains_range(0, 10)
        mt.put(7, b"y")
        assert mt.contains_range(0, 10)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            MemTable(0)


class TestSSTable:
    def make(self, keys=None, policy=None):
        if keys is None:
            keys = np.arange(0, 100_000, 37, dtype=np.uint64)
        return SSTable(keys, policy=policy or SpecPolicy("bloomrf", bits_per_key=14))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SSTable(np.array([3, 1], dtype=np.uint64), policy=SpecPolicy("none"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SSTable(np.array([], dtype=np.uint64), policy=SpecPolicy("none"))

    def test_block_layout(self):
        sst = self.make()
        # 512-byte values + 8-byte keys in 4096-byte blocks -> 7 per block.
        assert sst.entries_per_block == 4096 // 520
        assert sst.fences.num_blocks == -(-sst.num_keys // sst.entries_per_block)

    def test_get_present_key(self):
        sst = self.make()
        stats = IOStats()
        found, value, dead = sst.get(37, stats)
        assert found and not dead
        assert stats.filter_true_positives == 1
        assert stats.blocks_read >= 1
        assert stats.io_wait_s > 0

    def test_get_absent_key_counts_outcome(self):
        sst = self.make()
        stats = IOStats()
        found, value, dead = sst.get(38, stats)
        assert not found and value is None
        assert stats.filter_probes == 1
        assert stats.filter_true_negatives + stats.filter_false_positives == 1

    def test_values_and_tombstones(self):
        keys = np.array([10, 20, 30], dtype=np.uint64)
        sst = SSTable(
            keys,
            policy=SpecPolicy("bloomrf", bits_per_key=14),
            values=[b"a", b"b", b"c"],
            tombstones=np.array([False, True, False]),
        )
        stats = IOStats()
        assert sst.get(10, stats) == (True, b"a", False)
        assert sst.get(20, stats) == (True, None, True)
        assert sst.num_live_keys == 2
        assert sst.keys.tolist() == [10, 20, 30]
        assert sst.tombstones.tolist() == [False, True, False]
        assert list(sst.values) == [b"a", b"b", b"c"]

    def test_rejects_misaligned_values(self):
        keys = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(ValueError):
            SSTable(keys, policy=SpecPolicy("none"), values=[b"only-one"])

    def test_scan(self):
        sst = self.make()
        stats = IOStats()
        assert sst.scan(30, 40, stats)  # contains 37
        assert not sst.scan(38, 40, stats) or True  # FP possible
        assert stats.filter_probes == 2

    def test_build_times_recorded(self):
        sst = self.make()
        assert sst.build_time_s > 0
        assert sst.serialize_time_s >= 0


class TestLsmDB:
    def build_db(self, policy=None, keys=None, num_sstables=4):
        rng = np.random.default_rng(9)
        if keys is None:
            keys = rng.permutation(
                np.unique(rng.integers(0, 1 << 64, 20_000, dtype=np.uint64))
            )
        db = LsmDB(policy=policy or SpecPolicy("bloomrf", bits_per_key=16))
        db.bulk_load(keys, num_sstables=num_sstables)
        return db, np.sort(keys)

    def test_get_reference_model(self):
        db, keys = self.build_db()
        key_set = set(keys.tolist())
        for key in keys[:500]:
            assert db.get(int(key))
        rng = np.random.default_rng(1)
        for probe in rng.integers(0, 1 << 64, 500, dtype=np.uint64):
            assert db.get(int(probe)) == (int(probe) in key_set)

    def test_scan_reference_model(self):
        db, keys = self.build_db()
        rng = np.random.default_rng(2)
        for _ in range(300):
            lo = int(rng.integers(0, 1 << 64, dtype=np.uint64))
            hi = min(lo + int(rng.integers(1, 1 << 40)), U64)
            idx = int(np.searchsorted(keys, np.uint64(lo)))
            truly = idx < keys.size and int(keys[idx]) <= hi
            assert db.scan_nonempty(lo, hi) == truly

    def test_memtable_path(self):
        db = LsmDB(policy=SpecPolicy("bloomrf", bits_per_key=12), memtable_capacity=100)
        for key in range(50):
            db.put(key)
        assert db.get(25)
        assert db.scan_nonempty(20, 30)
        assert not db.sstables  # below flush threshold
        for key in range(50, 150):
            db.put(key)
        assert db.sstables  # flush happened
        assert db.get(25)

    def test_probe_accounting_identity(self):
        db, keys = self.build_db(num_sstables=5)
        db.reset_stats()
        from repro.workloads import empty_range_queries

        queries = empty_range_queries(keys, 200, range_size=64, seed=3)
        for lo, hi in queries:
            assert not db.scan_nonempty(lo, hi)
        # Every query probes every SST's filter exactly once.
        assert db.stats.filter_probes == 200 * 5
        assert db.stats.filter_true_positives == 0
        assert db.stats.fpr <= 0.2

    def test_no_filter_policy_reads_more_blocks(self):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.integers(0, 1 << 64, 10_000, dtype=np.uint64))
        from repro.workloads import empty_point_queries

        probes = empty_point_queries(keys, 300, seed=4)
        blocks = {}
        for name, policy in (
            ("none", SpecPolicy("none")),
            ("bloomrf", SpecPolicy("bloomrf", bits_per_key=16)),
        ):
            db = LsmDB(policy=policy)
            db.bulk_load(keys, num_sstables=4)
            db.reset_stats()
            for probe in probes:
                db.get(int(probe))
            blocks[name] = db.stats.blocks_read
        assert blocks["bloomrf"] < blocks["none"] / 5

    def test_construction_times(self):
        db, _ = self.build_db()
        build, serialize = db.construction_times()
        assert build > 0 and serialize >= 0

    def test_filter_bits_per_key(self):
        db, keys = self.build_db()
        assert db.filter_bits_per_key() == pytest.approx(16, rel=0.2)

    def test_policy_factory(self):
        for name in ("bloomrf", "bloomrf-basic", "bloom", "rosetta", "surf",
                     "prefix-bloom", "none"):
            policy = policy_by_name(name, bits_per_key=12, max_range=1 << 16)
            assert policy.name
        with pytest.raises(ValueError):
            policy_by_name("bogus", 12, 64)

    def test_bulk_load_rejects_zero_sstables(self):
        db = LsmDB()
        with pytest.raises(ValueError):
            db.bulk_load(np.arange(5, dtype=np.uint64), num_sstables=0)


class TestIOStats:
    def test_fpr_definition(self):
        stats = IOStats()
        missed = stats.record_probes([True, False, True], [False, False, True])
        assert missed == 0
        assert stats.fpr == pytest.approx(0.5)
        assert stats.record_probes([False], [True]) == 1

    def test_record_probes_classifies_every_outcome(self):
        stats = IOStats()
        positives = [True, True, False, False, False]
        truths = [True, False, False, False, True]
        assert stats.record_probes(positives, truths) == 1
        assert stats.filter_probes == 5
        assert stats.filter_positives == 2
        assert stats.filter_true_positives == 1
        assert stats.filter_false_positives == 1
        assert stats.filter_true_negatives == 2
        # An empty batch records nothing.
        before = stats.counters()
        assert stats.record_probes([], []) == 0
        assert stats.counters() == before

    def test_merge(self):
        a, b = IOStats(), IOStats()
        a.record_probes([True], [False])
        b.record_probes([False], [False])
        b.io_wait_s = 1.0
        a.merge(b)
        assert a.filter_probes == 2
        assert a.io_wait_s == 1.0

    def test_breakdown_keys(self):
        assert set(IOStats().breakdown()) == {
            "filter_probe_s",
            "residual_cpu_s",
            "deserialization_s",
            "io_wait_s",
        }

    def test_total_time(self):
        stats = IOStats()
        stats.filter_cpu_s = 1.0
        stats.io_wait_s = 2.0
        assert stats.total_time_s == pytest.approx(3.0)


class TestPolicies:
    @pytest.mark.parametrize(
        "policy",
        [
            SpecPolicy("bloomrf", bits_per_key=14),
            SpecPolicy("bloomrf-basic", bits_per_key=14),
            SpecPolicy("bloom", bits_per_key=14),
            SpecPolicy("rosetta", bits_per_key=14, max_range=1 << 10),
            SpecPolicy("surf", bits_per_key=14),
        ],
        ids=lambda p: p.name,
    )
    def test_policy_soundness(self, policy):
        rng = np.random.default_rng(11)
        keys = np.unique(rng.integers(0, 1 << 64, 3_000, dtype=np.uint64))
        filt = policy.build(keys)
        run_set = RunSetFilter([filt])
        probed = keys[:300]
        bounds = np.stack(
            [
                np.maximum(probed, np.uint64(3)) - np.uint64(3),
                np.minimum(probed, np.uint64(U64 - 3)) + np.uint64(3),
            ],
            axis=1,
        )
        # One item takes the scalar kernel, 300 the vectorized one.
        assert probed.size >= max(VECTOR_MIN_BATCH, VECTOR_MIN_ROWS)
        for n in (1, probed.size):
            assert run_set.probe_point_many(probed[:n]).all()
            assert run_set.probe_range_many(bounds[:n]).all()
        assert filt.size_bits >= 0

    @pytest.mark.parametrize(
        "policy",
        ["bloomrf", object(), filter_from_bytes],
        ids=["kind-name", "object", "function"],
    )
    def test_non_policy_is_rejected_at_construction(self, policy):
        """A kind name (or any other object) fails when the engine is
        built, not at the first flush that asks it to build a filter."""
        with pytest.raises(TypeError, match="SpecPolicy, a FilterSpec or None"):
            LsmDB(policy=policy, memtable_capacity=4)
        with pytest.raises(TypeError, match="SpecPolicy, a FilterSpec or None"):
            ShardedLsmDB(policy=[None, policy], num_shards=2)

    def test_bloomrf_policy_serialization(self):
        policy = SpecPolicy("bloomrf", bits_per_key=14)
        keys = np.arange(0, 5_000, 7, dtype=np.uint64)
        restored = filter_from_bytes(policy.build(keys).to_bytes())
        run_set = RunSetFilter([restored])
        assert keys[:200].size >= VECTOR_MIN_BATCH
        for n in (1, 200):
            assert run_set.probe_point_many(keys[:n]).all()


class TestKvSemantics:
    """Values, tombstone deletes, merging scans, compaction — checked
    against a plain-dict reference model."""

    def make_db(self):
        return LsmDB(
            policy=SpecPolicy("bloomrf", bits_per_key=14),
            memtable_capacity=64,
            store_values=True,
        )

    def test_put_get_value(self):
        db = self.make_db()
        db.put(1, b"one")
        db.put(2, b"two")
        assert db.get_value(1) == b"one"
        assert db.get_value(2) == b"two"
        assert db.get_value(3) is None

    def test_overwrite_newest_wins_across_flushes(self):
        db = self.make_db()
        db.put(7, b"old")
        db.flush()
        db.put(7, b"new")
        assert db.get_value(7) == b"new"
        db.flush()
        assert db.get_value(7) == b"new"

    def test_delete_shadows_older_versions(self):
        db = self.make_db()
        db.put(9, b"x")
        db.flush()
        db.delete(9)
        assert db.get_value(9) is None
        assert not db.get(9)
        db.flush()
        assert db.get_value(9) is None

    def test_scan_merges_and_skips_tombstones(self):
        db = self.make_db()
        for key in (10, 20, 30):
            db.put(key, f"v{key}".encode())
        db.flush()
        db.delete(20)
        db.put(25, b"v25")
        got = db.scan(0, 100)
        assert got == [(10, b"v10"), (25, b"v25"), (30, b"v30")]

    def test_scan_limit(self):
        db = self.make_db()
        for key in range(50):
            db.put(key, b"v")
        assert len(db.scan(0, 100, limit=5)) == 5

    def test_scan_nonempty_respects_deletes(self):
        db = self.make_db()
        db.put(42, b"x")
        db.flush()
        assert db.scan_nonempty(40, 45)
        db.delete(42)
        assert not db.scan_nonempty(40, 45)

    def test_compact_drops_tombstones_and_duplicates(self):
        db = self.make_db()
        for key in range(200):
            db.put(key, b"a")
        db.flush()
        for key in range(0, 200, 2):
            db.delete(key)
        for key in range(100, 150):
            db.put(key, b"b")
        db.compact()
        assert len(db.sstables) == 1
        assert db.sstables[0].num_live_keys == db.sstables[0].num_keys
        assert db.get_value(2) is None
        assert db.get_value(101) == b"b"
        assert db.get_value(3) == b"a"

    def test_compact_empty_db(self):
        db = self.make_db()
        db.compact()
        assert db.sstables == []
        db.put(1, b"x")
        db.delete(1)
        db.compact()
        assert db.get_value(1) is None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "flush"]),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_reference_model(self, operations):
        db = LsmDB(
            policy=SpecPolicy("bloomrf", bits_per_key=12),
            memtable_capacity=16,
            store_values=True,
        )
        model: dict[int, bytes] = {}
        for op, key in operations:
            if op == "put":
                value = f"v{key}".encode()
                db.put(key, value)
                model[key] = value
            elif op == "delete":
                db.delete(key)
                model.pop(key, None)
            else:
                db.flush()
        for key in range(41):
            assert db.get_value(key) == model.get(key), key
        assert db.scan(0, 40) == sorted(model.items())
        assert db.scan_nonempty(0, 40) == bool(model)

    @given(
        st.lists(
            st.dictionaries(st.integers(0, 30), st.booleans(), max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200)
    def test_newest_wins_keeps_each_keys_first_version(self, runs):
        """The one version merge scans and compaction share: over sorted
        runs listed newest first, each key keeps its first occurrence, and
        its tombstone flag comes from that version."""
        keys = [np.array(sorted(run), dtype=np.uint64) for run in runs]
        flags = [np.array([run[k] for k in sorted(run)], dtype=bool) for run in runs]
        unique, newest, dead = _newest_wins(keys, flags)
        first: dict[int, int] = {}
        for at, key in enumerate(np.concatenate(keys).tolist()):
            first.setdefault(key, at)
        expected: dict[int, bool] = {}
        for run in runs:
            for key in sorted(run):
                expected.setdefault(key, run[key])
        assert unique.tolist() == sorted(expected)
        assert newest.tolist() == [first[k] for k in sorted(expected)]
        assert dead.tolist() == [expected[k] for k in sorted(expected)]


class TestBatchedScans:
    """scan_nonempty_many / scan_may_contain mirror the scalar scan path:
    identical answers and identical filter-stats accounting."""

    def build_db(self, policy, n_keys=6_000, num_sstables=3, seed=21):
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(0, 1 << 48, n_keys, dtype=np.uint64))
        db = LsmDB(policy=policy)
        db.bulk_load(rng.permutation(keys), num_sstables=num_sstables)
        return db, keys

    def mixed_bounds(self, keys, seed=5, n_empty=150, n_pos=50):
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, 1 << 48, n_empty, dtype=np.uint64)
        hi = lo + rng.integers(1, 1 << 16, n_empty, dtype=np.uint64)
        anchors = keys[rng.integers(0, keys.size, n_pos)]
        pad = np.uint64(3)
        pos = np.stack(
            [anchors - np.minimum(anchors, pad), anchors + pad], axis=1
        )
        return np.concatenate([np.stack([lo, hi], axis=1), pos])

    @pytest.mark.parametrize(
        "policy_name", ["bloomrf", "rosetta", "surf", "bloom", "none"]
    )
    def test_batch_matches_scalar_scan(self, policy_name):
        db, keys = self.build_db(policy_by_name(policy_name, 16, 1 << 16))
        bounds = self.mixed_bounds(keys)
        db.reset_stats()
        scalar = np.array(
            [db.scan_nonempty(int(lo), int(hi)) for lo, hi in bounds]
        )
        scalar_stats = db.reset_stats()
        batch = db.scan_nonempty_many(bounds)
        batch_stats = db.reset_stats()
        assert np.array_equal(batch, scalar)
        assert batch_stats.filter_probes == scalar_stats.filter_probes
        assert (
            batch_stats.filter_false_positives
            == scalar_stats.filter_false_positives
        )
        assert batch_stats.blocks_read == scalar_stats.blocks_read

    def test_scan_may_contain_is_sound(self):
        db, keys = self.build_db(SpecPolicy("bloomrf", bits_per_key=16))
        bounds = self.mixed_bounds(keys)
        may = db.scan_may_contain(bounds)
        truth = db.scan_nonempty_many(bounds)
        assert np.all(may[truth]), "may-contain must never miss a non-empty range"

    def test_scan_may_contain_sees_memtable(self):
        db = LsmDB(policy=SpecPolicy("bloomrf", bits_per_key=16), memtable_capacity=64)
        db.put(1000)
        got = db.scan_may_contain(
            np.array([[990, 1010], [2000, 2100]], dtype=np.uint64)
        )
        assert got.tolist() == [True, False]

    def test_empty_batch(self):
        db, _ = self.build_db(SpecPolicy("none"))
        got = db.scan_nonempty_many(np.empty((0, 2), dtype=np.uint64))
        assert got.shape == (0,)
        assert db.scan_may_contain(np.empty((0, 2), dtype=np.uint64)).shape == (0,)

    def test_sstable_scan_many_accounting(self):
        keys = np.arange(0, 4_000, 4, dtype=np.uint64)
        sst = SSTable(keys, policy=SpecPolicy("bloomrf", bits_per_key=16))
        stats = IOStats()
        bounds = np.array(
            [[0, 10], [1, 3], [4001, 4100], [3996, 3996]], dtype=np.uint64
        )
        got = sst.scan_many(bounds, stats)
        expected = [
            sst.scan(int(lo), int(hi), IOStats()) for lo, hi in bounds
        ]
        assert got.tolist() == expected
        assert stats.filter_probes == 4

    def test_batch_rejects_inverted_and_negative_bounds(self):
        db, _ = self.build_db(SpecPolicy("none"))
        with pytest.raises(ValueError):
            db.scan_nonempty_many(np.array([[5, 4]], dtype=np.uint64))
        with pytest.raises(ValueError):
            db.scan_may_contain(np.array([[-1, 4]], dtype=np.int64))
        with pytest.raises(ValueError):
            db.scan_nonempty_many(np.array([1, 2, 3], dtype=np.uint64))

    def test_scan_may_contain_charges_no_io(self):
        db, keys = self.build_db(SpecPolicy("bloomrf", bits_per_key=16))
        db.reset_stats()
        db.scan_may_contain(self.mixed_bounds(keys))
        stats = db.reset_stats()
        assert stats.blocks_read == 0 and stats.io_wait_s == 0.0
        assert stats.filter_probes > 0
