"""Batched point reads through the LSM stack: get_many / may_contain_many.

The batch paths must be *indistinguishable* from the scalar ones: identical
answers, identical filter-probe counts and outcome classification, identical
block-read/I/O-wait charges — asserted here across every filter policy and
against a hypothesis-driven reference model.  The compacted run's filter
(rebuilt from the merged keys) is covered at the bottom.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import (
    IOStats,
    LsmDB,
    SpecPolicy,
    SSTable,
    policy_by_name,
)

U64 = (1 << 64) - 1


def build_db(policy, n_keys=6_000, num_sstables=4, seed=17):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 1 << 48, n_keys, dtype=np.uint64))
    db = LsmDB(policy=policy)
    db.bulk_load(rng.permutation(keys), num_sstables=num_sstables)
    return db, keys


def mixed_lookups(keys, seed=3, n_present=200, n_absent=400):
    rng = np.random.default_rng(seed)
    present = keys[rng.integers(0, keys.size, n_present)]
    absent = rng.integers(0, 1 << 64, n_absent, dtype=np.uint64)
    lookups = np.concatenate([present, absent])
    return lookups[rng.permutation(lookups.size)]


class TestGetManyMatchesScalar:
    @pytest.mark.parametrize(
        "policy_name", ["bloomrf", "bloomrf-basic", "bloom", "rosetta", "surf", "none"]
    )
    def test_answers_and_accounting_identical(self, policy_name):
        db, keys = build_db(policy_by_name(policy_name, 16, 1 << 16))
        lookups = mixed_lookups(keys)
        db.reset_stats()
        scalar = np.array([db.get(int(key)) for key in lookups])
        scalar_stats = db.reset_stats()
        batch = db.get_many(lookups)
        batch_stats = db.reset_stats()
        assert np.array_equal(batch, scalar)
        assert batch_stats.filter_probes == scalar_stats.filter_probes
        assert (
            batch_stats.filter_false_positives
            == scalar_stats.filter_false_positives
        )
        assert (
            batch_stats.filter_true_positives
            == scalar_stats.filter_true_positives
        )
        assert batch_stats.blocks_read == scalar_stats.blocks_read
        assert batch_stats.io_wait_s == pytest.approx(scalar_stats.io_wait_s)

    def test_memtable_and_tombstones_settle_before_runs(self):
        db = LsmDB(
            policy=SpecPolicy("bloomrf", bits_per_key=14),
            memtable_capacity=1 << 10,
            store_values=True,
        )
        for key in range(100):
            db.put(key, b"v")
        db.flush()
        db.delete(7)          # tombstone buffered in the memtable
        db.put(3, b"fresh")   # live overwrite buffered in the memtable
        lookups = np.array([3, 7, 50, 100, 101], dtype=np.uint64)
        batch = db.get_many(lookups)
        scalar = np.array([db.get(int(key)) for key in lookups])
        assert np.array_equal(batch, scalar)
        assert batch.tolist() == [True, False, True, False, False]
        # Keys settled by the memtable never probe the runs.
        db.reset_stats()
        db.get_many(np.array([3, 7], dtype=np.uint64))
        assert db.stats.filter_probes == 0

    def test_flushed_tombstone_shadows_older_run(self):
        db = LsmDB(policy=SpecPolicy("bloomrf", bits_per_key=14), store_values=True)
        db.put(42, b"x")
        db.flush()
        db.delete(42)
        db.flush()
        assert db.get_many(np.array([42], dtype=np.uint64)).tolist() == [False]

    def test_empty_batch_and_empty_db(self):
        db = LsmDB(policy=SpecPolicy("none"))
        assert db.get_many(np.array([], dtype=np.uint64)).shape == (0,)
        assert db.get_many(np.array([5], dtype=np.uint64)).tolist() == [False]

    def test_rejects_negative_and_misshaped_keys(self):
        db = LsmDB(policy=SpecPolicy("none"))
        with pytest.raises(ValueError):
            db.get_many(np.array([-3], dtype=np.int64))
        with pytest.raises(ValueError):
            db.get_many(np.array([[1, 2]], dtype=np.uint64))
        with pytest.raises(TypeError):
            db.get_many(np.array([1.5]))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "flush"]),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_reference_model_property(self, operations):
        """get_many == looped get across arbitrary put/delete/flush runs."""
        db = LsmDB(
            policy=SpecPolicy("bloomrf", bits_per_key=12),
            memtable_capacity=16,
            store_values=True,
        )
        model: dict[int, bytes] = {}
        for op, key in operations:
            if op == "put":
                db.put(key, b"v")
                model[key] = b"v"
            elif op == "delete":
                db.delete(key)
                model.pop(key, None)
            else:
                db.flush()
        probes = np.arange(41, dtype=np.uint64)
        batch = db.get_many(probes)
        assert batch.tolist() == [key in model for key in range(41)]
        assert np.array_equal(
            batch, np.array([db.get(int(key)) for key in probes])
        )


class TestMayContainMany:
    def test_sound_superset_of_get_many(self):
        db, keys = build_db(SpecPolicy("bloomrf", bits_per_key=16))
        lookups = mixed_lookups(keys)
        may = db.may_contain_many(lookups)
        truth = db.get_many(lookups)
        assert np.all(may[truth]), "may-contain must never miss a present key"

    def test_charges_no_io(self):
        db, keys = build_db(SpecPolicy("bloomrf", bits_per_key=16))
        db.reset_stats()
        db.may_contain_many(mixed_lookups(keys))
        stats = db.reset_stats()
        assert stats.blocks_read == 0 and stats.io_wait_s == 0.0
        assert stats.filter_probes > 0

    def test_probes_every_run_for_every_key(self):
        db, keys = build_db(SpecPolicy("bloomrf", bits_per_key=16), num_sstables=5)
        db.reset_stats()
        db.may_contain_many(keys[:100])
        assert db.stats.filter_probes == 100 * 5

    def test_one_run_accounting(self):
        keys = np.arange(0, 40_000, 7, dtype=np.uint64)
        db = LsmDB(policy=SpecPolicy("bloomrf", bits_per_key=16))
        db.bulk_load(keys, num_sstables=1)
        db.reset_stats()
        assert db.may_contain_many(keys[:50]).all()  # inserted keys are never missed
        stats = db.reset_stats()
        assert stats.filter_probes == 50
        assert stats.filter_true_positives == 50
        assert stats.blocks_read == 0

    def test_sees_memtable_including_tombstones(self):
        db = LsmDB(policy=SpecPolicy("bloomrf", bits_per_key=16), memtable_capacity=64)
        db.put(1_000)
        db.delete(2_000)  # a filter cannot un-insert: tombstones still "may"
        got = db.may_contain_many(np.array([1_000, 2_000, 3_000], dtype=np.uint64))
        assert got.tolist() == [True, True, False]


class TestSSTablePointBatch:
    def make_sst(self, policy=None):
        keys = np.arange(0, 40_000, 7, dtype=np.uint64)
        return SSTable(keys, policy=policy or SpecPolicy("bloomrf", bits_per_key=16)), keys

    def test_get_many_matches_scalar_get(self):
        sst, keys = self.make_sst()
        rng = np.random.default_rng(2)
        lookups = np.concatenate(
            [keys[:200], rng.integers(0, 1 << 64, 300, dtype=np.uint64)]
        )
        scalar_stats = IOStats()
        expected = [sst.get(int(key), scalar_stats)[:1] for key in lookups]
        batch_stats = IOStats()
        found, tombstone = sst.get_many(lookups, batch_stats)
        assert found.tolist() == [e[0] for e in expected]
        assert not tombstone.any()
        assert batch_stats.filter_probes == scalar_stats.filter_probes
        assert batch_stats.blocks_read == scalar_stats.blocks_read
        assert (
            batch_stats.filter_false_positives
            == scalar_stats.filter_false_positives
        )

    def test_get_many_reports_tombstones(self):
        keys = np.array([10, 20, 30], dtype=np.uint64)
        sst = SSTable(
            keys,
            policy=SpecPolicy("bloomrf", bits_per_key=14),
            tombstones=np.array([False, True, False]),
        )
        found, tombstone = sst.get_many(keys, IOStats())
        assert found.all()
        assert tombstone.tolist() == [False, True, False]

    def test_empty_key_batch(self):
        sst, _ = self.make_sst()
        stats = IOStats()
        found, tombstone = sst.get_many(
            np.array([], dtype=np.uint64), stats
        )
        assert found.shape == (0,) and tombstone.shape == (0,)
        assert stats.filter_probes == 0


class TestCompactionFilterRebuild:
    def equal_run_db(self, policy, runs=4, per_run=1_500):
        """Equal-sized flushes produce same-config filter blocks."""
        db = LsmDB(policy=policy, store_values=True)
        rng = np.random.default_rng(41)
        keys = rng.permutation(
            np.unique(rng.integers(0, 1 << 52, runs * per_run + 4_000, dtype=np.uint64))
        )[: runs * per_run]
        for r in range(runs):
            for key in keys[r * per_run : (r + 1) * per_run].tolist():
                db.put(key, b"v")
            db.flush()
        return db, np.sort(keys)

    @pytest.mark.parametrize(
        "policy",
        [SpecPolicy("bloomrf", bits_per_key=16), SpecPolicy("bloom", bits_per_key=14)],
        ids=["bloomrf", "bloom"],
    )
    def test_compacted_filter_equals_fresh_build(self, policy):
        """The merged run's filter is exactly ``policy.build`` over its keys
        — sized for all of them, not the operands' word union (which keeps
        one operand's bit count: a Bloom union of four runs sat at fill
        0.924)."""
        db, keys = self.equal_run_db(policy)
        db.compact()
        assert len(db.sstables) == 1
        merged = db.sstables[0]
        assert np.array_equal(merged.keys, keys)
        fresh = policy.build(keys)
        assert merged.filter.size_bits == fresh.size_bits
        assert np.array_equal(
            merged.filter._bits.words, fresh._bits.words
        )
        assert db.get_many(keys[:2_000]).all()

    def test_compact_rebuilds_from_mixed_runs(self):
        db = LsmDB(policy=SpecPolicy("bloomrf", bits_per_key=16), store_values=True)
        rng = np.random.default_rng(43)
        # Unequal run sizes -> differently tuned configs.
        for size in (500, 1_500):
            for key in np.unique(
                rng.integers(0, 1 << 40, size, dtype=np.uint64)
            ).tolist():
                db.put(key, b"v")
            db.flush()
        live = sorted(
            {
                int(k)
                for sst in db.sstables
                for k in sst.keys.tolist()
            }
        )
        db.compact()
        assert len(db.sstables) == 1
        probes = np.array(live[:1_000], dtype=np.uint64)
        assert db.get_many(probes).all()

    def test_prebuilt_filter_is_adopted_verbatim(self):
        policy = SpecPolicy("bloomrf", bits_per_key=16)
        keys = np.arange(0, 3_000, 3, dtype=np.uint64)
        filt = policy.build(keys)
        sst = SSTable(keys, policy=policy, prebuilt_filter=filt)
        assert sst.filter is filt
