"""The WAL ack barrier: ``commit_barrier()`` and seq-based accounting.

Under ``wal_sync="batch"``, ``commit()`` only fsyncs when the group-commit
threshold trips — an acknowledgement sent after a bare ``commit()`` can
ride ahead of durability.  ``commit_barrier()`` is the fence: it returns
only once an fsync covers every record appended before the call, from any
thread (the leader's fsync covers followers), and is free when coverage
already exists.  The multi-writer tests pin the exact accounting the old
single-writer ``_pending_ops`` counter got wrong under contention.
"""

import threading

import numpy as np
import pytest

from repro.api import FilterSpec, open_store
from repro.lsm.wal import WriteAheadLog, read_wal, wal_name
from repro.testing import FaultInjector, InjectedCrash

SPEC = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})
WAL_NAME = wal_name(0)


def fresh_wal(tmp_path, **kw):
    return WriteAheadLog.create(tmp_path / WAL_NAME, seal="cafebabe", **kw)


class TestBarrier:
    def test_batch_barrier_forces_covering_fsync(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="batch", group_commit=100)
        seq = 0
        for i in range(5):
            seq = wal.append_put(np.array([i], dtype=np.uint64))
        assert wal.fsyncs == 0 and wal.pending_ops == 5
        wal.commit_barrier(seq)
        assert wal.fsyncs == 1
        assert wal.pending_ops == 0
        assert wal.synced_seq >= seq == 5
        wal.close()
        assert wal.fsyncs == 1  # close found nothing left to sync

    def test_barrier_defaults_to_latest_append(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="batch", group_commit=100)
        wal.append_put(np.arange(3, dtype=np.uint64))
        wal.commit_barrier()
        assert wal.synced_seq == wal.last_seq == 3
        wal.close()

    def test_satisfied_barrier_is_free(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="batch", group_commit=100)
        seq = wal.append_put(np.arange(4, dtype=np.uint64))
        wal.commit_barrier(seq)
        for _ in range(5):
            wal.commit_barrier(seq)  # already covered: no extra fsync
        assert wal.fsyncs == 1
        wal.close()

    def test_off_mode_is_a_noop_by_contract(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="off")
        seq = wal.append_put(np.arange(8, dtype=np.uint64))
        wal.commit_barrier(seq)
        wal.close()
        assert wal.fsyncs == 0

    def test_always_mode_barrier_covers_uncommitted_tail(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="always")
        seq = wal.append_put(np.array([1], dtype=np.uint64))
        wal.commit_barrier(seq)  # append alone is not yet synced
        assert wal.fsyncs == 1 and wal.pending_ops == 0
        wal.close()

    def test_group_commit_threshold_unchanged_by_seq_accounting(
        self, tmp_path
    ):
        # The historical contract: 25 single-op commits at group_commit=10
        # fsync at ops 10 and 20, close picks up the 5-op tail.
        wal = fresh_wal(tmp_path, sync="batch", group_commit=10)
        for i in range(25):
            wal.append_put(np.array([i], dtype=np.uint64))
            wal.commit()
        assert wal.fsyncs == 2
        wal.close()
        assert wal.fsyncs == 3

    def test_rotation_satisfies_outstanding_barriers(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="batch", group_commit=100)
        seq = wal.append_put(np.arange(6, dtype=np.uint64))
        wal.reset(epoch=1)  # records now live in durable runs
        before = wal.fsyncs
        wal.commit_barrier(seq)  # rotation already covered this seq
        assert wal.fsyncs == before
        assert wal.pending_ops == 0
        # seqs stay monotonic across rotation: new appends extend them
        assert wal.append_put(np.array([9], dtype=np.uint64)) == seq + 1
        wal.close()

    def test_info_reports_pending_ops(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="batch", group_commit=100)
        wal.append_put(np.arange(3, dtype=np.uint64))
        assert wal.info()["pending_ops"] == 3
        wal.commit_barrier()
        assert wal.info()["pending_ops"] == 0
        wal.close()


class TestBarrierThreads:
    def test_concurrent_append_barrier_hammer_is_exact(self, tmp_path):
        """Many writers appending and fencing concurrently: accounting
        stays exact (the old reset-to-zero pending counter lost updates
        appended between an fsync and its counter reset) and every record
        lands intact."""
        wal = fresh_wal(tmp_path, sync="batch", group_commit=8)
        n_threads, per_thread = 6, 50
        gate = threading.Barrier(n_threads)
        failures = []

        def writer(tid):
            try:
                gate.wait()
                for i in range(per_thread):
                    seq = wal.append_put(
                        np.array([tid * 1000 + i], dtype=np.uint64)
                    )
                    wal.commit_barrier(seq)
                    assert wal.synced_seq >= seq
            except Exception as exc:  # surfaced below
                failures.append((tid, exc))

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not failures, failures
        total = n_threads * per_thread
        assert wal.num_records == total
        assert wal.last_seq == total
        assert wal.pending_ops == 0
        assert wal.synced_seq == total
        wal.close()
        _, records, _, torn = read_wal(tmp_path / WAL_NAME)
        assert not torn and len(records) == total
        seen = sorted(int(r.keys[0]) for r in records)
        assert seen == sorted(
            tid * 1000 + i
            for tid in range(n_threads)
            for i in range(per_thread)
        )

    def test_leader_fsync_covers_followers(self, tmp_path):
        """Concurrent barriers piggyback: far fewer fsyncs than barriers
        when writers contend (the group-commit leader pattern)."""
        wal = fresh_wal(tmp_path, sync="batch", group_commit=1)
        n_threads, per_thread = 8, 40
        gate = threading.Barrier(n_threads)

        def writer(tid):
            gate.wait()
            for i in range(per_thread):
                seq = wal.append_put(
                    np.array([tid * 100 + i], dtype=np.uint64)
                )
                wal.commit_barrier(seq)

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert wal.pending_ops == 0
        # Exact count is scheduling-dependent; piggybacking must beat
        # one-fsync-per-barrier whenever any two barriers overlapped, and
        # can never exceed it.
        assert wal.fsyncs <= n_threads * per_thread
        wal.close()


class TestStoreBarrier:
    def test_memory_store_barrier_is_noop(self):
        with open_store() as db:
            db.put(1)
            db.commit_barrier()  # durability is out of scope: must not raise
            assert db.get(1)

    def test_persistent_batch_barrier_syncs_once(self, tmp_path):
        with open_store(
            path=tmp_path / "db", filter=SPEC,
            wal_sync="batch", wal_group_commit=1000,
        ) as db:
            db.put(1)
            before = db.wal_info()["fsyncs"]
            assert db.wal_info()["pending_ops"] == 1
            db.commit_barrier()
            assert db.wal_info()["fsyncs"] == before + 1
            assert db.wal_info()["pending_ops"] == 0
            db.commit_barrier()  # already covered
            assert db.wal_info()["fsyncs"] == before + 1

    def test_sharded_barrier_covers_every_shard(self, tmp_path):
        with open_store(
            path=tmp_path / "db", filter=SPEC, shards=3,
            wal_sync="batch", wal_group_commit=1000,
        ) as db:
            db.put_many(np.arange(64, dtype=np.uint64))
            db.commit_barrier()
            for shard in db.shards:
                assert shard.wal_info()["pending_ops"] == 0


def test_batch_acked_then_killed_write_survives(tmp_path):
    """The satellite's crash-point contract: with a huge group commit, a
    write acked after ``commit_barrier()`` survives a kill at ANY later
    syscall — without the barrier, up to group_commit-1 acked ops could
    sit unsynced when the process dies."""
    for crash_at in (3, 7, 12, 21, 34):
        root = tmp_path / f"crash-{crash_at}"
        db = open_store(
            path=root, filter=SPEC, wal_sync="batch",
            wal_group_commit=10_000, memtable_capacity=1 << 12,
        )
        acked = []
        try:
            with FaultInjector(root, crash_at=crash_at):
                for k in range(300):
                    db.put(k)
                    db.commit_barrier()  # the ack point
                    acked.append(k)
                db.close()
        except InjectedCrash:
            pass  # simulated kill: no flush, no close
        if not acked:
            continue  # crash fired before the first ack
        with open_store(path=root) as db2:
            answers = db2.get_many(np.array(acked, dtype=np.uint64))
            assert answers.all(), (
                f"acked-then-killed write lost at crash point {crash_at}"
            )
