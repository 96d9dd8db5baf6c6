"""Unit tests for the write-ahead log (``repro.lsm.wal``).

Record framing round-trips, torn-tail recovery, corruption detection with
file + offset in the message, sync-mode fsync accounting, rotation, and
the store-level replay semantics (group commit, epoch protocol, log-first
acknowledgement ordering).
"""

import os

import numpy as np
import pytest

from repro.api import FilterSpec, open_store
from repro.lsm.wal import (
    WriteAheadLog,
    read_wal,
    wal_name,
)
from repro.serial import SerialError

SPEC = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})
# The log of an unsharded store: its one shard's.
WAL_NAME = wal_name(0)


def fresh_wal(tmp_path, **kw):
    return WriteAheadLog.create(
        tmp_path / WAL_NAME, seal="cafebabe", **kw
    )


class TestRecordFraming:
    def test_round_trip_puts_deletes_values(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="off")
        wal.append_put(np.array([1, 2, 3], dtype=np.uint64))
        wal.append_put(
            np.array([7, 8], dtype=np.uint64), [b"seven", b""]
        )
        wal.append_delete(np.array([2], dtype=np.uint64))
        wal.close()
        header, records, _, torn = read_wal(tmp_path / WAL_NAME)
        assert header == {"seal": "cafebabe", "epoch": 0}
        assert not torn
        assert [r.op for r in records] == [3, 1, 2]
        assert records[0].keys.tolist() == [1, 2, 3]
        assert records[0].values is None  # empty values are not stored
        assert records[1].values == [b"seven", b""]
        assert records[2].keys.tolist() == [2]

    def test_all_empty_values_collapse_to_valueless_record(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="off")
        wal.append_put(np.array([4, 5], dtype=np.uint64), [b"", b""])
        wal.close()
        _, records, _, _ = read_wal(tmp_path / WAL_NAME)
        assert records[0].op == 3 and records[0].values is None

    def test_empty_log_reads_empty(self, tmp_path):
        wal = fresh_wal(tmp_path)
        wal.close()
        header, records, valid_end, torn = read_wal(tmp_path / WAL_NAME)
        assert records == [] and not torn
        assert valid_end == (tmp_path / WAL_NAME).stat().st_size


class TestTornTail:
    def make_log(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="off")
        wal.append_put(np.array([10, 11], dtype=np.uint64), [b"a", b"bb"])
        wal.append_delete(np.array([11], dtype=np.uint64))
        wal.close()
        return tmp_path / WAL_NAME

    def test_torn_tail_recovers_prefix_silently(self, tmp_path):
        path = self.make_log(tmp_path)
        blob = path.read_bytes()
        _, full, complete_end, _ = read_wal(path)
        assert len(full) == 2
        # Cut anywhere inside the last record: every prefix that still
        # holds the first complete record must recover exactly it.
        for cut in range(complete_end - 1, complete_end - 9, -1):
            path.write_bytes(blob[:cut])
            header, records, valid_end, torn = read_wal(path)
            assert torn
            assert len(records) == 1
            assert records[0].keys.tolist() == [10, 11]

    def test_attach_truncates_torn_tail(self, tmp_path):
        path = self.make_log(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        header, records, valid_end, torn = read_wal(path)
        assert torn
        WriteAheadLog.attach(
            path,
            seal="cafebabe",
            epoch=0,
            valid_end=valid_end,
            num_records=len(records),
            torn=torn,
        ).close()
        assert path.stat().st_size == valid_end
        _, records2, _, torn2 = read_wal(path)
        assert not torn2 and len(records2) == len(records)

    def test_bit_flip_in_record_names_file_and_offset(self, tmp_path):
        path = self.make_log(tmp_path)
        blob = bytearray(path.read_bytes())
        # Locate the first record: an identical empty log is pure header.
        (tmp_path / "other").mkdir()
        empty = fresh_wal(tmp_path / "other")
        hdr_len = (tmp_path / "other" / WAL_NAME).stat().st_size
        empty.close()
        blob[hdr_len + 12] ^= 0x40  # inside the first record's body
        path.write_bytes(bytes(blob))
        # Non-tail corruption is loud and names both file and offset.
        with pytest.raises(SerialError, match=WAL_NAME):
            read_wal(path)
        with pytest.raises(SerialError, match=f"byte offset {hdr_len}"):
            read_wal(path)

    def test_torn_header_frame_raises(self, tmp_path):
        path = self.make_log(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:8])  # inside the (atomic) header frame
        with pytest.raises(SerialError, match="truncated"):
            read_wal(path)

    def test_garbage_file_raises_bad_magic(self, tmp_path):
        path = tmp_path / WAL_NAME
        path.write_bytes(b"not a log at all")
        with pytest.raises(SerialError, match="bad magic"):
            read_wal(path)


class TestSyncModes:
    def test_always_fsyncs_every_commit(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="always")
        for i in range(5):
            wal.append_put(np.array([i], dtype=np.uint64))
            wal.commit()
        assert wal.fsyncs == 5
        wal.close()

    def test_batch_fsyncs_per_group_commit(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="batch", group_commit=10)
        for i in range(25):
            wal.append_put(np.array([i], dtype=np.uint64))
            wal.commit()
        assert wal.fsyncs == 2  # at ops 10 and 20; 5 pending
        wal.close()  # close syncs the pending tail
        assert wal.fsyncs == 3

    def test_off_never_fsyncs(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="off")
        for i in range(50):
            wal.append_put(np.array([i], dtype=np.uint64))
            wal.commit()
        wal.close()
        assert wal.fsyncs == 0

    def test_invalid_mode_and_group_commit_raise(self, tmp_path):
        with pytest.raises(ValueError, match="wal_sync"):
            fresh_wal(tmp_path, sync="sometimes")
        with pytest.raises(ValueError, match="wal_group_commit"):
            fresh_wal(tmp_path, group_commit=0)


class TestRotation:
    def test_reset_truncates_and_bumps_epoch(self, tmp_path):
        wal = fresh_wal(tmp_path, sync="off")
        wal.append_put(np.arange(100, dtype=np.uint64))
        assert wal.num_records == 1
        wal.reset(7)
        assert wal.num_records == 0 and wal.epoch == 7
        header, records, _, _ = read_wal(tmp_path / WAL_NAME)
        assert header["epoch"] == 7 and records == []
        # appends continue against the rotated file
        wal.append_delete(np.array([1], dtype=np.uint64))
        wal.close()
        _, records, _, _ = read_wal(tmp_path / WAL_NAME)
        assert len(records) == 1


class TestStoreIntegration:
    def test_scalar_put_is_logged_before_the_memtable(self, tmp_path):
        with open_store(
            path=tmp_path / "db", filter=SPEC, store_values=True
        ) as db:
            db.put(42, b"answer")
            _, records, _, _ = read_wal(tmp_path / "db" / WAL_NAME)
            assert records[-1].keys.tolist() == [42]
            assert records[-1].values == [b"answer"]

    def test_wal_sync_always_fsyncs_per_call(self, tmp_path):
        with open_store(
            path=tmp_path / "db", filter=SPEC, wal_sync="always"
        ) as db:
            for i in range(4):
                db.put(i)
            assert db.wal_info()["fsyncs"] == 4

    def test_wal_sync_off_is_persisted_and_checked(self, tmp_path):
        with open_store(
            path=tmp_path / "db", filter=SPEC, wal_sync="off"
        ) as db:
            db.put(1)
        with open_store(path=tmp_path / "db") as db:  # default = persisted
            assert db.wal_info()["sync"] == "off"
        with pytest.raises(ValueError, match="wal_sync"):
            open_store(path=tmp_path / "db", wal_sync="always")

    def test_bad_wal_sync_value_rejected_up_front(self, tmp_path):
        with pytest.raises(ValueError, match="wal_sync"):
            open_store(path=tmp_path / "db", wal_sync="banana")
        with pytest.raises(ValueError, match="wal_group_commit"):
            open_store(path=tmp_path / "db", wal_group_commit=0)

    def test_flush_rotates_every_shard_log(self, tmp_path):
        with open_store(
            path=tmp_path / "db", filter=SPEC, shards=4,
            memtable_capacity=64,
        ) as db:
            db.put_many(np.arange(500, dtype=np.uint64))
            db.flush()
            assert db.wal_info()["records"] == 0
            for shard in db.shards:
                assert shard.wal_info()["records"] == 0

    def test_replay_matches_oracle_after_hard_drop(self, tmp_path):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 1 << 20, 300, dtype=np.uint64)
        db = open_store(
            path=tmp_path / "db", filter=SPEC, memtable_capacity=128,
            store_values=True,
        )
        values = [b"v%d" % int(k) for k in keys]
        db.put_many(keys, values)
        dead = keys[:50]
        db.delete_many(dead)
        oracle = {int(k): b"v%d" % int(k) for k in keys}
        for k in dead:
            oracle.pop(int(k), None)
        del db  # simulated kill: no close, no flush
        with open_store(path=tmp_path / "db") as db2:
            for k in set(keys.tolist()):
                assert db2.get_value(int(k)) == oracle.get(int(k))

    def test_replay_overflowing_memtable_flushes_on_reopen(self, tmp_path):
        db = open_store(
            path=tmp_path / "db", filter=SPEC, memtable_capacity=32
        )
        # land exactly at capacity without tripping the interior flush
        db.put_many(np.arange(31, dtype=np.uint64))
        db.put(31)
        del db
        with open_store(path=tmp_path / "db") as db2:
            assert db2.get_many(np.arange(32, dtype=np.uint64)).all()

    def test_missing_wal_on_reopen_raises(self, tmp_path):
        with open_store(path=tmp_path / "db", filter=SPEC) as db:
            db.put(1)
        os.unlink(tmp_path / "db" / WAL_NAME)
        with pytest.raises(SerialError, match="missing its write-ahead log"):
            open_store(path=tmp_path / "db")

    def test_second_reopen_is_deterministic(self, tmp_path):
        """Replay is idempotent: reopening twice (replay, drop, replay)
        yields identical answers and identical probe accounting."""
        db = open_store(
            path=tmp_path / "db", filter=SPEC, memtable_capacity=64,
            store_values=True,
        )
        db.put_many(
            np.arange(0, 400, 3, dtype=np.uint64),
            [b"x%d" % i for i in range(134)],
        )
        db.delete_many(np.arange(0, 90, 9, dtype=np.uint64))
        del db

        probes = np.arange(0, 420, dtype=np.uint64)
        snapshots = []
        for _ in range(2):
            store = open_store(path=tmp_path / "db")
            answers = store.get_many(probes)
            counters = {  # drop timings + the private lock; counters only
                k: v
                for k, v in vars(store.stats).items()
                if not k.endswith("_s") and not k.startswith("_")
            }
            snapshots.append((answers, counters))
            # drop without close: the second open replays the same log
            del store
        assert (snapshots[0][0] == snapshots[1][0]).all()
        assert snapshots[0][1] == snapshots[1][1]
