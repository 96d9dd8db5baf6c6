"""Corruption robustness of the on-disk store (``repro.lsm.store``).

Every damaged-store scenario must raise :class:`~repro.serial.SerialError`
naming the offending file or kind — a persistent store never silently
mis-answers.  Covered: truncated and bit-flipped manifests, stale format
versions, manifests of releases that nested per-shard sub-stores, missing
run files and logs, run files holding a frame of the wrong kind, bit flips
in a run's data or filter payload, runs from before the filter block moved
into the SST frame, and run contents contradicting the manifest.
"""

import zlib

import numpy as np
import pytest

from repro.api import FilterSpec, open_store
from repro.lsm.store import (
    MANIFEST_NAME,
    read_run_filter,
    read_store_manifest,
)
from repro.lsm.wal import read_wal, wal_name
from repro.serial import KIND_STORE, SerialError, pack_frame

SPEC = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})
# The log of an unsharded store: its one shard's.
WAL_NAME = wal_name(0)


def make_store(path, shards=1):
    with open_store(
        path=path, filter=SPEC, shards=shards, memtable_capacity=128
    ) as db:
        db.put_many(np.arange(0, 2_000, 2, dtype=np.uint64))
    return path


@pytest.fixture()
def store_dir(tmp_path):
    return make_store(tmp_path / "db")


@pytest.fixture()
def sharded_dir(tmp_path):
    return make_store(tmp_path / "sharded", shards=4)


class TestManifestCorruption:
    def test_missing_manifest_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SerialError, match="STORE.brf is missing"):
            read_store_manifest(tmp_path / "empty")

    def test_truncated_manifest_raises(self, store_dir):
        manifest = store_dir / MANIFEST_NAME
        blob = manifest.read_bytes()
        for cut in (3, 11, len(blob) // 2, len(blob) - 1):
            manifest.write_bytes(blob[:cut])
            with pytest.raises(SerialError, match="STORE.brf"):
                open_store(path=store_dir)
            with pytest.raises(SerialError, match="truncated"):
                open_store(path=store_dir)

    def test_bit_flipped_manifest_raises(self, store_dir):
        manifest = store_dir / MANIFEST_NAME
        blob = bytearray(manifest.read_bytes())
        blob[12] ^= 0xFF  # first byte of the JSON header
        manifest.write_bytes(bytes(blob))
        with pytest.raises(SerialError, match="corrupt store manifest"):
            open_store(path=store_dir)

    def test_stale_format_version_raises(self, store_dir):
        manifest = store_dir / MANIFEST_NAME
        blob = manifest.read_bytes()
        manifest.write_bytes(blob[:4] + (99).to_bytes(2, "little") + blob[6:])
        with pytest.raises(SerialError, match="version 99"):
            open_store(path=store_dir)

    def test_wrong_frame_kind_in_manifest_slot_raises(self, store_dir):
        sst = next(store_dir.glob("sst-*.sst"))
        (store_dir / MANIFEST_NAME).write_bytes(sst.read_bytes())
        with pytest.raises(SerialError, match="'sstable'.*'store-manifest'"):
            open_store(path=store_dir)

    @pytest.mark.parametrize("engine", ["lsm", "sharded-lsm", "btree"])
    def test_manifest_of_release_1_20_or_earlier_is_refused(
        self, store_dir, engine
    ):
        """Through release 1.20.0 a manifest named its engine, and a
        sharded store nested one self-contained sub-store per shard.  Such
        a store is refused, naming its manifest, with no upgrade path."""
        header = {
            "engine": engine,
            "spec": SPEC.to_dict(),
            "specs": [SPEC.to_dict()] * 2,
            "num_shards": 2,
            "shards": ["shard-0000", "shard-0001"],
        }
        (store_dir / MANIFEST_NAME).write_bytes(pack_frame(KIND_STORE, header))
        for read in (read_store_manifest, lambda path: open_store(path=path)):
            with pytest.raises(
                SerialError, match=r"STORE\.brf was written by release 1\.20\.0"
            ):
                read(store_dir)

    def test_appended_run_delta_frame_raises(self, store_dir):
        """Releases up to 1.13 appended a run-delta frame on flush; the
        manifest is now exactly one frame, so such a file is refused."""
        manifest = store_dir / MANIFEST_NAME
        header = read_store_manifest(store_dir)
        delta = pack_frame(
            KIND_STORE,
            {
                "delta": 1,
                "new_runs": header["shards"][0]["runs"][:1],
                "next_file_id": header["next_file_id"],
                "wal_epoch": header["shards"][0]["wal_epoch"] + 1,
            },
        )
        manifest.write_bytes(manifest.read_bytes() + delta)
        with pytest.raises(SerialError, match="STORE.brf.*trailing"):
            read_store_manifest(store_dir)
        with pytest.raises(SerialError, match="STORE.brf.*trailing"):
            open_store(path=store_dir)

    def test_trailing_bytes_error_names_the_manifest_kind(self, store_dir):
        """The refusal names the frame's own kind, not "filter"."""
        manifest = store_dir / MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes() + b"\x00" * 5)
        with pytest.raises(
            SerialError,
            match=r"STORE\.brf: trailing garbage after store-manifest frame \(5 bytes\)",
        ):
            read_store_manifest(store_dir)


class TestRunFileCorruption:
    def test_missing_sst_file_raises(self, store_dir):
        victim = next(store_dir.glob("sst-*.sst"))
        victim.unlink()
        with pytest.raises(SerialError, match=f"missing run file {victim.name}"):
            open_store(path=store_dir)

    def test_filter_frame_in_sst_slot_raises(self, store_dir):
        """Cross-wired files: a filter frame where an SST frame belongs."""
        with open_store(path=store_dir) as db:
            blob = db.sstables[0].filter.to_bytes()
        sst = next(store_dir.glob("sst-*.sst"))
        sst.write_bytes(blob)
        with pytest.raises(SerialError, match=f"corrupt SST file .*{sst.name}"):
            open_store(path=store_dir)

    def test_truncated_sst_file_raises(self, store_dir):
        victim = next(store_dir.glob("sst-*.sst"))
        victim.write_bytes(victim.read_bytes()[:-9])
        with pytest.raises(SerialError, match="truncated"):
            open_store(path=store_dir)

    def test_bit_flipped_sst_payload_raises(self, store_dir):
        """SST payloads are exact data: a single flipped bit in the key
        words must fail the checksum, never silently change answers."""
        victim = next(store_dir.glob("sst-*.sst"))
        _flip_byte_in_payload(victim, 0)  # the key words
        with pytest.raises(SerialError, match="checksum mismatch"):
            open_store(path=store_dir)

    def test_bit_flipped_filter_payload_raises(self, store_dir):
        """The filter block is the run frame's last payload, under the
        frame's CRC32: one flipped bit in its words fails at open instead
        of probing false negatives at query time."""
        from repro.serial import unpack_frame

        victim = next(store_dir.glob("sst-*.sst"))
        filter_block = bytes(unpack_frame(victim.read_bytes())[1][-1])
        _flip_byte_in_payload(victim, -1, offset=len(filter_block) - 8)
        with pytest.raises(
            SerialError, match=f"{victim.name}.*payload checksum mismatch"
        ):
            open_store(path=store_dir)

    @pytest.mark.parametrize("fixture", ["store_dir", "compressed_dir"])
    def test_run_without_filter_payload_predates_single_file_runs(
        self, request, fixture
    ):
        """A run frame one payload short (keys, tombstones and, with
        values, lengths and blob — but no filter block) is the layout of
        release 1.19.0 and earlier: refused, naming the file, even with
        a valid CRC."""
        from repro.serial import KIND_SSTABLE, unpack_frame

        root = request.getfixturevalue(fixture)
        victim = next(root.glob("sst-*.sst"))
        data = victim.read_bytes()
        header, payloads = unpack_frame(data)
        old_payloads = [bytes(p) for p in payloads[:-1]]
        header["crc32"] = zlib.crc32(b"".join(old_payloads))
        victim.write_bytes(
            pack_frame(
                KIND_SSTABLE,
                header,
                *old_payloads,
                version=int.from_bytes(data[4:6], "little"),
            )
        )
        with pytest.raises(
            SerialError,
            match=f"{victim.name}.*predates single-file runs.*1\\.19\\.0",
        ):
            open_store(path=root)
        with pytest.raises(SerialError, match="predates single-file runs"):
            read_run_filter(root, victim.stem)

    def test_swapped_sst_files_raise(self, store_dir):
        """A run file from a different run contradicts the manifest."""
        manifest = read_store_manifest(store_dir)
        runs = manifest["shards"][0]["runs"]
        assert len(runs) >= 2, "fixture must produce multiple runs"
        a, b = (
            store_dir / (runs[0]["file"] + ".sst"),
            store_dir / (runs[-1]["file"] + ".sst"),
        )
        # The last flush (close) drains a partial memtable, so the two
        # runs hold different key counts and the swap is detectable.
        blob_a, blob_b = a.read_bytes(), b.read_bytes()
        a.write_bytes(blob_b)
        b.write_bytes(blob_a)
        with pytest.raises(SerialError, match="the store manifest records"):
            open_store(path=store_dir)


class TestWalCorruption:
    def _store_with_unflushed_tail(self, path, n=40):
        """A store whose WAL holds ``n`` unflushed put records (the store
        is dropped without close, as a crash would leave it)."""
        db = open_store(
            path=path, filter=SPEC, memtable_capacity=1024, store_values=True
        )
        for k in range(n):  # one WAL record per op: easy to count/cut
            db.put(k, b"wal-%d" % k)
        del db
        return path

    def test_bit_flipped_wal_record_raises_with_file_and_offset(
        self, tmp_path
    ):
        root = self._store_with_unflushed_tail(tmp_path / "db")
        wal = root / WAL_NAME
        _, records, valid_end, _ = read_wal(wal)
        assert len(records) == 40
        blob = bytearray(wal.read_bytes())
        # Flip one byte in the FIRST record's body — non-tail corruption
        # must be loud, never a silent partial replay.  (A flip in a
        # length prefix can masquerade as a torn tail; a body flip always
        # fails the record checksum.)
        from repro.serial import unpack_frame_prefix

        _, _, header_end = unpack_frame_prefix(bytes(blob))
        blob[header_end + 8 + 2] ^= 0x10
        wal.write_bytes(bytes(blob))
        with pytest.raises(SerialError, match=WAL_NAME) as excinfo:
            open_store(path=root)
        assert "byte offset" in str(excinfo.value)

    def test_truncated_wal_tail_recovers_the_complete_prefix(self, tmp_path):
        root = self._store_with_unflushed_tail(tmp_path / "db")
        wal = root / WAL_NAME
        blob = wal.read_bytes()
        wal.write_bytes(blob[: len(blob) - 5])  # cut inside the last record
        with open_store(path=root) as db:
            assert db.wal_info()["replayed_records"] == 39
            assert db.wal_info()["recovered_torn_tail"]
            answers = db.get_many(np.arange(40, dtype=np.uint64))
            assert answers[:39].all()
            for k in range(39):
                assert db.get_value(k) == b"wal-%d" % k
            # key 39's record was torn before reaching disk: not acked
            assert db.get_value(39) is None

    def test_swapped_wal_files_between_shards_raise(self, tmp_path):
        db = open_store(
            path=tmp_path / "db", filter=SPEC, shards=4, memtable_capacity=256
        )
        db.put_many(np.arange(300, dtype=np.uint64))
        del db  # crash-drop: per-shard WALs keep their unflushed records
        a = tmp_path / "db" / wal_name(0)
        b = tmp_path / "db" / wal_name(1)
        blob_a, blob_b = a.read_bytes(), b.read_bytes()
        a.write_bytes(blob_b)
        b.write_bytes(blob_a)
        with pytest.raises(SerialError, match="belongs to a different store"):
            open_store(path=tmp_path / "db")

    def test_stale_wal_is_discarded_and_resurrects_nothing(self, tmp_path):
        """A WAL restored from before a flush references runs that have
        since absorbed (and then tombstoned) its records.  Its epoch is
        behind the manifest's, so replaying it would resurrect deleted
        keys — it must be discarded silently instead."""
        root = tmp_path / "db"
        db = open_store(
            path=root, filter=SPEC, memtable_capacity=1024, store_values=True
        )
        keys = np.arange(50, dtype=np.uint64)
        db.put_many(keys, [b"old-%d" % k for k in range(50)])
        stale = (root / WAL_NAME).read_bytes()  # epoch 0, holds the puts
        db.flush()  # records move into a run; WAL rotates to epoch 1
        db.delete_many(keys[:25])
        db.flush()  # tombstones flushed; epoch 2
        db.close()
        (root / WAL_NAME).write_bytes(stale)  # simulated bad restore
        with open_store(path=root) as db2:
            info = db2.wal_info()
            # the single put_many batch is one (discarded) log record
            assert info["discarded_stale_records"] == 1
            assert info["replayed_records"] == 0
            answers = db2.get_many(keys)
            assert not answers[:25].any(), "stale WAL resurrected deletes"
            assert answers[25:].all()
            for k in range(25, 50):
                assert db2.get_value(int(k)) == b"old-%d" % k


    def test_stale_wal_is_discarded_per_shard(self, tmp_path):
        """Each shard reads its own log against its own manifest entry:
        a stale log restored under shard 0 is discarded while shard 1's
        live log replays."""
        root = tmp_path / "db"
        db = open_store(path=root, filter=SPEC, shards=2, memtable_capacity=1024)
        keys = np.arange(100, dtype=np.uint64)
        db.put_many(keys)
        stale = (root / wal_name(0)).read_bytes()  # epoch 0, holds its puts
        db.flush()  # both shards: records into runs, logs at epoch 1
        db.delete_many(keys[:50])
        db.flush()  # tombstones into runs, epoch 2
        db.put_many(keys + np.uint64(1000))  # acked, only in the logs
        del db
        (root / wal_name(0)).write_bytes(stale)  # simulated bad restore
        with open_store(path=root) as back:
            zero, one = (shard.wal_info() for shard in back.shards)
            assert zero["discarded_stale_records"] == 1
            assert zero["replayed_records"] == 0
            assert one["discarded_stale_records"] == 0
            assert one["replayed_records"] == 1
            answers = back.get_many(keys)
            assert not answers[:50].any(), "stale WAL resurrected deletes"
            assert answers[50:].all()
            # Shard 0's unflushed puts went with its log; shard 1's replay.
            owner = back.shard_of_many(keys + np.uint64(1000))
            assert (owner == 0).any() and (owner == 1).any()
            fresh = back.get_many(keys + np.uint64(1000))
            assert fresh[owner == 1].all()
            assert not fresh[owner == 0].any()


class TestShardCorruption:
    def test_corrupt_shard_run_raises(self, sharded_dir):
        victim = next(sharded_dir.glob("sst-*.sst"))
        victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
        with pytest.raises(SerialError, match="bad magic"):
            open_store(path=sharded_dir)


class TestCreateSafety:
    def test_lost_manifest_never_destroys_run_files(self, store_dir):
        """A directory holding runs but no manifest must refuse to
        initialize (silently re-creating would prune — delete — the
        orphaned runs)."""
        (store_dir / MANIFEST_NAME).unlink()
        run_files = sorted(p.name for p in store_dir.glob("sst-*"))
        assert run_files
        with pytest.raises(SerialError, match="refusing to initialize"):
            open_store(path=store_dir)
        assert sorted(p.name for p in store_dir.glob("sst-*")) == run_files

    def test_lost_top_manifest_of_sharded_store_refuses_init(
        self, sharded_dir
    ):
        """Re-creating over a sharded store's leftover runs could silently
        change the routing config over the old data — refuse instead."""
        (sharded_dir / MANIFEST_NAME).unlink()
        with pytest.raises(SerialError, match="refusing to initialize"):
            open_store(path=sharded_dir, filter=SPEC, shards=4)

    def test_manifest_missing_field_raises_serial_error(self, store_dir):
        """A frame-valid manifest that lost a header field is a corrupt
        store artifact, not a bare KeyError."""
        import json

        from repro.serial import pack_frame

        header = read_store_manifest(store_dir)
        header = json.loads(json.dumps(header))
        del header["shards"][0]["spec"]
        (store_dir / MANIFEST_NAME).write_bytes(
            pack_frame(KIND_STORE, header)
        )
        with pytest.raises(SerialError, match="missing field 'spec'"):
            open_store(path=store_dir)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_manifest_missing_geometry_field_raises_serial_error(
        self, tmp_path, shards
    ):
        """Every store reads the geometry through one reader, which names
        the lost field."""
        import json

        path = make_store(tmp_path / "db", shards=shards)
        header = json.loads(json.dumps(read_store_manifest(path)))
        del header["geometry"]["block_bytes"]
        (path / MANIFEST_NAME).write_bytes(pack_frame(KIND_STORE, header))
        with pytest.raises(SerialError, match="missing field 'block_bytes'"):
            open_store(path=path)


    def test_spec_conflict_on_reopen_raises(self, store_dir):
        other = FilterSpec("bloom", {"bits_per_key": 10})
        with pytest.raises(ValueError, match="conflicts"):
            open_store(path=store_dir, filter=other)

    def test_shard_count_conflict_on_reopen_raises(self, sharded_dir):
        with pytest.raises(ValueError, match="shards"):
            open_store(path=sharded_dir, shards=2)

    def test_geometry_conflict_on_reopen_raises(self, store_dir):
        with pytest.raises(ValueError, match="memtable_capacity"):
            open_store(path=store_dir, memtable_capacity=4096)

    def test_matching_args_on_reopen_are_accepted(self, sharded_dir):
        with open_store(
            path=sharded_dir, filter=SPEC, shards=4, memtable_capacity=128
        ) as db:
            assert db.num_shards == 4

    def test_non_spec_policy_is_rejected(self, tmp_path):
        class OpaquePolicy:
            name = "opaque"

        with pytest.raises(TypeError, match="policy must be a SpecPolicy"):
            open_store(path=tmp_path / "db", filter=OpaquePolicy())
        assert not (tmp_path / "db").exists()

    def test_cli_init_refuses_existing_store(self, store_dir, capsys):
        from repro.cli import main

        assert main(["store", "init", str(store_dir)]) == 2
        assert "refusing" in capsys.readouterr().out


def make_compressed_store(path):
    """A zlib-compressed store with values (small blocks -> several per run)."""
    keys = np.arange(0, 2_000, 2, dtype=np.uint64)
    with open_store(
        path=path,
        filter=SPEC,
        memtable_capacity=128,
        store_values=True,
        compression={"codec": "zlib", "block_bytes": 512},
    ) as db:
        db.put_many(keys, [b"value-%06d" % int(k) * 4 for k in keys])
    return path


@pytest.fixture()
def compressed_dir(tmp_path):
    return make_compressed_store(tmp_path / "zdb")


def _flip_byte_in_payload(sst_path, payload_index, offset=3):
    """Flip one byte inside the given payload of an SST frame on disk.

    The byte is rewritten in place (same file, no truncation), so an open
    store's read-only mapping of the run sees the flip too.
    """
    from repro.serial import unpack_frame

    data = sst_path.read_bytes()
    target = bytes(unpack_frame(data)[1][payload_index])
    position = data.rindex(target) + offset
    with open(sst_path, "r+b") as fh:
        fh.seek(position)
        fh.write(bytes([data[position] ^ 0x20]))


class TestCompressedFrameCorruption:
    """Version-2 (block-compressed) frames: damage must raise
    :class:`SerialError` naming the file and byte offset — wrong data is
    never returned, whether the payload decodes at open or lazily."""

    def test_bit_flipped_compressed_key_block_raises_on_open(
        self, compressed_dir
    ):
        victim = next(compressed_dir.glob("sst-*.sst"))
        _flip_byte_in_payload(victim, 0)  # keys decode eagerly at open
        # Reopen checks the whole-frame payload checksum before decoding.
        with pytest.raises(
            SerialError, match=f"{victim.name}.*payload checksum mismatch"
        ):
            open_store(path=compressed_dir)

    def test_bit_flipped_value_block_raises_on_access_not_wrong_data(
        self, compressed_dir
    ):
        """The value blob decompresses lazily: a flip that lands after
        open (past the whole-frame checksum) is seen through the run's
        mapping and must fail loudly on the first lookup that touches the
        block, never return wrong bytes."""
        victim = next(compressed_dir.glob("sst-*.sst"))
        db = open_store(path=compressed_dir)
        _flip_byte_in_payload(victim, 3)  # the value blob payload
        with pytest.raises(
            SerialError,
            match=f"{victim.name}.*block \\d+ checksum mismatch.*offset",
        ):
            for k in range(0, 2_000, 2):
                db.get_value(k)
        db.close()

    def test_truncated_block_table_raises(self, compressed_dir):
        from repro.serial import (
            FORMAT_VERSION_BLOCKS,
            KIND_SSTABLE,
            pack_frame,
            unpack_frame,
        )

        victim = next(compressed_dir.glob("sst-*.sst"))
        header, payloads = unpack_frame(victim.read_bytes())
        assert len(header["blocks"][3]) > 1, "fixture needs multi-block values"
        header["blocks"][3] = header["blocks"][3][:-1]
        victim.write_bytes(
            pack_frame(
                KIND_SSTABLE, header, *payloads,
                version=FORMAT_VERSION_BLOCKS,
            )
        )
        with pytest.raises(
            SerialError, match=f"{victim.name}.*truncated block table"
        ):
            open_store(path=compressed_dir)

    def test_codec_mismatch_vs_manifest_raises(self, compressed_dir):
        import json

        header = read_store_manifest(compressed_dir)
        header = json.loads(json.dumps(header))
        header["geometry"]["compression"] = None
        (compressed_dir / MANIFEST_NAME).write_bytes(
            pack_frame(KIND_STORE, header)
        )
        with pytest.raises(
            SerialError,
            match="codec 'zlib' does not match the store manifest",
        ):
            open_store(path=compressed_dir)

    def test_mmap_of_file_shorter_than_header_claims_raises(self, store_dir):
        victim = next(store_dir.glob("sst-*.sst"))
        victim.write_bytes(victim.read_bytes()[:-9])
        with pytest.raises(
            SerialError, match=f"{victim.name}.*truncated.*offset"
        ):
            open_store(path=store_dir)

    def test_mmap_of_empty_file_raises(self, store_dir):
        victim = next(store_dir.glob("sst-*.sst"))
        victim.write_bytes(b"")
        with pytest.raises(
            SerialError, match=f"{victim.name}.*truncated"
        ):
            open_store(path=store_dir)

    def test_mmap_trailing_garbage_raises(self, store_dir):
        victim = next(store_dir.glob("sst-*.sst"))
        victim.write_bytes(victim.read_bytes() + b"\x00" * 16)
        with pytest.raises(
            SerialError, match=f"{victim.name}.*trailing"
        ):
            open_store(path=store_dir)

    def test_zstd_store_without_the_extra_fails_loudly(
        self, tmp_path, monkeypatch
    ):
        """A manifest recorded with zstd must never silently fall back to
        zlib when the optional package is missing."""
        import repro.lsm.blocks as blocks_mod

        if blocks_mod._zstd_module() is not None:
            monkeypatch.setattr(blocks_mod, "_zstd_module", lambda: None)
        with pytest.raises(ValueError, match="zstandard"):
            open_store(
                path=tmp_path / "db", filter=SPEC, compression="zstd"
            )
