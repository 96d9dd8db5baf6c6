"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scientific_notation(self):
        args = build_parser().parse_args(
            ["tune", "--keys", "1e6", "--bits-per-key", "14", "--max-range", "1e9"]
        )
        assert args.keys == 1_000_000
        assert args.max_range == 10**9


class TestCommands:
    def test_tune(self, capsys):
        assert main(
            ["tune", "--keys", "100000", "--bits-per-key", "16",
             "--max-range", "1e6"]
        ) == 0
        out = capsys.readouterr().out
        assert "BloomRFConfig" in out
        assert "estimated point FPR" in out

    def test_model(self, capsys):
        assert main(
            ["model", "--keys", "50000", "--bits-per-key", "14",
             "--max-range", "1e4", "--domain-bits", "32"]
        ) == 0
        out = capsys.readouterr().out
        assert "level 32" in out and "level  0" in out

    def test_measure_range(self, capsys):
        assert main(
            ["measure", "--keys", "20000", "--bits-per-key", "16",
             "--range-size", "1e4", "--queries", "300", "--filter", "bloomrf"]
        ) == 0
        out = capsys.readouterr().out
        assert "FPR over 300 empty queries" in out

    def test_measure_point(self, capsys):
        assert main(
            ["measure", "--keys", "20000", "--range-size", "1",
             "--queries", "200", "--filter", "bloom"]
        ) == 0
        assert "point FPR" in capsys.readouterr().out

    def test_build_and_inspect(self, tmp_path, capsys):
        keyfile = tmp_path / "keys.txt"
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 1 << 64, 500, dtype=np.uint64)
        keyfile.write_text("\n".join(str(int(k)) for k in keys))
        output = tmp_path / "filter.bin"
        assert main(["build", str(keyfile), str(output),
                     "--bits-per-key", "14"]) == 0
        assert output.exists()
        assert main(["inspect", str(output)]) == 0
        out = capsys.readouterr().out
        assert "keys inserted: 500" in out

    def test_inspect_refuses_retired_sharded_frame(self, tmp_path, capsys):
        from repro import serial

        blob = serial.pack_frame(serial.KIND_NONE, {"num_keys": 0})
        output = tmp_path / "sharded.brf"
        output.write_bytes(
            blob[:6] + serial.KIND_SHARDED_BLOOMRF.to_bytes(2, "little") + blob[8:]
        )
        assert main(["inspect", str(output)]) == 2
        out = capsys.readouterr().out
        assert f"cannot inspect {output}" in out
        assert "'sharded-bloomrf') is retired" in out

    def test_build_and_inspect_bloom(self, tmp_path, capsys):
        keyfile = tmp_path / "keys.txt"
        keyfile.write_text("\n".join(str(k) for k in range(700)))
        output = tmp_path / "bloom.brf"
        assert main(
            ["build", str(keyfile), str(output), "--filter", "bloom"]
        ) == 0
        assert main(["inspect", str(output)]) == 0
        out = capsys.readouterr().out
        assert "kind: bloom" in out
        assert "keys inserted: 700" in out

    def test_build_surf_empty_keyfile_fails_cleanly(self, tmp_path, capsys):
        keyfile = tmp_path / "empty.txt"
        keyfile.write_text("")
        assert main(
            ["build", str(keyfile), str(tmp_path / "s.brf"), "--filter", "surf"]
        ) == 2
        assert "cannot serialize" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--shards", "--partition"])
    def test_build_has_no_shard_options(self, tmp_path, option, capsys):
        # Filters are built one per run; the store is what shards.
        with pytest.raises(SystemExit) as exit_info:
            main(["build", "keys.txt", str(tmp_path / "f.brf"), option, "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 64)
        assert main(["inspect", str(bad)]) == 2
        assert "bad magic" in capsys.readouterr().out

    def test_measure_all_filters(self, capsys):
        for name in ("rosetta", "surf", "cuckoo"):
            assert main(
                ["measure", "--keys", "5000", "--range-size",
                 "64" if name == "rosetta" else "1",
                 "--queries", "100", "--filter", name]
            ) == 0


class TestStoreCommands:
    def test_init_ingest_query_inspect_round_trip(self, tmp_path, capsys):
        store = tmp_path / "db"
        keyfile = tmp_path / "keys.txt"
        keyfile.write_text("\n".join(str(k) for k in range(0, 3_000, 3)))
        assert main(
            ["store", "init", str(store), "--filter", "bloomrf",
             "--shards", "2", "--partition", "hash",
             "--memtable-capacity", "256"]
        ) == 0
        assert "initialized" in capsys.readouterr().out
        assert main(["store", "ingest", str(store), str(keyfile)]) == 0
        assert "ingested 1000 keys" in capsys.readouterr().out
        assert main(
            ["store", "query", str(store), "--point", "9", "10",
             "--range", "1000", "1001"]
        ) == 0
        out = capsys.readouterr().out
        assert "point 9: present" in out
        assert "point 10: absent" in out
        assert "range [1000, 1001]: empty" in out
        assert "filter probes:" in out
        assert main(["store", "inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "engine: sharded-lsm" in out
        assert "shards: 2 (hash partition)" in out
        assert "keys: 1000" in out

    def test_init_unsharded_and_query_nonempty_range(self, tmp_path, capsys):
        store = tmp_path / "flat"
        keyfile = tmp_path / "keys.txt"
        keyfile.write_text("5\n6\n7\n")
        assert main(["store", "init", str(store), "--filter", "bloom"]) == 0
        assert main(["store", "ingest", str(store), str(keyfile)]) == 0
        assert main(
            ["store", "query", str(store), "--range", "0", "100"]
        ) == 0
        assert "non-empty" in capsys.readouterr().out
        assert main(["store", "inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "engine: lsm" in out
        assert "FilterSpec('bloom'" in out

    def test_init_compressed_store_round_trip(self, tmp_path, capsys):
        store = tmp_path / "zdb"
        keyfile = tmp_path / "keys.txt"
        keyfile.write_text("\n".join(str(k) for k in range(0, 2_000, 2)))
        assert main(
            ["store", "init", str(store), "--compression", "zlib",
             "--block-bytes", "4096", "--memtable-capacity", "256"]
        ) == 0
        assert "zlib-compressed" in capsys.readouterr().out
        assert main(["store", "ingest", str(store), str(keyfile)]) == 0
        capsys.readouterr()
        assert main(
            ["store", "query", str(store), "--point", "4", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "point 4: present" in out
        assert "point 5: absent" in out
        assert main(["store", "inspect", str(store)]) == 0
        assert "compression: zlib (block_bytes=4096)" in capsys.readouterr().out

    def test_store_inspect_reads_only_filters(
        self, tmp_path, capsys, monkeypatch
    ):
        """``store inspect`` takes each run's filter block from its run
        file without decoding the run: with run decoding disabled it
        still reports the open store's filter bits."""
        import repro.lsm.store as store_mod
        from repro.api import open_store, standard_spec

        store = tmp_path / "zdb"
        keys = np.arange(0, 6_000, 3, dtype=np.uint64)
        with open_store(
            path=store,
            filter=standard_spec("bloomrf", bits_per_key=14, max_range=1 << 10),
            shards=2,
            memtable_capacity=256,
            store_values=True,
            compression="zlib",
        ) as db:
            db.put_many(keys, [b"v%d" % k for k in keys.tolist()])
            db.flush()
            filter_bits = db.filter_bits
            assert db.num_sstables > 2 and filter_bits > 0

        def no_run_decode(*args, **kw):
            raise AssertionError("store inspect decoded a run")

        monkeypatch.setattr(store_mod, "_unpack_sstable", no_run_decode)
        monkeypatch.setattr(store_mod, "_map_sstable", no_run_decode)
        assert main(["store", "inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "compression: zlib" in out
        assert f"keys: {keys.size}, filter bits: {filter_bits} (" in out

    def test_init_block_bytes_requires_compression(self, tmp_path, capsys):
        assert main(
            ["store", "init", str(tmp_path / "db"), "--block-bytes", "1024"]
        ) == 2
        assert "requires --compression" in capsys.readouterr().out

    def test_init_zstd_without_extra_fails_cleanly(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.lsm.blocks as blocks_mod

        monkeypatch.setattr(blocks_mod, "_zstd_module", lambda: None)
        assert main(
            ["store", "init", str(tmp_path / "db"), "--compression", "zstd"]
        ) == 2
        assert "zstandard" in capsys.readouterr().out

    def test_init_twice_fails(self, tmp_path, capsys):
        store = tmp_path / "db"
        assert main(["store", "init", str(store)]) == 0
        capsys.readouterr()
        assert main(["store", "init", str(store)]) == 2
        assert "refusing" in capsys.readouterr().out

    def test_query_without_predicates_fails(self, tmp_path, capsys):
        store = tmp_path / "db"
        assert main(["store", "init", str(store)]) == 0
        assert main(["store", "query", str(store)]) == 2
        assert "nothing to query" in capsys.readouterr().out

    def test_store_commands_surface_serial_errors(self, tmp_path, capsys):
        store = tmp_path / "db"
        assert main(["store", "init", str(store)]) == 0
        manifest = store / "STORE.brf"
        manifest.write_bytes(manifest.read_bytes()[:8])
        for argv in (
            ["store", "inspect", str(store)],
            ["store", "query", str(store), "--point", "1"],
        ):
            capsys.readouterr()
            assert main(argv) == 2
            assert "truncated" in capsys.readouterr().out

    def test_query_keys_parse_exactly_above_2_53(self, tmp_path, capsys):
        """Keys are exact uint64s: the float round-trip of _int_ish would
        silently shift 2**53+1 onto its neighbour."""
        big = (1 << 53) + 1
        store = tmp_path / "db"
        keyfile = tmp_path / "keys.txt"
        keyfile.write_text(f"{big}\n")
        assert main(["store", "init", str(store)]) == 0
        assert main(["store", "ingest", str(store), str(keyfile)]) == 0
        capsys.readouterr()
        assert main(
            ["store", "query", str(store), "--point", str(big), str(big - 1)]
        ) == 0
        out = capsys.readouterr().out
        assert f"point {big}: present" in out
        assert f"point {big - 1}: absent" in out
        # The uint64 domain edge answers cleanly too (no traceback).
        assert main(
            ["store", "query", str(store), "--point", str((1 << 64) - 1)]
        ) == 0
        assert "absent" in capsys.readouterr().out

    def test_query_beyond_uint64_fails_cleanly(self, tmp_path, capsys):
        store = tmp_path / "db"
        assert main(["store", "init", str(store)]) == 0
        capsys.readouterr()
        assert main(["store", "query", str(store), "--point", str(1 << 64)]) == 2
        assert "bad query" in capsys.readouterr().out

    def test_store_ingest_empty_keyfile_is_a_noop(self, tmp_path, capsys):
        store = tmp_path / "db"
        keyfile = tmp_path / "empty.txt"
        keyfile.write_text("")
        assert main(["store", "init", str(store), "--shards", "2"]) == 0
        capsys.readouterr()
        assert main(["store", "ingest", str(store), str(keyfile)]) == 0
        assert "ingested 0 keys" in capsys.readouterr().out

    def test_store_ingest_missing_store_fails(self, tmp_path, capsys):
        keyfile = tmp_path / "keys.txt"
        keyfile.write_text("1\n")
        # An uninitialized path would silently create a store; ingest
        # requires an existing one.
        assert main(
            ["store", "ingest", str(tmp_path / "nope" / "db"), str(keyfile)]
        ) == 2

    def test_store_inspect_reports_wal_state(self, tmp_path, capsys):
        store = tmp_path / "db"
        assert main(
            ["store", "init", str(store), "--wal-sync", "always"]
        ) == 0
        capsys.readouterr()
        assert main(["store", "inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "wal: sync=always" in out
        assert "pending records: 0" in out

    def test_store_recover_replays_and_flushes_the_log(self, tmp_path, capsys):
        import numpy as np

        from repro.api import open_store

        store = tmp_path / "db"
        assert main(["store", "init", str(store)]) == 0
        db = open_store(path=store)
        db.put_many(np.arange(200, dtype=np.uint64))
        del db  # crash-drop: the writes live only in the WAL
        capsys.readouterr()
        assert main(["store", "recover", str(store)]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 log records / 200 ops" in out
        assert "200 keys live" in out
        assert "write-ahead log empty" in out
        # recovery persisted the replayed writes into runs
        with open_store(path=store) as db2:
            assert db2.wal_info()["replayed_records"] == 0
            assert db2.get_many(np.arange(200, dtype=np.uint64)).all()

    def test_store_recover_missing_store_fails(self, tmp_path, capsys):
        assert main(["store", "recover", str(tmp_path / "nope")]) == 2
        assert "no store" in capsys.readouterr().out

    def test_store_recover_surfaces_corruption(self, tmp_path, capsys):
        from repro.lsm.wal import wal_name

        store = tmp_path / "db"
        assert main(["store", "init", str(store)]) == 0
        (store / wal_name(0)).write_bytes(b"garbage not a log")
        capsys.readouterr()
        assert main(["store", "recover", str(store)]) == 2
        assert "cannot recover store" in capsys.readouterr().out


class TestStoreCompactionCli:
    """`store compact`, `store init --compaction`, and the per-level
    inspect output (incl. pre-compaction manifest compatibility)."""

    def _ingest_runs(self, tmp_path, store, n_keys=256, extra=()):
        keyfile = tmp_path / "keys.txt"
        keyfile.write_text("\n".join(str(k) for k in range(n_keys)))
        assert main(
            ["store", "init", str(store), "--memtable-capacity", "64", *extra]
        ) == 0
        assert main(["store", "ingest", str(store), str(keyfile)]) == 0

    def test_compact_full_merges_to_one_run(self, tmp_path, capsys):
        store = tmp_path / "db"
        self._ingest_runs(tmp_path, store)
        capsys.readouterr()
        assert main(["store", "compact", str(store)]) == 0
        out = capsys.readouterr().out
        assert "-> 1 runs" in out
        assert main(
            ["store", "query", str(store), "--point", "7", "999"]
        ) == 0
        out = capsys.readouterr().out
        assert "point 7: present" in out and "point 999: absent" in out

    def test_one_shot_policy_pass_leaves_stored_policy_manual(
        self, tmp_path, capsys
    ):
        from repro.lsm.store import read_store_manifest

        store = tmp_path / "db"
        # 256 sequential keys / capacity 64 -> four uniform runs: exactly
        # a default size-tiered window (min_runs=4, equal sizes).
        self._ingest_runs(tmp_path, store)
        capsys.readouterr()
        assert main(
            ["store", "compact", str(store), "--policy", "size-tiered"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 merge(s)" in out and "-> 1 runs" in out
        # The pass was one-shot: the merge commit rewrote the manifest,
        # and it must still carry the *stored* (manual) policy.
        manifest = read_store_manifest(store)
        assert manifest["geometry"]["compaction"] == {
            "policy": "manual", "params": {},
        }
        assert main(["store", "inspect", str(store)]) == 0
        assert "compaction: manual" in capsys.readouterr().out

    def test_stored_policy_pass_on_manual_store_hints(self, tmp_path, capsys):
        store = tmp_path / "db"
        self._ingest_runs(tmp_path, store)
        capsys.readouterr()
        assert main(
            ["store", "compact", str(store), "--policy", "stored"]
        ) == 0
        assert "stored policy is manual" in capsys.readouterr().out

    def test_init_with_background_policy_and_inspect_levels(
        self, tmp_path, capsys
    ):
        store = tmp_path / "db"
        self._ingest_runs(
            tmp_path, store, extra=["--compaction", "size-tiered"]
        )
        capsys.readouterr()
        assert main(["store", "inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "compaction: size-tiered" in out
        assert "min_runs=4" in out
        assert "level " in out
        assert "scheduler: 1 worker(s)" in out
        # stored-policy pass over the reopened store drains any leftover
        # eligible window without changing the persisted policy
        assert main(
            ["store", "compact", str(store), "--policy", "stored"]
        ) == 0
        assert main(["store", "inspect", str(store)]) == 0
        assert "compaction: size-tiered" in capsys.readouterr().out

    def test_compact_missing_store_fails(self, tmp_path, capsys):
        assert main(["store", "compact", str(tmp_path / "nope")]) == 2
        assert "no store" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "shards,section,field",
        [(1, "geometry", "compaction"), (2, None, "shards"),
         (2, "geometry", "store_values")],
    )
    def test_inspect_handles_pre_compaction_manifest(
        self, tmp_path, capsys, shards, section, field
    ):
        """Manifests written before the compaction subsystem lack the
        geometry's compaction field.  The store reads one manifest format
        only, so inspect and compact refuse a manifest missing that or any
        other field, naming the manifest file and the field."""
        from repro.serial import KIND_STORE, pack_frame, unpack_frame

        store = tmp_path / "db"
        assert main(["store", "init", str(store), "--shards", str(shards)]) == 0
        manifest = store / "STORE.brf"
        header, _ = unpack_frame(manifest.read_bytes(), expect_kind=KIND_STORE)
        (header if section is None else header[section]).pop(field)
        manifest.write_bytes(pack_frame(KIND_STORE, header))
        for command in ("inspect", "compact"):
            capsys.readouterr()
            assert main(["store", command, str(store)]) == 2
            out = capsys.readouterr().out
            assert str(manifest) in out
            assert f"missing field {field!r}" in out
