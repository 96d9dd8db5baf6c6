"""On-disk persistence for the LSM engines — the store behind ``open_store(path=...)``.

The paper's target deployment is bloomRF as the filter-block policy inside a
persistent LSM key-value store (Sect. 2, Sect. 9's RocksDB integration).
This module makes the reproduction's engines durable: a
:class:`~repro.lsm.db.LsmDB` or :class:`~repro.lsm.sharded.ShardedLsmDB`
whose runs, filter blocks, and configuration live in a directory and survive
process restarts with bit-identical probe answers.

One directory holds the whole store, sharded or not, described by one
manifest — the way one RocksDB MANIFEST describes every column family's
files (all frames are :mod:`repro.serial` ``BRF1`` frames)::

    <path>/
      STORE.brf            # KIND_STORE manifest: geometry, partition,
                           #   domain_bits, log seal, next file id, and
                           #   one entry per shard: spec, run list, and
                           #   log epoch
      WAL-0000.brf         # shard 0's write-ahead log (one per shard,
      WAL-0001.brf         #   repro.lsm.wal): every put/delete is
                           #   appended here *before* the memtable mutates
      sst-000000.sst       # KIND_SSTABLE frame, one per run of any shard:
                           #   keys, tombstones, values, and the run's
                           #   filter block, all under one payload CRC32

:class:`_StoreDir` owns the directory and the manifest; each shard is a
:class:`PersistentLsmDB` that logs to its own file and commits its run
list through the store.  A store of one shard is that shard.

Durability contract
-------------------
* ``put``/``delete`` (one-key calls of the batched ``put_many``/
  ``delete_many``) — the operation is in the write-ahead log (in the
  kernel, via ``os.write``) before the call returns: an **acknowledged
  write survives process death** (``kill -9``)
  in every ``wal_sync`` mode, and survives power loss once fsynced
  (``wal_sync="always"``: every call; ``"batch"``: every
  ``wal_group_commit`` operations; ``"off"``: at flush only).
* ``flush()`` — drains the memtable into a new run *and* makes every run
  durable: each new run's ``.sst`` file is written, then the manifest
  is rewritten whole by one atomic write-temp + ``os.replace`` (the one
  way every manifest update is made, compaction commits included), then
  the shard's log is rotated to a new epoch and unreferenced run files
  are pruned.  A shard's commit writes the other shards' *last committed*
  entries, under one store lock, so no commit or prune ever sees another
  shard's run that is not yet written.  When ``flush()`` returns, a
  reopen reproduces the store exactly.
* ``close()`` (and the context manager) — ``flush()`` + release resources.
* Creation writes every log, then the manifest: a crash before the
  manifest leaves a directory the next open initializes afresh.
* Reopening after a crash replays each shard's log into its memtable:
  a torn record at the log's tail (the expected artifact of dying
  mid-append) is truncated silently, a log left behind by a crash between
  the manifest update and the log rotation (its records already live in
  runs) is discarded silently, and any other damage raises
  :class:`~repro.serial.SerialError` naming the file and offset.

Every reader-side failure — truncated or bit-flipped manifest, a
manifest that is not exactly one frame, a missing manifest field, version
skew, a missing run file or log, a run file holding a frame of the wrong
kind or lacking its filter block, a run whose contents contradict the
manifest — raises :class:`~repro.serial.SerialError` naming the offending
file; a damaged store never silently mis-answers.
Every run reopens one way: its SST frame is mapped and its payload CRC —
which covers the filter block too — checked, keys and tombstones decode
into owned arrays while values stay lazy views over the mapping, and the
filter block decodes into owned words
(:meth:`PersistentLsmDB._load_sstable`).  Filter blocks
are *deserialized* on reopen (never rebuilt from keys), so probe answers
and their
:class:`~repro.lsm.iostats.IOStats` accounting match the never-closed
store bit for bit; deserialization time lands in the
``deserialization_s`` bucket (the Fig. 12.G cost the paper charges for
filter-block loads).

Durability contract (machine-checked by ``repro lint``): raw
``os.replace``/``os.write``/``open(..., "w")`` calls are confined to the
approved helpers (``_atomic_write`` and the WAL append path), so every
durable byte gets the fsync-before-replace ordering the crash suites
verify (``durability-discipline``); in the ``Persistent*`` engine a
memtable mutation must be preceded by a WAL append (``wal-ordering``).
"""

from __future__ import annotations

import inspect
import os
import threading
import time
import zlib
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.api import FilterSpec
from repro.lsm import filter_policy
from repro.lsm.blocks import (
    DEFAULT_CACHE_BYTES,
    BlockCache,
    BlockedPayload,
    SlicedValues,
    compress_payload,
    decompress_payload,
    normalize_compression,
    require_codec,
)
from repro.lsm.compaction import coerce_compaction, compaction_to_dict
from repro.lsm.db import LsmDB
from repro.lsm.filter_policy import SpecPolicy
from repro.lsm.sharded import ShardedLsmDB, _coerce_shard_policies, shard_scheduler
from repro.lsm.sstable import SSTable
from repro.lsm.wal import OP_DELETE, WriteAheadLog, read_wal, wal_name
from repro.parallel import make_partitioner
from repro.serial import (
    FORMAT_VERSION,
    FORMAT_VERSION_BLOCKS,
    KIND_SSTABLE,
    KIND_STORE,
    SerialError,
    map_frame,
    pack_frame,
    unpack_frame,
)

__all__ = [
    "MANIFEST_NAME",
    "PersistentLsmDB",
    "open_persistent_store",
    "read_run_filter",
    "read_store",
    "read_store_manifest",
]

MANIFEST_NAME = "STORE.brf"
_SST_SUFFIX = ".sst"
# Read size for checksumming a run's value blob, whose bytes stay mapped.
_CRC_CHUNK = 1 << 20


# ----------------------------------------------------------------------
# frame helpers
# ----------------------------------------------------------------------
def _atomic_write(path: Path, data: bytes) -> None:
    """Durable write-temp + rename: no crash leaves a half-written frame.

    The temp file is fsynced before the rename and the directory after,
    so the replace is not persisted ahead of the data it points at — the
    ordering the durability contract (crash mid-flush reopens to the last
    durable state) relies on across power loss, not just process death.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_store_manifest(directory: str | Path) -> dict:
    """The manifest header of the store at ``directory``.

    ``STORE.brf`` is exactly one frame: every update rewrites it whole
    (:meth:`_StoreDir.commit`).  Raises :class:`SerialError` naming the
    manifest file when it is missing, truncated, bit-flipped, of a stale
    format version, not a store-manifest frame at all, followed by any
    further bytes (such as a run-delta frame appended by release 1.13 or
    earlier), or written by release 1.20.0 or earlier (whose manifests
    name an engine).
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.is_file():
        raise SerialError(
            f"{directory} holds no store manifest ({MANIFEST_NAME} is missing)"
        )
    try:
        header, payloads = unpack_frame(path.read_bytes(), expect_kind=KIND_STORE)
    except SerialError as exc:
        raise SerialError(f"corrupt store manifest {path}: {exc}") from exc
    if payloads:
        raise SerialError(
            f"corrupt store manifest {path}: carries {len(payloads)} "
            "payloads, expected 0"
        )
    if "engine" in header:
        raise SerialError(
            f"store manifest {path} was written by release 1.20.0 or "
            "earlier, which kept a sharded store in per-shard sub-stores; "
            "this release keeps one manifest per store and cannot open it"
        )
    return header


def _manifest_field(mapping: dict, name: str, where) -> object:
    """A required manifest/run-entry field, or :class:`SerialError`.

    A frame-valid manifest whose JSON header lost a field must still fail
    as a corrupt *store* artifact (naming the file), not as a bare
    :class:`KeyError` leaking out of the reader.
    """
    try:
        return mapping[name]
    except (KeyError, TypeError):
        raise SerialError(
            f"corrupt store manifest {where}: missing field {name!r}"
        ) from None


class _Geometry(NamedTuple):
    """The engine geometry a store manifest persists and a reopen restores
    (the manifest's ``"geometry"`` entry, shared by every shard)."""

    memtable_capacity: int
    value_bytes: int
    block_bytes: int
    store_values: bool
    wal_sync: str
    compaction: Any
    compression: Any

    @classmethod
    def read(cls, manifest: dict, where) -> "_Geometry":
        """A manifest's geometry, or :class:`SerialError` naming the
        missing field."""
        geometry = _manifest_field(manifest, "geometry", where)
        return cls(
            int(_manifest_field(geometry, "memtable_capacity", where)),
            int(_manifest_field(geometry, "value_bytes", where)),
            int(_manifest_field(geometry, "block_bytes", where)),
            bool(_manifest_field(geometry, "store_values", where)),
            str(_manifest_field(geometry, "wal_sync", where)),
            _manifest_field(geometry, "compaction", where),
            _manifest_field(geometry, "compression", where),
        )

    def to_manifest(self) -> dict:
        """The manifest's ``"geometry"`` entry, compaction and compression
        in their normalized (dict) forms."""
        return {
            **self._asdict(),
            "compaction": compaction_to_dict(coerce_compaction(self.compaction)),
            "compression": normalize_compression(self.compression),
        }


def _spec_from_manifest(data, where) -> FilterSpec:
    """A persisted :class:`FilterSpec`, or :class:`SerialError`."""
    try:
        return FilterSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerialError(
            f"corrupt store manifest {where}: bad filter spec ({exc})"
        ) from None


def _pack_sstable(sst: SSTable, compression: dict | None = None) -> bytes:
    """One immutable run as one KIND_SSTABLE frame: keys, tombstones,
    values, and the run's filter block as the last payload — data and
    filter in one file, like a RocksDB block-based table.

    The header carries a CRC32 of every payload: a flipped bit in the
    exact data would change answers, and one in the filter block (or a
    block from another run) would answer false negatives, so both fail
    at open.  With ``compression`` (the store geometry's canonical
    ``{"codec", "block_bytes"}`` dict) each *data* payload is split into
    fixed-size blocks compressed independently (version-2 frame, see
    :mod:`repro.lsm.blocks`): the header adds the codec, block size, and
    per-data-payload raw lengths and block tables, and the CRC32 covers
    the stored bytes.  The filter block stays raw: its bits do not
    compress, and a reopen decodes it whole.
    """
    payloads = [
        np.ascontiguousarray(sst.keys, dtype="<u8").tobytes(),
        np.packbits(sst.tombstones).tobytes(),
    ]
    header = {
        "num_keys": int(sst.keys.size),
        "has_values": sst.values is not None,
    }
    if sst.values is not None:
        lengths = np.array([len(v) for v in sst.values], dtype="<u8")
        payloads.append(lengths.tobytes())
        payloads.append(b"".join(sst.values))
    version = FORMAT_VERSION
    if compression is not None:
        codec, block_bytes = compression["codec"], compression["block_bytes"]
        packed = [compress_payload(p, codec, block_bytes) for p in payloads]
        header["codec"] = codec
        header["block_bytes"] = block_bytes
        header["raw_lens"] = [len(p) for p in payloads]
        header["blocks"] = [table for _, table in packed]
        payloads = [comp for comp, _ in packed]
        version = FORMAT_VERSION_BLOCKS
    payloads.append(sst.filter_block)
    crc = 0
    for payload in payloads:
        crc = zlib.crc32(payload, crc)
    header["crc32"] = crc
    return pack_frame(KIND_SSTABLE, header, *payloads, version=version)


def _filter_index(header: dict, num_payloads: int, name) -> int:
    """A run frame's filter payload: after its 2 data payloads (keys,
    tombstones), or 4 with values (lengths, blob)."""
    index = 4 if header.get("has_values", False) else 2
    if num_payloads == index:
        raise SerialError(
            f"corrupt SST file {name}: no filter block; the run predates "
            "single-file runs (release 1.19.0 or earlier kept it in a "
            "separate file)"
        )
    if num_payloads != index + 1:
        raise SerialError(
            f"corrupt SST file {name}: carries {num_payloads} payloads, "
            f"expected {index + 1}"
        )
    return index


def _pread(fd: int, offset: int, size: int, name: str) -> bytes:
    data = os.pread(fd, size, offset)
    if len(data) != size:
        raise SerialError(
            f"corrupt SST file {name}: truncated: expected {size} bytes at "
            f"offset {offset}, read {len(data)}"
        )
    return data


def _map_sstable(
    path: Path,
    name: str,
    *,
    expected_codec: str | None = None,
    cache: BlockCache | None = None,
    stats=None,
):
    """Reopen one run file into ``(keys, values, tombstones, filter_block)``.

    The frame is mapped (:func:`repro.serial.map_frame`) and its payload
    CRC verified over bytes read with ``os.pread``, so a run altered after
    it was written fails at open, and the pages read for the check never
    count as this process's memory.  Keys, tombstones and the value index
    decode from those reads into owned arrays (:func:`_unpack_sstable`),
    and the filter block comes back as the owned bytes read for the
    check; only the value blob stays a view over the mapping, sliced —
    and, when compressed, decompressed block by block — as lookups touch
    it.
    """
    try:
        frame = map_frame(path, expect_kind=KIND_SSTABLE)
    except SerialError as exc:
        raise SerialError(f"corrupt SST file {name}: {exc}") from exc
    try:
        lazy_blob = 3 if frame.header.get("has_values", False) else None
        payloads: list = []
        crc = 0
        fd = os.open(path, os.O_RDONLY)
        try:
            for index, (offset, size) in enumerate(frame.spans):
                if index == lazy_blob:
                    for start in range(0, size, _CRC_CHUNK):
                        chunk = min(_CRC_CHUNK, size - start)
                        crc = zlib.crc32(
                            _pread(fd, offset + start, chunk, name), crc
                        )
                    payloads.append(frame.payloads[index])
                else:
                    data = _pread(fd, offset, size, name)
                    crc = zlib.crc32(data, crc)
                    payloads.append(data)
        finally:
            os.close(fd)
        if crc != int(frame.header.get("crc32", -1)):
            raise SerialError(
                f"corrupt SST file {name}: payload checksum mismatch (the run "
                "data was altered after it was written)"
            )
        return _unpack_sstable(
            frame.header,
            payloads,
            name,
            expected_codec=expected_codec,
            cache=cache,
            stats=stats,
        )
    finally:
        # The value blob's view (if any) keeps the mapping alive; a run
        # without values unmaps here.
        frame.close()


def _unpack_sstable(
    header: dict,
    payloads: list,
    name: str,
    *,
    expected_codec: str | None,
    cache: BlockCache | None,
    stats,
):
    """Decode a KIND_SSTABLE frame's payloads into
    ``(keys, values, tombstones, filter_block)``.

    Keys and tombstones come back as owned arrays; values as a lazy
    :class:`~repro.lsm.blocks.SlicedValues` over payload 3 (through a
    :class:`~repro.lsm.blocks.BlockedPayload` when compressed); the
    filter block as the last payload's bytes, still serialized.  Every
    internal inconsistency raises :class:`SerialError` naming the
    offending file — a truncated, swapped, or cross-wired run file fails
    loudly instead of reconstructing a different key set.
    """
    has_values = bool(header.get("has_values", False))
    filter_index = _filter_index(header, len(payloads), name)
    codec = header.get("codec")
    if codec != expected_codec:
        raise SerialError(
            f"corrupt SST file {name}: frame compression codec {codec!r} "
            f"does not match the store manifest's {expected_codec!r} (the "
            "run belongs to a differently-configured store)"
        )
    num_keys = int(header.get("num_keys", -1))
    tables = raw_lens = block_bytes = None
    if codec is not None:
        block_bytes = int(header.get("block_bytes", 0))
        raw_lens = header.get("raw_lens")
        tables = header.get("blocks")
        for field in (raw_lens, tables):
            if not isinstance(field, list) or len(field) != filter_index:
                raise SerialError(
                    f"corrupt SST file {name}: truncated block table "
                    f"(expected {filter_index} per-payload entries)"
                )

        def _raw(index: int) -> bytes:
            # Keys, tombstones, and value lengths are needed whole (sorted
            # order, fences, offsets), so they decompress eagerly — with
            # every block CRC-checked; only the value blob stays lazy.
            return decompress_payload(
                payloads[index],
                tables[index],
                int(raw_lens[index]),
                block_bytes,
                codec,
                context=f"corrupt SST file {name}: payload {index}",
            )

        keys_bytes, tomb_bytes = _raw(0), _raw(1)
    else:
        keys_bytes, tomb_bytes = payloads[0], payloads[1]
    keys = np.frombuffer(keys_bytes, dtype="<u8").astype(np.uint64)
    if keys.size != num_keys:
        raise SerialError(
            f"corrupt SST file {name}: holds {keys.size} keys but its "
            f"header records {num_keys}"
        )
    if len(tomb_bytes) != (num_keys + 7) // 8:
        raise SerialError(
            f"corrupt SST file {name}: tombstone bitmap is "
            f"{len(tomb_bytes)} bytes for {num_keys} keys"
        )
    tombstones = np.unpackbits(
        np.frombuffer(tomb_bytes, dtype=np.uint8), count=num_keys
    ).astype(bool)
    values = None
    if has_values:
        if codec is not None:
            lengths = np.frombuffer(_raw(2), dtype="<u8")
            blob_len = int(raw_lens[3])
        else:
            lengths = np.frombuffer(payloads[2], dtype="<u8")
            blob_len = len(payloads[3])
        if lengths.size != num_keys or int(lengths.sum()) != blob_len:
            raise SerialError(
                f"corrupt SST file {name}: value index does not match the "
                "value blob"
            )
        offsets = np.zeros(num_keys + 1, dtype=np.int64)
        np.cumsum(lengths.astype(np.int64), out=offsets[1:])
        blob = payloads[3]
        if codec is not None:
            blob = BlockedPayload(
                blob,
                tables[3],
                blob_len,
                block_bytes,
                codec,
                context=f"corrupt SST file {name}: payload 3",
                cache=cache,
                cache_key=(name, 3),
                stats=stats,
            )
        values = SlicedValues(blob, offsets)
    return keys, values, tombstones, payloads[filter_index]


def read_run_filter(directory: str | Path, name: str):
    """The decoded filter block of run ``name`` in the store ``directory``.

    Only the filter payload of the mapped run file is decoded, unchecked
    by the frame CRC, so ``repro store inspect`` reads filter bytes alone.
    """
    path = Path(directory) / (name + _SST_SUFFIX)
    try:
        frame = map_frame(path, expect_kind=KIND_SSTABLE)
    except SerialError as exc:
        raise SerialError(f"corrupt SST file {path}: {exc}") from exc
    with frame:
        index = _filter_index(frame.header, len(frame.payloads), path)
        try:
            return filter_policy.filter_from_bytes(frame.payloads[index])
        except SerialError as exc:
            raise SerialError(
                f"corrupt filter block in {path}: {exc}"
            ) from exc


class _Log(NamedTuple):
    """A shard's write-ahead log as read against its manifest entry."""

    records: list
    epoch: int
    valid_end: int
    torn: bool
    stale: bool  # an older epoch: its records are already durable in runs


class _StoreDir:
    """The directory behind an on-disk store, and its one manifest.

    Holds what ``STORE.brf`` records store-wide (the geometry, the routing
    knobs, the log seal, the run-file counter) and per shard (its spec and
    its *last committed* entry: run list and log epoch), the block cache
    every shard shares, and :attr:`lock`, under which every commit writes
    its run files, the manifest and the prune (:meth:`commit`).  Building
    one writes nothing: :meth:`create` initializes a fresh directory.
    """

    def __init__(
        self, directory: Path, manifest: dict, block_cache_bytes: int | None
    ) -> None:
        where = directory / MANIFEST_NAME
        shards = _manifest_field(manifest, "shards", where)
        if not isinstance(shards, list) or not shards:
            raise SerialError(f"corrupt store manifest {where}: lists no shards")
        self.directory = directory
        self.geometry = _Geometry.read(manifest, where)
        self.partition = str(_manifest_field(manifest, "partition", where))
        self.domain_bits = int(_manifest_field(manifest, "domain_bits", where))
        self.seal = str(_manifest_field(manifest, "wal_seal", where))
        self.next_file_id = int(_manifest_field(manifest, "next_file_id", where))
        self.specs = [
            _spec_from_manifest(_manifest_field(shard, "spec", where), where)
            for shard in shards
        ]
        self.committed = [
            {
                "runs": [
                    {
                        "file": str(_manifest_field(run, "file", where)),
                        "num_keys": int(_manifest_field(run, "num_keys", where)),
                    }
                    for run in _manifest_field(shard, "runs", where)
                ],
                "wal_epoch": int(_manifest_field(shard, "wal_epoch", where)),
            }
            for shard in shards
        ]
        self.compression = normalize_compression(self.geometry.compression)
        self.block_cache = BlockCache(
            DEFAULT_CACHE_BYTES if block_cache_bytes is None else block_cache_bytes
        )
        self.lock = threading.Lock()

    @classmethod
    def create(
        cls,
        directory: Path,
        specs: list[FilterSpec],
        geometry: _Geometry,
        partition: str,
        domain_bits: int,
        block_cache_bytes: int | None,
    ) -> "_StoreDir":
        """Initialize an empty store: every shard's log first, the manifest
        last.  A crash before the manifest leaves a directory the next open
        initializes afresh; one after it leaves the empty store."""
        if any(directory.glob("sst-*")):
            raise SerialError(
                f"{directory} holds run files but no store manifest "
                f"({MANIFEST_NAME}); refusing to initialize a fresh store "
                "over them — restore the manifest or move the files away"
            )
        store = cls(
            directory,
            {
                "geometry": geometry.to_manifest(),
                "partition": partition,
                "domain_bits": domain_bits,
                "wal_seal": os.urandom(12).hex(),
                "next_file_id": 0,
                "shards": [
                    {"spec": spec.to_dict(), "runs": [], "wal_epoch": 0}
                    for spec in specs
                ],
            },
            block_cache_bytes,
        )
        if store.compression is not None:
            # Fail before writing anything when the codec is absent (zstd
            # without the optional zstandard package).
            require_codec(store.compression["codec"])
        directory.mkdir(parents=True, exist_ok=True)
        for index in range(len(specs)):
            WriteAheadLog.create(
                store.wal_path(index), seal=store.shard_seal(index)
            ).close()
        store._write_manifest(store.committed)
        return store

    # ------------------------------------------------------------------
    # the shards' logs
    # ------------------------------------------------------------------
    def wal_path(self, index: int) -> Path:
        return self.directory / wal_name(index)

    def shard_seal(self, index: int) -> str:
        """Shard ``index``'s log seal: the store's, naming the shard, so a
        log swapped between shards fails like one from another store."""
        return f"{self.seal}.{index:04d}"

    def read_log(self, index: int) -> _Log:
        """Shard ``index``'s log, checked against its committed entry — the
        one epoch rule of reopen (:meth:`PersistentLsmDB._recover_wal`) and
        ``repro store inspect``.

        A log at the entry's epoch holds writes acknowledged after the
        shard's last flush.  A log at an *older* epoch is the crash window
        between the manifest update and the log rotation: its records are
        already durable in runs (``stale``).  A *newer* log means the
        manifest is older than the log (restored or replaced after the
        fact), a seal mismatch a log from another store or shard; both
        raise, as does damage before a torn tail.
        """
        path = self.wal_path(index)
        where = self.directory / MANIFEST_NAME
        if not path.is_file():
            raise SerialError(
                f"store at {self.directory} is missing its write-ahead log "
                f"({path.name}); acknowledged writes may be unrecoverable — "
                "restore the log or accept the loss by recreating the store"
            )
        header, records, valid_end, torn = read_wal(path)
        seal = header.get("seal")
        epoch = header.get("epoch")
        if not isinstance(seal, str) or not isinstance(epoch, int):
            raise SerialError(
                f"corrupt write-ahead log {path}: header is missing its "
                "seal/epoch fields"
            )
        if seal != self.shard_seal(index):
            raise SerialError(
                f"write-ahead log {path} belongs to a different store or "
                f"shard (log seal {seal!r} does not match the manifest's "
                f"{self.shard_seal(index)!r}); the log files were swapped or "
                "restored across stores"
            )
        committed = self.committed[index]["wal_epoch"]
        if epoch > committed:
            raise SerialError(
                f"the store manifest {where} is stale or truncated: it "
                f"records WAL epoch {committed} for {path.name} but the log "
                f"is already at epoch {epoch}"
            )
        return _Log(records, epoch, valid_end, torn, epoch < committed)

    # ------------------------------------------------------------------
    # commits
    # ------------------------------------------------------------------
    def commit(
        self,
        index: int,
        runs: list[SSTable],
        files: dict[SSTable, str],
        wal_epoch: int,
    ) -> dict[SSTable, str]:
        """Make shard ``index``'s run list and log epoch durable; returns
        the run-to-file map of ``runs``.

        Under :attr:`lock`, which a shard takes after its maintenance
        lock: each run without a file in ``files`` gets its ``.sst`` file
        first, then the manifest is rewritten whole by one atomic
        write-temp + ``os.replace`` — from every other shard's *last
        committed* entry, never from its run list in memory, which may
        hold a run not written yet — then the run files no entry names
        are pruned.  A crash at any point reopens to the old or the new
        entry.  An unchanged entry writes nothing.
        """
        with self.lock:
            files = {sst: files.get(sst) or self._write_run(sst) for sst in runs}
            entry = {
                "runs": [
                    {"file": files[sst], "num_keys": sst.num_keys} for sst in runs
                ],
                "wal_epoch": wal_epoch,
            }
            if entry != self.committed[index]:
                committed = list(self.committed)
                committed[index] = entry
                self._write_manifest(committed)
                self.committed = committed
                self._prune_orphans()
            return files

    def _write_run(self, sst: SSTable) -> str:
        name = f"sst-{self.next_file_id:06d}"
        self.next_file_id += 1
        _atomic_write(
            self.directory / (name + _SST_SUFFIX),
            _pack_sstable(sst, self.compression),
        )
        return name

    def _write_manifest(self, committed: list[dict]) -> None:
        manifest = {
            "geometry": self.geometry.to_manifest(),
            "partition": self.partition,
            "domain_bits": self.domain_bits,
            "wal_seal": self.seal,
            "next_file_id": self.next_file_id,
            "shards": [
                {"spec": spec.to_dict(), **entry}
                for spec, entry in zip(self.specs, committed, strict=True)
            ],
        }
        _atomic_write(
            self.directory / MANIFEST_NAME, pack_frame(KIND_STORE, manifest)
        )

    def _prune_orphans(self) -> None:
        # Unlinking is safe under live mmap views: POSIX keeps mapped
        # pages of an unlinked file valid until the last view dies, and
        # sealed runs are never rewritten in place — new data always gets
        # a new file name.
        live = {run["file"] for entry in self.committed for run in entry["runs"]}
        for path in self.directory.glob("sst-*"):
            if path.name.endswith(".tmp"):
                path.unlink(missing_ok=True)
            elif path.suffix == _SST_SUFFIX and path.stem not in live:
                self.block_cache.drop_file(str(path))
                path.unlink(missing_ok=True)


def read_store(directory: str | Path) -> _StoreDir:
    """The parsed manifest of the store at ``directory`` (nothing opened)."""
    directory = Path(directory)
    return _StoreDir(directory, read_store_manifest(directory), None)


# ----------------------------------------------------------------------
# a shard of the store
# ----------------------------------------------------------------------
class PersistentLsmDB(LsmDB):
    """One shard of an on-disk store: a durable :class:`LsmDB`.

    Every write is appended to the shard's own log before the memtable
    mutates, and every change of its run list commits through the store
    (:meth:`_StoreDir.commit`); the shard has no directory or manifest
    of its own.  :func:`open_persistent_store` builds the shards: each
    loads the runs its manifest entry names (filter blocks deserialized,
    never rebuilt) and replays its log.
    """

    def __init__(
        self,
        store: _StoreDir,
        index: int,
        *,
        wal_group_commit: int = 1024,
        compaction_scheduler=None,
    ) -> None:
        geometry = store.geometry
        super().__init__(
            policy=SpecPolicy(store.specs[index]),
            memtable_capacity=geometry.memtable_capacity,
            value_bytes=geometry.value_bytes,
            block_bytes=geometry.block_bytes,
            store_values=geometry.store_values,
            compaction=geometry.compaction,
            compaction_scheduler=compaction_scheduler,
        )
        self.index = index
        self.spec = store.specs[index]
        self._store = store
        self._compression = store.compression
        if self._compression is not None:
            # Fail at open, not at first flush, when the codec is absent.
            require_codec(self._compression["codec"])
        self._run_files: dict[SSTable, str] = {}
        self._compacting = False
        self._wal_epoch = store.committed[index]["wal_epoch"]
        self._wal_sync = geometry.wal_sync
        self._wal_group_commit = wal_group_commit
        self._load_runs()
        self._recover_wal()

    # ------------------------------------------------------------------
    # reopen path
    # ------------------------------------------------------------------
    def _load_runs(self) -> None:
        runs = []
        for entry in self._store.committed[self.index]["runs"]:
            sst = self._load_sstable(entry)
            runs.append(sst)
            self._run_files[sst] = entry["file"]
        # Swapped whole like every run-list update: readers cache their
        # run-set filter against the list's identity.
        with self._maintenance_lock:
            self.sstables = runs

    def _load_sstable(self, entry: dict) -> SSTable:
        directory = self._store.directory
        sst_path = directory / (entry["file"] + _SST_SUFFIX)
        if not sst_path.is_file():
            raise SerialError(
                f"store at {directory} is missing run file {sst_path.name}"
            )
        codec = self._compression["codec"] if self._compression else None
        keys, values, tombstones, filter_block = _map_sstable(
            sst_path,
            str(sst_path),
            expected_codec=codec,
            cache=self._store.block_cache,
            stats=self.stats,
        )
        if keys.size != entry["num_keys"]:
            raise SerialError(
                f"corrupt SST file {sst_path}: holds {keys.size} keys but "
                f"the store manifest records {entry['num_keys']}"
            )
        start = time.perf_counter()
        try:
            # Looked up at call time, so a wrapper installed on the module
            # attribute sees every reopen decode.
            filt = filter_policy.filter_from_bytes(filter_block)
        except SerialError as exc:
            raise SerialError(
                f"corrupt filter block in {sst_path}: {exc}"
            ) from exc
        self.stats.deserialization_s += time.perf_counter() - start
        try:
            return SSTable(
                keys,
                policy=self.policy,
                values=values,
                tombstones=tombstones,
                value_bytes=self.value_bytes,
                block_bytes=self.block_bytes,
                prebuilt_filter=filt,
                prebuilt_block=filter_block,
            )
        except ValueError as exc:
            raise SerialError(f"corrupt SST file {sst_path}: {exc}") from exc

    def _recover_wal(self) -> None:
        """Adopt the shard's log (:meth:`_StoreDir.read_log`).

        A log at the entry's epoch replays into the memtable (then
        flushes if it replays full); a stale one is replaced by an empty
        log at the entry's epoch, its records never resurrected.  A torn
        tail is truncated silently.
        """
        store = self._store
        log = store.read_log(self.index)
        path = store.wal_path(self.index)
        ops = 0
        if log.stale:
            self._wal = WriteAheadLog.create(
                path,
                seal=store.shard_seal(self.index),
                epoch=self._wal_epoch,
                sync=self._wal_sync,
                group_commit=self._wal_group_commit,
            )
        else:
            for record in log.records:
                if record.op == OP_DELETE:
                    self.memtable.delete_many(record.keys)  # repro-lint: ignore[wal-ordering] -- WAL replay: the record being applied IS the log entry
                else:
                    self.memtable.put_many(record.keys, record.values)  # repro-lint: ignore[wal-ordering] -- WAL replay: the record being applied IS the log entry
                ops += int(record.keys.size)
            self._wal = WriteAheadLog.attach(
                path,
                seal=store.shard_seal(self.index),
                epoch=log.epoch,
                valid_end=log.valid_end,
                num_records=len(log.records),
                torn=log.torn,
                sync=self._wal_sync,
                group_commit=self._wal_group_commit,
            )
        self.last_recovery = {
            "replayed_records": 0 if log.stale else len(log.records),
            "replayed_ops": ops,
            "discarded_stale_records": len(log.records) if log.stale else 0,
            "recovered_torn_tail": log.torn,
        }
        if len(self.memtable) >= self.memtable.capacity:
            self.flush()

    # ------------------------------------------------------------------
    # the write path (log first, then the memtable)
    # ------------------------------------------------------------------
    def _buffer(
        self,
        keys: np.ndarray,
        values: list[bytes] | None,
        *,
        delete: bool,
        last: bool,
    ) -> None:
        """Log one chunk of a write, then apply it to the memtable.

        :meth:`LsmDB._write <repro.lsm.db.LsmDB._write>` calls this per
        memtable-sized chunk, so each chunk is logged just before it
        enters the memtable — *not* the whole batch up front, because an
        interior flush rotates (truncates) the log and would drop the
        still-unapplied suffix of an up-front record.  A crash mid-batch
        therefore recovers exactly the chunks that reached the kernel: a
        prefix of the batch, never a gap.  The log is committed (the
        ``wal_sync`` policy applied) once per write call, after its last
        chunk — unless that chunk filled the memtable: the flush that
        follows persists it in a run and rotates the log, so an fsync of
        the log would be wasted.
        """
        if delete:
            self._wal.append_delete(keys)
            self.memtable.delete_many(keys)
        else:
            self._wal.append_put(keys, values)
            self.memtable.put_many(keys, values)
        if last and not self.memtable.is_full:
            self._wal.commit()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def commit_barrier(self) -> None:
        """Block until every acknowledged write is covered by an fsync.

        The ``wal_sync="batch"`` ack contract: :meth:`put` returning only
        means the record reached the kernel (survives ``kill -9``); this
        barrier additionally waits for — or leads — the covering group
        commit, after which the write survives power loss too.  The
        serving layer acks a whole write group behind one barrier call.
        """
        self._wal.commit_barrier()

    def sync(self) -> None:
        """Make the current run set durable (:meth:`_StoreDir.commit`).

        Flushes and compaction commits persist the run set this one way.
        When the run set and log epoch already match the manifest (e.g. a
        read-only open/close cycle) nothing is written at all, so pure
        reads never touch the directory.
        """
        with self._maintenance_lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        # Also drops the file names of runs compaction removed (and the
        # strong references keeping their SSTable objects alive).
        self._run_files = self._store.commit(
            self.index, self.sstables, self._run_files, self._wal_epoch
        )

    def flush(self) -> None:
        """Drain the memtable into a new run and make the store durable.

        The maintenance lock is held across the drain *and* the
        sync/rotate, so a background merge commit can never interleave
        between them (the run files and manifest always describe one
        consistent run set).
        """
        with self._maintenance_lock:
            super().flush()
            if not self._compacting:
                self._sync_and_rotate()

    def _sync_and_rotate(self) -> None:
        """Persist the run set, then truncate the now-redundant log.

        Order matters: runs first (inside :meth:`sync`), then the manifest
        carrying the advanced epoch, then the log reset to that epoch.  A
        crash before the manifest write replays the old log against the
        old manifest; a crash after it finds a log one epoch behind and
        discards it — the records are already in the just-persisted runs.
        """
        with self._maintenance_lock:
            if self._wal.num_records and len(self.memtable) == 0:
                self._wal_epoch += 1
                self._sync_locked()
                self._wal.reset(self._wal_epoch)
            else:
                self._sync_locked()

    def compact(self) -> None:
        """Compact, then persist the merged run and prune the old files.

        The memtable drain inside :meth:`LsmDB.compact` skips its interim
        sync — persisting a run only for the merge to immediately discard
        it would be wasted run serialization and two extra manifest
        fsyncs; compaction's durability point is this method returning.
        """
        with self._maintenance_lock:
            self._compacting = True
            try:
                super().compact()
            finally:
                self._compacting = False
            self._sync_and_rotate()

    def _commit_merge(self) -> None:
        """Make a background merge durable (maintenance lock held).

        The same path as a flush's (:meth:`sync`): merged run files are
        written and fsynced first, then one ``os.replace`` swaps the whole
        manifest — a crash at any point reopens to either the pre- or the
        post-merge run set, never a mix.  The WAL epoch is untouched: the
        memtable did not change, so the live log must keep replaying
        against both outcomes.
        """
        self._sync_locked()

    def bulk_load(self, keys: np.ndarray, num_sstables: int) -> None:
        super().bulk_load(keys, num_sstables)
        self.sync()

    def wal_info(self) -> dict:
        """Write-ahead-log state + last recovery outcome (CLI, STATS)."""
        return {
            **self.last_recovery,
            **self._wal.info(),
            "seal": self._store.shard_seal(self.index),
        }

    def close(self) -> None:
        """Flush (making the store durable) and release resources."""
        self.flush()
        self._wal.close()
        super().close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PersistentLsmDB({str(self._store.directory)!r}, "
            f"shard={self.index}, policy={self.policy.name}, "
            f"sstables={len(self.sstables)}, keys={self.num_keys})"
        )


# ----------------------------------------------------------------------
# the open_store(path=...) entry point
# ----------------------------------------------------------------------
def _open_store_defaults() -> dict:
    """``open_store``'s keyword defaults, read from its signature so the
    reopen conflict check below cannot drift from the facade."""
    from repro.api import open_store

    return {
        name: parameter.default
        for name, parameter in inspect.signature(open_store).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


_CREATE_DEFAULTS = _open_store_defaults()


def _check_reopen_args(store: _StoreDir, args: dict) -> None:
    """Reopening takes the persisted configuration; explicit arguments must
    agree with it.  Arguments still at their :func:`~repro.api.open_store`
    defaults are treated as "unspecified" (the manifest wins); anything
    explicitly different from both the default and the persisted value is
    a configuration conflict and raises :class:`ValueError`.
    """
    directory = store.directory
    geometry = store.geometry
    stored = {
        "shards": len(store.specs),
        "partition": store.partition,
        "domain_bits": store.domain_bits,
        "memtable_capacity": geometry.memtable_capacity,
        "value_bytes": geometry.value_bytes,
        "block_bytes": geometry.block_bytes,
        "store_values": geometry.store_values,
        "wal_sync": geometry.wal_sync,
    }
    for name, stored_value in stored.items():
        passed = args[name]
        if passed != _CREATE_DEFAULTS[name] and passed != stored_value:
            raise ValueError(
                f"store at {directory} was created with {name}="
                f"{stored_value!r}; reopening with {name}={passed!r} "
                "conflicts (leave it at the default to use the persisted "
                "configuration)"
            )
    # The compaction policy compares in normalized (dict) form so every
    # accepted spelling — name string, params dict, policy instance —
    # matches the persisted manifest entry.
    stored_compaction = compaction_to_dict(coerce_compaction(geometry.compaction))
    passed_compaction = compaction_to_dict(coerce_compaction(args["compaction"]))
    default_compaction = compaction_to_dict(
        coerce_compaction(_CREATE_DEFAULTS["compaction"])
    )
    if (
        passed_compaction != default_compaction
        and passed_compaction != stored_compaction
    ):
        raise ValueError(
            f"store at {directory} was created with compaction="
            f"{stored_compaction!r}; reopening with "
            f"{passed_compaction!r} conflicts (leave it at the default "
            "to use the persisted configuration)"
        )
    # Compression compares in normalized dict form for the same reason.
    # (block_cache_bytes is a runtime knob, not persisted state, so it is
    # deliberately not conflict-checked.)
    passed_compression = normalize_compression(args["compression"])
    if passed_compression is not None and passed_compression != store.compression:
        raise ValueError(
            f"store at {directory} was created with compression="
            f"{store.compression!r}; reopening with "
            f"{passed_compression!r} conflicts (leave it at the default "
            "to use the persisted configuration)"
        )
    if args["filter"] is None:
        return
    passed_specs = [
        policy.spec
        for policy in _coerce_shard_policies(args["filter"], len(store.specs))
    ]
    if passed_specs != store.specs:
        raise ValueError(
            f"store at {directory} was created with filter specs "
            f"{store.specs!r}; reopening with {passed_specs!r} conflicts"
        )


def open_persistent_store(
    path: str | Path,
    *,
    filter=None,
    shards: int = 1,
    partition: str = "hash",
    memtable_capacity: int = 1 << 16,
    value_bytes: int = 512,
    block_bytes: int = 4096,
    store_values: bool = False,
    domain_bits: int = 64,
    wal_sync: str = "batch",
    wal_group_commit: int = 1024,
    compaction=None,
    compression=None,
    block_cache_bytes: int | None = None,
):
    """Create or reopen the on-disk store at ``path``.

    The create/reopen path behind ``open_store(path=...)``: a directory
    holding a store manifest is reopened with its persisted configuration
    (explicit arguments must agree — see :func:`_check_reopen_args`);
    otherwise a fresh store is initialized from the arguments.  Either way
    the manifest is read once and one :class:`PersistentLsmDB` is built
    per shard: a one-shard store is that shard, several come back behind
    a :class:`~repro.lsm.sharded.ShardedLsmDB`.
    """
    path = Path(path)
    if (path / MANIFEST_NAME).is_file():
        store = _StoreDir(path, read_store_manifest(path), block_cache_bytes)
        _check_reopen_args(
            store,
            {
                "filter": filter,
                "shards": shards,
                "partition": partition,
                "memtable_capacity": memtable_capacity,
                "value_bytes": value_bytes,
                "block_bytes": block_bytes,
                "store_values": store_values,
                "domain_bits": domain_bits,
                "wal_sync": wal_sync,
                "compaction": compaction,
                "compression": compression,
            },
        )
    else:
        # A routing no reopen could rebuild must fail before anything is
        # written.
        make_partitioner(partition, shards, domain_bits)
        store = _StoreDir.create(
            path,
            [policy.spec for policy in _coerce_shard_policies(filter, shards)],
            _Geometry(
                memtable_capacity,
                value_bytes,
                block_bytes,
                store_values,
                wal_sync,
                compaction,
                compression,
            ),
            partition,
            domain_bits,
            block_cache_bytes,
        )
    num_shards = len(store.specs)
    # One shard owns its scheduler (LsmDB makes it); several share one.
    scheduler = (
        shard_scheduler(coerce_compaction(store.geometry.compaction), num_shards)
        if num_shards > 1
        else None
    )
    engines = [
        PersistentLsmDB(
            store,
            index,
            wal_group_commit=wal_group_commit,
            compaction_scheduler=scheduler,
        )
        for index in range(num_shards)
    ]
    if num_shards == 1:
        return engines[0]
    return ShardedLsmDB.of(engines, store.partition, store.domain_bits)
