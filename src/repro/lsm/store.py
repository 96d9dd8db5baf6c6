"""On-disk persistence for the LSM engines — the store behind ``open_store(path=...)``.

The paper's target deployment is bloomRF as the filter-block policy inside a
persistent LSM key-value store (Sect. 2, Sect. 9's RocksDB integration).
This module makes the reproduction's engines durable: a
:class:`~repro.lsm.db.LsmDB` or :class:`~repro.lsm.sharded.ShardedLsmDB`
whose runs, filter blocks, and configuration live in a directory and survive
process restarts with bit-identical probe answers.

On-disk layout (all frames are :mod:`repro.serial` ``BRF1`` frames)::

    <path>/
      STORE.brf            # KIND_STORE manifest: engine, spec(s), geometry,
                           #   run list (unsharded) or shard list (sharded)
      sst-000000.sst       # KIND_SSTABLE frame, one per run: keys,
                           #   tombstones, values, and the run's filter
                           #   block, all under one payload CRC32
      shard-0000/          # sharded engine: one self-contained sub-store
        STORE.brf          #   per shard, laid out exactly like the above
        sst-000000.sst

On-disk layout, continued: each store directory (and each shard
directory) also holds a ``WAL.brf`` write-ahead log (:mod:`repro.lsm.wal`)
— every ``put``/``delete`` is appended there *before* the memtable
mutates.

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
  the write-ahead log is rotated to a new epoch and unreferenced run
  files are pruned.  When ``flush()`` returns, a reopen reproduces the
  store exactly.
* ``close()`` (and the context manager) — ``flush()`` + release resources.
* Reopening after a crash replays the write-ahead log into the memtable:
  a torn record at the log's tail (the expected artifact of dying
  mid-append) is truncated silently, a log left behind by a crash between
  the manifest update and the log rotation (its records already live in
  runs) is discarded silently, and any other damage raises
  :class:`~repro.serial.SerialError` naming the file and offset.

Every reader-side failure — truncated or bit-flipped manifest, a
manifest that is not exactly one frame, a missing manifest field, version
skew, a missing shard directory or run file, a run file holding a frame
of the wrong kind or lacking its filter block, a run whose contents
contradict the manifest — raises :class:`~repro.serial.SerialError`
naming the offending file; a damaged store never silently mis-answers.
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
verify (``durability-discipline``); in the ``Persistent*`` engines a
memtable mutation must be preceded by a WAL append (``wal-ordering``).
"""

from __future__ import annotations

import inspect
import os
import time
import zlib
from pathlib import Path
from typing import Any, NamedTuple, Sequence

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
from repro.lsm.sharded import ShardedLsmDB
from repro.lsm.sstable import SSTable
from repro.lsm.wal import (
    OP_DELETE,
    WAL_NAME,
    WriteAheadLog,
    read_wal,
)
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
    "PersistentShardedLsmDB",
    "open_persistent_store",
    "read_run_filter",
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
    (:meth:`PersistentLsmDB.sync`).  Raises :class:`SerialError` naming
    the manifest file when it is missing, truncated, bit-flipped, of a
    stale format version, not a store-manifest frame at all, or followed
    by any further bytes (such as a run-delta frame appended by release
    1.13 or earlier).
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
    (the ``"geometry"`` entry of both engines' manifests)."""

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


def _spec_of(filter) -> FilterSpec:
    """The persistable :class:`FilterSpec` behind a filter argument.

    On-disk stores must rebuild their policy from the manifest alone, so
    only spec-driven filters (a :class:`FilterSpec`, a
    :class:`~repro.lsm.filter_policy.SpecPolicy`, or None) are accepted.
    """
    if filter is None:
        return FilterSpec("none")
    if isinstance(filter, FilterSpec):
        return filter
    spec = getattr(filter, "spec", None)
    if isinstance(spec, FilterSpec):
        return spec
    raise ValueError(
        "on-disk stores need a FilterSpec-driven filter (a FilterSpec, a "
        f"SpecPolicy, or None) so reopening can rebuild the policy; got "
        f"{type(filter).__name__}"
    )


def _shard_dir_name(index: int) -> str:
    return f"shard-{index:04d}"


# ----------------------------------------------------------------------
# the unsharded persistent engine
# ----------------------------------------------------------------------
class PersistentLsmDB(LsmDB):
    """An :class:`LsmDB` whose runs and filter blocks live in a directory.

    Opening a directory that already holds a store manifest *reopens* it —
    the persisted spec and geometry win, runs are reconstructed from their
    ``.sst`` frames, and filter blocks are deserialized (never rebuilt).
    Otherwise the directory is initialized as a fresh store and the
    manifest written immediately, so an empty store reopens too.
    """

    def __init__(
        self,
        directory: str | Path,
        spec: FilterSpec | None = None,
        *,
        memtable_capacity: int = 1 << 16,
        value_bytes: int = 512,
        block_bytes: int = 4096,
        store_values: bool = False,
        wal_sync: str = "batch",
        wal_group_commit: int = 1024,
        compaction=None,
        compaction_scheduler=None,
        compression=None,
        block_cache_bytes: int | None = None,
        _manifest: dict | None = None,
        _block_cache: BlockCache | None = None,
    ) -> None:
        directory = Path(directory)
        manifest = _manifest
        if manifest is None and (directory / MANIFEST_NAME).is_file():
            manifest = read_store_manifest(directory)
        if manifest is not None:
            engine = manifest.get("engine")
            if engine != "lsm":
                raise SerialError(
                    f"store at {directory} holds a {engine!r} engine, not "
                    "an unsharded 'lsm' store"
                )
            where = directory / MANIFEST_NAME
            stored_spec = _spec_from_manifest(
                _manifest_field(manifest, "spec", where), where
            )
            if spec is not None and spec != stored_spec:
                raise ValueError(
                    f"store at {directory} was created with {stored_spec!r}; "
                    f"reopening with {spec!r} would change probe answers"
                )
            spec = stored_spec
            (
                memtable_capacity,
                value_bytes,
                block_bytes,
                store_values,
                wal_sync,
                compaction,
                compression,
            ) = _Geometry.read(manifest, where)
            wal_seal = str(_manifest_field(manifest, "wal_seal", where))
            wal_epoch = int(_manifest_field(manifest, "wal_epoch", where))
        else:
            if any(directory.glob("sst-*")):
                raise SerialError(
                    f"{directory} holds run files but no store manifest "
                    f"({MANIFEST_NAME}); refusing to initialize a fresh "
                    "store over them — restore the manifest or move the "
                    "files away"
                )
            if spec is None:
                spec = FilterSpec("none")
            wal_seal = os.urandom(12).hex()
            wal_epoch = 0
        super().__init__(
            policy=SpecPolicy(spec),
            memtable_capacity=memtable_capacity,
            value_bytes=value_bytes,
            block_bytes=block_bytes,
            store_values=store_values,
            compaction=compaction,
            compaction_scheduler=compaction_scheduler,
        )
        self.directory = directory
        self.spec = spec
        self._compression = normalize_compression(compression)
        if self._compression is not None:
            # Fail at open, not at first flush, when the codec is absent
            # (zstd without the optional zstandard package).
            require_codec(self._compression["codec"])
        self._block_cache = (
            _block_cache
            if _block_cache is not None
            else BlockCache(
                DEFAULT_CACHE_BYTES
                if block_cache_bytes is None
                else block_cache_bytes
            )
        )
        self._run_files: dict[SSTable, str] = {}
        self._next_file_id = 0
        # The run-name list the on-disk manifest currently records (None =
        # no manifest yet): sync() short-circuits when it still matches.
        self._synced_runs: list[str] | None = None
        self._synced_epoch: int | None = None
        self._compacting = False
        self._wal: WriteAheadLog | None = None
        self._wal_seal = wal_seal
        self._wal_epoch = wal_epoch
        self._wal_sync = wal_sync
        self._wal_group_commit = wal_group_commit
        self.last_recovery = {
            "replayed_records": 0,
            "replayed_ops": 0,
            "discarded_stale_records": 0,
            "recovered_torn_tail": False,
        }
        if manifest is not None:
            self._load_runs(manifest)
            self._synced_epoch = wal_epoch
            self._recover_wal()
        else:
            directory.mkdir(parents=True, exist_ok=True)
            # The log is created *before* the manifest: a crash between
            # the two leaves a directory with no manifest, which the next
            # open initializes freshly (replacing the orphan log); a
            # manifest without its log, by contrast, reopens loudly.
            self._wal = WriteAheadLog.create(
                directory / WAL_NAME,
                seal=wal_seal,
                sync=wal_sync,
                group_commit=wal_group_commit,
            )
            self.sync()

    # ------------------------------------------------------------------
    # reopen path
    # ------------------------------------------------------------------
    def _load_runs(self, manifest: dict) -> None:
        where = self.directory / MANIFEST_NAME
        self._next_file_id = int(_manifest_field(manifest, "next_file_id", where))
        names = []
        runs = []
        for entry in _manifest_field(manifest, "runs", where):
            sst = self._load_sstable(entry)
            runs.append(sst)
            name = _manifest_field(entry, "file", where)
            self._run_files[sst] = name
            names.append(name)
        # Swapped whole like every run-list update: readers cache their
        # run-set filter against the list's identity.
        with self._maintenance_lock:
            self.sstables = runs
        self._synced_runs = names

    def _load_sstable(self, entry: dict) -> SSTable:
        where = self.directory / MANIFEST_NAME
        name = _manifest_field(entry, "file", where)
        num_keys = int(_manifest_field(entry, "num_keys", where))
        sst_path = self.directory / (name + _SST_SUFFIX)
        if not sst_path.is_file():
            raise SerialError(
                f"store at {self.directory} is missing run file "
                f"{sst_path.name}"
            )
        codec = self._compression["codec"] if self._compression else None
        keys, values, tombstones, filter_block = _map_sstable(
            sst_path,
            str(sst_path),
            expected_codec=codec,
            cache=self._block_cache,
            stats=self.stats,
        )
        if keys.size != num_keys:
            raise SerialError(
                f"corrupt SST file {sst_path}: holds {keys.size} keys but "
                f"the store manifest records {num_keys}"
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
        """Adopt the directory's write-ahead log on reopen.

        A log at the manifest's epoch holds writes acknowledged after the
        last flush — replay them into the memtable (then flush if it
        replays full).  A log at an *older* epoch is the crash window
        between the manifest update and the log rotation: its records are
        already durable in runs, so it is discarded (never resurrected).
        A *newer* log means the manifest is older than the log (restored
        or replaced after the fact) — raise.  Seal mismatches (a log from
        another store or shard) and non-tail corruption raise; a torn tail
        is truncated silently.
        """
        wal_path = self.directory / WAL_NAME
        where = self.directory / MANIFEST_NAME
        if not wal_path.is_file():
            raise SerialError(
                f"store at {self.directory} is missing its write-ahead log "
                f"({WAL_NAME}); acknowledged writes may be unrecoverable — "
                "restore the log or accept the loss by recreating the store"
            )
        header, records, valid_end, torn = read_wal(wal_path)
        seal = header.get("seal")
        epoch = header.get("epoch")
        if not isinstance(seal, str) or not isinstance(epoch, int):
            raise SerialError(
                f"corrupt write-ahead log {wal_path}: header is missing "
                "its seal/epoch fields"
            )
        if seal != self._wal_seal:
            raise SerialError(
                f"write-ahead log {wal_path} belongs to a different store "
                f"(log seal {seal!r} does not match the manifest's "
                f"{self._wal_seal!r}); the log files were swapped or "
                "restored across stores"
            )
        if epoch > self._wal_epoch:
            raise SerialError(
                f"the store manifest {where} is stale or truncated: it "
                f"records WAL epoch {self._wal_epoch} but the write-ahead "
                f"log is already at epoch {epoch}"
            )
        if epoch < self._wal_epoch:
            self._wal = WriteAheadLog.create(
                wal_path,
                seal=self._wal_seal,
                epoch=self._wal_epoch,
                sync=self._wal_sync,
                group_commit=self._wal_group_commit,
            )
            self.last_recovery = {
                "replayed_records": 0,
                "replayed_ops": 0,
                "discarded_stale_records": len(records),
                "recovered_torn_tail": torn,
            }
            return
        ops = 0
        for record in records:
            if record.op == OP_DELETE:
                self.memtable.delete_many(record.keys)  # repro-lint: ignore[wal-ordering] -- WAL replay: the record being applied IS the log entry
            else:
                self.memtable.put_many(record.keys, record.values)  # repro-lint: ignore[wal-ordering] -- WAL replay: the record being applied IS the log entry
            ops += int(record.keys.size)
        self._wal = WriteAheadLog.attach(
            wal_path,
            seal=self._wal_seal,
            epoch=epoch,
            valid_end=valid_end,
            num_records=len(records),
            torn=torn,
            sync=self._wal_sync,
            group_commit=self._wal_group_commit,
        )
        self.last_recovery = {
            "replayed_records": len(records),
            "replayed_ops": ops,
            "discarded_stale_records": 0,
            "recovered_torn_tail": torn,
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
        if self._wal is not None:
            self._wal.commit_barrier()

    def sync(self) -> None:
        """Make the current run set durable.

        Each unpersisted run gets its ``.sst`` file first, then the
        manifest is rewritten whole by one atomic write-temp +
        ``os.replace``, then run files no longer referenced (dropped by
        compaction) are pruned — in that order, so a crash at any point
        reopens to either the old or the new run set.  Flushes and
        compaction commits persist the run set this one way.  When the run
        set and WAL epoch already match the manifest (e.g. a read-only
        open/close cycle) nothing is written at all, so pure reads never
        touch the directory.
        """
        with self._maintenance_lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        runs = []
        for sst in self.sstables:
            name = self._run_files.get(sst)
            if name is None:
                name = f"sst-{self._next_file_id:06d}"
                self._next_file_id += 1
                _atomic_write(
                    self.directory / (name + _SST_SUFFIX),
                    _pack_sstable(sst, self._compression),
                )
                self._run_files[sst] = name
            runs.append({"file": name, "num_keys": sst.num_keys})
        # Drop mappings for runs compaction removed (also releases the
        # strong references keeping their SSTable objects alive).
        self._run_files = {
            sst: self._run_files[sst] for sst in self.sstables
        }
        names = [run["file"] for run in runs]
        if names == self._synced_runs and self._wal_epoch == self._synced_epoch:
            return
        blob = pack_frame(
            KIND_STORE,
            {
                "engine": "lsm",
                "spec": self.spec.to_dict(),
                "geometry": _Geometry(
                    self.memtable.capacity,
                    self.value_bytes,
                    self.block_bytes,
                    self.store_values,
                    self._wal_sync,
                    self.compaction,
                    self._compression,
                ).to_manifest(),
                "runs": runs,
                "next_file_id": self._next_file_id,
                "wal_seal": self._wal_seal,
                "wal_epoch": self._wal_epoch,
            },
        )
        _atomic_write(self.directory / MANIFEST_NAME, blob)
        self._synced_runs = names
        self._synced_epoch = self._wal_epoch
        self._prune_orphans(set(names))

    def _prune_orphans(self, live: set[str]) -> None:
        # Unlinking is safe under live mmap views: POSIX keeps mapped
        # pages of an unlinked file valid until the last view dies, and
        # sealed runs are never rewritten in place — new data always gets
        # a new file name.
        for path in self.directory.glob("sst-*"):
            if path.name.endswith(".tmp"):
                path.unlink(missing_ok=True)
            elif path.suffix == _SST_SUFFIX and path.stem not in live:
                self._block_cache.drop_file(str(path))
                path.unlink(missing_ok=True)

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
            wal = self._wal
            if (
                wal is not None
                and wal.num_records
                and len(self.memtable) == 0
            ):
                self._wal_epoch += 1
                self._sync_locked()
                wal.reset(self._wal_epoch)
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
        """Write-ahead-log state + last recovery outcome (CLI inspect)."""
        info = dict(self.last_recovery)
        if self._wal is not None:
            info.update(self._wal.info())
        info["seal"] = self._wal_seal
        return info

    def close(self) -> None:
        """Flush (making the store durable) and release resources."""
        self.flush()
        if self._wal is not None:
            self._wal.close()
        super().close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PersistentLsmDB({str(self.directory)!r}, "
            f"policy={self.policy.name}, sstables={len(self.sstables)}, "
            f"keys={self.num_keys})"
        )


# ----------------------------------------------------------------------
# the sharded persistent engine
# ----------------------------------------------------------------------
class PersistentShardedLsmDB(ShardedLsmDB):
    """A :class:`ShardedLsmDB` of per-shard :class:`PersistentLsmDB` engines.

    The top-level manifest pins the partition scheme, the per-shard specs,
    and the geometry; each ``shard-NNNN/`` directory is a self-contained
    unsharded store (own manifest, runs, filter blocks), so the per-shard
    independence of the partitioned layout extends to disk.
    """

    def __init__(
        self,
        directory: str | Path,
        specs: "FilterSpec | Sequence[FilterSpec] | None" = None,
        *,
        num_shards: int = 4,
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
        _manifest: dict | None = None,
    ) -> None:
        directory = Path(directory)
        manifest = _manifest
        if manifest is None and (directory / MANIFEST_NAME).is_file():
            manifest = read_store_manifest(directory)
        if manifest is not None:
            engine = manifest.get("engine")
            if engine != "sharded-lsm":
                raise SerialError(
                    f"store at {directory} holds a {engine!r} engine, not a "
                    "'sharded-lsm' store"
                )
            where = directory / MANIFEST_NAME
            specs = [
                _spec_from_manifest(d, where)
                for d in _manifest_field(manifest, "specs", where)
            ]
            num_shards = int(_manifest_field(manifest, "num_shards", where))
            partition = _manifest_field(manifest, "partition", where)
            domain_bits = int(_manifest_field(manifest, "domain_bits", where))
            (
                memtable_capacity,
                value_bytes,
                block_bytes,
                store_values,
                wal_sync,
                compaction,
                compression,
            ) = _Geometry.read(manifest, where)
            for index in range(num_shards):
                shard_manifest = directory / _shard_dir_name(index) / MANIFEST_NAME
                if not shard_manifest.is_file():
                    raise SerialError(
                        f"store at {directory} is missing shard directory "
                        f"{_shard_dir_name(index)}"
                    )
        else:
            if any(directory.glob("shard-*")) or any(directory.glob("sst-*")):
                raise SerialError(
                    f"{directory} holds shard/run data but no store "
                    f"manifest ({MANIFEST_NAME}); refusing to initialize a "
                    "fresh store over it — restore the manifest or move "
                    "the data away"
                )
            if isinstance(specs, (list, tuple)):
                if len(specs) != num_shards:
                    raise ValueError(
                        f"got {len(specs)} per-shard specs for "
                        f"{num_shards} shards"
                    )
                specs = [_spec_of(s) for s in specs]
            else:
                specs = [_spec_of(specs)] * num_shards
            directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.specs: list[FilterSpec] = list(specs)
        self._wal_sync = wal_sync
        self._wal_group_commit = wal_group_commit
        # Set before super().__init__ — it triggers _build_shard, which
        # threads these into every per-shard sub-store.  One BlockCache is
        # shared by all shards so the decompressed-block budget is
        # per-store, not per-shard.
        self._compression = normalize_compression(compression)
        self._block_cache = BlockCache(
            DEFAULT_CACHE_BYTES if block_cache_bytes is None else block_cache_bytes
        )
        if manifest is None:
            # Top manifest *before* the per-shard sub-stores: a crash in
            # that window then reopens loudly (missing shard directory)
            # instead of silently re-initializing under a possibly
            # different partition scheme over the old shard data.
            self._write_manifest(
                num_shards=num_shards,
                partition=partition,
                domain_bits=domain_bits,
                geometry=_Geometry(
                    memtable_capacity,
                    value_bytes,
                    block_bytes,
                    store_values,
                    wal_sync,
                    compaction,
                    self._compression,
                ),
            )
        super().__init__(
            policy=[SpecPolicy(spec) for spec in self.specs],
            num_shards=num_shards,
            partition=partition,
            memtable_capacity=memtable_capacity,
            value_bytes=value_bytes,
            block_bytes=block_bytes,
            store_values=store_values,
            domain_bits=domain_bits,
            compaction=compaction,
        )

    def _build_shard(self, index: int, policy, **kw) -> LsmDB:
        """Each shard is a self-contained persistent sub-store with its
        own write-ahead log (independent group commit per shard)."""
        return PersistentLsmDB(
            self.directory / _shard_dir_name(index),
            policy.spec,
            wal_sync=self._wal_sync,
            wal_group_commit=self._wal_group_commit,
            compression=self._compression,
            _block_cache=self._block_cache,
            **kw,
        )

    def _write_manifest(
        self,
        *,
        num_shards: int,
        partition: str,
        domain_bits: int,
        geometry: _Geometry,
    ) -> None:
        manifest = {
            "engine": "sharded-lsm",
            "specs": [spec.to_dict() for spec in self.specs],
            "num_shards": num_shards,
            "partition": partition,
            "domain_bits": domain_bits,
            "geometry": geometry.to_manifest(),
            "shards": [
                _shard_dir_name(index) for index in range(num_shards)
            ],
        }
        _atomic_write(
            self.directory / MANIFEST_NAME, pack_frame(KIND_STORE, manifest)
        )

    def wal_info(self) -> dict:
        """Aggregated per-shard write-ahead-log state (CLI inspect)."""
        infos = [shard.wal_info() for shard in self.shards]
        merged = {
            "sync": infos[0].get("sync", self._wal_sync),
            "group_commit": infos[0].get(
                "group_commit", self._wal_group_commit
            ),
            "epoch": max(int(i.get("epoch", 0)) for i in infos),
            "recovered_torn_tail": any(
                i.get("recovered_torn_tail") for i in infos
            ),
        }
        for field in (
            "records",
            "bytes",
            "fsyncs",
            "replayed_records",
            "replayed_ops",
            "discarded_stale_records",
        ):
            merged[field] = sum(int(i.get(field, 0)) for i in infos)
        return merged

    def close(self) -> None:
        """Flush every shard (making the store durable), then shut down."""
        self.flush()
        for shard in self.shards:
            wal = getattr(shard, "_wal", None)
            if wal is not None:
                wal.close()
        super().close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PersistentShardedLsmDB({str(self.directory)!r}, "
            f"shards={self.num_shards}, partition={self.partition!r}, "
            f"keys={self.num_keys})"
        )


# ----------------------------------------------------------------------
# the open_store(path=...) dispatch
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


def _check_reopen_args(manifest: dict, directory: Path, args: dict) -> None:
    """Reopening takes the persisted configuration; explicit arguments must
    agree with it.  Arguments still at their :func:`~repro.api.open_store`
    defaults are treated as "unspecified" (the manifest wins); anything
    explicitly different from both the default and the persisted value is
    a configuration conflict and raises :class:`ValueError`.
    """
    where = directory / MANIFEST_NAME
    sharded = manifest["engine"] == "sharded-lsm"
    geometry = _Geometry.read(manifest, where)
    stored = {
        "shards": (
            int(_manifest_field(manifest, "num_shards", where))
            if sharded
            else 1
        ),
        "memtable_capacity": geometry.memtable_capacity,
        "value_bytes": geometry.value_bytes,
        "block_bytes": geometry.block_bytes,
        "store_values": geometry.store_values,
        "wal_sync": geometry.wal_sync,
    }
    if sharded:
        # Routing knobs: an unsharded store ignores them at creation, so
        # it does on reopen too.
        stored["partition"] = _manifest_field(manifest, "partition", where)
        stored["domain_bits"] = int(
            _manifest_field(manifest, "domain_bits", where)
        )
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
    stored_compression = normalize_compression(geometry.compression)
    passed_compression = normalize_compression(args["compression"])
    if passed_compression is not None and passed_compression != stored_compression:
        raise ValueError(
            f"store at {directory} was created with compression="
            f"{stored_compression!r}; reopening with "
            f"{passed_compression!r} conflicts (leave it at the default "
            "to use the persisted configuration)"
        )
    filter = args["filter"]
    if filter is None:
        return
    if sharded:
        stored_specs = [
            _spec_from_manifest(d, where)
            for d in _manifest_field(manifest, "specs", where)
        ]
        passed_specs = (
            [_spec_of(f) for f in filter]
            if isinstance(filter, (list, tuple))
            else [_spec_of(filter)] * len(stored_specs)
        )
        if passed_specs != stored_specs:
            raise ValueError(
                f"store at {directory} was created with filter specs "
                f"{stored_specs!r}; reopening with {passed_specs!r} "
                "conflicts"
            )
    else:
        stored_spec = _spec_from_manifest(
            _manifest_field(manifest, "spec", where), where
        )
        if _spec_of(filter) != stored_spec:
            raise ValueError(
                f"store at {directory} was created with {stored_spec!r}; "
                f"reopening with {_spec_of(filter)!r} conflicts"
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

    The create/reopen dispatch behind ``open_store(path=...)``: a
    directory holding a store manifest is reopened with its persisted
    configuration (explicit arguments must agree — see
    :func:`_check_reopen_args`); otherwise a fresh store is initialized
    from the arguments, exactly mirroring the in-memory
    :func:`~repro.api.open_store` semantics.
    """
    path = Path(path)
    if (path / MANIFEST_NAME).is_file():
        manifest = read_store_manifest(path)
        engine = manifest.get("engine")
        if engine not in ("lsm", "sharded-lsm"):
            raise SerialError(
                f"store manifest at {path} names unknown engine {engine!r}"
            )
        _check_reopen_args(
            manifest,
            path,
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
        # block_cache_bytes is a runtime knob: it passes through on
        # reopen rather than persisting.
        if engine == "lsm":
            return PersistentLsmDB(
                path,
                wal_group_commit=wal_group_commit,
                block_cache_bytes=block_cache_bytes,
                _manifest=manifest,
            )
        return PersistentShardedLsmDB(
            path,
            wal_group_commit=wal_group_commit,
            block_cache_bytes=block_cache_bytes,
            _manifest=manifest,
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        if isinstance(filter, (list, tuple)):
            raise ValueError("per-shard filter specs require shards > 1")
        return PersistentLsmDB(
            path,
            _spec_of(filter),
            memtable_capacity=memtable_capacity,
            value_bytes=value_bytes,
            block_bytes=block_bytes,
            store_values=store_values,
            wal_sync=wal_sync,
            wal_group_commit=wal_group_commit,
            compaction=compaction,
            compression=compression,
            block_cache_bytes=block_cache_bytes,
        )
    return PersistentShardedLsmDB(
        path,
        filter,
        num_shards=shards,
        partition=partition,
        memtable_capacity=memtable_capacity,
        value_bytes=value_bytes,
        block_bytes=block_bytes,
        store_values=store_values,
        domain_bits=domain_bits,
        wal_sync=wal_sync,
        wal_group_commit=wal_group_commit,
        compaction=compaction,
        compression=compression,
        block_cache_bytes=block_cache_bytes,
    )
