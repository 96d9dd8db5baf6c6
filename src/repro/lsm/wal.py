"""Write-ahead log for the persistent LSM engines — the durability gap closer.

PR 5 made flushed runs crash-safe; the memtable stayed volatile.  This
module closes that gap the way RocksDB does: every write API call appends
its operations to an append-only, checksummed log *before* the memtable
mutates, so an acknowledged ``put``/``delete`` survives ``kill -9`` — on
reopen the log is replayed into a fresh memtable and the store answers
exactly as the never-killed store would.

On-disk layout (``WAL-NNNN.brf`` in the store directory, one per shard;
:func:`wal_name`)::

    +--------------------------------------------------+
    | KIND_WAL frame  {"seal": <hex>, "epoch": <int>}  |  header (atomic)
    +--------------------------------------------------+
    | u32 length | u32 crc32(body) | body              |  record 0
    | u32 length | u32 crc32(body) | body              |  record 1
    | ...                                              |
    +--------------------------------------------------+

    body = u8 op | u32 count | count x u64 keys
           [op 1: count x u32 value lengths | value blob]

    op 1 = put with values, 2 = delete (tombstones), 3 = put (empty values)

The header frame is only ever written whole via write-temp + ``os.replace``
(creation and rotation), so it is never torn; records are appended with one
``os.write`` each, so a crash mid-append leaves a *prefix* of a record at
the tail.  The reader (:func:`read_wal`) therefore recovers silently from a
torn tail — truncate to the last complete record — while any *non-tail*
damage (a complete record whose CRC fails, a malformed body) raises
:class:`~repro.serial.SerialError` naming the file and byte offset: a torn
write is the expected crash artifact, a mid-file flip is corruption.

Seal and epoch
--------------
Each shard's log carries a ``seal``: the random one minted at the store's
creation and pinned in the store manifest, naming the shard — a log
restored from a *different* store (or swapped between shards) fails the
seal check loudly instead of replaying foreign keys.  The ``epoch`` orders the log against the manifest:
``flush()`` persists the drained memtable as a run, writes the manifest with
``epoch + 1``, then resets the log to the new epoch.  On reopen a log at the
manifest's epoch replays; an *older* log is the crash window between those
two steps (its records are already durable in runs) and is discarded
silently; a *newer* log means the manifest went backwards — corruption.

Group commit
------------
``sync="always"`` fsyncs at the end of every write API call; ``"batch"``
fsyncs once every ``group_commit`` logged operations (the RocksDB group
commit trade: bounded post-power-loss window, a fraction of the fsyncs);
``"off"`` never fsyncs.  In *all* modes the record bytes reach the kernel
before the API call returns, so acknowledged writes survive process death
(``kill -9``) even at ``sync="off"`` — the fsync policy only sizes the
window lost to power failure.

Ack barrier
-----------
Bookkeeping is sequence-based and thread-safe: every appended operation
advances a monotonic sequence (:attr:`last_seq`), and every fsync records
the highest sequence it covered (:attr:`synced_seq`).  A caller that must
know its record is durable against power loss — the serving layer acks a
write group only at its covering group commit — calls
:meth:`commit_barrier` with the sequence its append returned: it returns
immediately when a concurrent fsync already covered the record and
otherwise becomes the group-commit leader, issuing one fsync that covers
every record appended so far.  The old single-writer counter reset
(``_pending_ops = 0`` inside the fsync) could lose a concurrent
appender's pending count and leave its record unsynced forever in batch
mode; ``synced_seq = max(synced_seq, covered)`` cannot.

This module is part of the typed beachhead (``mypy --strict`` in CI) and
its write paths are machine-checked by ``repro lint``: raw writes stay
inside the append helpers (``durability-discipline``), and engines must
append here *before* mutating their memtable (``wal-ordering``).
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.serial import KIND_WAL, SerialError, pack_frame, unpack_frame_prefix

__all__ = ["WalRecord", "WriteAheadLog", "read_wal", "wal_name"]

OP_PUT = 1
OP_DELETE = 2
OP_PUT_EMPTY = 3

_SYNC_MODES = ("always", "batch", "off")
_RECORD_PREFIX = struct.Struct("<II")  # body length, body crc32


def wal_name(shard: int) -> str:
    """The file name of shard ``shard``'s log in the store directory."""
    return f"WAL-{shard:04d}.brf"


class WalRecord:
    """One logged operation batch: op code, keys, aligned values (puts)."""

    __slots__ = ("op", "keys", "values")

    def __init__(
        self, op: int, keys: npt.NDArray[np.uint64], values: list[bytes] | None
    ) -> None:
        self.op = op
        self.keys = keys
        self.values = values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WalRecord(op={self.op}, keys={self.keys.size})"


def _encode_record(
    op: int, keys: npt.NDArray[np.uint64], values: list[bytes] | None
) -> bytes:
    parts = [
        bytes([op]),
        int(keys.size).to_bytes(4, "little"),
        np.ascontiguousarray(keys, dtype="<u8").tobytes(),
    ]
    if op == OP_PUT:
        assert values is not None  # append_put routes value-less puts away
        lengths = np.fromiter(
            (len(v) for v in values), dtype="<u4", count=len(values)
        )
        parts.append(lengths.tobytes())
        parts.append(b"".join(values))
    body = b"".join(parts)
    return _RECORD_PREFIX.pack(len(body), zlib.crc32(body)) + body


def _decode_body(body: bytes, where: str, offset: int) -> WalRecord:
    def bad(detail: str) -> SerialError:
        return SerialError(
            f"corrupt write-ahead log {where}: {detail} in the record at "
            f"byte offset {offset}"
        )

    if len(body) < 5:
        raise bad(f"body of {len(body)} bytes is too short")
    op = body[0]
    if op not in (OP_PUT, OP_DELETE, OP_PUT_EMPTY):
        raise bad(f"unknown operation code {op}")
    count = int.from_bytes(body[1:5], "little")
    cursor = 5
    keys_end = cursor + 8 * count
    if keys_end > len(body):
        raise bad(f"key array for {count} keys overruns the body")
    keys = np.frombuffer(body[cursor:keys_end], dtype="<u8").astype(np.uint64)
    values: list[bytes] | None = None
    if op == OP_PUT:
        lengths_end = keys_end + 4 * count
        if lengths_end > len(body):
            raise bad(f"value index for {count} values overruns the body")
        lengths = np.frombuffer(body[keys_end:lengths_end], dtype="<u4")
        blob = body[lengths_end:]
        if int(lengths.sum()) != len(blob):
            raise bad("value index does not match the value blob")
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths.astype(np.int64), out=offsets[1:])
        values = [bytes(blob[offsets[i] : offsets[i + 1]]) for i in range(count)]
    elif len(body) != keys_end:
        raise bad(f"{len(body) - keys_end} trailing bytes after the key array")
    return WalRecord(op, keys, values)


def read_wal(path: str | Path) -> tuple[dict[str, Any], list[WalRecord], int, bool]:
    """Parse a log file into ``(header, records, valid_end, torn)``.

    ``valid_end`` is the byte offset of the last complete record's end —
    the truncation point when ``torn`` is True (the file ends mid-record,
    the expected artifact of a crash during an append).  Damage *before*
    the tail — a complete record failing its CRC, a malformed body, a
    broken header frame — raises :class:`SerialError` naming the file and
    the record's byte offset.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        header, payloads, cursor = unpack_frame_prefix(
            data, 0, expect_kind=KIND_WAL
        )
    except SerialError as exc:
        raise SerialError(f"corrupt write-ahead log {path}: {exc}") from exc
    if payloads:
        raise SerialError(
            f"corrupt write-ahead log {path}: header frame carries "
            f"{len(payloads)} payloads, expected 0"
        )
    records: list[WalRecord] = []
    valid_end = cursor
    torn = False
    total = len(data)
    while cursor < total:
        if cursor + _RECORD_PREFIX.size > total:
            torn = True
            break
        length, crc = _RECORD_PREFIX.unpack_from(data, cursor)
        body_start = cursor + _RECORD_PREFIX.size
        if body_start + length > total:
            torn = True
            break
        body = data[body_start : body_start + length]
        if zlib.crc32(body) != crc:
            raise SerialError(
                f"corrupt write-ahead log {path}: checksum mismatch in the "
                f"record at byte offset {cursor} (the log was altered after "
                "it was written)"
            )
        records.append(_decode_body(body, str(path), cursor))
        cursor = body_start + length
        valid_end = cursor
    return header, records, valid_end, torn


class WriteAheadLog:
    """Append-only operation log of one :class:`PersistentLsmDB` shard.

    Construct through :meth:`create` (fresh header-only log, atomic) or
    :meth:`attach` (an existing log after :func:`read_wal`, truncating a
    torn tail).  Appends write one framed record per call via ``os.write``
    on an ``O_APPEND`` descriptor; :meth:`commit` applies the fsync policy
    at write-API-call boundaries; :meth:`reset` rotates to a new epoch
    (flush truncation).
    """

    def __init__(
        self,
        path: Path,
        *,
        seal: str,
        epoch: int,
        sync: str = "batch",
        group_commit: int = 1024,
        _size: int = 0,
        _records: int = 0,
    ) -> None:
        if sync not in _SYNC_MODES:
            raise ValueError(
                f"wal_sync must be one of {_SYNC_MODES}, got {sync!r}"
            )
        if group_commit < 1:
            raise ValueError(
                f"wal_group_commit must be >= 1, got {group_commit}"
            )
        self.path = Path(path)
        self.seal = seal
        self.epoch = epoch
        self.sync_mode = sync
        self.group_commit = group_commit
        self.size_bytes = _size
        self.num_records = _records
        self.fsyncs = 0
        self.bytes_written = 0
        self.records_appended = 0
        # Sequence-based fsync accounting (thread-safe): ``_append_seq``
        # counts every operation ever appended, ``_synced_seq`` the
        # highest operation sequence covered by an fsync (or made
        # redundant by rotation).  ``_state_lock`` guards the bookkeeping
        # and serializes the appends themselves; ``_sync_lock`` elects a
        # group-commit leader so concurrent barriers issue one fsync.
        self._append_seq = 0
        self._synced_seq = 0
        self._state_lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._fd: int | None = os.open(self.path, os.O_WRONLY | os.O_APPEND)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def _header_blob(seal: str, epoch: int) -> bytes:
        return pack_frame(KIND_WAL, {"seal": seal, "epoch": epoch})

    @classmethod
    def _write_header_file(cls, path: Path, seal: str, epoch: int) -> int:
        """Atomically (re)place ``path`` with a header-only log.

        Write-temp + ``os.replace`` + directory fsync: the header frame is
        never observable torn, and rotation never exposes a log that mixes
        the old epoch's records with the new epoch's header.
        """
        blob = cls._header_blob(seal, epoch)
        tmp = path.with_name(path.name + ".tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, blob)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        return len(blob)

    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        seal: str,
        epoch: int = 0,
        sync: str = "batch",
        group_commit: int = 1024,
    ) -> "WriteAheadLog":
        """A fresh (or reset-over-stale) header-only log at ``path``."""
        path = Path(path)
        size = cls._write_header_file(path, seal, epoch)
        return cls(
            path,
            seal=seal,
            epoch=epoch,
            sync=sync,
            group_commit=group_commit,
            _size=size,
        )

    @classmethod
    def attach(
        cls,
        path: str | Path,
        *,
        seal: str,
        epoch: int,
        valid_end: int,
        num_records: int,
        torn: bool,
        sync: str = "batch",
        group_commit: int = 1024,
    ) -> "WriteAheadLog":
        """Adopt an existing log after :func:`read_wal`, cutting a torn tail."""
        path = Path(path)
        if torn:
            fd = os.open(path, os.O_WRONLY)
            try:
                os.ftruncate(fd, valid_end)
                os.fsync(fd)
            finally:
                os.close(fd)
        return cls(
            path,
            seal=seal,
            epoch=epoch,
            sync=sync,
            group_commit=group_commit,
            _size=valid_end,
            _records=num_records,
        )

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def append_put(
        self, keys: npt.NDArray[np.uint64], values: list[bytes] | None = None
    ) -> int:
        """Log a put batch.  Returns only once the record reached the
        kernel (one ``os.write``), which is the acknowledgement point.
        The returned sequence feeds :meth:`commit_barrier`."""
        if values is None or not any(values):
            return self._append(OP_PUT_EMPTY, keys, None)
        return self._append(OP_PUT, keys, values)

    def append_delete(self, keys: npt.NDArray[np.uint64]) -> int:
        """Log a tombstone batch; returns the batch's barrier sequence."""
        return self._append(OP_DELETE, keys, None)

    def _append(
        self, op: int, keys: npt.NDArray[np.uint64], values: list[bytes] | None
    ) -> int:
        record = _encode_record(op, keys, values)
        with self._state_lock:
            if self._fd is None:
                raise ValueError(f"write-ahead log {self.path} is closed")
            os.write(self._fd, record)
            self.size_bytes += len(record)
            self.bytes_written += len(record)
            self.num_records += 1
            self.records_appended += 1
            self._append_seq += int(keys.size)
            seq = self._append_seq
        if (
            self.sync_mode == "batch"
            and seq - self._synced_seq >= self.group_commit
        ):
            self._fsync_upto(seq)
        return seq

    @property
    def last_seq(self) -> int:
        """Sequence of the most recently appended operation."""
        return self._append_seq

    @property
    def synced_seq(self) -> int:
        """Highest operation sequence covered by an fsync (or rotation)."""
        return self._synced_seq

    @property
    def pending_ops(self) -> int:
        """Appended operations not yet covered by an fsync."""
        return self._append_seq - self._synced_seq

    def commit(self) -> None:
        """Apply the fsync policy at a write-API-call boundary."""
        target = self._append_seq
        if target == self._synced_seq:
            return
        if self.sync_mode == "always" or (
            self.sync_mode == "batch"
            and target - self._synced_seq >= self.group_commit
        ):
            self._fsync_upto(target)

    def commit_barrier(self, seq: int | None = None) -> None:
        """Block until an fsync covers the record at ``seq``.

        ``seq`` is a sequence returned by an append helper (default: the
        newest appended record).  Returns immediately when that record is
        already covered — by a group commit another caller led, or by a
        rotation that made it redundant.  Otherwise this caller becomes
        the group-commit leader: one fsync covers every record appended
        so far, and concurrent barriers piggyback on it.  ``sync="off"``
        opts out of power-loss durability entirely, so the barrier is a
        no-op there (process-death durability still holds: the record
        bytes reached the kernel before the append returned).
        """
        if self.sync_mode == "off":
            return
        target = self._append_seq if seq is None else seq
        if self._synced_seq >= target:
            return
        self._fsync_upto(target)

    def _fsync_upto(self, target: int) -> None:
        with self._sync_lock:
            if self._synced_seq >= target:
                return  # a concurrent leader's fsync already covered us
            fd = self._fd
            if fd is None:
                raise ValueError(f"write-ahead log {self.path} is closed")
            covered = self._append_seq
            os.fsync(fd)
            self.fsyncs += 1
            with self._state_lock:
                if covered > self._synced_seq:
                    self._synced_seq = covered

    # ------------------------------------------------------------------
    # rotation / lifecycle
    # ------------------------------------------------------------------
    def reset(self, epoch: int) -> None:
        """Rotate: replace the log with a header-only file at ``epoch``.

        Called by ``flush()`` *after* the new manifest (carrying the same
        epoch) is durable, so a crash at any point reopens consistently:
        before the replace, the old log replays against the old manifest;
        after it, the empty log matches the new one.
        """
        with self._state_lock:
            if self._fd is not None:
                os.close(self._fd)
            self.size_bytes = self._write_header_file(
                self.path, self.seal, epoch
            )
            self.epoch = epoch
            self.num_records = 0
            # The truncated records are durable in the just-persisted
            # runs, so every outstanding barrier is satisfied; sequences
            # stay monotonic so tokens handed out earlier remain valid.
            self._synced_seq = self._append_seq
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)

    def close(self) -> None:
        if self._fd is None:
            return
        if self.pending_ops and self.sync_mode != "off":
            self._fsync_upto(self._append_seq)
        with self._state_lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def info(self) -> dict[str, Any]:
        """WAL state for ``repro store inspect`` / ``wal_info()``."""
        return {
            "sync": self.sync_mode,
            "group_commit": self.group_commit,
            "epoch": self.epoch,
            "records": self.num_records,
            "bytes": self.size_bytes,
            "fsyncs": self.fsyncs,
            "pending_ops": self.pending_ops,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WriteAheadLog({str(self.path)!r}, epoch={self.epoch}, "
            f"records={self.num_records}, sync={self.sync_mode!r})"
        )
