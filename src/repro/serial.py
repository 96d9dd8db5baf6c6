"""Versioned on-disk format for filter blocks (the ``.brf`` frame).

The paper's Sect. 9 integration persists every filter as an SST *filter
block*: a self-describing byte string the DB can write at flush time and
deserialize on read.  This module defines that format once for the whole
package — a single framed layout shared by :class:`~repro.core.bloomrf.BloomRF`,
every baseline filter (Bloom, Prefix-Bloom, Rosetta, SuRF, Cuckoo, and the
"none" placeholder), and the on-disk store artifacts of
:mod:`repro.lsm.store` (``KIND_SSTABLE`` run files and ``KIND_STORE``
manifests) — so every serialized artifact
starts with the same versioned magic and fails loudly (never silently
mis-answers) on corruption or version skew.  All frame-level failures
raise :class:`SerialError` (a :class:`ValueError` subclass) whose message
names the offending kind byte where relevant.

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic          b"BRF1"
    4       2     format version (1, or 2 for block-compressed payloads)
    6       2     kind           (what the payloads encode; see KIND_*)
    8       4     header length  H
    12      H     header         UTF-8 JSON (config / geometry / key counts)
    12+H    4     payload count  P
    ...           P x (8-byte length + raw bytes) payload sections

Version 2 keeps the identical framing but marks the payload *bytes* as
block-compressed: the header carries a ``codec`` name, a ``block_bytes``
split size, per-payload raw lengths, and per-payload block tables
(``[compressed_len, crc32], ...``) so readers can decompress — and
CRC-verify — one block at a time (:mod:`repro.lsm.blocks`).  The version
bump exists purely so version-1-only readers fail loudly on frames whose
payload bytes they would otherwise misinterpret; version-1 frames are
written bit-identically to before.

Headers carry the *shape* (configs, counts) as JSON for forward
compatibility and debuggability; payloads carry the raw little-endian
bit-array words, so a round-trip reconstructs every word bit for bit.
That JSON forward compatibility is load-bearing: readers take header
fields with ``.get`` defaults rather than erroring on absence, so a new
optional field (e.g. the ``compaction`` policy a ``KIND_STORE`` manifest's
geometry grew in v1.6) leaves older frames readable — they coerce to the
field's pre-existing behavior (manual compaction) instead of raising.
The frame format itself has no checksum — matching RocksDB filter blocks,
where block-level checksums live a layer below — so a bit flip in a filter
payload yields a *different but functioning* filter while any damage to the
frame itself (magic, version, lengths, header) raises :class:`ValueError`.
Frames carrying *exact* data add their own: ``KIND_SSTABLE`` run frames
(:mod:`repro.lsm.store`) record a payload CRC32 in their header, because a
flipped bit there would change answers rather than move a false positive.

This module is part of the typed beachhead (``mypy --strict`` in CI), and
``repro lint`` enforces its contracts package-wide: every
:class:`SerialError` raised at an I/O boundary must name the offending
file, and every ``KIND_*`` constant must have a registered reader
(``serial-discipline``) — except the kinds in :data:`RETIRED_KINDS`,
whose writer is gone: their values stay reserved, and reading one raises a
:class:`SerialError` that names the retired kind.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
from typing import Any, TypeVar

#: Frame parsing is generic over the buffer type: ``bytes`` input yields
#: ``bytes`` payloads, ``memoryview`` input (a mapped frame) yields
#: zero-copy sub-views.
_Buf = TypeVar("_Buf", bytes, memoryview)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "FORMAT_VERSION_BLOCKS",
    "SerialError",
    "FrameView",
    "map_frame",
    "KIND_BLOOMRF",
    "KIND_BLOOM",
    "KIND_SHARDED_BLOOMRF",
    "KIND_PREFIX_BLOOM",
    "KIND_ROSETTA",
    "KIND_SURF",
    "KIND_CUCKOO",
    "KIND_NONE",
    "KIND_SSTABLE",
    "KIND_STORE",
    "KIND_WAL",
    "KIND_NAMES",
    "RETIRED_KINDS",
    "pack_frame",
    "unpack_frame",
    "unpack_frame_prefix",
    "peek_kind",
    "dump_filter",
    "load_filter",
]

MAGIC = b"BRF1"
FORMAT_VERSION = 1
# Version 2: same framing, but the payload bytes are block-compressed and
# the header carries the codec + per-block tables (repro.lsm.blocks).
FORMAT_VERSION_BLOCKS = 2
_SUPPORTED_VERSIONS = frozenset({FORMAT_VERSION, FORMAT_VERSION_BLOCKS})

KIND_BLOOMRF = 1
KIND_BLOOM = 2
KIND_SHARDED_BLOOMRF = 3
KIND_PREFIX_BLOOM = 4
KIND_ROSETTA = 5
KIND_SURF = 6
KIND_CUCKOO = 7
KIND_NONE = 8
KIND_SSTABLE = 9
KIND_STORE = 10
KIND_WAL = 11

#: Kinds that are no longer written or read.  Each keeps its value (and its
#: KIND_NAMES entry) so no later kind reuses the byte and a reader can name
#: what an old file holds; :func:`pack_frame` refuses to write them.
#: ``sharded-bloomrf`` shard sets went with the filter-level sharding layer
#: (shard the store with ``ShardedLsmDB`` instead).
RETIRED_KINDS = frozenset({KIND_SHARDED_BLOOMRF})

KIND_NAMES = {
    KIND_BLOOMRF: "bloomrf",
    KIND_BLOOM: "bloom",
    KIND_SHARDED_BLOOMRF: "sharded-bloomrf",
    KIND_PREFIX_BLOOM: "prefix-bloom",
    KIND_ROSETTA: "rosetta",
    KIND_SURF: "surf",
    KIND_CUCKOO: "cuckoo",
    KIND_NONE: "none",
    KIND_SSTABLE: "sstable",
    KIND_STORE: "store-manifest",
    KIND_WAL: "write-ahead-log",
}


class SerialError(ValueError):
    """A serialized filter frame is corrupt, truncated, or of the wrong kind.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    handlers keep working; new code should catch :class:`SerialError` to
    distinguish frame problems from ordinary argument errors.
    """


_PREFIX_LEN = 12  # magic + version + kind + header length


def pack_frame(
    kind: int, header: dict[str, Any], *payloads: bytes, version: int = FORMAT_VERSION
) -> bytes:
    """Assemble one frame: magic, version, kind, JSON header, payloads."""
    if kind not in KIND_NAMES:
        raise SerialError(f"unknown serialization kind {kind}")
    if kind in RETIRED_KINDS:
        raise SerialError(
            f"serialization kind {kind} ({KIND_NAMES[kind]!r}) is retired"
        )
    if version not in _SUPPORTED_VERSIONS:
        raise SerialError(f"unsupported filter format version {version}")
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    parts = [
        MAGIC,
        version.to_bytes(2, "little"),
        kind.to_bytes(2, "little"),
        len(header_bytes).to_bytes(4, "little"),
        header_bytes,
        len(payloads).to_bytes(4, "little"),
    ]
    for payload in payloads:
        parts.append(len(payload).to_bytes(8, "little"))
        parts.append(payload)
    return b"".join(parts)


def _need(data: bytes | memoryview, cursor: int, size: int, what: str) -> int:
    """The offset ``size`` bytes past ``cursor``, or a truncation error."""
    if cursor + size > len(data):
        raise SerialError(
            f"truncated filter frame: expected {size} more bytes for {what} "
            f"at offset {cursor}, have {len(data) - cursor}"
        )
    return cursor + size


def _take(data: _Buf, cursor: int, size: int, what: str) -> tuple[_Buf, int]:
    """Slice ``size`` bytes at ``cursor`` (zero-copy for memoryview input)."""
    end = _need(data, cursor, size, what)
    return data[cursor:end], end


def unpack_frame(
    data: bytes, expect_kind: int | None = None
) -> tuple[dict[str, Any], list[bytes]]:
    """Parse a frame back into ``(header, payloads)``.

    Raises :class:`SerialError` on a bad magic, an unsupported format
    version, a kind mismatch, truncation, or a malformed header.
    """
    kind, header, payloads = _unpack_any(data)
    _check_kind(kind, expect_kind)
    return header, payloads


def unpack_frame_prefix(
    data: bytes, start: int = 0, expect_kind: int | None = None
) -> tuple[dict[str, Any], list[bytes], int]:
    """Parse the frame beginning at ``start``; tolerate trailing bytes.

    The streaming counterpart of :func:`unpack_frame` for files that hold
    a *sequence* of frames (the write-ahead log header followed by its
    records; a store manifest is always exactly one frame): returns
    ``(header, payloads, end)`` where ``end`` is the offset one past the
    parsed frame, ready to hand back as the next ``start``.  Failures
    raise exactly like :func:`unpack_frame`.
    """
    kind, header, payloads, end = _unpack_at(data, start)
    _check_kind(kind, expect_kind)
    return header, payloads, end


def _check_kind(kind: int, expect_kind: int | None) -> None:
    if expect_kind is not None and kind != expect_kind:
        raise SerialError(
            f"serialized object is a {KIND_NAMES.get(kind, kind)!r} frame "
            f"(kind byte {kind}), expected {KIND_NAMES[expect_kind]!r} "
            f"(kind byte {expect_kind})"
        )


def peek_kind(data: bytes) -> int:
    """Kind of a frame without parsing payloads (CLI/inspect dispatch)."""
    prefix, _ = _take(data, 0, _PREFIX_LEN, "frame prefix")
    _check_prefix(prefix)
    return int.from_bytes(prefix[6:8], "little")


def _check_prefix(prefix: bytes | memoryview) -> int:
    if bytes(prefix[:4]) != MAGIC:
        raise SerialError(
            f"not a serialized repro filter (bad magic {bytes(prefix[:4])!r}, "
            f"expected {MAGIC!r})"
        )
    version = int.from_bytes(prefix[4:6], "little")
    if version not in _SUPPORTED_VERSIONS:
        raise SerialError(
            f"unsupported filter format version {version} "
            f"(this build reads versions {min(_SUPPORTED_VERSIONS)}-"
            f"{max(_SUPPORTED_VERSIONS)})"
        )
    return version


def _unpack_any(data: _Buf) -> tuple[int, dict[str, Any], list[_Buf]]:
    kind, header, payloads, cursor = _unpack_at(data, 0)
    if cursor != len(data):
        raise SerialError(
            f"trailing garbage after {KIND_NAMES[kind]} frame "
            f"({len(data) - cursor} bytes)"
        )
    return kind, header, payloads


def _unpack_at(data: _Buf, start: int) -> tuple[int, dict[str, Any], list[_Buf], int]:
    """Parse one frame into ``(kind, header, payloads, end)``."""
    kind, header, spans, end = _parse_at(data, start)
    return kind, header, [data[off : off + size] for off, size in spans], end


def _parse_at(
    data: _Buf, start: int
) -> tuple[int, dict[str, Any], list[tuple[int, int]], int]:
    """Parse one frame's prefix, header and payload table.

    Returns ``(kind, header, spans, end)`` where ``spans`` holds each
    payload's ``(offset, length)`` within ``data``.  No payload byte is
    read, so parsing a mapped frame faults in only the pages that hold
    its prefix, header and payload lengths.
    """
    prefix, cursor = _take(data, start, _PREFIX_LEN, "frame prefix")
    _check_prefix(prefix)
    kind = int.from_bytes(prefix[6:8], "little")
    if kind not in KIND_NAMES:
        raise SerialError(f"unknown serialization kind (kind byte {kind})")
    header_len = int.from_bytes(prefix[8:12], "little")
    header_bytes, cursor = _take(data, cursor, header_len, "header")
    try:
        header = json.loads(bytes(header_bytes).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerialError(f"corrupt filter frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise SerialError("corrupt filter frame header: not a JSON object")
    count_bytes, cursor = _take(data, cursor, 4, "payload count")
    spans: list[tuple[int, int]] = []
    for i in range(int.from_bytes(count_bytes, "little")):
        size_bytes, cursor = _take(data, cursor, 8, f"payload {i} length")
        size = int.from_bytes(size_bytes, "little")
        spans.append((cursor, size))
        cursor = _need(data, cursor, size, f"payload {i}")
    return kind, header, spans, cursor


# ----------------------------------------------------------------------
# mapped frames
# ----------------------------------------------------------------------
class FrameView:
    """One on-disk frame mapped read-only, with its payload spans.

    Produced by :func:`map_frame`.  ``spans`` holds each payload's
    ``(offset, length)`` in the file and ``payloads`` the matching
    :class:`memoryview` slices of the mapping.  The store's SST reader
    uses both: it ``os.pread``-s the spans it decodes into owned arrays
    (and to check the frame's payload CRC), and keeps a view only over
    the value blob, whose bytes fault in when a lookup touches them.
    Views keep the mapping alive — :meth:`close` drops the frame's own
    references and the map itself is released once the last derived view
    dies (files are immutable once sealed, and POSIX keeps
    unlinked-but-mapped pages valid, so pruning a run never invalidates
    live views).

    Mapping verifies no checksum; the reader of each frame kind decides
    which bytes it checks and when.
    """

    __slots__ = (
        "path", "kind", "version", "header", "spans", "payloads", "_mmap", "_view",
    )

    def __init__(
        self,
        path: str | os.PathLike[str],
        kind: int,
        version: int,
        header: dict[str, Any],
        spans: list[tuple[int, int]],
        mm: _mmap.mmap,
        view: memoryview,
    ) -> None:
        self.path = str(path)
        self.kind = kind
        self.version = version
        self.header = header
        self.spans = spans
        self.payloads: list[memoryview] = [view[off : off + n] for off, n in spans]
        self._mmap: _mmap.mmap | None = mm
        self._view: memoryview | None = view

    @property
    def view(self) -> memoryview | None:
        """The whole-frame memoryview (for kind-dispatched reloading)."""
        return self._view

    def close(self) -> None:
        """Drop this frame's own references to the mapping.

        Views already derived from ``payloads`` stay valid: each holds its
        own buffer reference, and the map is unmapped only when the last
        one is garbage-collected (``mmap.close`` on a still-exported
        buffer is a no-op here, not an error).
        """
        self.payloads = []
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:  # derived views still hold the buffer
                pass
            self._mmap = None

    def __enter__(self) -> "FrameView":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def map_frame(
    path: str | os.PathLike[str], expect_kind: int | None = None
) -> FrameView:
    """Map the single frame in ``path`` without reading its payloads.

    The file is ``mmap``-ed read-only, the prefix, JSON header and
    payload table are validated eagerly, and the payloads come back as
    spans plus views over the mapping (:class:`FrameView`).  Every
    failure raises :class:`SerialError` naming the file and the
    offending offset.
    """
    path = os.fspath(path)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise SerialError(f"{path}: cannot map frame: {exc}") from exc
    try:
        size = os.fstat(fd).st_size
        if size == 0:
            raise SerialError(f"{path}: truncated to an empty file")
        mm = _mmap.mmap(fd, 0, access=_mmap.ACCESS_READ)
    finally:
        os.close(fd)
    view = memoryview(mm)
    try:
        kind, header, spans, end = _parse_at(view, 0)
        if end != size:
            raise SerialError(
                f"trailing garbage after {KIND_NAMES[kind]} frame "
                f"({size - end} bytes at offset {end})"
            )
        _check_kind(kind, expect_kind)
    except SerialError as exc:
        view.release()
        try:
            mm.close()
        except BufferError:  # traceback frames may still hold sub-views
            pass
        raise SerialError(f"{path}: {exc}") from exc
    version = int.from_bytes(view[4:6], "little")
    return FrameView(path, kind, version, header, spans, mm, view)


# ----------------------------------------------------------------------
# kind dispatch (through the repro.api registry; lazy imports keep this
# module free of filter dependencies)
# ----------------------------------------------------------------------
def dump_filter(filt: object) -> bytes:
    """Serialize any supported filter object to its framed bytes."""
    to_bytes = getattr(filt, "to_bytes", None)
    if to_bytes is None:
        raise TypeError(f"cannot serialize {type(filt).__name__} objects")
    blob: bytes = to_bytes()
    return blob


def load_filter(data: bytes) -> object:
    """Reconstruct whatever filter a frame holds, dispatching on its kind.

    Dispatch goes through the :mod:`repro.api` registry, so every
    registered kind — core bloomRF and every baseline — loads through this
    one entry point.
    """
    from repro.api import filter_from_bytes

    loaded: object = filter_from_bytes(data)
    return loaded
