"""Per-block payload compression and the decompressed-block cache.

Version-2 :data:`~repro.serial.KIND_SSTABLE` frames split each payload
(keys, tombstone bitmap, value lengths, value blob) into fixed-size
blocks, compress each block independently, and record a *block table* —
``[compressed_len, crc32], ...`` per payload — in the frame header.
Independent blocks are what make the read tier lazy: a point lookup
decompresses only the one value block it touches, the CRC is verified on
that block alone, and the result lands in a small shared
:class:`BlockCache` so hot ranges pay the decompression once
("A Case for Partitioned Bloom Filters" makes the same block-locality
argument for the filters themselves).

Codecs: ``zlib`` is stdlib and always available; ``zstd`` rides on the
optional ``zstandard`` package (the ``repro[zstd]`` extra) and fails
loudly — never silently falls back — when asked for but not installed.

Corruption in a compressed block is detected *before* its bytes are
returned: every block's CRC32 (over the stored, compressed bytes) is
checked on first access, and any mismatch — as well as a block table
whose lengths disagree with the payload — raises
:class:`~repro.serial.SerialError` naming the file, payload, block, and
offset.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.serial import SerialError

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "DEFAULT_CACHE_BYTES",
    "normalize_compression",
    "require_codec",
    "compress_payload",
    "decompress_payload",
    "BlockCache",
    "BlockedPayload",
    "SlicedValues",
]

DEFAULT_BLOCK_BYTES = 1 << 16  # 64 KiB raw bytes per compressed block
DEFAULT_CACHE_BYTES = 8 << 20  # decompressed-block budget per store
_ITER_CHUNK = 1 << 20  # raw value bytes read at a time by SlicedValues.__iter__

_CODEC_NAMES = ("zlib", "zstd")


def _zstd_module() -> Any:
    try:
        import zstandard
    except ImportError:
        return None
    return zstandard


def require_codec(codec: str) -> str:
    if codec not in _CODEC_NAMES:
        raise ValueError(
            f"unknown compression codec {codec!r} "
            f"(known codecs: {', '.join(_CODEC_NAMES)})"
        )
    if codec == "zstd" and _zstd_module() is None:
        raise ValueError(
            "the 'zstd' codec requires the optional 'zstandard' package "
            "(install the repro[zstd] extra); 'zlib' needs nothing"
        )
    return codec


def _compressor(codec: str) -> Callable[[bytes | memoryview], bytes]:
    require_codec(codec)
    if codec == "zlib":
        return lambda raw: zlib.compress(bytes(raw), 6)
    cctx = _zstd_module().ZstdCompressor()

    def compress(raw: bytes | memoryview) -> bytes:
        comp: bytes = cctx.compress(bytes(raw))
        return comp

    return compress


def _decompressor(codec: str) -> Callable[[bytes | memoryview, int], bytes]:
    require_codec(codec)
    if codec == "zlib":
        return lambda comp, raw_len: zlib.decompress(comp)
    dctx = _zstd_module().ZstdDecompressor()

    def decompress(comp: bytes | memoryview, raw_len: int) -> bytes:
        raw: bytes = dctx.decompress(comp, max_output_size=raw_len)
        return raw

    return decompress


def normalize_compression(compression: object) -> dict[str, Any] | None:
    """Coerce an ``open_store(compression=...)`` argument to canonical form.

    ``None`` means uncompressed; a codec name string means that codec at
    :data:`DEFAULT_BLOCK_BYTES`; a dict may pin ``codec`` and
    ``block_bytes``.  The canonical dict is what the store manifest
    persists in its geometry, so reopen can cross-check it against every
    run frame.
    """
    if compression is None or compression is False:
        return None
    if isinstance(compression, str):
        spec = {"codec": compression, "block_bytes": DEFAULT_BLOCK_BYTES}
    elif isinstance(compression, dict):
        unknown = set(compression) - {"codec", "block_bytes"}
        if unknown:
            raise ValueError(
                f"unknown compression option(s) {sorted(unknown)} "
                "(expected 'codec' and optionally 'block_bytes')"
            )
        if "codec" not in compression:
            raise ValueError("compression dict needs a 'codec' entry")
        spec = {
            "codec": compression["codec"],
            "block_bytes": int(compression.get("block_bytes", DEFAULT_BLOCK_BYTES)),
        }
    else:
        raise ValueError(
            f"compression must be None, a codec name, or a dict, "
            f"got {compression!r}"
        )
    if not isinstance(spec["codec"], str) or spec["codec"] not in _CODEC_NAMES:
        raise ValueError(
            f"unknown compression codec {spec['codec']!r} "
            f"(known codecs: {', '.join(_CODEC_NAMES)})"
        )
    if spec["block_bytes"] <= 0:
        raise ValueError(
            f"compression block_bytes must be positive, got {spec['block_bytes']}"
        )
    return spec


# ----------------------------------------------------------------------
# writing: raw payload -> concatenated compressed blocks + block table
# ----------------------------------------------------------------------
def compress_payload(
    raw: bytes | memoryview, codec: str, block_bytes: int
) -> tuple[bytes, list[list[int]]]:
    """Split ``raw`` into ``block_bytes`` chunks and compress each.

    Returns ``(joined_compressed_bytes, table)`` where ``table`` holds one
    ``[compressed_len, crc32]`` pair per block — the CRC covers the
    *stored* (compressed) bytes, so a disk bit flip is caught before the
    decompressor ever sees it.  An empty payload yields an empty table.
    """
    compress = _compressor(codec)
    view = memoryview(raw)
    parts: list[bytes] = []
    table: list[list[int]] = []
    for start in range(0, len(view), block_bytes):
        comp = compress(view[start : start + block_bytes])
        table.append([len(comp), zlib.crc32(comp)])
        parts.append(comp)
    return b"".join(parts), table


# ----------------------------------------------------------------------
# the decompressed-block LRU cache
# ----------------------------------------------------------------------
class BlockCache:
    """Thread-safe, bytes-budgeted LRU of decompressed blocks.

    One cache is shared per *store* (all shards of an on-disk store
    feed the same budget), keyed by
    ``(run file path, payload index, block index)``.  Uncompressed
    mmap'd payloads never enter it — the page cache already serves
    those for free.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be non-negative, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._blocks: OrderedDict[tuple[Any, ...], bytes] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple[Any, ...]) -> bytes | None:
        with self._lock:
            block = self._blocks.get(key)
            if block is None:
                self.misses += 1
                return None
            self._blocks.move_to_end(key)
            self.hits += 1
            return block

    def put(self, key: tuple[Any, ...], block: bytes) -> None:
        size = len(block)
        if size > self.capacity_bytes:
            return  # larger than the whole budget; not worth evicting for
        with self._lock:
            old = self._blocks.pop(key, None)
            if old is not None:
                self._used -= len(old)
            self._blocks[key] = block
            self._used += size
            while self._used > self.capacity_bytes:
                _, evicted = self._blocks.popitem(last=False)
                self._used -= len(evicted)

    def drop_file(self, path: str) -> None:
        """Evict every block of one run file (called when a run is pruned)."""
        with self._lock:
            stale = [key for key in self._blocks if key[0] == path]
            for key in stale:
                self._used -= len(self._blocks.pop(key))

    def __len__(self) -> int:
        return len(self._blocks)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._used = 0


# ----------------------------------------------------------------------
# reading: lazy per-block decompression with CRC verification
# ----------------------------------------------------------------------
class BlockedPayload:
    """One compressed frame payload, decompressed block by block.

    ``data`` is the concatenated compressed blocks (bytes or a zero-copy
    memoryview from a mapped frame); ``table`` is the header's
    ``[compressed_len, crc32]`` list.  The table is validated against the
    payload length up front, each block's CRC on first access, and each
    block's decompressed size against what the geometry implies — any
    disagreement raises :class:`SerialError` naming ``context`` (the run
    file and payload) plus the block index and byte offset.
    """

    __slots__ = (
        "_data",
        "_table",
        "_offsets",
        "raw_len",
        "block_bytes",
        "_decompress",
        "_context",
        "_cache",
        "_cache_key",
        "_stats",
    )

    def __init__(
        self,
        data: bytes | memoryview,
        table: list[list[int]],
        raw_len: int,
        block_bytes: int,
        codec: str,
        *,
        context: str,
        cache: BlockCache | None = None,
        cache_key: tuple[Any, ...] | None = None,
        stats: Any = None,
    ) -> None:
        if block_bytes <= 0:
            raise SerialError(
                f"{context}: invalid block size {block_bytes} in block table"
            )
        expected_blocks = -(-int(raw_len) // block_bytes) if raw_len else 0
        if not isinstance(table, list) or len(table) != expected_blocks:
            raise SerialError(
                f"{context}: truncated block table: {len(table) if isinstance(table, list) else 'malformed'}"
                f" entries for {raw_len} raw bytes in {block_bytes}-byte blocks"
                f" (expected {expected_blocks})"
            )
        offsets = [0]
        for entry in table:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, int) and v >= 0 for v in entry)
            ):
                raise SerialError(
                    f"{context}: malformed block table entry {entry!r} "
                    f"at offset {offsets[-1]}"
                )
            offsets.append(offsets[-1] + entry[0])
        if offsets[-1] != len(data):
            raise SerialError(
                f"{context}: block table claims {offsets[-1]} compressed "
                f"bytes but the payload holds {len(data)}"
            )
        self._data = data
        self._table = table
        self._offsets = offsets
        self.raw_len = int(raw_len)
        self.block_bytes = block_bytes
        self._decompress = _decompressor(codec)
        self._context = context
        self._cache = cache
        self._cache_key = cache_key
        self._stats = stats

    @property
    def num_blocks(self) -> int:
        return len(self._table)

    def block(self, index: int) -> bytes:
        """Decompress (or fetch from cache) one verified block."""
        cache = self._cache
        key = (
            (*self._cache_key, index) if self._cache_key is not None else None
        )
        if cache is not None and key is not None:
            cached = cache.get(key)
            stats = self._stats
            if cached is not None:
                if stats is not None:
                    # Atomic bump: block() runs on every reader thread
                    # concurrently, and a bare ``+= 1`` here loses counts
                    # (read-modify-write race on the shared IOStats).
                    stats.add_cache_hit()
                return cached
            if stats is not None:
                stats.add_cache_miss()
        block = self._decode(index)
        if cache is not None and key is not None:
            cache.put(key, block)
        return block

    def _decode(self, index: int) -> bytes:
        start, end = self._offsets[index], self._offsets[index + 1]
        comp = self._data[start:end]
        comp_len, crc = self._table[index]
        if zlib.crc32(comp) != crc:
            raise SerialError(
                f"{self._context}: block {index} checksum mismatch "
                f"({comp_len} compressed bytes at offset {start})"
            )
        try:
            raw = self._decompress(comp, self.block_bytes)
        except Exception as exc:
            raise SerialError(
                f"{self._context}: block {index} at offset {start} "
                f"does not decompress: {exc}"
            ) from exc
        expected = min(self.block_bytes, self.raw_len - index * self.block_bytes)
        if len(raw) != expected:
            raise SerialError(
                f"{self._context}: block {index} at offset {start} "
                f"decompressed to {len(raw)} bytes, expected {expected}"
            )
        return raw

    def read(self, start: int, length: int) -> bytes:
        """Raw bytes ``[start, start+length)``, gathered across blocks."""
        if length <= 0:
            return b""
        if start < 0 or start + length > self.raw_len:
            raise IndexError(
                f"{self._context}: read [{start}, {start + length}) outside "
                f"{self.raw_len} raw bytes"
            )
        first = start // self.block_bytes
        last = (start + length - 1) // self.block_bytes
        if first == last:
            offset = start - first * self.block_bytes
            return self.block(first)[offset : offset + length]
        parts: list[bytes] = []
        for index in range(first, last + 1):
            block = self.block(index)
            lo = start - index * self.block_bytes if index == first else 0
            hi = (
                start + length - index * self.block_bytes
                if index == last
                else len(block)
            )
            parts.append(block[lo:hi])
        return b"".join(parts)

    def to_bytes(self) -> bytes:
        """The whole payload, decompressed eagerly (bypasses the cache)."""
        return b"".join(self._decode(i) for i in range(self.num_blocks))


def decompress_payload(
    data: bytes | memoryview,
    table: list[list[int]],
    raw_len: int,
    block_bytes: int,
    codec: str,
    context: str,
) -> bytes:
    """Eagerly decompress one block-table payload, verifying every CRC."""
    return BlockedPayload(
        data, table, raw_len, block_bytes, codec, context=context
    ).to_bytes()


# ----------------------------------------------------------------------
# lazy value sequences
# ----------------------------------------------------------------------
class SlicedValues:
    """A read-only ``Sequence[bytes]`` sliced out of one value blob.

    ``source`` is either a buffer (bytes, or a memoryview over a mapped
    run file) or a :class:`BlockedPayload`; ``offsets`` is the cumulative
    byte offset of each value (``len(values) + 1`` entries).  Indexing
    materializes one value — a mapped store faults in, and a compressed
    store decompresses, only the blocks a lookup touches — while
    iteration (a merge reading a whole run) reads the blob about a
    megabyte at a time and slices whole values out of each read.
    """

    __slots__ = ("_source", "_offsets")

    def __init__(
        self,
        source: bytes | memoryview | BlockedPayload,
        offsets: npt.NDArray[Any],
    ) -> None:
        self._source = (
            source if isinstance(source, BlockedPayload) else memoryview(source)
        )
        self._offsets = offsets

    def __len__(self) -> int:
        return int(self._offsets.size - 1)

    def __getitem__(self, index: int) -> bytes:
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"value index {index} out of range for {size} values")
        start = int(self._offsets[index])
        return self._read(start, int(self._offsets[index + 1]) - start)

    def __iter__(self) -> Iterator[bytes]:
        # One read per ~_ITER_CHUNK bytes of whole values, then plain bytes
        # slices: a per-value read costs a Python call and a buffer slice
        # each, while a full copy would hold the whole blob in memory.
        offsets = self._offsets
        size = len(self)
        first = 0
        while first < size:
            target = offsets[first] + _ITER_CHUNK
            last = int(np.searchsorted(offsets, target, side="right")) - 1
            last = min(max(last, first + 1), size)
            base = int(offsets[first])
            chunk = self._read(base, int(offsets[last]) - base)
            bounds = (offsets[first : last + 1] - base).tolist()
            yield from [
                chunk[lo:hi]
                for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
            ]
            first = last

    def _read(self, start: int, length: int) -> bytes:
        if isinstance(self._source, BlockedPayload):
            return self._source.read(start, length)
        return self._source[start : start + length].tobytes()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SlicedValues(n={len(self)})"
