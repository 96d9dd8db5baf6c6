"""repro.api — one filter API: protocol, specs, registry, and the store facade.

The paper's headline claim is that bloomRF is a *drop-in* replacement for
point/range filters inside an LSM store (Sect. 1, Sect. 6).  This module
makes "drop-in" literal for the whole package:

* :class:`RangeFilter` — the runtime-checkable protocol every filter in the
  package satisfies: online inserts (scalar + bulk), point and range probes
  (scalar + bulk), ``size_bits`` accounting, and framed serialization.
* :class:`FilterSpec` — a frozen, validated, JSON-round-trippable value
  describing *which* filter to build and with *which* parameters.  Specs are
  plain data: they travel through config files, CLI flags, store manifests,
  and policy objects unchanged.
* the registry — :func:`register_filter` / :func:`make_filter` /
  :func:`filter_from_bytes` / :func:`available_kinds`: one construction and
  one deserialization path for every kind (core bloomRF and every
  baseline), replacing the per-consumer dispatch tables that
  ``lsm/filter_policy.py``, ``serial.py``, ``cli.py``, and the bench harness
  each used to keep.
* :func:`open_store` — the one-call facade returning an
  :class:`~repro.lsm.db.LsmDB` (``shards=1``) or
  :class:`~repro.lsm.sharded.ShardedLsmDB` (``shards>1``) behind the
  :class:`Store` interface, with the filter chosen by a :class:`FilterSpec`.

Everything downstream (``SpecPolicy``, the CLI, the harness) is a thin layer
over these four pieces; adding a new backend is one :func:`register_filter`
call.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro._util import check_bounds_rows
from repro.baselines.bloom import BloomFilter
from repro.baselines.cuckoo import CuckooFilter
from repro.baselines.prefix_bloom import PrefixBloomFilter
from repro.baselines.rosetta import Rosetta
from repro.baselines.surf import SuRF, SurfFilter
from repro.core.bloomrf import BloomRF
from repro.serial import (
    KIND_BLOOM,
    KIND_BLOOMRF,
    KIND_CUCKOO,
    KIND_NAMES,
    KIND_NONE,
    KIND_PREFIX_BLOOM,
    KIND_ROSETTA,
    KIND_SURF,
    RETIRED_KINDS,
    SerialError,
    pack_frame,
    peek_kind,
    unpack_frame,
)

__all__ = [
    "RangeFilter",
    "Store",
    "FilterSpec",
    "NullFilter",
    "register_filter",
    "make_filter",
    "filter_from_bytes",
    "available_kinds",
    "standard_spec",
    "open_store",
]


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
@runtime_checkable
class RangeFilter(Protocol):
    """What every filter kind in the package exposes.

    Scalar and bulk forms compute bit-identical answers (asserted by the
    conformance tests); bulk bounds are ``(n, 2)`` inclusive ``[lo, hi]``
    rows.  ``to_bytes`` emits a :mod:`repro.serial` frame that
    :func:`filter_from_bytes` rehydrates with identical probe answers.
    Point-only filters (Bloom, Cuckoo) answer every range probe with a
    sound "maybe" (True) — exactly the limitation motivating point-range
    filters — so the protocol stays uniform.
    """

    def insert(self, key: int) -> Any: ...

    def insert_many(self, keys: np.ndarray) -> Any: ...

    def contains_point(self, key: int) -> bool: ...

    def contains_point_many(self, keys: np.ndarray) -> np.ndarray: ...

    def contains_range(self, l_key: int, r_key: int) -> bool: ...

    def contains_range_many(self, bounds: np.ndarray) -> np.ndarray: ...

    @property
    def size_bits(self) -> int: ...

    def to_bytes(self) -> bytes: ...


@runtime_checkable
class Store(Protocol):
    """The one-store interface :func:`open_store` returns.

    Satisfied by both :class:`~repro.lsm.db.LsmDB` and
    :class:`~repro.lsm.sharded.ShardedLsmDB`: scalar and batched writes,
    exact reads, filter-level *maybe* probes, scans, maintenance, and
    :class:`~repro.lsm.iostats.IOStats` accounting — so callers scale from
    one engine to N partitioned engines without an API change.
    """

    def put(self, key: int, value: bytes = b"") -> None: ...

    def delete(self, key: int) -> None: ...

    def put_many(self, keys, values=None) -> None: ...

    def delete_many(self, keys) -> None: ...

    def get(self, key: int) -> bool: ...

    def get_value(self, key: int) -> bytes | None: ...

    def get_many(self, keys) -> np.ndarray: ...

    def may_contain_many(self, keys) -> np.ndarray: ...

    def scan_nonempty(self, l_key: int, r_key: int) -> bool: ...

    def scan_nonempty_many(self, bounds) -> np.ndarray: ...

    def scan_may_contain(self, bounds) -> np.ndarray: ...

    def scan(self, l_key: int, r_key: int, limit: int | None = None): ...

    def flush(self) -> None: ...

    def sync(self) -> None: ...

    def commit_barrier(self) -> None: ...

    def compact(self) -> None: ...

    def close(self) -> None: ...

    def reset_stats(self): ...


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FilterSpec:
    """Which filter to build, as plain validated data.

    ``kind`` names a registered filter kind (see :func:`available_kinds`);
    ``params`` are the keyword arguments its factory accepts, restricted to
    JSON-serializable values so a spec round-trips through
    :meth:`to_json` / :meth:`from_json` unchanged (store manifests and CLI
    configs rely on this).  Treat specs as immutable: derive variants with
    :meth:`with_params`.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError("FilterSpec.kind must be a non-empty string")
        try:
            params = dict(self.params)
        except (TypeError, ValueError):
            raise ValueError(
                "FilterSpec.params must be a mapping of parameter names to "
                f"values, got {type(self.params).__name__}"
            ) from None
        if any(not isinstance(name, str) for name in params):
            raise ValueError("FilterSpec.params keys must be strings")
        try:
            json.dumps(params)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"FilterSpec.params must be JSON-serializable: {exc}"
            ) from None
        object.__setattr__(self, "params", params)

    # -- derivation ----------------------------------------------------
    def with_params(self, **overrides: Any) -> "FilterSpec":
        """A new spec with ``overrides`` merged over the current params."""
        return FilterSpec(self.kind, {**self.params, **overrides})

    # -- JSON round-trip ----------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "FilterSpec":
        return cls(data["kind"], dict(data.get("params", {})))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FilterSpec":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"FilterSpec({self.kind!r}{', ' if params else ''}{params})"


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegisteredKind:
    """One registry entry: how to build and load a filter kind."""

    kind: str
    build: Callable[..., RangeFilter]
    serial_kind: int | None = None
    from_bytes: Callable[[bytes], Any] | None = None
    description: str = ""


_REGISTRY: dict[str, RegisteredKind] = {}
_SERIAL_LOADERS: dict[int, RegisteredKind] = {}


def register_filter(
    kind: str,
    build: Callable[..., RangeFilter],
    *,
    serial_kind: int | None = None,
    from_bytes: Callable[[bytes], Any] | None = None,
    description: str = "",
    replace_existing: bool = False,
) -> RegisteredKind:
    """Register a filter kind with the package-wide registry.

    ``build(**params)`` constructs an empty (or self-building) filter
    satisfying :class:`RangeFilter`; ``from_bytes(data)`` rehydrates the
    frame identified by ``serial_kind``.
    """
    if not isinstance(kind, str) or not kind:
        raise ValueError("filter kind must be a non-empty string")
    if kind in _REGISTRY and not replace_existing:
        raise ValueError(f"filter kind {kind!r} is already registered")
    if serial_kind is not None:
        owner = _SERIAL_LOADERS.get(serial_kind)
        if owner is not None and owner.kind != kind:
            raise ValueError(
                f"serial kind {serial_kind} is already owned by filter kind "
                f"{owner.kind!r}; registering {kind!r} over it would hijack "
                "deserialization of existing frames"
            )
    entry = RegisteredKind(
        kind=kind,
        build=build,
        serial_kind=serial_kind,
        from_bytes=from_bytes,
        description=description,
    )
    previous = _REGISTRY.get(kind)
    _REGISTRY[kind] = entry
    # Keep the loader table consistent with the registry: drop the
    # replaced entry's stale loader, then install the new one.
    if previous is not None and previous.serial_kind is not None:
        if _SERIAL_LOADERS.get(previous.serial_kind) is previous:
            del _SERIAL_LOADERS[previous.serial_kind]
    if serial_kind is not None and from_bytes is not None:
        _SERIAL_LOADERS[serial_kind] = entry
    return entry


def registered_kind(kind: str) -> RegisteredKind:
    """The registry entry for ``kind``; raises with the known kinds listed."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown filter kind {kind!r} (registered kinds: {known})"
        ) from None


def available_kinds() -> tuple[str, ...]:
    """Every kind :func:`make_filter` can construct, sorted."""
    return tuple(sorted(_REGISTRY))


def make_filter(spec: FilterSpec, *, n_keys: int | None = None) -> RangeFilter:
    """Construct the filter a spec describes.

    ``n_keys`` (the expected key count, used for sizing) may live in the
    spec's params or be supplied here — the call-site value wins, which is
    how :class:`~repro.lsm.filter_policy.SpecPolicy` sizes each SST's
    filter block for the keys it actually holds.  Unknown kinds and
    parameters raise :class:`ValueError` naming the accepted ones.
    """
    entry = registered_kind(spec.kind)
    params = dict(spec.params)
    if n_keys is not None:
        params["n_keys"] = int(n_keys)
    try:
        inspect.signature(entry.build).bind(**params)
    except TypeError as exc:
        accepted = ", ".join(inspect.signature(entry.build).parameters)
        raise ValueError(
            f"invalid parameters for filter kind {spec.kind!r}: {exc} "
            f"(accepted: {accepted})"
        ) from None
    return entry.build(**params)


def filter_from_bytes(data: bytes):
    """Rehydrate any serialized filter, dispatching on its frame kind."""
    kind = peek_kind(data)
    if kind in RETIRED_KINDS:
        raise SerialError(
            f"serialization kind {kind} ({KIND_NAMES[kind]!r}) is retired "
            "and can no longer be read; rebuild the filter from its keys"
        )
    entry = _SERIAL_LOADERS.get(kind)
    if entry is None:
        name = KIND_NAMES.get(kind)
        detail = f"{name!r} has no registered loader" if name else "unregistered"
        raise SerialError(
            f"unknown serialization kind (kind byte {kind}: {detail})"
        )
    return entry.from_bytes(data)


# ----------------------------------------------------------------------
# the "none" filter (fence pointers only: every probe answers "maybe")
# ----------------------------------------------------------------------
class NullFilter:
    """The ``"none"`` kind: zero bits, every probe a sound "maybe".

    Gives the no-filter baseline (fence pointers only, the paper's Fig. 9
    floor) the same protocol surface as every real filter, including a
    serialized form, so spec-driven stores can disable filtering without a
    special case.
    """

    size_bits = 0

    def __init__(self, n_keys: int | None = None) -> None:
        self._num_keys = 0

    def __len__(self) -> int:
        return self._num_keys

    def insert(self, key: int) -> None:
        self._num_keys += 1

    def insert_many(self, keys: np.ndarray) -> None:
        self._num_keys += int(np.asarray(keys).size)  # repro-lint: ignore[dtype-discipline] -- size only; the key values are never read

    def contains_point(self, key: int) -> bool:
        return True

    def contains_point_many(self, keys: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(keys).size, dtype=bool)  # repro-lint: ignore[dtype-discipline] -- size only; the key values are never read

    def contains_range(self, l_key: int, r_key: int) -> bool:
        if l_key > r_key:
            raise ValueError(f"empty query range [{l_key}, {r_key}]")
        return True

    def contains_range_many(self, bounds: np.ndarray) -> np.ndarray:
        return np.ones(check_bounds_rows(bounds).shape[0], dtype=bool)

    def to_bytes(self) -> bytes:
        return pack_frame(KIND_NONE, {"num_keys": self._num_keys})

    @classmethod
    def from_bytes(cls, data: bytes) -> "NullFilter":
        header, payloads = unpack_frame(data, expect_kind=KIND_NONE)
        if payloads:
            raise SerialError(
                f"none frame carries {len(payloads)} payloads, expected 0"
            )
        filt = cls()
        filt._num_keys = int(header.get("num_keys", 0))
        return filt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NullFilter(keys={self._num_keys})"


# ----------------------------------------------------------------------
# built-in kind factories
# ----------------------------------------------------------------------
def _build_bloomrf(
    n_keys: int,
    bits_per_key: float = 16.0,
    max_range: int = 1 << 40,
    domain_bits: int = 64,
    point_weight: float = 4.0,
    seed: int = 0x5EED,
) -> BloomRF:
    return BloomRF.tuned(
        n_keys=n_keys,
        bits_per_key=bits_per_key,
        max_range=max_range,
        domain_bits=domain_bits,
        point_weight=point_weight,
        seed=seed,
    )


def _build_bloomrf_basic(
    n_keys: int,
    bits_per_key: float = 16.0,
    domain_bits: int = 64,
    delta: int = 7,
    seed: int = 0x5EED,
) -> BloomRF:
    return BloomRF.basic(
        n_keys=n_keys,
        bits_per_key=bits_per_key,
        domain_bits=domain_bits,
        delta=delta,
        seed=seed,
    )


def _build_bloom(
    n_keys: int,
    bits_per_key: float = 16.0,
    style: str = "rocksdb",
    num_hashes: int | None = None,
    seed: int = 0xB10F,
) -> BloomFilter:
    return BloomFilter(
        n_keys=n_keys,
        bits_per_key=bits_per_key,
        style=style,
        num_hashes=num_hashes,
        seed=seed,
    )


def _build_prefix_bloom(
    n_keys: int,
    bits_per_key: float = 16.0,
    expected_range: int = 1 << 16,
    domain_bits: int = 64,
    seed: int = 0x9F1,
) -> PrefixBloomFilter:
    return PrefixBloomFilter.for_range(
        n_keys=n_keys,
        bits_per_key=bits_per_key,
        expected_range=expected_range,
        domain_bits=domain_bits,
        seed=seed,
    )


def _build_rosetta(
    n_keys: int,
    bits_per_key: float = 16.0,
    max_range: int = 1 << 16,
    domain_bits: int = 64,
    seed: int = 0x0E77A,
) -> Rosetta:
    return Rosetta.tuned(
        n_keys=n_keys,
        bits_per_key=bits_per_key,
        max_range=max_range,
        domain_bits=domain_bits,
        seed=seed,
    )


def _build_surf(
    n_keys: int | None = None,
    bits_per_key: float | None = None,
    suffix_mode: str = "real",
    suffix_bits: int = 8,
    dense_ratio: int = 64,
    seed: int = 0x50F1,
) -> SurfFilter:
    # SuRF is static: the facade buffers inserts and builds the trie from
    # the actual key set, so the expected count is irrelevant for sizing.
    return SurfFilter(
        bits_per_key=bits_per_key,
        suffix_mode=suffix_mode,
        suffix_bits=suffix_bits,
        dense_ratio=dense_ratio,
        seed=seed,
    )


def _build_cuckoo(
    n_keys: int,
    fingerprint_bits: int = 12,
    load_factor: float = 0.95,
    seed: int = 0xC0C0,
) -> CuckooFilter:
    return CuckooFilter(
        n_keys=n_keys,
        fingerprint_bits=fingerprint_bits,
        load_factor=load_factor,
        seed=seed,
    )


def _build_none(n_keys: int | None = None) -> NullFilter:
    return NullFilter()


register_filter(
    "bloomrf",
    _build_bloomrf,
    serial_kind=KIND_BLOOMRF,
    from_bytes=BloomRF.from_bytes,
    description="advisor-tuned bloomRF point-range filter (Sect. 7)",
)
register_filter(
    "bloomrf-basic",
    _build_bloomrf_basic,
    # Basic filters serialize as ordinary bloomRF frames; the "bloomrf"
    # entry owns the KIND_BLOOMRF loader.
    description="tuning-free basic bloomRF (Sect. 3-5)",
)
register_filter(
    "bloom",
    _build_bloom,
    serial_kind=KIND_BLOOM,
    from_bytes=BloomFilter.from_bytes,
    description="standard Bloom filter (point probes only)",
)
register_filter(
    "prefix-bloom",
    _build_prefix_bloom,
    serial_kind=KIND_PREFIX_BLOOM,
    from_bytes=PrefixBloomFilter.from_bytes,
    description="Bloom filter over fixed-length key prefixes (Fig. 9.D)",
)
register_filter(
    "rosetta",
    _build_rosetta,
    serial_kind=KIND_ROSETTA,
    from_bytes=Rosetta.from_bytes,
    description="hierarchical per-level Bloom filters with doubting",
)
register_filter(
    "surf",
    _build_surf,
    serial_kind=KIND_SURF,
    from_bytes=SuRF.from_bytes,
    description="fast succinct trie range filter (static; buffered facade)",
)
register_filter(
    "cuckoo",
    _build_cuckoo,
    serial_kind=KIND_CUCKOO,
    from_bytes=CuckooFilter.from_bytes,
    description="cuckoo filter (point probes, deletable)",
)
register_filter(
    "none",
    _build_none,
    serial_kind=KIND_NONE,
    from_bytes=NullFilter.from_bytes,
    description="no filter: fence pointers only, every probe answers maybe",
)


# ----------------------------------------------------------------------
# the standard parameter mapping (one place instead of three dispatch tables)
# ----------------------------------------------------------------------
def standard_spec(
    kind: str,
    *,
    bits_per_key: float = 16.0,
    max_range: int = 1 << 20,
    seed: int | None = None,
) -> FilterSpec:
    """Map the shared benchmark knobs onto a kind's native parameters.

    Every sweep in the paper varies the same two knobs — the space budget
    (bits/key) and the largest expected range — whatever the filter.  This
    is the single place that translation lives: the CLI, the bench
    harness, and :func:`~repro.lsm.filter_policy.policy_by_name` all call
    it, so adding a kind here makes it measurable everywhere at once.
    """
    registered_kind(kind)  # fail fast with the known-kinds list
    if kind in ("bloomrf",):
        params: dict[str, Any] = {
            "bits_per_key": bits_per_key, "max_range": int(max_range),
        }
    elif kind in ("bloomrf-basic", "bloom", "surf"):
        params = {"bits_per_key": bits_per_key}
    elif kind == "prefix-bloom":
        params = {
            "bits_per_key": bits_per_key, "expected_range": int(max_range),
        }
    elif kind == "rosetta":
        params = {
            "bits_per_key": bits_per_key, "max_range": int(max_range),
        }
    elif kind == "cuckoo":
        # The paper's Fig. 12.E sizing: spend ~95% of the budget on the
        # fingerprint at the 95% target occupancy.
        params = {
            "fingerprint_bits": max(2, min(32, int(bits_per_key * 0.95 / 1.05)))
        }
    elif kind == "none":
        return FilterSpec(kind)  # takes no parameters (not even a seed)
    else:
        raise ValueError(f"no standard parameter mapping for kind {kind!r}")
    if seed is not None:
        params["seed"] = int(seed)
    return FilterSpec(kind, params)


# ----------------------------------------------------------------------
# the store facade
# ----------------------------------------------------------------------
def open_store(
    path: str | None = None,
    *,
    filter: "FilterSpec | Any | None" = None,
    shards: int = 1,
    partition: str = "hash",
    memtable_capacity: int = 1 << 16,
    value_bytes: int = 512,
    block_bytes: int = 4096,
    store_values: bool = False,
    domain_bits: int = 64,
    wal_sync: str = "batch",
    wal_group_commit: int = 1024,
    compaction: "str | dict | Any | None" = "manual",
    compression: "str | dict | None" = None,
    block_cache_bytes: int | None = None,
) -> Store:
    """Open a key-value store behind the one :class:`Store` interface.

    ``shards=1`` returns an :class:`~repro.lsm.db.LsmDB`; ``shards>1``
    returns a :class:`~repro.lsm.sharded.ShardedLsmDB` partitioned by
    ``partition`` (``"hash"`` or ``"range"``).  ``filter`` selects the
    per-SST filter blocks: a :class:`FilterSpec` (the normal path), an
    existing policy object, or None for fence pointers only.  For
    ``shards>1`` a sequence of specs/policies (one per shard) enables
    per-shard filter sizing.  Answers and IOStats are identical to
    constructing the engines directly (asserted by the bench guard).

    With ``path`` the store is **persistent** (:mod:`repro.lsm.store`):
    one directory of :mod:`repro.serial` frames — one versioned store
    manifest for every shard, one write-ahead log per shard, and one SST
    file per run, holding the run's data and its filter block.  A path
    holding an
    existing store is *reopened* with its persisted spec/shards/geometry
    — runs are reconstructed and filter blocks deserialized (never
    rebuilt), so probe answers match
    the never-closed store bit for bit; explicit arguments that conflict
    with the persisted configuration raise :class:`ValueError`, and any
    corruption raises :class:`~repro.serial.SerialError` naming the
    offending file.  ``flush()``/``close()`` (or the context manager)
    make all writes durable: a flush writes its run files, then rewrites
    the manifest whole in one atomic replace.  On-disk stores require a
    spec-driven
    ``filter`` (a :class:`FilterSpec`, a
    :class:`~repro.lsm.filter_policy.SpecPolicy`, or None), as every
    store does; anything else raises :class:`TypeError`.

    A scalar ``put``/``delete`` is a one-key ``put_many``/``delete_many``,
    so every write validates its keys (integers in ``[0, 2**64)``) before
    anything is buffered or logged.  Persistent stores write every
    ``put``/``delete`` to its shard's write-ahead log in the store
    directory before the memtable mutates, so
    acknowledged writes survive ``kill -9`` and are replayed on reopen.
    ``wal_sync`` picks the fsync policy — ``"always"`` (every write call),
    ``"batch"`` (group commit: one fsync per ``wal_group_commit`` logged
    operations), or ``"off"`` (no fsync until flush; still
    process-death-safe, power-loss window unbounded) — and is pinned in
    the manifest; ``wal_group_commit`` is a runtime knob.  Both are
    ignored by in-memory stores, which keep no log.

    ``compaction`` selects the background merge policy
    (:mod:`repro.lsm.compaction`): ``"manual"`` (the default — merges run
    only via explicit :meth:`Store.compact`), ``"size-tiered"``, or
    ``"leveled"``, with a dict form (``{"policy": ..., "params": {...}}``
    or flat knobs like ``{"policy": "size-tiered", "min_runs": 6}``) or a
    policy instance for tuned triggers.  Background policies run merges
    on worker threads after each flush; reads stay answer-identical to a
    manual store, and persistent stores pin the policy in the manifest.

    ``compression`` turns on per-block compression of SST payloads in a
    persistent store: ``"zlib"`` (stdlib), ``"zstd"`` (needs the optional
    ``repro[zstd]`` extra), or a dict ``{"codec": ..., "block_bytes": ...}``
    to tune the block size.  The codec and block size are pinned in the
    manifest, so a reopen needs no arguments (and conflicting ones raise).
    ``block_cache_bytes`` sizes the decompressed-block LRU cache shared by
    all shards (compressed stores only).  Both are rejected for in-memory
    stores.

    Reopening maps every run file and checks its payload CRC, which
    covers the run's filter block too: a damaged run fails at open.
    Keys, tombstones and filter words load into owned arrays; values
    stay lazy over the mapping, so reopen reads each run once and
    a value's bytes are paged (and, when compressed, decompressed) only
    when a lookup touches them.
    """
    if wal_sync not in ("always", "batch", "off"):
        raise ValueError(
            f"wal_sync must be 'always', 'batch', or 'off', got {wal_sync!r}"
        )
    if wal_group_commit < 1:
        raise ValueError(
            f"wal_group_commit must be >= 1, got {wal_group_commit}"
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1 and isinstance(filter, (list, tuple)):
        raise ValueError("per-shard filter specs require shards > 1")
    from repro.lsm.compaction import coerce_compaction

    compaction_policy = coerce_compaction(compaction)  # fail fast on typos
    if path is not None:
        from repro.lsm.store import open_persistent_store

        return open_persistent_store(
            path,
            filter=filter,
            shards=shards,
            partition=partition,
            memtable_capacity=memtable_capacity,
            value_bytes=value_bytes,
            block_bytes=block_bytes,
            store_values=store_values,
            domain_bits=domain_bits,
            wal_sync=wal_sync,
            wal_group_commit=wal_group_commit,
            compaction=compaction_policy,
            compression=compression,
            block_cache_bytes=block_cache_bytes,
        )
    if compression is not None or block_cache_bytes is not None:
        raise ValueError(
            "compression and block_cache_bytes are disk read-tier options "
            "and require a persistent store (pass path=...)"
        )
    from repro.lsm.db import LsmDB
    from repro.lsm.sharded import ShardedLsmDB

    if shards == 1:
        return LsmDB(
            policy=filter,
            memtable_capacity=memtable_capacity,
            value_bytes=value_bytes,
            block_bytes=block_bytes,
            store_values=store_values,
            compaction=compaction_policy,
        )
    return ShardedLsmDB(
        policy=filter,
        num_shards=shards,
        partition=partition,
        memtable_capacity=memtable_capacity,
        value_bytes=value_bytes,
        block_bytes=block_bytes,
        store_values=store_values,
        domain_bits=domain_bits,
        compaction=compaction_policy,
    )
