"""Filter policies: how SSTables build and consult their filter blocks.

Mirrors RocksDB's ``FilterPolicy`` extension described in Sect. 9: the policy
builds one full-filter block per SST from the SST's keys, (de)serializes it,
and answers point probes — extended here (as in the paper) with range probes
carrying the query's lower/upper bounds.

There is **one** policy class: :class:`SpecPolicy`, driven by a
:class:`~repro.api.FilterSpec`.  Every registered filter kind (bloomRF
basic/tuned, Bloom, Prefix-Bloom, Rosetta, SuRF, Cuckoo, and "none") builds,
serializes and deserializes through it with the same :class:`FilterHandle`
semantics and probe accounting.  A compacted run is a new SST: its filter
is built from its own surviving keys like a flushed run's, never derived
from the input runs' filters.

A handle has one probe per query shape, batched: ``probe_point_many`` and
``probe_range_many``.  A scalar read reaches them as a one-row batch.  The
handle picks the kernel by batch size: below :data:`VECTOR_MIN_BATCH` keys
(:data:`VECTOR_MIN_ROWS` ranges) it loops the filter's scalar
``contains_*``, from there on it calls the vectorized ``contains_*_many``.
A filter without a bulk interface always takes the loop.  The answers are
the same either way (the registry's scalar==bulk contract); only the cost
differs, because a vectorized call pays a fixed NumPy setup that a small
batch never earns back.

Probes of a whole run list go through one :class:`RunSetFilter`: it
groups the runs' bloomRF filters by identical config and probes each
group with one stacked kernel (:class:`~repro.core.bloomrf.BloomRFStack`,
the group's words bit-sliced), so a request pays one filter pass, not one
per run.  A point probe hashes each key once per (layer, replica) and
tests every run with one gather; the same :data:`VECTOR_MIN_BATCH` switch
decides per group on keys x runs.  A range probe of fewer than
:data:`VECTOR_MIN_ROWS` rows walks Algorithm 1 once per row for a group
of at least :data:`STACKED_MIN_RUNS` runs, gathering each probed word
from all of them; a smaller group loops its filters' scalar walk, and
from :data:`VECTOR_MIN_ROWS` rows every filter runs its vectorized range
kernel.  Other filter kinds loop their handles behind the same calls.
"""

from __future__ import annotations

from pathlib import Path
from typing import Protocol

import numpy as np

from repro._util import bulk_point_eval, bulk_range_eval
from repro.api import (
    FilterSpec,
    filter_from_bytes,
    make_filter,
    registered_kind,
    standard_spec,
)
from repro.core.bloomrf import BloomRF, BloomRFStack

__all__ = [
    "STACKED_MIN_RUNS",
    "VECTOR_MIN_BATCH",
    "VECTOR_MIN_ROWS",
    "FilterHandle",
    "FilterPolicy",
    "RunSetFilter",
    "SpecPolicy",
    "coerce_policy",
    "policy_by_name",
    "wrap_filter",
    "save_handle",
    "load_handle",
    "handle_from_bytes",
]


#: Point cells (keys x runs of one config group; keys for one handle) from
#: which a point probe calls the stacked vectorized kernel instead of
#: looping the filters' scalar probe.  Measured on 2,540-key bloomRF runs
#: (14 bits/key, max_range 2^20, a quarter of the keys present; 2-vCPU
#: VM; sweep table in CHANGES.md): the stacked kernel costs ~25 us when
#: the exact bitmap rejects every key and ~60-75 us otherwise, the scalar
#: loop ~2-8 us per cell, so they cross at 8-12 cells.
VECTOR_MIN_BATCH = 8

#: Rows from which a range probe calls the vectorized range kernel.  The
#: range kernel pays a much larger fixed setup than the point kernel: on
#: the same runs it costs ~240 us at 8-16 rows, against 28-56 us for the
#: scalar loop, and wins from 48-64 rows (CHANGES.md).
VECTOR_MIN_ROWS = 32

#: Same-config bloomRF runs from which a range probe below
#: :data:`VECTOR_MIN_ROWS` rows walks them as one stack instead of looping
#: each filter's scalar walk.  Measured on 2,560-key runs (14 bits/key,
#: max_range 2^20, half of the rows on a key; 2-vCPU VM; table in
#: CHANGES.md): the stacked walk costs ~65-70 us per row whatever the
#: group size, because every run must reach the split layer before it
#: can stop, while the scalar walk costs ~6-8 us per run and row, most
#: runs stopping at the top layer; they cross at 8-10 runs.
STACKED_MIN_RUNS = 10


class FilterHandle(Protocol):
    """What the DB needs from a built filter block."""

    def probe_point_many(self, keys: np.ndarray) -> np.ndarray: ...

    def probe_range_many(self, bounds: np.ndarray) -> np.ndarray: ...

    @property
    def size_bits(self) -> int: ...

    def serialize(self) -> bytes: ...


class FilterPolicy(Protocol):
    name: str

    def build(self, keys: np.ndarray) -> FilterHandle: ...

    def deserialize(self, data: bytes) -> FilterHandle: ...


class _Handle:
    """Adapter turning any filter object into a :class:`FilterHandle`."""

    __slots__ = (
        "_filter",
        "_point",
        "_point_many",
        "_range",
        "_range_many",
        "_serialize",
    )

    def __init__(
        self, filt, point, range_, serialize, range_many=None, point_many=None
    ) -> None:
        self._filter = filt
        self._point = point
        self._point_many = point_many
        self._range = range_
        self._range_many = range_many
        self._serialize = serialize

    def probe_point_many(self, keys: np.ndarray) -> np.ndarray:
        """Point probe of a key batch: the scalar loop below
        :data:`VECTOR_MIN_BATCH` keys, the vectorized kernel from there."""
        if self._point_many is None or keys.size < VECTOR_MIN_BATCH:
            return bulk_point_eval(self._point, keys)
        return np.asarray(self._point_many(keys), dtype=bool)

    def probe_range_many(self, bounds: np.ndarray) -> np.ndarray:
        """Range probe of an ``(n, 2)`` bounds batch: the scalar loop below
        :data:`VECTOR_MIN_ROWS` rows, the vectorized kernel from there."""
        if self._range_many is None or bounds.shape[0] < VECTOR_MIN_ROWS:
            return bulk_range_eval(self._range, bounds)
        return np.asarray(self._range_many(bounds), dtype=bool)

    @property
    def size_bits(self) -> int:
        return self._filter.size_bits

    def serialize(self) -> bytes:
        return self._serialize()


class RunSetFilter:
    """One point or range probe across the filter blocks of a run list.

    The bloomRF handles are grouped by identical config, and each group
    is probed as one :class:`~repro.core.bloomrf.BloomRFStack` (built
    here, once: a one-run group is a view of that run's words, a larger
    one a copy).  A group whose filters equal one of ``previous``'s groups
    reuses its stack, so a flush or a merge copies only the groups it
    changed.  A group whose keys x runs cells stay below
    :data:`VECTOR_MIN_BATCH` loops its filters' scalar probe instead (see
    :meth:`probe_range_many` for ranges).  Every other handle answers
    through its own ``probe_point_many``/``probe_range_many``.
    """

    __slots__ = ("_handles", "_stacks", "_loose")

    def __init__(self, handles, previous: "RunSetFilter | None" = None) -> None:
        groups: dict = {}
        self._loose: list[tuple[int, FilterHandle]] = []
        for row, handle in enumerate(handles):
            filt = handle._filter if isinstance(handle, _Handle) else None
            if isinstance(filt, BloomRF):
                groups.setdefault(filt.config, []).append((row, filt))
            else:
                self._loose.append((row, handle))
        self._handles = list(handles)
        built = {} if previous is None else {f: st for _, f, st in previous._stacks}
        self._stacks = []
        for members in groups.values():
            rows, filters = zip(*members, strict=True)
            stack = built.get(filters) or BloomRFStack(filters)
            self._stacks.append((list(rows), filters, stack))

    def probe_point_many(
        self, keys: np.ndarray, depth: np.ndarray | None = None
    ) -> np.ndarray:
        """``(runs, keys)`` "maybe" matrix: row ``i`` equals
        ``handles[i].probe_point_many(keys)``.

        With ``depth``, key ``j`` needs only its first ``depth[j]`` rows
        (a newest-first walk that stops at the key's newest version), and
        only those cells are answered: a group skips the keys none of its
        rows needs, and the other cells hold no meaning.
        """
        out = np.zeros((len(self._handles), keys.size), dtype=bool)
        every = np.arange(keys.size)
        for rows, filters, stack in self._stacks:
            cols = every if depth is None else np.nonzero(depth > rows[0])[0]
            if cols.size * len(rows) < VECTOR_MIN_BATCH:
                for row, filt in zip(rows, filters, strict=True):
                    out[row, cols] = bulk_point_eval(filt.contains_point, keys[cols])
            else:
                out[np.ix_(rows, cols)] = stack.contains_point_many(keys[cols])
        for row, handle in self._loose:
            cols = every if depth is None else np.nonzero(depth > row)[0]
            out[row, cols] = handle.probe_point_many(keys[cols])
        return out

    def probe_range_many(self, bounds: np.ndarray) -> np.ndarray:
        """``(runs, rows)`` "maybe" matrix: row ``i`` equals
        ``handles[i].probe_range_many(bounds)``.

        Below :data:`VECTOR_MIN_ROWS` rows, a bloomRF config group of at
        least :data:`STACKED_MIN_RUNS` filters takes the stacked walk
        (:meth:`BloomRFStack.contains_range_many
        <repro.core.bloomrf.BloomRFStack.contains_range_many>`, once per
        row for the whole group).  Every other run answers through its
        handle, which loops its filter's scalar walk below
        :data:`VECTOR_MIN_ROWS` rows and runs the vectorized range kernel
        from there.
        """
        out = np.empty((len(self._handles), bounds.shape[0]), dtype=bool)
        stacked: set[int] = set()
        for rows, _, stack in self._stacks:
            if bounds.shape[0] < VECTOR_MIN_ROWS and len(rows) >= STACKED_MIN_RUNS:
                out[rows] = stack.contains_range_many(bounds)
                stacked.update(rows)
        for row, handle in enumerate(self._handles):
            if row not in stacked:
                out[row] = handle.probe_range_many(bounds)
        return out


def wrap_filter(filt) -> FilterHandle:
    """Adapt any :class:`repro.api.RangeFilter` into a :class:`FilterHandle`.

    The handle keeps both the scalar and (when the filter has them) the
    vectorized probes, and picks one per call by batch size.  The
    serialized form is the filter's own :mod:`repro.serial` frame.
    """
    return _Handle(
        filt,
        filt.contains_point,
        filt.contains_range,
        filt.to_bytes,
        range_many=getattr(filt, "contains_range_many", None),
        point_many=getattr(filt, "contains_point_many", None),
    )


class SpecPolicy:
    """The one spec-driven filter policy for every registered kind.

    ``SpecPolicy(FilterSpec("bloomrf", {"bits_per_key": 16}))`` or the
    shorthand ``SpecPolicy("bloomrf", bits_per_key=16)``.  ``build`` sizes
    the filter for the keys the SST actually holds (``n_keys`` is injected
    per build, so per-shard and per-run sizing come for free), inserts
    them through the kind's bulk path, and wraps the result in the uniform
    :class:`FilterHandle`.  ``deserialize`` rehydrates any registry frame.
    """

    def __init__(self, spec: FilterSpec | str, /, **params) -> None:
        if isinstance(spec, str):
            spec = FilterSpec(spec, params)
        elif params:
            raise TypeError(
                "pass parameters either inside the FilterSpec or as keyword "
                "arguments next to a kind string, not both"
            )
        if not isinstance(spec, FilterSpec):
            raise TypeError(
                f"SpecPolicy needs a FilterSpec or a kind string, got "
                f"{type(spec).__name__}"
            )
        registered_kind(spec.kind)  # fail fast with the known-kinds list
        self.spec = spec
        self.name = spec.kind

    def build(self, keys: np.ndarray) -> FilterHandle:
        keys = np.asarray(keys, dtype=np.uint64)
        filt = make_filter(self.spec, n_keys=max(int(keys.size), 1))
        filt.insert_many(keys)
        return wrap_filter(filt)

    def deserialize(self, data: bytes) -> FilterHandle:
        return handle_from_bytes(data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpecPolicy({self.spec!r})"


def coerce_policy(policy) -> FilterPolicy:
    """Normalize a policy argument: spec -> SpecPolicy, None -> "none"."""
    if policy is None:
        return SpecPolicy("none")
    if isinstance(policy, FilterSpec):
        return SpecPolicy(policy)
    return policy


# ----------------------------------------------------------------------
# handle-level persistence (SST filter blocks on disk)
# ----------------------------------------------------------------------
def save_handle(handle: FilterHandle, path: str | Path) -> Path:
    """Write a built filter block to ``path`` in the framed format."""
    data = handle.serialize()
    if not data:
        raise ValueError(
            "this filter block has no persisted serialization format"
        )
    path = Path(path)
    path.write_bytes(data)
    return path


def handle_from_bytes(data: bytes) -> FilterHandle:
    """Rehydrate a serialized filter block into a probe-ready handle.

    Dispatches through the :mod:`repro.api` registry, so one loader serves
    every registered kind — the reader side of RocksDB's ``FilterPolicy``
    contract where a block is handed back as raw bytes and must answer
    probes again.
    """
    return wrap_filter(filter_from_bytes(data))


def load_handle(path: str | Path) -> FilterHandle:
    """Read a filter block written by :func:`save_handle`."""
    return handle_from_bytes(Path(path).read_bytes())


def policy_by_name(
    name: str, bits_per_key: float, max_range: int, seed: int | None = None
) -> SpecPolicy:
    """Factory used by the benchmark harness and CLI.

    Maps the shared sweep knobs onto the kind's native parameters through
    :func:`repro.api.standard_spec` — every registered kind is accepted.
    """
    return SpecPolicy(
        standard_spec(
            name, bits_per_key=bits_per_key, max_range=max_range, seed=seed
        )
    )
