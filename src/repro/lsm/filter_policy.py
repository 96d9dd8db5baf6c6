"""Filter policies: how SSTables build their filter blocks, and how a
run list's blocks are probed.

Mirrors RocksDB's filter-policy extension described in Sect. 9: the policy
builds one full-filter block per SST from the SST's keys, and the block
answers point probes — extended here (as in the paper) with range probes
carrying the query's lower/upper bounds.  The block *is* the filter: an
SST holds the :class:`~repro.api.RangeFilter` the policy built, persists
it with ``to_bytes()`` and gets it back on reopen through
:func:`~repro.api.filter_from_bytes`.

There is **one** policy class: :class:`SpecPolicy`, driven by a
:class:`~repro.api.FilterSpec`.  Every registered filter kind (bloomRF
basic/tuned, Bloom, Prefix-Bloom, Rosetta, SuRF, Cuckoo, and "none") builds
through it.  A compacted run is a new SST: its filter is built from its
own surviving keys like a flushed run's, never derived from the input
runs' filters.

Probes of a whole run list go through one :class:`RunSetFilter`, the one
place that picks a probe kernel.  It groups the runs' bloomRF filters by
identical config and probes each group with one stacked kernel
(:class:`~repro.core.bloomrf.BloomRFStack`, the group's words
bit-sliced), so a request pays one filter pass, not one per run; any
other filter is a one-filter group without a stack.  A point probe
hashes each key once per (layer, replica) and tests every run of a group
with one gather.  Below :data:`VECTOR_MIN_BATCH` keys x runs a group
loops its filters' scalar ``contains_point`` instead.  A range probe of
fewer than :data:`VECTOR_MIN_ROWS` rows walks Algorithm 1 once per row
for a group of at least :data:`STACKED_MIN_RUNS` runs, gathering each
probed word from all of them; every other group loops its filters'
scalar ``contains_range``, and from :data:`VECTOR_MIN_ROWS` rows every
filter runs its own vectorized range kernel.  The answers are the same
either way (the registry's scalar==bulk contract); only the cost
differs, because a vectorized call pays a fixed NumPy setup that a small
batch never earns back.
"""

from __future__ import annotations

import numpy as np

from repro._util import bulk_point_eval, bulk_range_eval
from repro.api import (
    FilterSpec,
    RangeFilter,
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
    "RunSetFilter",
    "SpecPolicy",
    "coerce_policy",
    "filter_from_bytes",
    "policy_by_name",
]


#: Point cells (keys x runs of one group) from which a point probe calls
#: the group's vectorized kernel instead of looping the filters' scalar
#: probe.  Measured on 2,540-key bloomRF runs (14 bits/key, max_range
#: 2^20, a quarter of the keys present; 2-vCPU VM; sweep table in
#: CHANGES.md): the stacked kernel costs ~25 us when
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


class RunSetFilter:
    """One point or range probe across the filters of a run list.

    The bloomRF filters are grouped by identical config, and each group
    is probed as one :class:`~repro.core.bloomrf.BloomRFStack` (built
    here, once: a one-run group is a view of that run's words, a larger
    one a copy).  A group whose filters equal one of ``previous``'s groups
    reuses its stack, so a flush or a merge copies only the groups it
    changed.  Every other filter is a one-filter group without a stack,
    probed through its own ``contains_*_many``.  A group whose keys x runs
    cells stay below :data:`VECTOR_MIN_BATCH` loops its filters' scalar
    probe instead (see :meth:`probe_range_many` for ranges).
    """

    __slots__ = ("_num_runs", "_groups", "group_rows")

    def __init__(self, filters, previous: "RunSetFilter | None" = None) -> None:
        groups: dict = {}
        for row, filt in enumerate(filters):
            key = filt.config if isinstance(filt, BloomRF) else row
            groups.setdefault(key, []).append((row, filt))
        self._num_runs = len(filters)
        built = {} if previous is None else {
            f: st for _, f, st in previous._groups if st is not None
        }
        self._groups = []
        for members in groups.values():
            rows, group = zip(*members, strict=True)
            stack = None
            if isinstance(group[0], BloomRF):
                stack = built.get(group) or BloomRFStack(group)
            self._groups.append((list(rows), group, stack))
        #: Each group's rows, ascending; the groups in the order of their
        #: newest (first) row, so a newest-first walk meets them in turn.
        self.group_rows = [rows for rows, _, _ in self._groups]

    def probe_group(self, group: int, keys: np.ndarray) -> np.ndarray:
        """``(rows, keys)`` "maybe" block of config group ``group``: row
        ``i`` equals ``filters[group_rows[group][i]].contains_point_many(keys)``.

        Below :data:`VECTOR_MIN_BATCH` keys x rows the group loops its
        filters' scalar probe; otherwise a bloomRF group gathers from its
        stack and any other filter runs its own vectorized probe.
        """
        rows, filters, stack = self._groups[group]
        if keys.size * len(rows) < VECTOR_MIN_BATCH:
            return np.array(
                [bulk_point_eval(filt.contains_point, keys) for filt in filters],
                dtype=bool,
            ).reshape(len(rows), keys.size)
        if stack is None:
            return filters[0].contains_point_many(keys)[None]
        return stack.contains_point_many(keys)

    def probe_point_many(self, keys: np.ndarray) -> np.ndarray:
        """``(runs, keys)`` "maybe" matrix: row ``i`` equals
        ``filters[i].contains_point_many(keys)`` (every group probed for
        every key)."""
        out = np.empty((self._num_runs, keys.size), dtype=bool)
        for group, rows in enumerate(self.group_rows):
            out[rows] = self.probe_group(group, keys)
        return out

    def probe_range_many(self, bounds: np.ndarray) -> np.ndarray:
        """``(runs, rows)`` "maybe" matrix: row ``i`` equals
        ``filters[i].contains_range_many(bounds)``.

        Below :data:`VECTOR_MIN_ROWS` rows, a bloomRF config group of at
        least :data:`STACKED_MIN_RUNS` filters takes the stacked walk
        (:meth:`BloomRFStack.contains_range_many
        <repro.core.bloomrf.BloomRFStack.contains_range_many>`, once per
        row for the whole group), and every other filter loops its scalar
        walk.  From :data:`VECTOR_MIN_ROWS` rows every filter runs its
        vectorized range kernel.
        """
        out = np.empty((self._num_runs, bounds.shape[0]), dtype=bool)
        few = bounds.shape[0] < VECTOR_MIN_ROWS
        for rows, filters, stack in self._groups:
            if few and stack is not None and len(rows) >= STACKED_MIN_RUNS:
                out[rows] = stack.contains_range_many(bounds)
                continue
            for row, filt in zip(rows, filters, strict=True):
                if few:
                    out[row] = bulk_range_eval(filt.contains_range, bounds)
                else:
                    out[row] = filt.contains_range_many(bounds)
        return out


class SpecPolicy:
    """The one spec-driven filter policy for every registered kind.

    ``SpecPolicy(FilterSpec("bloomrf", {"bits_per_key": 16}))`` or the
    shorthand ``SpecPolicy("bloomrf", bits_per_key=16)``.  ``build`` sizes
    the filter for the keys the SST actually holds (``n_keys`` is injected
    per build, so per-shard and per-run sizing come for free), inserts
    them through the kind's bulk path, and returns the filter itself: it
    is the SST's filter block.
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

    def build(self, keys: np.ndarray) -> RangeFilter:
        keys = np.asarray(keys, dtype=np.uint64)
        filt = make_filter(self.spec, n_keys=max(int(keys.size), 1))
        filt.insert_many(keys)
        return filt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpecPolicy({self.spec!r})"


def coerce_policy(policy) -> SpecPolicy:
    """Normalize a policy argument: spec -> SpecPolicy, None -> "none";
    anything else fails here, not at the first flush."""
    if policy is None:
        return SpecPolicy("none")
    if isinstance(policy, FilterSpec):
        return SpecPolicy(policy)
    if not isinstance(policy, SpecPolicy):
        raise TypeError(
            f"policy must be a SpecPolicy, a FilterSpec or None; got {policy!r}"
        )
    return policy


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
