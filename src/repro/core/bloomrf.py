"""The bloomRF point-range filter (the paper's primary contribution).

Layout
------
All PMHF segments live in one :class:`~repro.bitarray.BitArray`, each segment
64-bit aligned; the optional exact-level bitmap is a second bit array.  Layer
``i`` owns a window of ``W_i = segment_bits / word_bits_i`` words inside its
segment; its piecewise-monotone hash function maps a key ``x`` to the global
bit position::

    MH_i(x) = seg_base_i
              + (h_i(x >> (l_i + delta_i - 1)) mod W_i) * word_bits_i
              + ((x >> l_i) & (word_bits_i - 1))

i.e. the hash sees only the part of the prefix *above* the word, so the low
``delta_i - 1`` prefix bits select the bit inside the word and local order is
preserved (Sect. 3.2; verified bit-for-bit against the paper's Fig. 4
example in the tests).  Replicated hash functions (Sect. 7) repeat the word
placement with independent seeds; the in-word offset is shared, so replicas
preserve the same local order.

Operations
----------
* ``insert`` / ``contains_point`` behave like a Bloom filter over the key's
  prefix code (Sect. 4), plus the exact bitmap when configured.
* ``contains_range`` runs the two-path Algorithm 1 via
  :func:`repro.dyadic.two_path_range_lookup`; covering probes test one bit
  per replica and decomposition probes read at most two aligned words per
  path per layer.
* ``insert_many`` / ``contains_point_many`` / ``contains_range_many`` are
  NumPy-vectorized bulk paths computing bit-identical answers to the scalar
  ones (asserted by the tests), including the same domain validation.

Stacked probes
--------------
Filters built from one :class:`BloomRFConfig` share every hash function
and every word count, so a key's bit positions are the same in each of
them.  :class:`BloomRFStack` stores such filters' words bit-sliced (row
``w`` holds word ``w`` of every filter) and answers a key batch for all of
them at once: one hash of each key per (layer, replica) and one gather of
whole rows — the Flat-Bloofi layout (Crainiceanu & Lemire), with
bloomRF's per-layer segments as the partitions.  ``contains_point_many``
is the one-filter case of the same kernel.  A range row is answered the
same way: Algorithm 1's probes depend on the row alone, so the stacked
walk runs it once for every filter, reading each probed word from all of
them with one gather per layer (phase 1 and the split layer share one),
and keeps per filter only which paths are still open.

Batched range-query engine
--------------------------
Algorithm 1's probes are a pure function of ``(lo, hi, levels)`` — no
hashing decides which covering bits and decomposition masks a query
probes.  ``contains_range_many`` therefore runs the two-path walk
batch-wide: one top-down sweep computes each layer's covering
``(layer, prefix)`` and decomposition ``(layer, p_lo, p_hi)`` probes for
every live query as stacked arrays (phase-2 steps through the same
:func:`~repro.dyadic.path_step` as the scalar walk) and resolves them with
vectorized NumPy: one :func:`splitmix64_array` hash +
:meth:`BitArray.test_bits` call (or one word gather, for the masks) per
(layer, replica) serves every query probing that layer, guard-flip
handling included; the exact-level pseudo-layer resolves through
:meth:`BitArray.any_in_ranges`.  Live-set pruning applies the walk's early
exits batch-wide, so no per-probe Python callback runs.

:func:`~repro.dyadic.two_path_range_lookup` remains the scalar reference
oracle, and the tests pin the sweep to it: batch-vs-scalar bit identity
across configs.
Run ``PYTHONPATH=src python benchmarks/bench_ops_rangebatch.py`` for the
batch-vs-scalar throughput benchmark (``--quick`` for the CI smoke mode).

Thread-safety: mutation happens through single NumPy word-level OR
operations, which CPython executes atomically under the GIL, so concurrent
inserts and probes never observe torn words (they may race benignly, exactly
like the paper's parallel filter).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import check_key, domain_max
from repro.bitarray import BitArray
from repro.core.config import BloomRFConfig
from repro.dyadic import path_step, two_path_range_lookup
from repro.hashing import splitmix64, splitmix64_array, splitmix64_multi_seed

__all__ = ["BloomRF", "BloomRFStack"]

# Probing an enormous prefix range word-by-word (possible only for queries
# far beyond the configured range budget) is cut off conservatively: the
# filter answers "maybe" — sound, never a false negative.
_MAX_MASK_GROUPS = 1 << 16

# Scalar mask probes spanning more groups than this resolve through the
# vectorized field reader instead of the per-group Python loop.
_SCALAR_MASK_GROUPS = 4

_U64_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# The stacked point kernel hashes every remaining (layer, replica) of the
# surviving keys in one pass once its (probe, key, filter) cells fit this
# budget (2 MiB of gathered words); above it, it walks one layer at a time
# and drops the keys that every filter has rejected, which bounds its
# temporaries and skips hashing dead keys on the upper layers.
_STACKED_CELLS = 1 << 18


def _all_bits(sliced: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``(keys, rows)``: are all of a key's probed bits set in a row?

    ``sliced`` holds the stacked words bit-sliced, one row per word index
    and one column per filter, so a gather of word ``w`` reads it from
    every filter at once.  ``positions`` holds one bit position per
    ``(probe, key)``; the AND over the probes runs on the shifted words.
    """
    gathered = np.take(sliced, positions >> np.uint64(6), axis=0)
    gathered >>= (positions & np.uint64(63))[:, :, None]
    both = gathered[0] if len(gathered) == 1 else np.bitwise_and.reduce(gathered)
    both &= np.uint64(1)
    return both.astype(bool)


def _test_words(sliced: np.ndarray, rows: list[int], fields: list[int]) -> np.ndarray:
    """``(probes, filters)``: does word ``rows[p]`` of a filter share a set
    bit with ``fields[p]``? (one gather from the bit-sliced words)."""
    gathered = np.take(sliced, np.array(rows, dtype=np.intp), axis=0)
    return (gathered & np.array(fields, dtype=np.uint64)[:, None]) != 0


def _any_in_range_sliced(sliced: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``(filters,)``: :meth:`BitArray.any_in_range` over bit-sliced words."""
    lo_word, hi_word = lo >> 6, hi >> 6
    lo_mask = _U64_ONES << np.uint64(lo & 63)
    hi_mask = _U64_ONES >> np.uint64(63 - (hi & 63))
    if lo_word == hi_word:
        return (sliced[lo_word] & lo_mask & hi_mask) != 0
    hit = ((sliced[lo_word] & lo_mask) != 0) | ((sliced[hi_word] & hi_mask) != 0)
    if hi_word - lo_word > 1:
        hit |= sliced[lo_word + 1 : hi_word].any(axis=0)
    return hit


def _concat(a: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """Concatenate two optional probe-accumulator arrays."""
    if a is None or a.size == 0:
        return b
    return np.concatenate((a, b))


class _Layer:
    """Precomputed per-layer probe geometry (internal)."""

    __slots__ = (
        "index",
        "level",
        "delta",
        "word_bits",
        "offset_bits",
        "offset_mask",
        "seg_base",
        "num_words",
        "seeds",
        "guard_seed",
        "u_offset_bits",
        "u_offset_mask",
        "u_word_bits",
        "u_num_words",
        "u_seg_base",
    )

    def __init__(
        self,
        index: int,
        level: int,
        delta: int,
        seg_base: int,
        seg_bits: int,
        seeds: Sequence[int],
    ) -> None:
        self.index = index
        self.level = level
        self.delta = delta
        self.word_bits = 1 << (delta - 1)
        self.offset_bits = delta - 1
        self.offset_mask = self.word_bits - 1
        self.seg_base = seg_base
        self.num_words = seg_bits // self.word_bits
        self.seeds = list(seeds)
        # Guard hash seed is per layer, not per replica.
        self.guard_seed = self.seeds[0] ^ 0xA5A5
        # np.uint64 constants hoisted out of the vectorized inner loops.
        self.u_offset_bits = np.uint64(self.offset_bits)
        self.u_offset_mask = np.uint64(self.offset_mask)
        self.u_word_bits = np.uint64(self.word_bits)
        self.u_num_words = np.uint64(self.num_words)
        self.u_seg_base = np.uint64(self.seg_base)


class _PointProbes:
    """Every (layer, replica) hash function of a config, flattened.

    One ``(P, 1)`` uint64 column per geometry field, bottom-up, so a slice
    of probes broadcasts against a key vector into a ``(P', keys)``
    position matrix.  ``layer_end[p]`` is the index after the last probe
    of probe ``p``'s layer.
    """

    __slots__ = (
        "count",
        "layer_end",
        "level",
        "offset_bits",
        "offset_mask",
        "num_words",
        "word_bits",
        "seg_base",
        "seed",
        "guard_seed",
    )

    def __init__(self, layers: Sequence[_Layer]) -> None:
        probes = [(layer, seed) for layer in layers for seed in layer.seeds]

        def column(values: list[int]) -> np.ndarray:
            return np.array(values, dtype=np.uint64)[:, None]

        self.count = len(probes)
        self.layer_end: list[int] = []
        end = 0
        for layer in layers:
            end += len(layer.seeds)
            self.layer_end.extend([end] * len(layer.seeds))
        self.level = column([layer.level for layer, _ in probes])
        self.offset_bits = column([layer.offset_bits for layer, _ in probes])
        self.offset_mask = column([layer.offset_mask for layer, _ in probes])
        self.num_words = column([layer.num_words for layer, _ in probes])
        self.word_bits = column([layer.word_bits for layer, _ in probes])
        self.seg_base = column([layer.seg_base for layer, _ in probes])
        self.seed = column([seed for _, seed in probes])
        self.guard_seed = column([layer.guard_seed for layer, _ in probes])


class BloomRF:
    """Unified point-range filter with prefix hashing and PMHF."""

    def __init__(self, config: BloomRFConfig) -> None:
        self.config = config
        self._d = config.domain_bits
        # Segments are packed into one bit array with 64-bit-aligned bases,
        # so every power-of-two word read stays within one storage word.
        seg_bases: list[int] = []
        base = 0
        for seg in config.segment_bits:
            seg_bases.append(base)
            base += (seg + 63) & ~63
        self._bits = BitArray(max(base, 64))

        self._layers: list[_Layer] = []
        seed_cursor = 0
        for i in range(config.num_layers):
            replica_seeds = [
                splitmix64(seed_cursor + r, seed=config.seed)
                for r in range(config.replicas[i])
            ]
            seed_cursor += config.replicas[i]
            seg = config.segment_of[i]
            self._layers.append(
                _Layer(
                    index=i,
                    level=config.levels[i],
                    delta=config.deltas[i],
                    seg_base=seg_bases[seg],
                    seg_bits=config.segment_bits[seg],
                    seeds=replica_seeds,
                )
            )

        self._exact: BitArray | None = None
        if config.exact_level is not None:
            self._exact = BitArray(config.exact_bitmap_bits)

        # Flattened per-layer geometry so the scalar insert runs one tight
        # loop without attribute lookups; replica seeds stay nested so the
        # guard hash is computed once per layer, not once per replica.
        self._flat_geometry: list[tuple] = [
            (
                layer.level,
                layer.offset_bits,
                layer.offset_mask,
                layer.word_bits,
                layer.num_words,
                layer.seg_base,
                tuple(layer.seeds),
                layer.guard_seed,
            )
            for layer in self._layers
        ]

        # Planner layer list: PMHF layers bottom-up, exact bitmap as the
        # pseudo top layer when configured.
        self._planner_levels: list[int] = [layer.level for layer in self._layers]
        self._exact_layer_index: int | None = None
        if self._exact is not None:
            self._exact_layer_index = len(self._planner_levels)
            self._planner_levels.append(config.exact_level)

        self._probes = _PointProbes(self._layers)
        self._num_keys = 0
        self._guard = config.degenerate_guard

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_keys

    @property
    def num_keys(self) -> int:
        """Number of insert operations performed (duplicates included)."""
        return self._num_keys

    @property
    def size_bits(self) -> int:
        """Total occupied filter size in bits."""
        return self.config.total_bits

    @property
    def bits_per_key(self) -> float:
        """Space per inserted key; ``inf`` for an empty filter."""
        if self._num_keys == 0:
            return float("inf")
        return self.size_bits / self._num_keys

    @property
    def domain_bits(self) -> int:
        return self._d

    def fill_ratio(self) -> float:
        """Fraction of PMHF bits set (diagnostic; Fig. 5 uses this)."""
        return self._bits.fill_ratio()

    @property
    def pmhf_bits(self) -> BitArray:
        """The raw PMHF bit array (read-only use: scatter diagnostics)."""
        return self._bits

    # ------------------------------------------------------------------
    # position computation (scalar)
    # ------------------------------------------------------------------
    def _offset(self, layer: _Layer, prefix: int) -> int:
        """In-word offset of a level-``l_i`` prefix, honoring the guard."""
        off = prefix & layer.offset_mask
        if self._guard and layer.offset_bits:
            group = prefix >> layer.offset_bits
            if splitmix64(group, seed=layer.guard_seed) & 1:
                off = layer.offset_mask - off
        return off

    def _word_base(self, layer: _Layer, group: int, seed: int) -> int:
        """Global bit position of the layer word for prefix-group ``group``."""
        word_index = splitmix64(group, seed=seed) % layer.num_words
        return layer.seg_base + word_index * layer.word_bits

    def _iter_positions(self, key: int):
        """Yield every PMHF bit position of ``key`` (all layers, replicas)."""
        for layer in self._layers:
            prefix = key >> layer.level
            group = prefix >> layer.offset_bits
            offset = self._offset(layer, prefix)
            for seed in layer.seeds:
                yield self._word_base(layer, group, seed) + offset

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, key: int) -> None:
        """Insert one key (sets ``r_i`` bits per layer plus the exact bit).

        Runs one tight loop over the flattened (layer, replica) geometry —
        bit-identical to the per-layer arithmetic (asserted by the tests).
        """
        check_key(key, self._d)
        words = self._bits.words
        guard = self._guard
        for level, offbits, offmask, wordbits, numwords, segbase, seeds, gseed in (
            self._flat_geometry
        ):
            prefix = key >> level
            group = prefix >> offbits
            offset = prefix & offmask
            if guard and offbits and splitmix64(group, seed=gseed) & 1:
                offset = offmask - offset
            base = segbase + offset
            for seed in seeds:
                pos = base + splitmix64(group, seed=seed) % numwords * wordbits
                words[pos >> 6] |= np.uint64(1 << (pos & 63))
        if self._exact is not None:
            self._exact.set_bit(key >> self.config.exact_level)
        self._num_keys += 1

    def insert_many(self, keys: np.ndarray) -> None:
        """Vectorized bulk insert; enforces the same domain check as insert."""
        keys = self._validated_keys(keys)
        if keys.size == 0:
            return
        # The probes' own positions, one layer at a time: every layer at
        # once would hold (layers x replicas x keys) positions.
        start = 0
        while start < self._probes.count:
            stop = self._probes.layer_end[start]
            self._bits.set_bits(self._probe_positions(keys, start, stop).ravel())
            start = stop
        if self._exact is not None:
            self._exact.set_bits(keys >> np.uint64(self.config.exact_level))
        self._num_keys += int(keys.size)

    def _validated_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :func:`check_key`: uint64 view of in-domain keys."""
        arr = np.asarray(keys)  # repro-lint: ignore[dtype-discipline] -- validation must see the caller's dtype to reject floats/negatives before astype(uint64)
        if arr.size == 0:
            return arr.astype(np.uint64)
        if arr.dtype == object:
            for key in arr.ravel():
                check_key(int(key), self._d)
            return arr.astype(np.uint64)
        if arr.dtype.kind not in "iub":
            raise TypeError(f"keys must be integers, got dtype {arr.dtype}")
        if arr.dtype.kind == "i" and arr.size and int(arr.min()) < 0:
            raise ValueError(
                f"key {int(arr.min())} outside the {self._d}-bit unsigned domain"
            )
        arr = arr.astype(np.uint64, copy=False)
        if self._d < 64 and arr.size:
            top = int(arr.max())
            if top > domain_max(self._d):
                raise ValueError(
                    f"key {top} outside the {self._d}-bit unsigned domain"
                )
        return arr

    def _validated_bounds(self, bounds: np.ndarray) -> np.ndarray:
        """Validate an ``(n, 2)`` inclusive-bounds array (vectorized)."""
        arr = np.asarray(bounds)  # repro-lint: ignore[dtype-discipline] -- validation must see the caller's dtype to reject floats/negatives before astype(uint64)
        if arr.size == 0:
            return np.zeros((0, 2), dtype=np.uint64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"bounds must have shape (n, 2), got {arr.shape}")
        arr = self._validated_keys(arr)
        inverted = arr[:, 0] > arr[:, 1]
        if np.any(inverted):
            i = int(np.argmax(inverted))
            raise ValueError(
                f"empty query range [{int(arr[i, 0])}, {int(arr[i, 1])}]"
            )
        return arr

    def _offsets_array(
        self, layer: _Layer, prefix: np.ndarray, group: np.ndarray
    ) -> np.ndarray:
        offset = prefix & layer.u_offset_mask
        if self._guard and layer.offset_bits:
            flip = (
                splitmix64_array(group, seed=layer.guard_seed) & np.uint64(1)
            ).astype(bool)
            offset = np.where(flip, layer.u_offset_mask - offset, offset)
        return offset

    # ------------------------------------------------------------------
    # point lookup
    # ------------------------------------------------------------------
    def contains_point(self, key: int) -> bool:
        """Approximate membership test; may return a false positive only."""
        check_key(key, self._d)
        if self._exact is not None and not self._exact.test_bit(
            key >> self.config.exact_level
        ):
            return False
        for pos in self._iter_positions(key):
            if not self._bits.test_bit(pos):
                return False
        return True

    def contains_point_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized point lookup: boolean array per key.

        The one-filter case of :meth:`BloomRFStack.contains_point_many`:
        the same kernel over a one-column view of this filter's words.
        """
        return BloomRFStack([self]).contains_point_many(keys)[0]

    def _contains_point_sliced(
        self, sliced: np.ndarray, exact: np.ndarray | None, keys: np.ndarray
    ) -> np.ndarray:
        """The stacked point kernel: ``(keys, filters)`` answers.

        ``sliced`` (and ``exact``, the exact-level bitmaps) hold the words
        of filters of this filter's config, one column per filter;
        ``keys`` are validated.  The exact bitmap goes first, then the
        PMHF layers bottom-up.  Before each step, keys that every filter
        has rejected leave the batch.  While the remaining
        ``(probe, key, filter)`` cells exceed :data:`_STACKED_CELLS`, a
        step is one layer; once they fit, one step hashes every remaining
        (layer, replica) and tests them all with one gather.  A small
        batch therefore takes two steps, and a large one never hashes a
        key on a layer above the one where every filter rejected it.
        """
        n, width = keys.size, sliced.shape[1]
        if exact is not None:
            shift = np.uint64(self.config.exact_level)
            live = _all_bits(exact, (keys >> shift)[None, :])
        else:
            live = np.ones((n, width), dtype=bool)
        probes = self._probes
        kept: np.ndarray | None = None  # surviving key indices, once pruned
        start = 0
        while start < probes.count:
            alive = live.any(axis=1)
            if not alive.all():
                kept = np.nonzero(alive)[0] if kept is None else kept[alive]
                keys = keys[alive]
                live = live[alive]
                if keys.size == 0:
                    break
            if (probes.count - start) * keys.size * width <= _STACKED_CELLS:
                stop = probes.count
            else:
                stop = probes.layer_end[start]
            live &= _all_bits(sliced, self._probe_positions(keys, start, stop))
            start = stop
        if kept is None:
            return live
        out = np.zeros((n, width), dtype=bool)
        out[kept] = live
        return out

    def _probe_positions(self, keys: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Bit positions of probes ``start:stop`` for every key: one
        multi-seed hash computes every probe's word at once."""
        p = self._probes
        sl = slice(start, stop)
        prefix = keys >> p.level[sl]
        group = prefix >> p.offset_bits[sl]
        offset = prefix & p.offset_mask[sl]
        if self._guard:
            flip = splitmix64_multi_seed(group, p.guard_seed[sl]) & np.uint64(1)
            offset = np.where(flip.astype(bool), p.offset_mask[sl] - offset, offset)
        word = splitmix64_multi_seed(group, p.seed[sl]) % p.num_words[sl]
        return p.seg_base[sl] + offset + word * p.word_bits[sl]

    __contains__ = contains_point

    # ------------------------------------------------------------------
    # range lookup (Algorithm 1)
    # ------------------------------------------------------------------
    def contains_range(self, l_key: int, r_key: int) -> bool:
        """Approximate emptiness test of ``[l_key, r_key]`` (inclusive).

        Returns False only when the filter *proves* no inserted key lies in
        the interval; True means "possibly non-empty".  Constant O(k) word
        accesses regardless of the interval length (Sect. 5).
        """
        check_key(l_key, self._d)
        check_key(r_key, self._d)
        if l_key > r_key:
            raise ValueError(f"empty query range [{l_key}, {r_key}]")
        return two_path_range_lookup(
            l_key, r_key, self._planner_levels, self._probe_bit, self._probe_mask
        )

    def contains_range_many(self, bounds: np.ndarray) -> np.ndarray:
        """Batched range lookup over an ``(n, 2)`` array of inclusive bounds.

        Emits the probes of :func:`~repro.dyadic.two_path_range_lookup`'s
        walk for every query, batch-wide: one top-down sweep over the layers
        where each step computes the layer's covering/decomposition probes
        for every live query as stacked arrays and resolves them with the
        vectorized executors.  Bit-identical to calling
        :meth:`contains_range` per row (asserted by the tests) but without
        per-probe Python callbacks or scalar hashing, and with the walk's
        early exits applied batch-wide (dead or decided queries leave the
        live sets).
        """
        bounds = self._validated_bounds(bounds)
        n = bounds.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)

        levels = self._planner_levels
        top = len(levels) - 1
        lo_arr = bounds[:, 0]
        hi_arr = bounds[:, 1]
        u0 = np.uint64(0)
        u1 = np.uint64(1)

        # The walk's per-query state, batched.  Probe *emission* is a pure
        # function of (lo, hi, levels), so every query advances through the
        # same top-down layer sweep; pruning the live sets reproduces the
        # scalar walk's early exits batch-wide (dead queries stop probing,
        # resolved queries stop descending).
        result = np.zeros(n, dtype=bool)
        open_q = np.ones(n, dtype=bool)  # phase 1: one DI covers the query
        lactive = np.zeros(n, dtype=bool)  # left path open, chain intact
        ractive = np.zeros(n, dtype=bool)  # right path open, chain intact

        for li in range(top, -1, -1):
            level = levels[li]
            shift = np.uint64(min(level, 63))
            low_mask = np.uint64(((1 << level) - 1) & ((1 << 64) - 1))
            # Per-layer probe accumulators: (query index, prefix) for
            # covering bits, (query index, p_lo, p_hi) for mask probes.
            guard_idx = chain_l_idx = chain_r_idx = None
            guard_pref = chain_l_pref = chain_r_pref = None
            mask_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

            # ---- phase-2 descent (queries that split on a layer above) ----
            if li < top and lactive.any():
                idx = np.nonzero(lactive)[0]
                lo = lo_arr[idx]
                parent_mask = np.uint64(
                    ((1 << levels[li + 1]) - 1) & ((1 << 64) - 1)
                )
                p_lo = lo >> shift
                p_j = (lo | parent_mask) >> shift  # end of covering J
                aligned = (lo & low_mask) == u0
                if aligned.any():
                    # [l_key, j_hi] lies fully inside the query.
                    mask_parts.append(
                        (idx[aligned], p_lo[aligned], p_j[aligned])
                    )
                    lactive[idx[aligned]] = False
                walk = ~aligned
                masked = walk & (p_lo < p_j)
                if masked.any():
                    mask_parts.append(
                        (idx[masked], p_lo[masked] + u1, p_j[masked])
                    )
                chain_l_idx = idx[walk]
                chain_l_pref = p_lo[walk]
            if li < top and ractive.any():
                idx = np.nonzero(ractive)[0]
                hi = hi_arr[idx]
                parent_mask = np.uint64(
                    ((1 << levels[li + 1]) - 1) & ((1 << 64) - 1)
                )
                p_hi = hi >> shift
                p_j = (hi & ~parent_mask) >> shift  # start of covering J
                aligned = (hi & low_mask) == low_mask
                if aligned.any():
                    mask_parts.append(
                        (idx[aligned], p_j[aligned], p_hi[aligned])
                    )
                    ractive[idx[aligned]] = False
                walk = ~aligned
                masked = walk & (p_j < p_hi)
                if masked.any():
                    mask_parts.append(
                        (idx[masked], p_j[masked], p_hi[masked] - u1)
                    )
                chain_r_idx = idx[walk]
                chain_r_pref = p_hi[walk]

            # ---- phase 1: covering descent / split ------------------------
            if open_q.any():
                idx = np.nonzero(open_q)[0]
                lo = lo_arr[idx]
                hi = hi_arr[idx]
                if level >= 64:
                    p_lo = np.zeros(idx.size, dtype=np.uint64)
                    p_hi = p_lo
                    eq = np.ones(idx.size, dtype=bool)
                    di = (lo == u0) & (hi == _U64_ONES)
                else:
                    p_lo = lo >> shift
                    p_hi = hi >> shift
                    eq = p_lo == p_hi
                    di = (
                        eq
                        & ((lo & low_mask) == u0)
                        & ((hi & low_mask) == low_mask)
                    )
                if di.any():
                    # The query *is* this DI: one decomposition probe decides.
                    mask_parts.append((idx[di], p_lo[di], p_lo[di]))
                    open_q[idx[di]] = False
                guard = eq & ~di
                if guard.any():
                    guard_idx = idx[guard]
                    guard_pref = p_lo[guard]
                split = ~eq
                if split.any():
                    # Phase 2 starts: the covering path splits (Fig. 7).
                    s_idx = idx[split]
                    s_lo = lo[split]
                    s_hi = hi[split]
                    sp_lo = p_lo[split]
                    sp_hi = p_hi[split]
                    lalign = (s_lo & low_mask) == u0
                    ralign = (s_hi & low_mask) == low_mask
                    m_lo = np.where(lalign, sp_lo, sp_lo + u1)
                    m_hi = np.where(ralign, sp_hi, sp_hi - u1)
                    emit = m_lo <= m_hi
                    if emit.any():
                        mask_parts.append((s_idx[emit], m_lo[emit], m_hi[emit]))
                    unl = ~lalign
                    if unl.any():
                        chain_l_idx = _concat(chain_l_idx, s_idx[unl])
                        chain_l_pref = _concat(chain_l_pref, sp_lo[unl])
                        lactive[s_idx[unl]] = True
                    unr = ~ralign
                    if unr.any():
                        chain_r_idx = _concat(chain_r_idx, s_idx[unr])
                        chain_r_pref = _concat(chain_r_pref, sp_hi[unr])
                        ractive[s_idx[unr]] = True
                    open_q[s_idx] = False

            # ---- resolve this layer's probes in two vector rounds ---------
            n_guard = 0 if guard_idx is None else guard_idx.size
            n_chain_l = 0 if chain_l_idx is None else chain_l_idx.size
            bit_idx = [
                part
                for part in (guard_idx, chain_l_idx, chain_r_idx)
                if part is not None and part.size
            ]
            if bit_idx:
                prefs = np.concatenate(
                    [
                        part
                        for part in (guard_pref, chain_l_pref, chain_r_pref)
                        if part is not None and part.size
                    ]
                )
                ans = self._resolve_bits_layer(li, prefs)
                g_ans = ans[:n_guard]
                l_ans = ans[n_guard : n_guard + n_chain_l]
                r_ans = ans[n_guard + n_chain_l :]
                if n_guard:
                    open_q[guard_idx[~g_ans]] = False  # covering empty
                if l_ans.size:
                    lactive[chain_l_idx[~l_ans]] = False
                if r_ans.size:
                    ractive[chain_r_idx[~r_ans]] = False
            if mask_parts:
                m_idx = np.concatenate([part[0] for part in mask_parts])
                m_lo = np.concatenate([part[1] for part in mask_parts])
                m_hi = np.concatenate([part[2] for part in mask_parts])
                if li == self._exact_layer_index:
                    fired = self._exact.any_in_ranges(m_lo, m_hi)
                else:
                    fired = self._resolve_masks_layer(
                        li, m_lo, m_hi, self._bits.words[:, None]
                    )[:, 0]
                hit_q = m_idx[fired]
                if hit_q.size:
                    # Filter says "may contain a key": the query is decided.
                    result[hit_q] = True
                    lactive[hit_q] = False
                    ractive[hit_q] = False

            if not (open_q.any() or lactive.any() or ractive.any()):
                break

        return result

    def _contains_range_sliced(
        self, sliced: np.ndarray, exact: np.ndarray | None, lo: int, hi: int
    ) -> np.ndarray:
        """The stacked range walk: ``(filters,)`` answers for ``[lo, hi]``.

        Algorithm 1 once for every filter of a :class:`BloomRFStack`.  The
        probes the walk emits depend on ``(lo, hi, levels)`` alone; the
        filters differ only in which of them they still need, so each one
        keeps its own phase-1 ``alive`` and phase-2 ``left``/``right``
        masks.  Phase 1's covering bits and the split layer's probes are
        read with one gather, each phase-2 layer's probes with one more,
        and the walk stops once every filter is decided.  Column ``i``
        equals :meth:`contains_range` of filter ``i`` (``lo`` and ``hi``
        are validated Python ints).
        """
        levels = self._planner_levels
        none = np.zeros(sliced.shape[1], dtype=bool)
        # Phase 1: while one DI covers the query, the walk probes only its
        # covering bit, and a filter stays alive while all of them are set.
        li = len(levels) - 1
        guards = []
        while True:
            level = levels[li]
            p_lo, p_hi = lo >> level, hi >> level
            l_open = lo != p_lo << level
            r_open = hi != ((p_hi + 1) << level) - 1
            if p_lo != p_hi or not (l_open or r_open):
                break
            guards.append((li, p_lo))
            li -= 1
        if p_lo == p_hi:
            # The query *is* this DI: one decomposition probe decides.
            bit_ans, mask_ans = self._sliced_probes(sliced, exact, guards, [(li, p_lo, p_hi)])
            return np.all(bit_ans, axis=0) & mask_ans[0] if guards else mask_ans[0]
        # The covering path splits (Fig. 7): a decomposition probe between
        # the bounds' DIs, and a covering bit per unaligned bound.
        m_lo = p_lo + 1 if l_open else p_lo
        m_hi = p_hi - 1 if r_open else p_hi
        split = [(li, p) for p, is_open in ((p_lo, l_open), (p_hi, r_open)) if is_open]
        masks = [(li, m_lo, m_hi)] if m_lo <= m_hi else []
        bit_ans, mask_ans = self._sliced_probes(sliced, exact, guards + split, masks)
        alive = np.all(bit_ans[: len(guards)], axis=0) if guards else ~none
        result = alive & mask_ans[0] if masks else none
        opened = iter(bit_ans[len(guards) :])
        left = alive & next(opened) & ~result if l_open else none
        right = alive & next(opened) & ~result if r_open else none
        # Phase 2: each open path expands its covering DI one layer down.
        for li in range(li - 1, -1, -1):
            if not (left.any() or right.any()):
                break
            level, parent = levels[li], levels[li + 1]
            l_span, l_bit = path_step(lo, level, parent, right=False) if left.any() else (None, None)
            r_span, r_bit = path_step(hi, level, parent, right=True) if right.any() else (None, None)
            bits = [(li, p) for p in (l_bit, r_bit) if p is not None]
            masks = [(li, *span) for span in (l_span, r_span) if span is not None]
            bit_ans, mask_ans = self._sliced_probes(sliced, exact, bits, masks)
            fired, opened = iter(mask_ans), iter(bit_ans)
            if l_span is not None:
                result = result | (left & next(fired))
            if r_span is not None:
                result = result | (right & next(fired))
            left = none if l_bit is None else left & next(opened) & ~result
            right = none if r_bit is None else right & next(opened) & ~result
        return result

    def _sliced_probes(
        self,
        sliced: np.ndarray,
        exact: np.ndarray | None,
        bits: list[tuple[int, int]],
        masks: list[tuple[int, int, int]],
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Probes of the stacked range walk, answered for every filter.

        ``bits`` holds ``(layer, prefix)`` covering probes and ``masks``
        ``(layer, p_lo, p_hi)`` decomposition probes; each answer is a
        ``(filters,)`` array.  The arithmetic is the scalar
        :meth:`_probe_bit`/:meth:`_probe_mask`'s, and every PMHF word they
        read comes from one gather.  Exact-bitmap probes and mask probes
        spanning :data:`_SCALAR_MASK_GROUPS` groups or more are answered
        on their own, as in the scalar walk.
        """
        rows: list[int] = []
        fields: list[int] = []
        replicas: list[int] = []  # gathered words per prefix group
        answers: list[np.ndarray | int] = []  # an answer, or its group count

        def read(layer: _Layer, group: int, field: int) -> None:
            for seed in layer.seeds:
                start = layer.seg_base + splitmix64(group, seed=seed) % layer.num_words * layer.word_bits
                rows.append(start >> 6)
                fields.append(field << (start & 63))
            replicas.append(len(layer.seeds))

        for li, prefix in bits:
            if li == self._exact_layer_index:
                answers.append(_test_words(exact, [prefix >> 6], [1 << (prefix & 63)])[0])
                continue
            layer = self._layers[li]
            read(layer, prefix >> layer.offset_bits, 1 << self._offset(layer, prefix))
            answers.append(1)
        for li, p_lo, p_hi in masks:
            if li == self._exact_layer_index:
                answers.append(_any_in_range_sliced(exact, p_lo, p_hi))
                continue
            layer = self._layers[li]
            ob, om = layer.offset_bits, layer.offset_mask
            g_lo, g_hi = p_lo >> ob, p_hi >> ob
            if g_hi - g_lo >= _SCALAR_MASK_GROUPS:
                lo_hi = np.array([[p_lo], [p_hi]], dtype=np.uint64)
                answers.append(self._resolve_masks_layer(li, lo_hi[0], lo_hi[1], sliced)[0])
                continue
            for group in range(g_lo, g_hi + 1):
                base = group << ob
                off_lo = max(p_lo, base) - base
                off_hi = min(p_hi, base + om) - base
                if self._guard and ob and splitmix64(group, seed=layer.guard_seed) & 1:
                    off_lo, off_hi = om - off_hi, om - off_lo
                read(layer, group, ((1 << (off_hi - off_lo + 1)) - 1) << off_lo)
            answers.append(g_hi - g_lo + 1)
        if rows:
            hits = _test_words(sliced, rows, fields)
            if len(replicas) < len(rows):  # AND over each group's replicas
                starts = np.cumsum(replicas) - replicas
                hits = np.logical_and.reduceat(hits, starts, axis=0)
        at = 0
        for i, answer in enumerate(answers):
            if isinstance(answer, int):  # OR over the probe's groups
                answers[i] = hits[at] if answer == 1 else hits[at : at + answer].any(axis=0)
                at += answer
        return answers[: len(bits)], answers[len(bits) :]

    # -- vectorized probe executors (shared by the batch engine) -------
    def _resolve_bits_layer(self, li: int, prefixes: np.ndarray) -> np.ndarray:
        """Resolve one layer's covering probes: AND over replicas.

        One ``splitmix64_array`` + ``test_bits`` round per replica serves
        every probe of the layer across the whole query batch.
        """
        if li == self._exact_layer_index:
            return self._exact.test_bits(prefixes)
        layer = self._layers[li]
        group = prefixes >> layer.u_offset_bits
        base = layer.u_seg_base + self._offsets_array(layer, prefixes, group)
        hit = np.ones(prefixes.size, dtype=bool)
        for seed in layer.seeds:
            word_index = splitmix64_array(group, seed=seed) % layer.u_num_words
            hit &= self._bits.test_bits(base + word_index * layer.u_word_bits)
        return hit

    def _resolve_masks_layer(
        self, li: int, p_lo: np.ndarray, p_hi: np.ndarray, sliced: np.ndarray
    ) -> np.ndarray:
        """Resolve one PMHF layer's decomposition probes (word-mask reads).

        ``sliced`` holds the PMHF words of one or more filters of this
        config, bit-sliced (one column per filter); the answers are
        ``(probes, filters)``.  Each probe expands into its covered prefix
        groups; one ``splitmix64_array`` hash and one gather per replica
        resolve every group of every probe, and per-probe answers are the
        OR over their groups (AND over replicas within a group).
        """
        ans = np.zeros((p_lo.size, sliced.shape[1]), dtype=bool)
        if p_lo.size == 0:
            return ans
        layer = self._layers[li]
        idx = np.arange(p_lo.size)
        lo = p_lo
        hi = p_hi
        g_lo = lo >> layer.u_offset_bits
        g_hi = hi >> layer.u_offset_bits
        wide = (g_hi - g_lo) >= np.uint64(_MAX_MASK_GROUPS)
        if wide.any():
            # Beyond the rated range budget: sound "maybe".
            ans[idx[wide]] = True
            narrow = ~wide
            idx, lo, hi = idx[narrow], lo[narrow], hi[narrow]
            g_lo, g_hi = g_lo[narrow], g_hi[narrow]
            if idx.size == 0:
                return ans
        counts = (g_hi - g_lo).astype(np.int64) + 1
        total = int(counts.sum())
        probe_of_group = np.repeat(np.arange(idx.size), counts)
        starts = np.cumsum(counts) - counts  # each probe's groups are contiguous
        intra = (np.arange(total) - starts[probe_of_group]).astype(np.uint64)
        groups = g_lo[probe_of_group] + intra
        base_prefix = groups << layer.u_offset_bits
        off_lo = np.maximum(lo[probe_of_group], base_prefix) - base_prefix
        off_hi = (
            np.minimum(hi[probe_of_group], base_prefix + layer.u_offset_mask)
            - base_prefix
        )
        if self._guard and layer.offset_bits:
            flip = (
                splitmix64_array(groups, seed=layer.guard_seed) & np.uint64(1)
            ).astype(bool)
            flipped_lo = np.where(flip, layer.u_offset_mask - off_hi, off_lo)
            off_hi = np.where(flip, layer.u_offset_mask - off_lo, off_hi)
            off_lo = flipped_lo
        width = off_hi - off_lo + np.uint64(1)
        field_mask = ((_U64_ONES >> (np.uint64(64) - width)) << off_lo)[:, None]
        hit = np.ones((total, sliced.shape[1]), dtype=bool)
        for seed in layer.seeds:
            word_index = splitmix64_array(groups, seed=seed) % layer.u_num_words
            field = layer.u_seg_base + word_index * layer.u_word_bits
            words = np.take(sliced, field >> np.uint64(6), axis=0)
            words >>= (field & np.uint64(63))[:, None]
            hit &= (words & field_mask) != np.uint64(0)
        ans[idx] = np.logical_or.reduceat(hit, starts, axis=0)
        return ans

    # -- probe oracles consumed by the planner -------------------------
    def _probe_bit(self, layer_index: int, prefix: int) -> bool:
        if layer_index == self._exact_layer_index:
            return self._exact.test_bit(prefix)
        layer = self._layers[layer_index]
        group = prefix >> layer.offset_bits
        offset = self._offset(layer, prefix)
        for seed in layer.seeds:
            if not self._bits.test_bit(self._word_base(layer, group, seed) + offset):
                return False
        return True

    def _probe_mask(self, layer_index: int, p_lo: int, p_hi: int) -> bool:
        if layer_index == self._exact_layer_index:
            return self._exact.any_in_range(p_lo, p_hi)
        layer = self._layers[layer_index]
        g_lo = p_lo >> layer.offset_bits
        g_hi = p_hi >> layer.offset_bits
        if g_hi - g_lo >= _MAX_MASK_GROUPS:
            return True  # beyond the rated range budget: sound "maybe"
        if g_hi - g_lo >= _SCALAR_MASK_GROUPS:
            # Wide probes resolve through the vectorized field reader.
            return bool(
                self._resolve_masks_layer(
                    layer_index,
                    np.array([p_lo], dtype=np.uint64),
                    np.array([p_hi], dtype=np.uint64),
                    self._bits.words[:, None],
                )[0, 0]
            )
        for group in range(g_lo, g_hi + 1):
            base = group << layer.offset_bits
            off_lo = max(p_lo, base) - base
            off_hi = min(p_hi, base + layer.offset_mask) - base
            if self._guard and layer.offset_bits:
                if splitmix64(group, seed=layer.guard_seed) & 1:
                    off_lo, off_hi = (
                        layer.offset_mask - off_hi,
                        layer.offset_mask - off_lo,
                    )
            mask = ((1 << (off_hi - off_lo + 1)) - 1) << off_lo
            hit = True
            for seed in layer.seeds:
                word = self._bits.read_field(
                    self._word_base(layer, group, seed), layer.word_bits
                )
                if not (word & mask):
                    hit = False
                    break
            if hit:
                return True
        return False

    # ------------------------------------------------------------------
    # serialization (the paper persists filters as SST filter blocks)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to a framed byte string (see :mod:`repro.serial`).

        The versioned frame carries the config + insert count as its JSON
        header and the raw PMHF/exact bit-array words as payloads, so a
        round-trip reconstructs the filter bit for bit.
        """
        from repro import serial

        payloads = [self._bits.to_bytes()]
        if self._exact is not None:
            payloads.append(self._exact.to_bytes())
        return serial.pack_frame(
            serial.KIND_BLOOMRF,
            {"config": self.config.to_dict(), "num_keys": self._num_keys},
            *payloads,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomRF":
        """Reconstruct a filter serialized with :meth:`to_bytes`.

        Raises :class:`ValueError` on a bad magic, an unsupported format
        version, truncation, or payload/config size disagreement.
        """
        from repro import serial

        header, payloads = serial.unpack_frame(
            data, expect_kind=serial.KIND_BLOOMRF
        )
        config = BloomRFConfig.from_dict(header["config"])
        filt = cls(config)
        expected = 2 if filt._exact is not None else 1
        if len(payloads) != expected:
            raise ValueError(
                f"bloomRF frame carries {len(payloads)} payloads, "
                f"expected {expected} for this config"
            )
        filt._bits = BitArray.from_bytes(payloads[0], filt._bits.num_bits)
        if filt._exact is not None:
            filt._exact = BitArray.from_bytes(
                payloads[1], config.exact_bitmap_bits
            )
        filt._num_keys = int(header["num_keys"])
        return filt

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def basic(
        cls,
        n_keys: int,
        bits_per_key: float,
        domain_bits: int = 64,
        delta: int = 7,
        seed: int = 0x5EED,
    ) -> "BloomRF":
        """Tuning-free basic bloomRF (Sect. 3-5; rated for ranges <= 2^14)."""
        return cls(
            BloomRFConfig.basic(
                n_keys=n_keys,
                bits_per_key=bits_per_key,
                domain_bits=domain_bits,
                delta=delta,
                seed=seed,
            )
        )

    @classmethod
    def tuned(
        cls,
        n_keys: int,
        bits_per_key: float,
        max_range: int,
        domain_bits: int = 64,
        point_weight: float = 4.0,
        seed: int = 0x5EED,
    ) -> "BloomRF":
        """Advisor-tuned bloomRF for ranges up to ``max_range`` (Sect. 7)."""
        from repro.core.advisor import TuningAdvisor

        advisor = TuningAdvisor(domain_bits=domain_bits, point_weight=point_weight)
        config = advisor.configure(
            n_keys=n_keys, total_bits=int(n_keys * bits_per_key), max_range=max_range
        )
        return cls(
            BloomRFConfig.from_dict({**config.to_dict(), "seed": seed})
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BloomRF(keys={self._num_keys}, bits={self.size_bits}, "
            f"{self.config.describe()})"
        )


class BloomRFStack:
    """Same-config bloomRF filters probed as one: the stacked kernels.

    The filters' words are stored bit-sliced (Flat-Bloofi style): row
    ``w`` holds word ``w`` of every filter, so one gather serves all of
    them.  Row ``i`` of every answer belongs to ``filters[i]``.  A
    one-filter stack is a view of that filter's words; a larger one copies
    them, so stack only filters that no longer change (an SST's filter
    block).
    """

    __slots__ = ("_layout", "_sliced", "_exact")

    def __init__(self, filters: Sequence[BloomRF]) -> None:
        if not filters:
            raise ValueError("a BloomRFStack needs at least one filter")
        layout = filters[0]
        if any(filt.config != layout.config for filt in filters):
            raise ValueError("stacked bloomRF filters must share one config")
        self._layout = layout
        self._sliced = _slice_words([filt._bits for filt in filters])
        self._exact = (
            None
            if layout._exact is None
            else _slice_words([filt._exact for filt in filters])
        )

    def contains_point_many(self, keys: np.ndarray) -> np.ndarray:
        """``(filters, keys)`` answers: row ``i`` equals
        ``filters[i].contains_point_many(keys)``, with the same domain
        validation."""
        keys = self._layout._validated_keys(keys)
        return self._layout._contains_point_sliced(self._sliced, self._exact, keys).T

    def contains_range_many(self, bounds: np.ndarray) -> np.ndarray:
        """``(filters, rows)`` answers: row ``i`` equals
        ``filters[i].contains_range_many(bounds)``, with the same bounds
        validation.  The stacked walk runs once per row and tests every
        filter at once, so it suits many filters and few rows."""
        bounds = self._layout._validated_bounds(bounds)
        out = np.empty((self._sliced.shape[1], bounds.shape[0]), dtype=bool)
        for row, (lo, hi) in enumerate(bounds.tolist()):
            out[:, row] = self._layout._contains_range_sliced(self._sliced, self._exact, lo, hi)
        return out


def _slice_words(arrays: Sequence[BitArray]) -> np.ndarray:
    """Bit-slice same-size bit arrays: ``(words, arrays)``, a view for one."""
    if len(arrays) == 1:
        return arrays[0].words[:, None]
    return np.stack([bits.words for bits in arrays], axis=1)
