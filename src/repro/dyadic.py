"""Dyadic intervals, canonical decomposition, and the two-path range planner.

A *dyadic interval* (DI) on level ``l`` spans ``2**l`` keys and is aligned to
a multiple of ``2**l`` (Sect. 2 of the paper).  DIs on level ``l`` correspond
one-to-one to key prefixes of ``d - l`` bits.  This module provides:

* plain DI arithmetic (:func:`di_bounds`, :func:`prefix_of`),
* the canonical greedy decomposition of an arbitrary interval into maximal
  DIs (used by the Rosetta baseline and by tests),
* :func:`two_path_range_lookup` — the paper's Algorithm 1: a single top-down
  pass over the filter's layers that probes *covering* DIs (one bit each,
  with early exit) and *decomposition* prefix ranges (word-mask probes),
  following one path down from the left query bound and one from the right.
  It is the reference form of the probe program:
  :meth:`repro.core.bloomrf.BloomRF.contains_range_many` emits the same
  probes batch-wide with a vectorized per-layer sweep (sharing
  :func:`path_step` with it), and the tests pin the two together by
  batch-vs-scalar bit identity.

The planner is deliberately **pure**: it knows nothing about bit arrays.  The
caller supplies two oracles::

    probe_bit(layer, prefix)        -> bool   # is the covering DI non-empty?
    probe_mask(layer, plo, phi)     -> bool   # any key with prefix in [plo, phi]?

which lets the same code drive the real bloomRF filter, an exact reference
filter in the tests, and a recording oracle that checks the probe pattern
itself (coverings contain the query bounds; mask ranges partition the query).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro._util import floor_log2

__all__ = [
    "di_bounds",
    "prefix_of",
    "level_of_range",
    "dyadic_decompose",
    "covering_prefix_range",
    "two_path_range_lookup",
    "path_step",
]

ProbeBit = Callable[[int, int], bool]
ProbeMask = Callable[[int, int, int], bool]


def prefix_of(key: int, level: int) -> int:
    """The prefix of ``key`` on ``level`` (its ``d - level`` high bits)."""
    return key >> level


def di_bounds(prefix: int, level: int) -> tuple[int, int]:
    """Inclusive ``(lo, hi)`` key bounds of the DI ``prefix`` on ``level``."""
    lo = prefix << level
    return lo, lo + (1 << level) - 1


def level_of_range(lo: int, hi: int) -> int:
    """Smallest level whose DIs can contain ``[lo, hi]`` by size alone."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if lo == hi:
        return 0
    return (hi - lo).bit_length()


def dyadic_decompose(
    lo: int, hi: int, max_level: int | None = None
) -> list[tuple[int, int]]:
    """Greedy minimal decomposition of ``[lo, hi]`` into maximal DIs.

    Returns ``(level, prefix)`` pairs in ascending key order whose DIs are
    disjoint and union exactly to ``[lo, hi]``.  ``max_level`` caps the DI
    size (Rosetta caps at ``log2(R)`` — its largest indexed level).
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if lo < 0:
        raise ValueError(f"negative range start {lo}")
    out: list[tuple[int, int]] = []
    cursor = lo
    while cursor <= hi:
        size_cap = floor_log2(hi - cursor + 1)
        align_cap = (cursor & -cursor).bit_length() - 1 if cursor else size_cap
        level = min(size_cap, align_cap)
        if max_level is not None:
            level = min(level, max_level)
        out.append((level, cursor >> level))
        cursor += 1 << level
    return out


def covering_prefix_range(lo: int, hi: int, level: int) -> tuple[int, int]:
    """Inclusive range of level-``level`` prefixes whose DIs intersect [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    return lo >> level, hi >> level


def two_path_range_lookup(
    l_key: int,
    r_key: int,
    levels: Sequence[int],
    probe_bit: ProbeBit,
    probe_mask: ProbeMask,
) -> bool:
    """Algorithm 1: approximate emptiness test of ``[l_key, r_key]``.

    ``levels`` maps layer index -> dyadic level, ascending, with
    ``levels[0] == 0`` (the key level) — bloomRF always keeps the bottom
    level, dropping only saturated *top* levels.  The top entry may be an
    exact-bitmap pseudo-layer; the planner does not care.

    Descends layer by layer.  While one DI covers the whole query ("phase 1",
    Fig. 7) only that covering bit is probed — if it is unset the query range
    is provably empty and the walk stops early.  Once the query spans two DIs
    the walk splits into a left path (following ``l_key``) and a right path
    (following ``r_key``); at each layer every path probes at most one
    decomposition prefix range (``probe_mask``) plus one covering bit.
    Returns True as soon as any decomposition probe fires (filter says "may
    contain a key"), False when every path is exhausted.
    """
    if l_key > r_key:
        raise ValueError(f"empty query range [{l_key}, {r_key}]")
    if not levels or levels[0] != 0:
        raise ValueError("levels must be ascending and start at level 0")

    top = len(levels) - 1
    both = True
    left = right = False

    for layer in range(top, -1, -1):
        level = levels[layer]
        if both:
            p_lo = l_key >> level
            p_hi = r_key >> level
            if p_lo == p_hi:
                di_lo, di_hi = di_bounds(p_lo, level)
                if l_key == di_lo and r_key == di_hi:
                    # The query *is* this DI: one decomposition probe decides.
                    return probe_mask(layer, p_lo, p_hi)
                if not probe_bit(layer, p_lo):
                    return False  # covering empty -> early stop
                continue
            # Phase 2 starts: the covering path splits (Fig. 7, level 4).
            both = False
            mask_lo, mask_hi = p_lo + 1, p_hi - 1
            if l_key == (p_lo << level):
                mask_lo = p_lo  # left bound aligned: whole left DI inside query
            else:
                left = probe_bit(layer, p_lo)
            if r_key == (((p_hi + 1) << level) - 1):
                mask_hi = p_hi  # right bound aligned: whole right DI inside query
            else:
                right = probe_bit(layer, p_hi)
            if mask_lo <= mask_hi and probe_mask(layer, mask_lo, mask_hi):
                return True
            if not (left or right):
                return False
            continue

        # Expand each open path's covering DI one layer down.
        if left:
            span, prefix = path_step(l_key, level, levels[layer + 1], right=False)
            if span is not None and probe_mask(layer, *span):
                return True
            left = prefix is not None and probe_bit(layer, prefix)
        if right:
            span, prefix = path_step(r_key, level, levels[layer + 1], right=True)
            if span is not None and probe_mask(layer, *span):
                return True
            right = prefix is not None and probe_bit(layer, prefix)
        if not (left or right):
            return False

    # levels[0] == 0 guarantees both paths resolve at the bottom layer.
    return False


def path_step(
    key: int, level: int, parent_level: int, *, right: bool
) -> tuple[tuple[int, int] | None, int | None]:
    """One phase-2 step of Algorithm 1 on the path that follows ``key``.

    The path's covering DI on ``parent_level`` holds ``key`` (the query's
    lower bound on the left path, its upper bound on the right one).  One
    layer down, on ``level``, the walk probes the prefixes of that DI that
    lie inside the query beyond ``key``'s own DI — returned as an
    inclusive ``(p_lo, p_hi)`` decomposition span, or None when there are
    none — and the covering bit of ``key``'s DI, returned as its prefix.
    When ``key`` is aligned to its DI that DI lies inside the query too:
    it joins the span, and the prefix is None (the path ends).
    """
    p = key >> level
    if right:
        p_j = ((key >> parent_level) << parent_level) >> level
        if key == ((p + 1) << level) - 1:
            return (p_j, p), None
        return ((p_j, p - 1) if p_j < p else None), p
    p_j = ((((key >> parent_level) + 1) << parent_level) - 1) >> level
    if key == p << level:
        return (p, p_j), None
    return ((p + 1, p_j) if p < p_j else None), p


class RecordingOracle:
    """Test/diagnostic oracle that records every probe the planner makes.

    Configured with the answers to give (default: coverings non-empty, masks
    empty) so tests can force the planner to walk its complete probe tree and
    then assert structural properties of the recorded probes.
    """

    def __init__(self, bit_answer: bool = True, mask_answer: bool = False) -> None:
        self.bit_probes: list[tuple[int, int]] = []
        self.mask_probes: list[tuple[int, int, int]] = []
        self._bit_answer = bit_answer
        self._mask_answer = mask_answer

    def probe_bit(self, layer: int, prefix: int) -> bool:
        self.bit_probes.append((layer, prefix))
        return self._bit_answer

    def probe_mask(self, layer: int, p_lo: int, p_hi: int) -> bool:
        self.mask_probes.append((layer, p_lo, p_hi))
        return self._mask_answer

    def mask_key_ranges(self, levels: Sequence[int]) -> list[tuple[int, int]]:
        """Key ranges covered by the recorded mask probes, sorted."""
        ranges = []
        for layer, p_lo, p_hi in self.mask_probes:
            level = levels[layer]
            ranges.append((p_lo << level, ((p_hi + 1) << level) - 1))
        return sorted(ranges)
