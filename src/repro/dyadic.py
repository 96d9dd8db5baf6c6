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
  following one path down from the left query bound and one from the right,
  and
* :func:`compile_range_plan` — the same walk run once as a *plan compiler*:
  instead of invoking callbacks it emits a flat :class:`RangePlan` probe
  program whose decision structure (guards, left/right gate chains, gated
  decomposition masks) can be executed later against oracles
  (:meth:`RangePlan.evaluate`).  It is the reference form of the probe
  program: :meth:`repro.core.bloomrf.BloomRF.contains_range_many` emits the
  same program batch-wide with a vectorized per-layer sweep, and the tests
  pin all three walk implementations (callback, plan, batched sweep)
  together via randomized-oracle equivalence and bit-identity properties.

The planner is deliberately **pure**: it knows nothing about bit arrays.  The
caller supplies two oracles::

    probe_bit(layer, prefix)        -> bool   # is the covering DI non-empty?
    probe_mask(layer, plo, phi)     -> bool   # any key with prefix in [plo, phi]?

which lets the same code drive the real bloomRF filter, an exact reference
filter in the tests, and a recording oracle that checks the probe pattern
itself (coverings contain the query bounds; mask ranges partition the query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "RangePlan",
    "compile_range_plan",
    "PATH_BOTH",
    "PATH_LEFT",
    "PATH_RIGHT",
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


# ----------------------------------------------------------------------
# compiled probe plans (Algorithm 1 with the decision structure reified)
# ----------------------------------------------------------------------
PATH_BOTH = 0
PATH_LEFT = 1
PATH_RIGHT = 2


@dataclass
class RangePlan:
    """Flat probe program emitted by :func:`compile_range_plan`.

    The two-path walk's control flow collapses into four probe lists whose
    combination is a short monotone formula over the probe answers:

    * ``guard_bits`` — the phase-1 covering probes; if any is unset the
      query range is provably empty (the walk's early exits).
    * ``left_bits`` / ``right_bits`` — the per-path covering probes, top
      down.  Entry ``j`` gates every mask probe *below* it on the same path
      (the walk's ``left = probe_bit(...)`` state).
    * ``masks`` — decomposition probes ``(layer, p_lo, p_hi, path, depth)``:
      the probe fires only if the first ``depth`` chain bits of ``path`` are
      all set; the query is non-empty iff all guards pass and any reachable
      mask probe hits.

    Because the formula is monotone in the probe answers, evaluating every
    probe eagerly (as a vectorized batch executor does) gives bit-identical
    results to the short-circuiting callback walk.
    """

    guard_bits: list[tuple[int, int]] = field(default_factory=list)
    left_bits: list[tuple[int, int]] = field(default_factory=list)
    right_bits: list[tuple[int, int]] = field(default_factory=list)
    masks: list[tuple[int, int, int, int, int]] = field(default_factory=list)

    def evaluate(self, probe_bit: ProbeBit, probe_mask: ProbeMask) -> bool:
        """Execute the plan against scalar oracles (reference semantics)."""
        if not all(probe_bit(layer, p) for layer, p in self.guard_bits):
            return False
        left = [probe_bit(layer, p) for layer, p in self.left_bits]
        right = [probe_bit(layer, p) for layer, p in self.right_bits]
        for layer, p_lo, p_hi, path, depth in self.masks:
            if path == PATH_LEFT and not all(left[:depth]):
                continue
            if path == PATH_RIGHT and not all(right[:depth]):
                continue
            if probe_mask(layer, p_lo, p_hi):
                return True
        return False

    def bit_probes(self) -> list[tuple[int, int]]:
        """Every covering probe of the plan (guards + both chains)."""
        return self.guard_bits + self.left_bits + self.right_bits


def compile_range_plan(
    l_key: int, r_key: int, levels: Sequence[int]
) -> RangePlan:
    """Compile Algorithm 1's walk for ``[l_key, r_key]`` into a probe plan.

    Runs the exact control flow of :func:`two_path_range_lookup` but records
    probes instead of invoking callbacks; on the full probe tree (no early
    exits) the recorded probe set is identical to the callback walk's.
    """
    if l_key > r_key:
        raise ValueError(f"empty query range [{l_key}, {r_key}]")
    if not levels or levels[0] != 0:
        raise ValueError("levels must be ascending and start at level 0")

    plan = RangePlan()
    guard_bits = plan.guard_bits
    left_bits = plan.left_bits
    right_bits = plan.right_bits
    masks = plan.masks

    top = len(levels) - 1
    both = True
    left_open = right_open = False

    for layer in range(top, -1, -1):
        level = levels[layer]
        if both:
            p_lo = l_key >> level
            p_hi = r_key >> level
            if p_lo == p_hi:
                di_lo = p_lo << level
                if l_key == di_lo and r_key == di_lo + (1 << level) - 1:
                    # The query *is* this DI: one decomposition probe decides.
                    masks.append((layer, p_lo, p_hi, PATH_BOTH, 0))
                    return plan
                guard_bits.append((layer, p_lo))
                continue
            # Phase 2 starts: the covering path splits (Fig. 7, level 4).
            both = False
            mask_lo, mask_hi = p_lo + 1, p_hi - 1
            if l_key == (p_lo << level):
                mask_lo = p_lo  # left bound aligned: whole left DI inside query
            else:
                left_open = True
                left_bits.append((layer, p_lo))
            if r_key == (((p_hi + 1) << level) - 1):
                mask_hi = p_hi  # right bound aligned: whole right DI inside query
            else:
                right_open = True
                right_bits.append((layer, p_hi))
            if mask_lo <= mask_hi:
                masks.append((layer, mask_lo, mask_hi, PATH_BOTH, 0))
            continue

        parent_level = levels[layer + 1]
        if left_open:
            j_hi = (((l_key >> parent_level) + 1) << parent_level) - 1
            p_lo = l_key >> level
            p_j = j_hi >> level
            depth = len(left_bits)
            if l_key == (p_lo << level):
                masks.append((layer, p_lo, p_j, PATH_LEFT, depth))
                left_open = False
            else:
                if p_lo < p_j:
                    masks.append((layer, p_lo + 1, p_j, PATH_LEFT, depth))
                left_bits.append((layer, p_lo))
        if right_open:
            j_lo = (r_key >> parent_level) << parent_level
            p_hi = r_key >> level
            p_j = j_lo >> level
            depth = len(right_bits)
            if r_key == (((p_hi + 1) << level) - 1):
                masks.append((layer, p_j, p_hi, PATH_RIGHT, depth))
                right_open = False
            else:
                if p_j < p_hi:
                    masks.append((layer, p_j, p_hi - 1, PATH_RIGHT, depth))
                right_bits.append((layer, p_hi))
        if not (left_open or right_open):
            break

    return plan


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
