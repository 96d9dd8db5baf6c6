"""Small shared helpers: bit arithmetic on unsigned integers.

Every filter in this package works over fixed-width unsigned integer domains
(``d`` bits, ``d <= 64``).  Python integers are unbounded, so the helpers here
centralize the masking discipline that keeps intermediate values inside the
domain.  They are deliberately tiny so the hot paths in :mod:`repro.core` can
inline-call them without surprises.  The NumPy-facing helpers are the
scalar->bulk probe adapters (:func:`bulk_point_eval`,
:func:`bulk_range_eval`), the bounds-row check and :func:`one_row`.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

MASK64 = (1 << 64) - 1


def bulk_range_eval(
    scalar_fn: Callable[[int, int], bool], bounds: np.ndarray
) -> np.ndarray:
    """Evaluate a scalar ``(lo, hi) -> bool`` range probe over ``(n, 2)`` rows.

    The uniform bulk-interface adapter for filters whose range probe is
    inherently sequential (Rosetta's doubting, SuRF's trie walk, ...):
    one scalar probe per row, boolean array out.
    """
    bounds = np.asarray(bounds)  # repro-lint: ignore[dtype-discipline] -- generic adapter: rows reach the scalar fn via int(), any integer dtype is welcome
    return np.fromiter(
        (scalar_fn(int(lo), int(hi)) for lo, hi in bounds.tolist()),
        dtype=bool,
        count=bounds.shape[0],
    )


def bulk_point_eval(
    scalar_fn: Callable[[int], bool], keys: np.ndarray
) -> np.ndarray:
    """Evaluate a scalar ``key -> bool`` point probe over a key array.

    The point-probe counterpart of :func:`bulk_range_eval`: the uniform
    bulk interface for filters whose point lookup is inherently sequential
    (SuRF's trie walk, the cuckoo table): one scalar probe per key,
    boolean array out.
    """
    keys = np.asarray(keys)  # repro-lint: ignore[dtype-discipline] -- generic adapter: keys reach the scalar fn via int(), any integer dtype is welcome
    return np.fromiter(
        (scalar_fn(int(key)) for key in keys.ravel().tolist()),
        dtype=bool,
        count=keys.size,
    )


def check_bounds_rows(bounds: np.ndarray) -> np.ndarray:
    """Validate an ``(n, 2)`` inclusive-bounds array's row ordering.

    Shared by the conservative all-"maybe" bulk range probes (Bloom,
    Cuckoo, the "none" filter) so their bulk form rejects inverted ranges
    exactly like their scalar form — the protocol's scalar==bulk contract.
    """
    bounds = np.asarray(bounds)  # repro-lint: ignore[dtype-discipline] -- validation helper: compares rows as given; pinning uint64 would wrap negatives before the check
    if bounds.size:
        inverted = bounds[:, 0] > bounds[:, 1]
        if np.any(inverted):
            i = int(np.argmax(inverted))
            raise ValueError(
                f"empty query range [{int(bounds[i, 0])}, {int(bounds[i, 1])}]"
            )
    return bounds


def one_row(*values: int) -> np.ndarray:
    """One key, or one ``(lo, hi)`` bound pair, as a one-row uint64 batch.

    The scalar reads enter the batched engines through here.  Each value
    must be an integer in ``[0, 2**64)`` (``ValueError`` otherwise, as on
    the batch paths), and the dtype is pinned, so a bound of ``2**64 - 1``
    never promotes the row to float64.  One value gives shape ``(1,)``,
    two give ``(1, 2)``.
    """
    row = [operator.index(value) for value in values]
    for value in row:
        if not 0 <= value <= MASK64:
            raise ValueError(f"key {value!r} outside the 64-bit unsigned domain")
    return np.array(row if len(row) == 1 else [row], dtype=np.uint64)


def mask(bits: int) -> int:
    """Return an all-ones mask of ``bits`` bits (``mask(3) == 0b111``)."""
    return (1 << bits) - 1


def domain_size(domain_bits: int) -> int:
    """Number of elements in a ``domain_bits``-bit unsigned domain."""
    return 1 << domain_bits


def domain_max(domain_bits: int) -> int:
    """Largest representable key of a ``domain_bits``-bit unsigned domain."""
    return (1 << domain_bits) - 1


def check_key(key: int, domain_bits: int) -> int:
    """Validate that ``key`` lies in the ``domain_bits``-bit domain.

    Returns the key unchanged so call sites can validate inline.
    Raises ``ValueError`` for out-of-domain or negative keys.
    """
    if not 0 <= key <= domain_max(domain_bits):
        raise ValueError(
            f"key {key!r} outside the {domain_bits}-bit unsigned domain"
        )
    return key


def floor_log2(value: int) -> int:
    """``floor(log2(value))`` for a positive integer."""
    if value <= 0:
        raise ValueError(f"floor_log2 requires a positive value, got {value}")
    return value.bit_length() - 1


def ceil_log2(value: int) -> int:
    """``ceil(log2(value))`` for a positive integer."""
    if value <= 0:
        raise ValueError(f"ceil_log2 requires a positive value, got {value}")
    return (value - 1).bit_length()


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounding up."""
    return -(-numerator // denominator)


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest multiple of ``multiple``."""
    return ceil_div(value, multiple) * multiple


def is_power_of_two(value: int) -> bool:
    """True for 1, 2, 4, 8, ..."""
    return value > 0 and (value & (value - 1)) == 0
