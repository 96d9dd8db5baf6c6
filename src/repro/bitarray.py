"""NumPy-backed bit array with aligned power-of-two word access.

This is the physical storage substrate shared by every filter in the package.
It stores ``m`` bits in an array of little-endian 64-bit words and supports
two access granularities:

* single bits (``set_bit`` / ``test_bit``), used by Bloom filters and by
  bloomRF covering checks, and
* aligned *fields* of ``2**w`` bits with ``w <= 6`` (``read_field`` /
  ``or_field``), used by bloomRF's piecewise-monotone hash functions, whose
  word size is ``2**(delta-1)`` bits (Sect. 3.2 of the paper).  Because field
  widths are powers of two and field reads are aligned, a field never
  straddles two storage words, so a field read is a constant-time shift+mask
  on one ``uint64``.

Bulk (vectorized) variants accept NumPy ``uint64`` index arrays so that
millions of keys can be inserted or probed without a Python-level loop.
"""

from __future__ import annotations

import numpy as np

from repro._util import ceil_div, is_power_of_two, round_up

_WORD_BITS = 64
_WORD_SHIFT = 6
_WORD_MASK = 63
# set_bits packs a dense bool span when the touched words number at most
# this many per position (measured crossover ~2; the span's bool scratch
# then stays within 8x the positions array).
_DENSE_WORDS_PER_POSITION = 1

__all__ = ["BitArray"]


class BitArray:
    """A fixed-size array of ``m`` bits backed by ``uint64`` words.

    Parameters
    ----------
    num_bits:
        Capacity in bits.  Rounded up to a multiple of 64 internally; the
        logical size (``len(ba)``) keeps the requested value.
    """

    __slots__ = ("_num_bits", "words")

    def __init__(self, num_bits: int) -> None:
        if num_bits <= 0:
            raise ValueError(f"BitArray size must be positive, got {num_bits}")
        self._num_bits = num_bits
        self.words = np.zeros(ceil_div(num_bits, _WORD_BITS), dtype=np.uint64)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_bits

    @property
    def num_bits(self) -> int:
        """Logical capacity in bits."""
        return self._num_bits

    @property
    def storage_bits(self) -> int:
        """Physical capacity in bits (rounded up to whole words)."""
        return self.words.size * _WORD_BITS

    def count_ones(self) -> int:
        """Population count over the whole array."""
        return int(np.sum(np.bitwise_count(self.words)))

    def fill_ratio(self) -> float:
        """Fraction of logical bits currently set."""
        return self.count_ones() / self._num_bits

    def clear(self) -> None:
        """Reset every bit to zero."""
        self.words[:] = 0

    # ------------------------------------------------------------------
    # single-bit access (scalar)
    # ------------------------------------------------------------------
    def set_bit(self, pos: int) -> None:
        """Set the bit at ``pos`` to one."""
        self.words[pos >> _WORD_SHIFT] |= np.uint64(1 << (pos & _WORD_MASK))

    def test_bit(self, pos: int) -> bool:
        """Return True if the bit at ``pos`` is one."""
        return bool((int(self.words[pos >> _WORD_SHIFT]) >> (pos & _WORD_MASK)) & 1)

    # ------------------------------------------------------------------
    # single-bit access (vectorized)
    # ------------------------------------------------------------------
    def set_bits(self, positions: np.ndarray) -> None:
        """Set all bits listed in ``positions`` (uint64 array) to one.

        Dense batches (a filter build: many positions over one segment)
        scatter into a bool array over the touched word span and pack it
        into words, which is several times cheaper than the per-element
        ``np.bitwise_or.at``; sparse batches keep the latter.  Both set
        the same bits, and a position past the last word raises
        :class:`IndexError`.
        """
        positions = positions.astype(np.uint64, copy=False)
        if positions.size == 0:
            return
        lo = int(positions.min()) >> _WORD_SHIFT
        hi = (int(positions.max()) >> _WORD_SHIFT) + 1
        if hi > self.words.size:
            raise IndexError(
                f"bit position {int(positions.max())} is out of range for "
                f"{self.storage_bits} stored bits"
            )
        if hi - lo > _DENSE_WORDS_PER_POSITION * positions.size:
            word_idx = positions >> np.uint64(_WORD_SHIFT)
            bit = np.uint64(1) << (positions & np.uint64(_WORD_MASK))
            # np.bitwise_or.at handles repeated word indices correctly.
            np.bitwise_or.at(self.words, word_idx, bit)
            return
        span = np.zeros((hi - lo) * _WORD_BITS, dtype=bool)
        span[positions - np.uint64(lo * _WORD_BITS)] = True
        self.words[lo:hi] |= np.packbits(span, bitorder="little").view("<u8")

    def test_bits(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized ``test_bit``: boolean array, one entry per position."""
        positions = positions.astype(np.uint64, copy=False)
        word_idx = positions >> np.uint64(_WORD_SHIFT)
        shift = positions & np.uint64(_WORD_MASK)
        return ((self.words[word_idx] >> shift) & np.uint64(1)) != 0

    # ------------------------------------------------------------------
    # aligned field access
    # ------------------------------------------------------------------
    def read_field(self, bit_pos: int, field_bits: int) -> int:
        """Read the aligned ``field_bits``-wide field containing ``bit_pos``.

        ``field_bits`` must be a power of two <= 64.  The returned integer has
        the field's lowest-address bit in its bit 0 — i.e. bit ``j`` of the
        result is the bit at array position ``align(bit_pos) + j``.
        """
        if field_bits == _WORD_BITS:
            return int(self.words[bit_pos >> _WORD_SHIFT])
        start = bit_pos & ~(field_bits - 1)
        word = int(self.words[start >> _WORD_SHIFT])
        return (word >> (start & _WORD_MASK)) & ((1 << field_bits) - 1)

    def or_field(self, bit_pos: int, field_bits: int, value: int) -> None:
        """OR ``value`` into the aligned field containing ``bit_pos``."""
        start = bit_pos & ~(field_bits - 1)
        self.words[start >> _WORD_SHIFT] |= np.uint64(
            (value & ((1 << field_bits) - 1)) << (start & _WORD_MASK)
        )

    # ------------------------------------------------------------------
    # range queries over raw bit positions (used by exact-level bitmaps)
    # ------------------------------------------------------------------
    def any_in_range(self, lo: int, hi: int) -> bool:
        """True if any bit in the inclusive position range [lo, hi] is set."""
        if lo > hi:
            return False
        lo_word, hi_word = lo >> _WORD_SHIFT, hi >> _WORD_SHIFT
        lo_mask = ~((1 << (lo & _WORD_MASK)) - 1) & ((1 << 64) - 1)
        hi_mask = ((1 << ((hi & _WORD_MASK) + 1)) - 1) if (hi & _WORD_MASK) != _WORD_MASK else (1 << 64) - 1
        if lo_word == hi_word:
            return bool(int(self.words[lo_word]) & lo_mask & hi_mask)
        if int(self.words[lo_word]) & lo_mask:
            return True
        if int(self.words[hi_word]) & hi_mask:
            return True
        if hi_word - lo_word > 1:
            return bool(np.any(self.words[lo_word + 1 : hi_word]))
        return False

    def any_in_ranges(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`any_in_range` over parallel position arrays.

        Computed as a rank difference over a popcount prefix sum, so the
        cost is one pass over the storage words plus O(1) work per query —
        independent of the individual range lengths.
        """
        lo = lo.astype(np.int64, copy=False)
        hi = hi.astype(np.int64, copy=False)
        if lo.size == 0:
            return np.zeros(0, dtype=bool)
        counts = np.bitwise_count(self.words).astype(np.int64)
        cum = np.zeros(self.words.size + 1, dtype=np.int64)
        np.cumsum(counts, out=cum[1:])

        def rank(pos: np.ndarray) -> np.ndarray:
            # Number of set bits strictly below each position.
            word = pos >> _WORD_SHIFT
            bit = (pos & _WORD_MASK).astype(np.uint64)
            safe = np.minimum(word, self.words.size - 1)
            partial_mask = (np.uint64(1) << bit) - np.uint64(1)
            partial = np.bitwise_count(self.words[safe] & partial_mask)
            return cum[word] + np.where(bit != 0, partial.astype(np.int64), 0)

        return (rank(hi + 1) - rank(lo)) > 0

    # ------------------------------------------------------------------
    # diagnostics used by the Fig. 5 scatter experiment
    # ------------------------------------------------------------------
    def zero_run_lengths(self) -> np.ndarray:
        """Lengths of maximal runs of zero bits, in array order.

        Used to reproduce Fig. 5.B/C (bit-array scatter comparison between a
        Bloom filter and bloomRF).  Returns an int64 array of run lengths.
        """
        bits = self.to_bit_vector()
        if bits.size == 0:
            return np.zeros(0, dtype=np.int64)
        # Boundaries where the bit value changes.
        change = np.nonzero(np.diff(bits))[0]
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change, [bits.size - 1]))
        lengths = ends - starts + 1
        values = bits[starts]
        return lengths[values == 0].astype(np.int64)

    def one_run_lengths(self) -> np.ndarray:
        """Lengths of maximal runs of one bits (gap metric of Fig. 5.C)."""
        bits = self.to_bit_vector()
        if bits.size == 0:
            return np.zeros(0, dtype=np.int64)
        change = np.nonzero(np.diff(bits))[0]
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change, [bits.size - 1]))
        lengths = ends - starts + 1
        values = bits[starts]
        return lengths[values == 1].astype(np.int64)

    def to_bit_vector(self) -> np.ndarray:
        """Expand to a uint8 array of 0/1 values, one per logical bit."""
        expanded = np.unpackbits(
            self.words.view(np.uint8), bitorder="little"
        )
        return expanded[: self._num_bits]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to little-endian bytes (words in order)."""
        return self.words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, num_bits: int) -> "BitArray":
        """Reconstruct from :meth:`to_bytes` output."""
        ba = cls(num_bits)
        expected = ba.words.size * 8
        if len(data) != expected:
            raise ValueError(
                f"serialized BitArray has {len(data)} bytes, expected {expected}"
            )
        ba.words = np.frombuffer(data, dtype=np.uint64).copy()
        return ba

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._num_bits == other._num_bits and bool(
            np.array_equal(self.words, other.words)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BitArray(num_bits={self._num_bits}, "
            f"ones={self.count_ones()}, fill={self.fill_ratio():.3f})"
        )


def aligned_bits(num_bits: int, word_bits: int) -> int:
    """Round a bit budget up so it divides evenly into ``word_bits`` words."""
    if not is_power_of_two(word_bits):
        raise ValueError(f"word_bits must be a power of two, got {word_bits}")
    return round_up(num_bits, max(word_bits, _WORD_BITS))
