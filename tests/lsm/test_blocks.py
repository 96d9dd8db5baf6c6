"""Lazy value sequences: iterating a run's values equals indexing them.

A merge reads every value of a reopened run through
``SlicedValues.__iter__``, which reads the blob in chunks and slices whole
values out of each chunk; lookups go through ``__getitem__``.  Both must
return the same bytes, whatever the chunk size, value sizes (empty ones
and ones larger than a chunk included) or blob source.
"""

import numpy as np
import pytest

from repro.lsm import blocks
from repro.lsm.blocks import BlockedPayload, SlicedValues, compress_payload


def _values():
    rng = np.random.default_rng(5)
    sizes = rng.integers(0, 40, 300).tolist() + [0, 250, 0, 3]
    return [bytes(rng.integers(0, 256, n, dtype=np.uint8)) for n in sizes]


def _offsets(values):
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum([len(v) for v in values], out=offsets[1:])
    return offsets


@pytest.mark.parametrize("chunk", [1, 64, 1 << 20])
@pytest.mark.parametrize("source", ["buffer", "blocked"])
def test_iteration_matches_indexing(monkeypatch, chunk, source):
    monkeypatch.setattr(blocks, "_ITER_CHUNK", chunk)
    values = _values()
    blob = b"".join(values)
    data = memoryview(blob)
    if source == "blocked":
        comp, table = compress_payload(blob, "zlib", 128)
        data = BlockedPayload(
            comp, table, len(blob), 128, "zlib", context="test payload"
        )
    sliced = SlicedValues(data, _offsets(values))
    assert list(sliced) == values
    assert [sliced[i] for i in range(len(sliced))] == values
    assert sliced[-1] == values[-1]


def test_empty_sequence_iterates_to_nothing():
    sliced = SlicedValues(b"", np.zeros(1, dtype=np.int64))
    assert len(sliced) == 0
    assert list(sliced) == []
