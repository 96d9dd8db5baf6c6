"""The memtable's range index: writes merge into it instead of dropping it.

After every write the merged index equals one rebuilt from the entries,
reads between writes never rebuild it, and readers racing a writer never
miss an acknowledged put nor see an acknowledged delete as live.  Writers
racing each other and a flush lose no write and leave no stale index, an
index of no keys takes merges, and a reader keeps the entries its index
was built over when a flush drains them.
"""

import sys
import threading

import numpy as np

from repro.lsm.memtable import TOMBSTONE, MemTable


def _rebuilt(mt):
    """The index a fresh build from the entries would give."""
    keys = sorted(mt._entries)
    live = [mt._entries[k] is not TOMBSTONE for k in keys]
    return np.array(keys, dtype=np.uint64), np.array(live, dtype=bool)


def _assert_index_is_current(mt):
    index = mt._snapshot
    assert index is not None and index.stamp == mt._version
    keys, live = _rebuilt(mt)
    assert index.keys.dtype == np.uint64 and np.array_equal(index.keys, keys)
    assert np.array_equal(index.live, live)
    assert index.live_before.tolist() == [0, *np.cumsum(live).tolist()]


def _entries(mt, lo, hi):
    """The memtable's array slice of ``[lo, hi]`` as ``(key, value)``
    pairs, after checking that its tombstone flags match the values."""
    keys, tombstones, values = mt.range_slice(lo, hi)
    assert keys.dtype == np.uint64
    assert tombstones.tolist() == [value is TOMBSTONE for value in values]
    return list(zip(keys.tolist(), values, strict=True))


def _writes(rng):
    """A mix of every write form over a small key space: duplicate keys in
    one batch, re-puts over tombstones, deletes of absent keys."""
    for step in range(80):
        keys = rng.integers(0, 400, int(rng.integers(1, 24)), dtype=np.uint64)
        keys[-1] = keys[0]  # a duplicate in every batch
        kind = step % 4
        if kind == 0:
            yield "put_many", keys, [b"v%d" % step] * keys.size
        elif kind == 1:
            yield "delete_many", np.append(keys, np.uint64(10_000 + step)), None
        elif kind == 2:
            yield "put", int(keys[0]), b"p%d" % step
        else:
            yield "delete", int(keys[0]), None


def _apply(mt, op, keys, values):
    if op == "put_many":
        mt.put_many(keys, values)
    elif op == "delete_many":
        mt.delete_many(keys)
    elif op == "put":
        mt.put(keys, values)
    else:
        mt.delete(keys)


def test_writes_merge_into_the_index_instead_of_rebuilding_it():
    rng = np.random.default_rng(41)
    mt = MemTable(capacity=1 << 20)
    # Writes before any range read keep no index and build none.
    mt.put_many(np.array([7, 7, 3], dtype=np.uint64), [b"a", b"b", b"c"])
    mt.delete_many(np.array([3, 99], dtype=np.uint64))
    assert mt._snapshot is None and mt.index_builds == 0

    assert mt.contains_range_many(np.array([[0, 5], [6, 8]], dtype=np.uint64)).tolist() == [
        False,
        True,
    ]
    assert mt.index_builds == 1
    _assert_index_is_current(mt)
    rebuilt_over_tombstone = False
    for op, keys, values in _writes(rng):
        before = mt._entries.get(int(np.atleast_1d(keys)[0]))
        _apply(mt, op, keys, values)
        rebuilt_over_tombstone |= before is TOMBSTONE and op.startswith("put")
        _assert_index_is_current(mt)
        lo = int(rng.integers(0, 400))
        bounds = np.array([[lo, lo + 30]], dtype=np.uint64)
        want = any(
            lo <= k <= lo + 30 and v is not TOMBSTONE for k, v in mt._entries.items()
        )
        assert bool(mt.contains_range_many(bounds)[0]) == want
        assert [k for k, _ in _entries(mt, lo, lo + 30)] == [
            k for k in sorted(mt._entries) if lo <= k <= lo + 30
        ]
    assert rebuilt_over_tombstone
    assert mt.index_builds == 1  # every write merged; no read rebuilt

    mt.drain_sorted()
    assert mt._snapshot is None
    mt.put_many(np.array([5], dtype=np.uint64))
    assert mt._snapshot is None  # no index after a flush until a read
    assert mt.contains_range_many(np.array([[5, 5]], dtype=np.uint64)).tolist() == [True]
    assert mt.index_builds == 2


def test_a_write_drops_an_index_it_cannot_vouch_for():
    """A writer merges only into an index stamped with the write count
    before its write; an index stamped otherwise was built while some
    other write landed, so the writer drops it and the next read rebuilds."""
    mt = MemTable(capacity=64)
    mt.put_many(np.arange(4, dtype=np.uint64))
    mt.contains_range_many(np.array([[0, 9]], dtype=np.uint64))
    mt._snapshot.stamp -= 1  # as if built before the last write
    mt.delete_many(np.array([1], dtype=np.uint64))
    assert mt._snapshot is None
    assert _entries(mt, 0, 9) == [(0, b""), (1, TOMBSTONE), (2, b""), (3, b"")]
    assert mt.index_builds == 2


def test_readers_never_miss_an_acknowledged_put_or_delete():
    """Readers racing a writer that alternates ``put_many`` of an even key
    and ``delete_many`` of an odd one (every odd key was put first): once
    a write has returned, every later range read sees it.  After each
    write the writer waits until every reader has read again, so an index
    the write should have changed gets read."""
    mt = MemTable(capacity=1 << 20)
    steps = 500
    mt.put_many(np.arange(1, 2 * steps, 2, dtype=np.uint64))
    readers = 2
    acked_put, acked_delete = [-1], [-1]
    reads = [0] * readers
    failures = []
    stop = threading.Event()

    def wait_for_readers():
        seen = list(reads)
        while not stop.is_set() and any(a <= b for a, b in zip(reads, seen, strict=True)):
            pass

    def write():
        for i in range(steps):
            mt.put_many(np.array([2 * i], dtype=np.uint64), [b"v"])
            acked_put[0] = 2 * i
            wait_for_readers()
            mt.delete_many(np.array([2 * i + 1], dtype=np.uint64))
            acked_delete[0] = 2 * i + 1
            wait_for_readers()
        stop.set()

    def read(me):
        while not stop.is_set():
            put, deleted = acked_put[0], acked_delete[0]
            if put >= 0:
                live = [k for k, v in _entries(mt, 0, put) if v is not TOMBSTONE]
                rows = [[k, k] for k in range(put, max(put - 8, -1), -2)]
                if deleted > 0:
                    rows += [[k, k] for k in range(deleted, max(deleted - 8, 0), -2)]
                hits = mt.contains_range_many(np.array(rows, dtype=np.uint64)).tolist()
                want = [k % 2 == 0 for k, _ in rows]
                evens = sum(1 for k in live if k % 2 == 0)
                if evens != put // 2 + 1 or hits != want:
                    failures.append((put, deleted, evens, hits))
                    stop.set()
            reads[me] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert mt.contains_range_many(
        np.array([[k, k] for k in range(2 * steps)], dtype=np.uint64)
    ).tolist() == [k % 2 == 0 for k in range(2 * steps)]


def test_a_write_merges_into_an_index_built_from_no_entries():
    """A reader that found entries, then lost them to a flush before it
    built its index, publishes an index of no keys stamped with the
    current write count.  The next write merges into it like any other."""
    mt = MemTable(capacity=64)
    mt.put_many(np.arange(4, dtype=np.uint64))
    mt.drain_sorted()
    index = mt._range_index()  # what the reader builds once the flush ran
    assert index.keys.size == 0 and index.stamp == mt._version
    mt.put_many(np.array([9, 5, 9], dtype=np.uint64))
    mt.delete_many(np.array([5], dtype=np.uint64))
    _assert_index_is_current(mt)
    assert mt.contains_range_many(np.array([[0, 5], [6, 9]], dtype=np.uint64)).tolist() == [
        False,
        True,
    ]
    assert _entries(mt, 0, 9) == [(5, TOMBSTONE), (9, b"")]
    assert mt.index_builds == 1


def test_racing_writers_and_flushes_leave_the_index_current():
    """Two writers and a flusher race while a reader keeps an index built:
    every write lands in the entries and in the index once, a flush never
    lets a drained key back into the index, and afterwards range reads see
    exactly the buffered keys."""
    mt = MemTable(capacity=1 << 20)
    rounds, writes = 40, 30
    failures = []

    def write(first):
        for i in range(writes):
            keys = np.arange(first + 4 * i, first + 4 * i + 4, dtype=np.uint64)
            if i % 3 == 2:
                mt.delete_many(keys[:2])
            else:
                mt.put_many(keys)

    def flush(drained):
        for _ in range(3):
            drained.update(mt.drain_sorted()[0].tolist())

    def read(stop):
        while not stop.is_set():
            mt.contains_range_many(np.array([[0, 1 << 40]], dtype=np.uint64))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            base = r * 1_000_000
            drained: set[int] = set()
            stop = threading.Event()
            mt.contains_range_many(np.array([[0, 1]], dtype=np.uint64))
            threads = [
                threading.Thread(target=write, args=(base,)),
                threading.Thread(target=write, args=(base + 500_000,)),
                threading.Thread(target=flush, args=(drained,)),
            ]
            reader = threading.Thread(target=read, args=(stop,))
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            reader.join(timeout=60)
            buffered = sorted(mt._entries)
            try:
                got = [k for k, _ in _entries(mt, 0, 1 << 40)]
            except KeyError as exc:  # a drained key back in the index
                got = [("drained", exc.args[0])]
            if got != buffered:
                failures.append((r, len(got), len(buffered)))
            index = mt._snapshot
            if index is not None and index.stamp == mt._version:
                keys, _ = _rebuilt(mt)
                if not np.array_equal(index.keys, keys):
                    failures.append((r, "stale current index"))
            written = {
                first + 4 * i + j
                for first in (base, base + 500_000)
                for i in range(writes)
                for j in range(2 if i % 3 == 2 else 4)
            }
            if not written <= drained | set(buffered):
                failures.append((r, "lost write"))
            mt.drain_sorted()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]


def test_a_reader_holding_an_index_reads_entries_a_flush_drained():
    """A flush that lands between a reader's index and its value reads
    leaves the reader the entries the index was built over."""
    mt = MemTable(capacity=64)
    mt.put_many(np.array([1, 2, 3], dtype=np.uint64), [b"a", b"b", b"c"])
    mt.delete_many(np.array([2], dtype=np.uint64))
    build = mt._range_index

    def build_then_flush():
        index = build()
        mt.drain_sorted()
        return index

    mt._range_index = build_then_flush
    assert _entries(mt, 0, 9) == [(1, b"a"), (2, TOMBSTONE), (3, b"c")]
    assert len(mt) == 0
