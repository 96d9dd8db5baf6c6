"""One filter pass per range request: the run-set range probe.

``scan_nonempty_many``, ``scan`` and ``scan_may_contain`` probe every
run's filter block in one pass (``RunSetFilter.probe_range_many``) and
reduce the resulting runs x rows matrices.  The ladder below pins their
answers to a model of the store and their ``IOStats.counters()`` to the
per-run walk (a loop of ``SSTable.scan_many`` over every run of every
shard a query reaches), across:

* the fixture shape of ``test_run_set_probe.py``: four full runs, a tail
  run with its own filter config, tombstones shadowing older runs, and a
  memtable holding puts and tombstones (here with keys over the whole
  64-bit domain, so both range-partitioned shards hold data, and dense
  clusters, so a scan can exceed its limit);
* the stacked walk and the per-filter kernels, at 1, R-1, R and 4R rows
  (R = ``VECTOR_MIN_ROWS``);
* in memory, 2 shards (hash and range partition), reopened from disk and
  reopened with ``compression="zlib"``, and every registered filter kind.

The stacked walk itself is pinned to each filter's scalar walk, wide
decomposition masks included; the memtable's range snapshot and the
``scan`` limit validation are checked here too.
"""

import numpy as np
import pytest

from repro.api import FilterSpec, available_kinds, open_store, standard_spec
from repro.core import bloomrf
from repro.core.bloomrf import BloomRF, BloomRFStack
from repro.core.config import BloomRFConfig
from repro.lsm import IOStats, MemTable, SpecPolicy, filter_policy
from repro.lsm.filter_policy import STACKED_MIN_RUNS, VECTOR_MIN_ROWS, RunSetFilter
from repro.lsm.memtable import TOMBSTONE

SPEC = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 20})
MEMTABLE = 2_560
R = VECTOR_MIN_ROWS
ROW_COUNTS = (1, R - 1, R, 4 * R)
U64 = (1 << 64) - 1


def _entries(mt, lo, hi):
    """The memtable's array slice of ``[lo, hi]`` as ``(key, value)``
    pairs, after checking that its tombstone flags match the values."""
    keys, tombstones, values = mt.range_slice(lo, hi)
    assert keys.dtype == np.uint64
    assert tombstones.tolist() == [value is TOMBSTONE for value in values]
    return list(zip(keys.tolist(), values, strict=True))


def _workload(seed=17):
    rng = np.random.default_rng(seed)
    spread = rng.integers(0, U64, 8_000, dtype=np.uint64, endpoint=True)
    bases = rng.integers(0, U64 - (1 << 30), 6, dtype=np.uint64)
    dense = (bases[:, None] + rng.integers(0, 1 << 24, (6, 1_200), dtype=np.uint64)).ravel()
    pool = rng.permutation(np.unique(np.concatenate([spread, dense])))
    full = pool[: 4 * MEMTABLE]  # four full runs
    deleted = full[rng.permutation(full.size)[:300]]
    tail = pool[4 * MEMTABLE : 4 * MEMTABLE + 580]  # 300 + 580 = an 880-entry run
    buffered = np.concatenate([pool[-100:], full[:50]])  # memtable puts
    dropped = full[50:90]  # memtable tombstones

    def around(keys, count, max_log2):
        width = np.uint64(1) << rng.integers(0, max_log2 + 1, count, dtype=np.uint64)
        anchor = rng.choice(keys, count)
        lo = anchor - np.minimum(anchor, rng.integers(0, 1 << 62, count, dtype=np.uint64) % width)
        return np.stack([lo, lo + np.minimum(width - np.uint64(1), np.uint64(U64) - lo)], axis=1)

    anywhere = rng.integers(0, 1 << 63, 48, dtype=np.uint64)
    widths = np.uint64(1) << rng.integers(0, 25, 48, dtype=np.uint64)
    wide = [
        [0, U64],  # the whole domain
        [0, (1 << 63) - 1],  # one range shard each
        [1 << 63, U64],
        [(1 << 63) - (1 << 40), (1 << 63) + (1 << 40)],  # across the shard boundary
    ]
    wide += [[int(b), int(b) + (1 << 25)] for b in bases[:4]]  # whole clusters
    bounds = np.concatenate(
        [
            np.stack([anywhere, anywhere + widths - np.uint64(1)], axis=1),
            around(full, 20, 20),
            around(tail, 10, 20),
            around(dense, 10, 16),
            np.stack([deleted[:12], deleted[:12]], axis=1),  # a tombstone only
            np.stack([buffered[:12], buffered[:12]], axis=1),
            np.stack([dropped[:12], dropped[:12]], axis=1),
            np.array(wide, dtype=np.uint64),
        ]
    )
    return full, deleted, tail, buffered, dropped, bounds[rng.permutation(bounds.shape[0])]


FULL, DELETED, TAIL, BUFFERED, DROPPED, BOUNDS = _workload()
assert BOUNDS.shape[0] >= 4 * R


def _value(key):
    return int(key).to_bytes(8, "little")


def _model():
    """Key -> value of every live key once the fixture is applied."""
    live = {int(k): _value(k) for k in FULL}
    for key in DELETED.tolist():
        live.pop(key, None)
    live.update((int(k), _value(k)) for k in TAIL)
    live.update((int(k), b"new" + _value(k)) for k in BUFFERED)
    for key in DROPPED.tolist():
        live.pop(key, None)
    return live


LIVE = _model()
LIVE_KEYS = np.array(sorted(LIVE), dtype=np.uint64)


def model_scan(lo, hi, limit=None):
    a = int(LIVE_KEYS.searchsorted(np.uint64(lo)))
    b = int(LIVE_KEYS.searchsorted(np.uint64(hi), side="right"))
    keys = LIVE_KEYS[a:b].tolist()[:limit]
    return [(k, LIVE[k]) for k in keys]


def _fill_runs(db):
    db.put_many(FULL, [_value(k) for k in FULL])
    db.delete_many(DELETED)
    db.put_many(TAIL, [_value(k) for k in TAIL])
    db.flush()


def _fill_memtable(db):
    db.put_many(BUFFERED, [b"new" + _value(k) for k in BUFFERED])
    db.delete_many(DROPPED)


def _jobs(db, bounds):
    """``(shard, rows, shard bounds)`` for every shard a batch reaches."""
    if not hasattr(db, "shards"):
        return [(db, np.arange(bounds.shape[0]), bounds)]
    return [(db.shards[s], idx, part) for s, idx, part in db._partitioner.split_bounds(bounds)]


def reference_range_walk(db, bounds, stats):
    """The per-run walk: ``SSTable.scan_many`` over every run, newest first."""
    for shard, _, part in _jobs(db, bounds):
        for sst in shard.sstables:
            sst.scan_many(part, stats)


def reference_may_contain(db, bounds, stats):
    """Every run's filter asked about the rows, then the buffered keys."""
    maybe = np.zeros(bounds.shape[0], dtype=bool)
    for shard, idx, part in _jobs(db, bounds):
        for sst in shard.sstables:
            positive = sst.filter.contains_range_many(part)
            present = [bool(((sst.keys >= lo) & (sst.keys <= hi)).any()) for lo, hi in part.tolist()]
            assert not stats.record_probes(positive, present)
            maybe[idx] |= positive
    buffered = np.sort(BUFFERED)
    for i, (lo, hi) in enumerate(bounds.tolist()):
        at = int(buffered.searchsorted(np.uint64(lo)))
        maybe[i] |= at < buffered.size and int(buffered[at]) <= hi
    return maybe


def _check_range_ladder(db):
    walked = IOStats()
    for n in ROW_COUNTS:
        bounds = BOUNDS[:n]
        want = IOStats()
        reference_range_walk(db, bounds, want)
        walked += want
        db.reset_stats()
        assert db.scan_nonempty_many(bounds).tolist() == [
            bool(model_scan(lo, hi, 1)) for lo, hi in bounds.tolist()
        ]
        assert db.reset_stats().counters() == want.counters()
        may = IOStats()
        assert db.scan_may_contain(bounds).tolist() == reference_may_contain(db, bounds, may).tolist()
        assert db.reset_stats().counters() == may.counters()
    assert walked.filter_true_positives and walked.filter_false_positives
    assert walked.blocks_read > walked.filter_true_positives
    truncated = 0
    for limit in (None, 1, 16):
        for lo, hi in BOUNDS[:48].tolist():
            want = IOStats()
            reference_range_walk(db, np.array([[lo, hi]], dtype=np.uint64), want)
            got = db.scan(lo, hi, limit)
            assert got == model_scan(lo, hi, limit)
            assert db.reset_stats().counters() == want.counters()
            truncated += limit is not None and len(model_scan(lo, hi)) > limit
    assert truncated, "some scan must hold more entries than its limit"
    return walked


ENGINES = {
    "memory": dict(shards=1),
    "hash-sharded": dict(shards=2, partition="hash"),
    "range-sharded": dict(shards=2, partition="range"),
    "reopened": dict(shards=1, persistent=True),
    "reopened-sharded": dict(shards=2, persistent=True),
    "compressed": dict(shards=1, persistent=True, compression="zlib"),
}

KERNELS = {"stacked": 1, "per-filter": 1 << 30}


def _pin_kernel(monkeypatch, kernel):
    """Make every bloomRF group below ``VECTOR_MIN_ROWS`` rows take the
    stacked walk, or none of them."""
    monkeypatch.setattr(filter_policy, "STACKED_MIN_RUNS", KERNELS[kernel])


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_range_reads_equal_the_per_run_walk(engine, kernel, tmp_path, monkeypatch):
    _pin_kernel(monkeypatch, kernel)
    opts = dict(ENGINES[engine])
    persistent = opts.pop("persistent", False)
    kw = dict(filter=SPEC, memtable_capacity=MEMTABLE, store_values=True, **opts)
    if persistent:
        with open_store(path=str(tmp_path / "db"), **kw) as db:
            _fill_runs(db)
        db = open_store(path=str(tmp_path / "db"))
    else:
        db = open_store(**kw)
        _fill_runs(db)
    _fill_memtable(db)
    with db:
        shards = getattr(db, "shards", [db])
        assert all(len(shard.sstables) >= 2 and len(shard.memtable) for shard in shards)
        configs = {sst.filter.config for shard in shards for sst in shard.sstables}
        assert len(configs) >= 2, "the tail run must get its own config"
        assert _check_range_ladder(db).filter_true_negatives


@pytest.mark.parametrize("kind", available_kinds())
def test_every_filter_kind_equals_the_per_run_walk(kind, monkeypatch):
    _pin_kernel(monkeypatch, "stacked")
    spec = standard_spec(kind, bits_per_key=14, max_range=1 << 20)
    with open_store(filter=spec, memtable_capacity=MEMTABLE, store_values=True) as db:
        _fill_runs(db)
        _fill_memtable(db)
        assert len(db.sstables) == 5
        _check_range_ladder(db)


# ----------------------------------------------------------------------
# the stacked walk
# ----------------------------------------------------------------------
_BASIC64 = BloomRFConfig.basic(1_500, 10, domain_bits=64, delta=7)
CONFIGS = {
    "basic16": BloomRFConfig.basic(1_500, 12, domain_bits=16, delta=4),
    "basic64": _BASIC64,
    "tuned-exact": SpecPolicy(SPEC).build(np.arange(1_500, dtype=np.uint64)).config,
    # Six layers, the top one on level 35: masks there span up to 2^23 groups.
    "short64": BloomRFConfig.from_dict(
        {**_BASIC64.to_dict(), "deltas": [7] * 6, "replicas": [1, 2, 1, 1, 1, 1], "segment_of": [0] * 6}
    ),
}


def _filters_and_queries(config, rng):
    top = (1 << config.domain_bits) - 1
    filters = []
    for _ in range(3):
        filt = BloomRF(config)
        filt.insert_many(rng.integers(0, top, 1_500, dtype=np.uint64, endpoint=True))
        filters.append(filt)
    d = config.domain_bits
    width = np.uint64(1) << rng.integers(0, d, 300, dtype=np.uint64)
    lo = rng.integers(0, top, 300, dtype=np.uint64, endpoint=True)
    lo[::3] = lo[::3] & ~(width[::3] - np.uint64(1))  # aligned: some rows are DIs
    hi = lo + np.minimum(width - np.uint64(1), np.uint64(top) - lo)
    bounds = np.stack([lo, hi], axis=1)
    extra = [[0, top], [0, 0], [top, top], [0, (1 << (d - 1)) - 1], [1, top - 1]]
    return filters, np.concatenate([bounds, np.array(extra, dtype=np.uint64)])


@pytest.mark.parametrize("guard", [False, True], ids=["plain", "guard"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stacked_walk_equals_the_scalar_walk(name, guard):
    """One and many layers, replicas, the exact bitmap, a 16-bit domain,
    the degenerate guard's flips and DI-shaped rows."""
    config = BloomRFConfig.from_dict({**CONFIGS[name].to_dict(), "degenerate_guard": guard})
    filters, bounds = _filters_and_queries(config, np.random.default_rng(23))
    want = [[f.contains_range(lo, hi) for lo, hi in bounds.tolist()] for f in filters]
    got = BloomRFStack(filters).contains_range_many(bounds)
    assert got.tolist() == want
    assert any(map(any, want)) and not all(map(all, want))
    one = BloomRFStack(filters[:1]).contains_range_many(bounds)
    assert one[0].tolist() == want[0] == filters[0].contains_range_many(bounds).tolist()


def test_stacked_walk_resolves_wide_masks(monkeypatch):
    """Masks spanning at least ``_SCALAR_MASK_GROUPS`` groups go to the
    vectorized reader, and from ``_MAX_MASK_GROUPS`` on they answer
    "maybe", exactly as in the scalar walk."""
    spans = []
    resolve = BloomRF._resolve_masks_layer

    def recording(self, li, p_lo, p_hi, sliced):
        shift = self._layers[li].offset_bits
        spans.extend(((p_hi >> np.uint64(shift)) - (p_lo >> np.uint64(shift))).tolist())
        return resolve(self, li, p_lo, p_hi, sliced)

    rng = np.random.default_rng(29)
    for name in ("basic16", "short64"):
        filters, bounds = _filters_and_queries(CONFIGS[name], rng)
        want = [[f.contains_range(lo, hi) for lo, hi in bounds.tolist()] for f in filters]
        monkeypatch.setattr(BloomRF, "_resolve_masks_layer", recording)
        got = BloomRFStack(filters).contains_range_many(bounds)
        monkeypatch.setattr(BloomRF, "_resolve_masks_layer", resolve)
        assert got.tolist() == want
    assert any(bloomrf._SCALAR_MASK_GROUPS <= s < bloomrf._MAX_MASK_GROUPS for s in spans)
    assert max(spans) >= bloomrf._MAX_MASK_GROUPS


def test_run_set_range_probe_equals_each_filter():
    """Rows of a run set mixing a stacked group, a group below
    ``STACKED_MIN_RUNS``, another config and a Bloom filter are the
    filters' own answers at every row count around the switches."""
    rng = np.random.default_rng(31)
    policy = SpecPolicy(SPEC)
    key_sets = [np.unique(rng.integers(0, 1 << 40, 2_000, dtype=np.uint64)) for _ in range(STACKED_MIN_RUNS)]
    filters = [policy.build(keys) for keys in key_sets]
    filters += [policy.build(key_sets[0][:700]), policy.build(key_sets[1][:700])]
    filters.insert(3, SpecPolicy("bloom", bits_per_key=14).build(key_sets[2]))
    run_set = RunSetFilter(filters)
    sizes = sorted(len(rows) for rows, _, stack in run_set._groups if stack is not None)
    assert sizes == [2, STACKED_MIN_RUNS]
    everything = np.concatenate(key_sets)
    for n in (0, 1, R - 1, R, 2 * R):
        width = np.uint64(1) << rng.integers(0, 24, n, dtype=np.uint64)
        lo = rng.integers(0, 1 << 40, n, dtype=np.uint64)
        lo[: n // 2] = rng.choice(everything, n // 2)
        bounds = np.stack([lo, lo + width], axis=1)
        want = np.array([f.contains_range_many(bounds) for f in filters]).reshape(len(filters), n)
        assert np.array_equal(run_set.probe_range_many(bounds), want)


# ----------------------------------------------------------------------
# the memtable's range snapshot
# ----------------------------------------------------------------------
def test_memtable_range_reads_follow_every_write():
    """The sorted snapshot is reused between reads and rebuilt after any
    write, so range answers always match the entries."""
    rng = np.random.default_rng(37)
    mt = MemTable(capacity=10_000)
    model = {}
    for step in range(60):
        keys = rng.integers(0, 5_000, 20, dtype=np.uint64)
        if step % 3 == 2:
            mt.delete_many(keys)
            model.update(dict.fromkeys(keys.tolist(), None))
        elif step % 7 == 6:
            key = int(keys[0])
            mt.put(key, b"p")
            model[key] = b"p"
        else:
            values = [b"v%d" % step] * keys.size
            mt.put_many(keys, values)
            model.update(zip(keys.tolist(), values))
        lo = rng.integers(0, 5_000, 16, dtype=np.uint64)
        bounds = np.stack([lo, lo + rng.integers(0, 300, 16, dtype=np.uint64)], axis=1)
        for _ in range(2):
            assert mt.contains_range_many(bounds).tolist() == [
                any(lo <= k <= hi and v is not None for k, v in model.items())
                for lo, hi in bounds.tolist()
            ]
        snapshot = mt._snapshot
        for lo, hi in bounds[:4].tolist():
            got = _entries(mt, lo, hi)
            assert [k for k, _ in got] == sorted(k for k in model if lo <= k <= hi)
            assert all((model[k] is None) == (v is TOMBSTONE) for k, v in got)
        assert mt._snapshot is snapshot  # reused, not rebuilt per read
    mt.drain_sorted()
    assert not mt.contains_range_many(np.array([[0, 10_000]], dtype=np.uint64)).any()
    assert _entries(mt, 0, 10_000) == []


def test_memtable_snapshot_never_hides_an_acknowledged_write():
    """Readers racing a writer: once a put has returned, every later range
    read sees it, even when a reader built its snapshot from the entries
    as they were just before that put (a snapshot is reused only while no
    write has landed since it was built).  After each put the writer waits
    until every reader has read again, so a stale snapshot gets used."""
    import sys
    import threading

    mt = MemTable(capacity=1 << 20)
    readers = 2
    acked = [-1]
    reads = [0] * readers
    failures = []
    stop = threading.Event()

    def write():
        for key in range(1_000):
            mt.put_many(np.array([key], dtype=np.uint64), [b"v"])
            acked[0] = key
            seen = list(reads)
            while not stop.is_set() and any(a <= b for a, b in zip(reads, seen, strict=True)):
                pass
        stop.set()

    def read(me):
        while not stop.is_set():
            top = acked[0]
            if top >= 0:
                seen = len(_entries(mt, 0, top))
                hit = bool(mt.contains_range_many(np.array([[top, top]], dtype=np.uint64))[0])
                if seen < top + 1 or not hit:
                    failures.append((top, seen, hit))
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
    assert len(_entries(mt, 0, 1_000)) == 1_000


# ----------------------------------------------------------------------
# scan limits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("persistent", [False, True], ids=["memory", "path"])
@pytest.mark.parametrize("shards", [1, 2])
def test_scan_refuses_bad_limits(shards, persistent, tmp_path):
    """A negative limit used to slice entries off each shard's merge and
    then the result (``scan(0, 9, -1)`` over ten live keys returned 9 on
    one shard and 7 on two); it is refused now, as are bools and
    non-integers, before any run is probed."""
    with open_store(
        tmp_path / "db" if persistent else None,
        filter=standard_spec("bloomrf", bits_per_key=14),
        shards=shards,
        store_values=True,
        memtable_capacity=4,
    ) as db:
        db.put_many(np.arange(10, dtype=np.uint64), [b"%d" % k for k in range(10)])
        db.reset_stats()
        for bad, error in ((-1, ValueError), (-5, ValueError), (True, TypeError), (1.5, TypeError), ("3", TypeError)):
            with pytest.raises(error, match="limit"):
                db.scan(0, 9, bad)
        assert db.stats.counters()["filter_probes"] == 0
        assert len(db.scan(0, 9)) == 10
        assert db.scan(0, 9, 0) == []
        assert db.scan(0, 9, np.int64(3)) == [(0, b"0"), (1, b"1"), (2, b"2")]


# ----------------------------------------------------------------------
# value reads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2])
def test_scans_read_only_the_values_they_return(shards, tmp_path):
    """On a reopened compressed store, a value costs a block-cache lookup.
    ``scan_nonempty_many`` reconciles versions without reading any value,
    and ``scan`` reads the values of the entries it returns only, not of
    every entry its runs hold in range (64-byte values never straddle a
    compressed block, so a value read is one lookup)."""
    rng = np.random.default_rng(5)
    keys = np.arange(256, dtype=np.uint64)
    model = {}
    with open_store(
        tmp_path / "db",
        filter=SPEC,
        shards=shards,
        store_values=True,
        compression="zlib",
        memtable_capacity=64,
    ) as db:
        for step in range(4):  # four overlapping generations of runs
            batch = np.sort(rng.permutation(keys)[:160])
            values = [b"%03d:%d" % (k, step) + b"." * 58 for k in batch.tolist()]
            db.put_many(batch, values)
            model.update(zip(batch.tolist(), values, strict=True))
            gone = rng.permutation(keys)[:24]
            db.delete_many(gone)
            model.update(dict.fromkeys(gone.tolist()))
    live = sorted(k for k, v in model.items() if v is not None)
    with open_store(tmp_path / "db") as db:
        rows = np.array([[k, k] for k in live[::5]], dtype=np.uint64)
        db.reset_stats()
        assert db.scan_nonempty_many(rows).all()
        assert db.stats.block_cache_hits + db.stats.block_cache_misses == 0
        for lo in range(0, 224, 32):
            db.reset_stats()
            want = [(k, model[k]) for k in live if lo <= k <= lo + 31][:4]
            assert db.scan(lo, lo + 31, 4) == want
            assert db.stats.block_cache_hits + db.stats.block_cache_misses <= 4
