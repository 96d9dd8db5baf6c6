"""One filter pass per request: the run-set point probe.

``get_many``, ``get_value`` and ``may_contain_many`` probe every run's
filter block in one pass (``RunSetFilter``) and reduce the resulting
runs x keys matrices.  The ladder below pins their answers and
``IOStats.counters()`` to a reference walk of one-key probes per run,
newest first (``SSTable.get``, the pre-run-set read path), across:

* mixed filter configs (full 2,560-key runs next to an 880-key tail run);
* tombstones that shadow older runs, and keys the memtable resolves;
* every registered filter kind;
* 2-shard engines, persistent engines after reopen, and the compressed
  read tier.

The stacked kernel itself is pinned to the filters' own probes, and a
watched store shows that a read right after a flush, a background merge
commit, a manual compact or a reopen sees the new run set.
"""

import numpy as np
import pytest

from repro.api import FilterSpec, available_kinds, open_store, standard_spec
from repro.core.bloomrf import BloomRF, BloomRFStack
from repro.core.config import BloomRFConfig
from repro.lsm import IOStats, LsmDB, SpecPolicy
from repro.lsm.filter_policy import VECTOR_MIN_BATCH, RunSetFilter
from repro.lsm.memtable import TOMBSTONE
from repro.testing import LockOrderWatcher

SPEC = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 20})
MEMTABLE = 2_560
TOP = 1 << 40


def _workload(seed=11):
    rng = np.random.default_rng(seed)
    pool = rng.permutation(np.unique(rng.integers(0, TOP, 14_000, dtype=np.uint64)))
    full = pool[: 4 * MEMTABLE]  # four full runs
    deleted = full[rng.permutation(full.size)[:300]]
    tail = pool[4 * MEMTABLE : 4 * MEMTABLE + 580]  # 300 + 580 = an 880-entry run
    buffered = np.concatenate([pool[-100:], full[:50]])  # memtable puts
    dropped = full[50:90]  # memtable tombstones
    absent = rng.integers(TOP, 1 << 64, 300, dtype=np.uint64)
    queries = np.concatenate(
        [
            rng.choice(full, 150),
            deleted[:80],
            tail[:60],
            buffered[:60],
            dropped[:30],
            absent,
        ]
    )
    return full, deleted, tail, buffered, dropped, rng.permutation(queries)


FULL, DELETED, TAIL, BUFFERED, DROPPED, QUERIES = _workload()


def _value(key):
    return int(key).to_bytes(8, "little")


def _fill_runs(db):
    db.put_many(FULL, [_value(k) for k in FULL])
    db.delete_many(DELETED)
    db.put_many(TAIL, [_value(k) for k in TAIL])
    db.flush()


def _fill_memtable(db):
    db.put_many(BUFFERED, [b"new" + _value(k) for k in BUFFERED])
    db.delete_many(DROPPED)


def _shard(db, key):
    return db.shards[db.shard_of(key)] if hasattr(db, "shards") else db


def reference_get_value(db, key, stats):
    """The newest-first walk of one-key probes per run."""
    shard = _shard(db, key)
    buffered = shard.memtable.get(key)
    if buffered is not None:
        return None if buffered is TOMBSTONE else buffered
    for sst in shard.sstables:
        found, value, dead = sst.get(key, stats)
        if found:
            return None if dead else value
    return None


def reference_may_contain(db, key, stats):
    """Every run's filter asked about one key, then the memtable."""
    shard = _shard(db, key)
    row = np.array([key], dtype=np.uint64)
    maybe = False
    for sst in shard.sstables:
        positive = sst.filter.contains_point_many(row)
        present = bool(np.isin(row, sst.keys)[0])
        assert not stats.record_probes(positive, [present])
        maybe |= bool(positive[0])
    known, _ = shard.memtable.lookup_many(row)
    return maybe or bool(known[0])


def _check_ladder(db):
    keys = [int(k) for k in QUERIES]
    ref_stats = IOStats()
    want_values = [reference_get_value(db, k, ref_stats) for k in keys]
    want = ref_stats.counters()
    assert want["filter_probes"] > len(keys)

    db.reset_stats()
    assert [db.get_value(k) for k in keys] == want_values
    assert db.reset_stats().counters() == want

    got = db.get_many(QUERIES)
    assert got.tolist() == [v is not None for v in want_values]
    assert db.reset_stats().counters() == want

    may_stats = IOStats()
    want_may = [reference_may_contain(db, k, may_stats) for k in keys]
    assert db.may_contain_many(QUERIES).tolist() == want_may
    assert db.reset_stats().counters() == may_stats.counters()


def _configs(db):
    shards = getattr(db, "shards", [db])
    return {
        sst.filter.config for shard in shards for sst in shard.sstables
    }


ENGINES = {
    "memory": dict(shards=1),
    "sharded": dict(shards=2),
    "reopened": dict(shards=1, persistent=True),
    "reopened-sharded": dict(shards=2, persistent=True),
    "compressed": dict(shards=1, persistent=True, compression="zlib"),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_run_set_reads_equal_the_per_run_walk(engine, tmp_path):
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
        assert len(_configs(db)) >= 2, "the tail run must get its own config"
        shards = getattr(db, "shards", [db])
        assert all(len(shard.memtable) for shard in shards)
        assert any(
            sst.tombstones.any() for shard in shards for sst in shard.sstables
        )
        _check_ladder(db)


@pytest.mark.parametrize("kind", available_kinds())
def test_every_filter_kind_equals_the_per_run_walk(kind):
    spec = standard_spec(kind, bits_per_key=14, max_range=1 << 20)
    with open_store(filter=spec, memtable_capacity=MEMTABLE, store_values=True) as db:
        _fill_runs(db)
        _fill_memtable(db)
        assert len(db.sstables) == 5
        _check_ladder(db)


@pytest.mark.parametrize("shards", [1, 2])
def test_get_reads_no_value(shards, tmp_path):
    """``get`` is a one-row ``get_many``: it answers from the newest
    version's tombstone flag, so on a reopened compressed store it looks
    up no block, and it charges what the one-row batch charges."""
    keys = np.arange(0, 6_000, 3, dtype=np.uint64)
    with open_store(
        tmp_path / "db",
        filter=SPEC,
        shards=shards,
        store_values=True,
        compression="zlib",
        memtable_capacity=256,
    ) as db:
        db.put_many(keys, [b"%06d" % k + b"." * 58 for k in keys.tolist()])
        db.delete_many(keys[::10])
    probes = keys[1::7].tolist()
    with open_store(tmp_path / "db") as db:
        db.reset_stats()
        got = [db.get(k) for k in probes]
        assert db.stats.block_cache_hits + db.stats.block_cache_misses == 0
        counters = db.stats.counters()
        db.reset_stats()
        assert got == [bool(db.get_many(np.array([k], dtype=np.uint64))[0]) for k in probes]
        assert db.stats.counters() == counters
        assert any(got) and not all(got)
        assert counters["filter_probes"] > 0


def test_stacked_kernel_equals_each_filters_own_probes():
    """Rows of one stack, and of a run set mixing configs and kinds, are
    the filters' own answers at every batch size around the switch."""
    rng = np.random.default_rng(5)
    policy = SpecPolicy(SPEC)
    key_sets = [
        np.unique(rng.integers(0, TOP, n, dtype=np.uint64))[:n]
        for n in (2_000, 2_000, 2_000, 700)
    ]
    filters = [policy.build(keys) for keys in key_sets]
    filters.insert(2, SpecPolicy("bloom", bits_per_key=14).build(key_sets[0]))
    same = [f for f in filters if isinstance(f, BloomRF) and f.config == filters[0].config]
    assert len(same) == 3
    stack = BloomRFStack(same)
    run_set = RunSetFilter(filters)
    for n in (0, 1, VECTOR_MIN_BATCH - 1, VECTOR_MIN_BATCH, 300, 5_000):
        probe = rng.integers(0, TOP, n, dtype=np.uint64)
        probe[: n // 3] = rng.choice(key_sets[1], n // 3)
        assert np.array_equal(
            stack.contains_point_many(probe),
            np.array([f.contains_point_many(probe) for f in same]).reshape(3, n),
        )
        assert np.array_equal(
            stack.contains_point_many(probe),
            np.array([[f.contains_point(int(k)) for k in probe] for f in same]).reshape(3, n),
        )
        want = np.array([f.contains_point_many(probe) for f in filters]).reshape(5, n)
        assert np.array_equal(run_set.probe_point_many(probe), want)
        depth = rng.integers(0, 6, n)  # a walk probes key j in rows < depth[j]
        needed = np.arange(5)[:, None] < depth
        assert np.array_equal(run_set.probe_point_many(probe, depth)[needed], want[needed])


@pytest.mark.parametrize("guard", [False, True], ids=["plain", "guard"])
@pytest.mark.parametrize(
    "config",
    [
        BloomRFConfig.basic(1_500, 12, domain_bits=16, delta=4),
        BloomRFConfig.basic(1_500, 10, domain_bits=64, delta=7),
        SpecPolicy(SPEC).build(np.arange(1_500, dtype=np.uint64)).config,
    ],
    ids=["basic16", "basic64", "tuned-exact"],
)
def test_stacked_kernel_equals_the_scalar_probe(config, guard):
    """Every geometry the kernel flattens: one and many layers, replicas,
    the exact bitmap, a 16-bit domain and the degenerate guard's flips."""
    config = BloomRFConfig.from_dict({**config.to_dict(), "degenerate_guard": guard})
    rng = np.random.default_rng(13)
    top = (1 << config.domain_bits) - 1
    filters = []
    for _ in range(3):
        keys = rng.integers(0, top, 1_500, dtype=np.uint64, endpoint=True)
        filt = BloomRF(config)
        filt.insert_many(keys)
        filters.append(filt)
    twin = BloomRF(config)
    for key in keys.tolist():
        twin.insert(key)
    assert twin.pmhf_bits == filters[-1].pmhf_bits  # bulk insert == scalar insert
    probe = rng.integers(0, top, 400, dtype=np.uint64, endpoint=True)
    want = [[f.contains_point(int(k)) for k in probe] for f in filters]
    assert BloomRFStack(filters).contains_point_many(probe).tolist() == want
    assert any(map(any, want)) and not all(map(all, want))


def test_one_filter_stack_is_a_view():
    filt = SpecPolicy(SPEC).build(np.arange(0, 9_000, 3, dtype=np.uint64))
    stack = BloomRFStack([filt])
    assert np.shares_memory(stack._sliced, filt.pmhf_bits.words)
    with pytest.raises(ValueError, match="one config"):
        BloomRFStack([filt, SpecPolicy(SPEC).build(np.arange(10, dtype=np.uint64))])


def test_large_batch_peak_memory_is_bounded():
    """A 20,000-key get_many over 30 runs walks the layers instead of
    materializing runs x probes x keys (~48 MB at 8 bytes a cell)."""
    import tracemalloc

    rng = np.random.default_rng(9)
    db = LsmDB(policy=SpecPolicy(SPEC))
    keys = np.unique(rng.integers(0, 1 << 64, 30 * MEMTABLE, dtype=np.uint64))
    db.bulk_load(rng.permutation(keys), num_sstables=30)
    probe = rng.integers(0, 1 << 64, 20_000, dtype=np.uint64)
    probe[:4_000] = rng.choice(keys, 4_000)
    db.get_many(probe[:64])  # build the run-set cache outside the window
    tracemalloc.start()
    try:
        found = db.get_many(probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found[:4_000].all()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_reads_see_each_new_run_set(tmp_path):
    """No stale run-set cache: a read right after a flush, a background
    merge commit, a manual compact and a reopen probes the current runs
    (``may_contain_many`` charges exactly keys x runs probes) and answers
    from them, on a watched store."""
    path = str(tmp_path / "db")
    compaction = {"policy": "size-tiered", "min_runs": 3, "max_runs": 4}
    keys = np.arange(1, 4_001, dtype=np.uint64) * np.uint64(7_919)
    probe = keys[::50]

    def check(db, live):
        db.reset_stats()
        db.may_contain_many(probe)
        assert db.stats.filter_probes == probe.size * len(db.sstables)
        assert db.get_many(probe).tolist() == live.tolist()

    with LockOrderWatcher() as watcher:
        db = open_store(path=path, filter=SPEC, memtable_capacity=1_000, compaction=compaction)
        watcher.watch_engine(db)
        live = np.ones(probe.size, dtype=bool)
        db.put_many(keys[:1_000])  # fills the memtable: a flush
        check(db, np.isin(probe, keys[:1_000]))
        db.delete_many(probe[:5])
        db.flush()  # tombstones land in a new run
        live = np.isin(probe, keys[:1_000]) & ~np.isin(probe, probe[:5])
        check(db, live)
        db.put_many(keys[1_000:])  # three flushes; merges commit behind them
        db.drain_compaction()
        assert db.compaction_info()["scheduler"]["merges"] >= 1
        live = ~np.isin(probe, probe[:5])
        check(db, live)
        db.compact()
        assert len(db.sstables) == 1
        check(db, live)
        db.close()
        db = open_store(path=path)
        watcher.watch_engine(db)
        check(db, live)
        db.close()
    watcher.check()
