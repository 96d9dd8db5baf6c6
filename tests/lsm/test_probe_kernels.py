"""One probe path per run: scalar reads are one-row batches.

A run-set probe (``RunSetFilter``) loops a filter's scalar probe below
``VECTOR_MIN_BATCH`` keys x runs (``VECTOR_MIN_ROWS`` ranges) and calls
its vectorized kernel from there.  These ladders pin that neither the
batch size nor the kernel it picks changes an answer or an
``IOStats.counters()`` value:

* on a multi-run store with tombstones, for both engines, the batched
  reads at sizes 1, T-1, T, 4T and R equal the one-row calls;
* for every registered kind, a one-filter run set's probes at 1 and at T
  keys (R ranges) equal the filter's own ``contains_*_many``, and an
  empty batch answers with an empty boolean row;
* the scalar reads and writes validate their keys like the batch calls
  do, in memory and on disk.
"""

import numpy as np
import pytest

from repro.api import available_kinds, filter_from_bytes, open_store, standard_spec
from repro.lsm import LsmDB, ShardedLsmDB, SpecPolicy
from repro.lsm.filter_policy import VECTOR_MIN_BATCH as T
from repro.lsm.filter_policy import VECTOR_MIN_ROWS as R
from repro.lsm.filter_policy import RunSetFilter

U64 = (1 << 64) - 1
TOP = 1 << 40
SIZES = sorted({1, T - 1, T, 4 * T, R})


def _queries():
    rng = np.random.default_rng(23)
    keys = np.unique(rng.integers(0, TOP, 3_000, dtype=np.uint64))
    deleted = keys[rng.permutation(keys.size)[:300]]
    late = rng.integers(0, TOP, 500, dtype=np.uint64)
    half = 2 * max(T, R)
    points = np.concatenate(
        [rng.choice(keys, half // 2), rng.choice(deleted, half // 2),
         rng.integers(0, TOP, half, dtype=np.uint64)]
    )
    lo = np.concatenate(
        [rng.choice(keys, half) - np.uint64(3), rng.integers(0, TOP, half, dtype=np.uint64)]
    )
    width = np.uint64(1) << rng.integers(0, 30, 2 * half).astype(np.uint64)
    bounds = np.stack([lo, lo + width], axis=1)
    return keys, deleted, late, points, bounds


KEYS, DELETED, LATE, POINTS, BOUNDS = _queries()


@pytest.fixture(scope="module", params=["LsmDB", "ShardedLsmDB"])
def db(request):
    policy = SpecPolicy("bloomrf", bits_per_key=14, max_range=1 << 16)
    if request.param == "LsmDB":
        store = LsmDB(policy=policy, memtable_capacity=256)
    else:
        store = ShardedLsmDB(policy=policy, num_shards=2, memtable_capacity=128)
    store.put_many(KEYS)
    store.delete_many(DELETED)
    store.put_many(LATE)  # tombstones now sit between runs and the memtable
    yield store
    store.close()


def test_store_has_runs_tombstones_and_a_memtable(db):
    shards = getattr(db, "shards", [db])
    for shard in shards:
        assert len(shard.sstables) >= 5
        assert len(shard.memtable)
        assert any(sst.tombstones.any() for sst in shard.sstables)


ONE_ROW = {
    "get_many": (POINTS, lambda db, k: db.get(int(k))),
    "may_contain_many": (POINTS, lambda db, k: db.may_contain_many(np.array([k]))[0]),
    "scan_nonempty_many": (BOUNDS, lambda db, b: db.scan_nonempty(int(b[0]), int(b[1]))),
    "scan_may_contain": (BOUNDS, lambda db, b: db.scan_may_contain(b[None, :])[0]),
}


def _counted(db, fn):
    db.reset_stats()
    answers = np.array(fn(), dtype=bool)
    return answers, db.stats.counters()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("method", sorted(ONE_ROW))
def test_batches_straddling_the_kernel_switch_equal_one_row_calls(db, method, size):
    queries, one_row = ONE_ROW[method]
    want, want_counters = _counted(db, lambda: [one_row(db, q) for q in queries])
    got, got_counters = _counted(
        db,
        lambda: np.concatenate(
            [getattr(db, method)(queries[i:i + size]) for i in range(0, len(queries), size)]
        ),
    )
    assert np.array_equal(got, want)
    assert got_counters == want_counters
    assert want_counters["filter_probes"] > 0


@pytest.mark.parametrize("kind", available_kinds())
def test_run_set_probes_equal_the_filters_own_bulk_probes(kind):
    rng = np.random.default_rng(29)
    keys = np.unique(rng.integers(0, TOP, 2_000, dtype=np.uint64))
    filt = SpecPolicy(standard_spec(kind, bits_per_key=14, max_range=1 << 16)).build(keys)
    run_set = RunSetFilter([filter_from_bytes(filt.to_bytes())])
    for n in (1, T):
        assert np.array_equal(
            run_set.probe_point_many(POINTS[:n])[0], filt.contains_point_many(POINTS[:n])
        )
    for n in (1, R):
        assert np.array_equal(
            run_set.probe_range_many(BOUNDS[:n])[0], filt.contains_range_many(BOUNDS[:n])
        )


@pytest.mark.parametrize("kind", available_kinds())
def test_run_set_answers_empty_batches(kind):
    keys = np.arange(0, 20_000, 7, dtype=np.uint64)
    filt = SpecPolicy(standard_spec(kind, bits_per_key=14, max_range=1 << 16)).build(keys)
    run_set = RunSetFilter([filt])
    points = run_set.probe_point_many(np.empty(0, dtype=np.uint64))
    ranges = run_set.probe_range_many(np.empty((0, 2), dtype=np.uint64))
    assert points.shape == ranges.shape == (1, 0)
    assert points.dtype == ranges.dtype == bool


class _CountingFilter:
    """Answers "maybe" to everything and records which kernel ran."""

    def __init__(self):
        self.calls = []

    def contains_point(self, key):
        self.calls.append("point")
        return True

    def contains_point_many(self, keys):
        self.calls.append("point_many")
        return np.ones(keys.size, dtype=bool)

    def contains_range(self, lo, hi):
        self.calls.append("range")
        return True

    def contains_range_many(self, bounds):
        self.calls.append("range_many")
        return np.ones(bounds.shape[0], dtype=bool)


def test_run_set_picks_the_kernel_by_batch_size():
    filt = _CountingFilter()
    run_set = RunSetFilter([filt])
    assert run_set.probe_point_many(POINTS[: T - 1]).all()
    assert run_set.probe_range_many(BOUNDS[: R - 1]).all()
    assert filt.calls == ["point"] * (T - 1) + ["range"] * (R - 1)
    filt.calls.clear()
    assert run_set.probe_point_many(POINTS[:T]).all()
    assert run_set.probe_range_many(BOUNDS[:R]).all()
    assert filt.calls == ["point_many", "range_many"]


@pytest.mark.parametrize("persistent", [False, True], ids=["memory", "path"])
@pytest.mark.parametrize("shards", [1, 2])
def test_scalar_reads_validate_keys_like_batch_reads(shards, persistent, tmp_path):
    with open_store(
        tmp_path / "db" if persistent else None,
        filter=standard_spec("bloomrf", bits_per_key=14),
        shards=shards,
        store_values=True,
    ) as db:
        db.put_many(np.array([0, 5, 9, U64], dtype=np.uint64), [b"a", b"b", b"c", b"d"])
        db.flush()
        db.put(7, b"e")  # one entry stays in the memtable
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError):
                db.get_value(bad)
            with pytest.raises(ValueError):
                db.get(bad)
            for lo, hi in ((bad, 5), (0, bad)):
                with pytest.raises(ValueError):
                    db.scan_nonempty(lo, hi)
                with pytest.raises(ValueError):
                    db.scan(lo, hi)
        with pytest.raises(ValueError):
            db.get_many(np.array([-1]))
        with pytest.raises(ValueError):
            db.scan_nonempty_many(np.array([[-1, 5]]))
        # The full key domain, including 2**64 - 1 as a bound and a key.
        assert db.get_value(U64) == b"d" and db.get(U64)
        assert db.scan_nonempty(0, U64) and db.scan_nonempty(U64, U64)
        assert db.scan(0, U64) == [(0, b"a"), (5, b"b"), (7, b"e"), (9, b"c"), (U64, b"d")]
        assert db.scan(8, U64, limit=1) == [(9, b"c")]
        # Inverted bounds.
        for lo, hi in ((9, 3), (U64, 0)):
            with pytest.raises(ValueError, match="empty query range"):
                db.scan_nonempty(lo, hi)
            with pytest.raises(ValueError, match="empty query range"):
                db.scan(lo, hi)
        # Scalar writes are one-key batches: a key outside the domain, or
        # not an integer, is refused before anything is buffered or logged,
        # and the next flush still succeeds with the answers unchanged.
        def state():
            logged = db.wal_info() if persistent else {}
            return (
                db.num_keys,
                db.scan(0, U64),
                db.get_many(np.arange(12, dtype=np.uint64)).tolist(),
                logged.get("records"),
                logged.get("bytes"),
            )

        before = state()
        for bad in (-1, 1 << 64, 1.5):
            with pytest.raises((ValueError, TypeError)):
                db.put(bad, b"x")
            with pytest.raises((ValueError, TypeError)):
                db.delete(bad)
        assert state() == before
        db.flush()
        assert state()[:3] == before[:3]
