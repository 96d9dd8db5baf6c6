"""Compaction policies and the background scheduler.

Three layers of coverage:

* **Policies as pure functions** — :class:`SizeTieredPolicy` and
  :class:`LeveledPolicy` pick windows over plain size lists, so triggers
  (including the exact run-count boundary), window contiguity, cheapest-
  window selection, and parameter validation are tested with no engine
  at all.
* **Scheduler lifecycle** — close() mid-merge drains (never abandons) an
  in-flight merge, back-to-back triggers coalesce into one drain loop,
  notify after close is refused, and a crashing merge lands in
  ``last_error`` instead of wedging close().
* **Answer preservation** — stores opened with a background policy give
  bit-identical ``get_many`` / ``scan_nonempty_many`` answers to manual
  stores fed the identical operations, across engines (in-memory,
  sharded, persistent), and a manual :meth:`compact` racing a background
  merge supersedes it cleanly (the background commit aborts).
* **Filter sizing** — a merged run's filter is built for the run's own
  keys, so bits/key and point FPR stay at the spec's after many merges.
"""

import math
import threading

import numpy as np
import pytest

from repro.api import FilterSpec, make_filter, open_store, standard_spec
from repro.core.model import extended_fpr_profile
from repro.lsm.compaction import (
    COMPACTION_POLICIES,
    CompactionScheduler,
    LeveledPolicy,
    SizeTieredPolicy,
    coerce_compaction,
    compaction_to_dict,
)
from repro.lsm.db import LsmDB


# ----------------------------------------------------------------------
# policies as pure pickers
# ----------------------------------------------------------------------
class TestSizeTieredPolicy:
    def test_below_min_runs_is_quiescent(self):
        policy = SizeTieredPolicy(min_runs=4)
        assert policy.pick([]) is None
        assert policy.pick([100]) is None
        assert policy.pick([100, 100, 100]) is None

    def test_trigger_exactly_at_run_count_boundary(self):
        """min_runs equal-sized runs is the boundary: it must fire."""
        policy = SizeTieredPolicy(min_runs=4)
        assert policy.pick([50, 50, 50]) is None
        assert policy.pick([50, 50, 50, 50]) == (0, 4)

    def test_size_ratio_excludes_outsized_runs(self):
        # A giant old run must not be pulled into the window of small
        # L0 runs (ratio 2.0: 1000 > 2 * 10).
        policy = SizeTieredPolicy(min_runs=3, size_ratio=2.0)
        assert policy.pick([10, 10, 10, 1000]) == (0, 3)
        assert policy.pick([1000, 10, 10, 10]) == (1, 4)

    def test_cheapest_window_wins(self):
        # Two eligible tiers; the fewest-total-keys window is picked.
        policy = SizeTieredPolicy(min_runs=2, size_ratio=2.0)
        assert policy.pick([500, 500, 10, 10]) == (2, 4)

    def test_max_runs_caps_window_width(self):
        # Equal sizes: the cheapest window is the narrowest (min_runs
        # wide); pinning min == max shows the cap binds from above.
        policy = SizeTieredPolicy(min_runs=3, max_runs=3)
        start, stop = policy.pick([10] * 8)
        assert stop - start == 3

    def test_window_is_contiguous_and_wide_enough(self):
        policy = SizeTieredPolicy(min_runs=2)
        for sizes in ([5, 5], [7, 7, 7, 7, 7], [3, 4, 6, 100, 3, 4]):
            window = policy.pick(sizes)
            if window is None:
                continue
            start, stop = window
            assert 0 <= start < stop <= len(sizes)
            assert stop - start >= 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="min_runs"):
            SizeTieredPolicy(min_runs=1)
        with pytest.raises(ValueError, match="max_runs"):
            SizeTieredPolicy(min_runs=4, max_runs=3)
        with pytest.raises(ValueError, match="size_ratio"):
            SizeTieredPolicy(size_ratio=0.5)


class TestLeveledPolicy:
    def test_overfull_level_zero_merges(self):
        policy = LeveledPolicy(runs_per_level=2)
        assert policy.pick([10, 10]) is None
        assert policy.pick([10, 10, 10]) == (0, 3)

    def test_window_spans_interleaved_deeper_runs(self):
        # Level-0 members sit at indices 0, 2, 3; the window must stay
        # contiguous, so the deep run at index 1 rides along.
        policy = LeveledPolicy(runs_per_level=2, fanout=8.0)
        assert policy.pick([10, 100000, 10, 10]) == (0, 4)

    def test_shallowest_overfull_level_wins(self):
        policy = LeveledPolicy(runs_per_level=1, fanout=4.0)
        # Levels: [0, 0, 2, 2] — both overfull; level 0 merges first.
        assert policy.pick([10, 10, 300, 300]) == (0, 2)

    def test_single_run_is_quiescent(self):
        policy = LeveledPolicy(runs_per_level=1)
        assert policy.pick([10]) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="runs_per_level"):
            LeveledPolicy(runs_per_level=0)
        with pytest.raises(ValueError, match="fanout"):
            LeveledPolicy(fanout=1.0)


class TestConfigPlumbing:
    def test_coerce_accepts_every_documented_form(self):
        assert coerce_compaction(None) is None
        assert coerce_compaction("manual") is None
        assert coerce_compaction({"policy": "manual"}) is None
        assert coerce_compaction("size-tiered") == SizeTieredPolicy()
        assert coerce_compaction("leveled") == LeveledPolicy()
        policy = SizeTieredPolicy(min_runs=6)
        assert coerce_compaction(policy) is policy
        assert coerce_compaction(
            {"policy": "size-tiered", "params": {"min_runs": 6}}
        ) == SizeTieredPolicy(min_runs=6)
        # Flat knobs beside "policy" (the CLI form) work too.
        assert coerce_compaction(
            {"policy": "leveled", "runs_per_level": 2}
        ) == LeveledPolicy(runs_per_level=2)

    def test_coerce_rejects_unknown_and_invalid(self):
        with pytest.raises(ValueError, match="known: manual"):
            coerce_compaction("lazy")
        with pytest.raises(ValueError, match="known: manual"):
            coerce_compaction({"policy": "lazy"})
        with pytest.raises(ValueError, match="invalid parameters"):
            coerce_compaction({"policy": "size-tiered", "wrong_knob": 3})
        with pytest.raises(ValueError, match="compaction must be"):
            coerce_compaction(7)

    def test_round_trip_through_dict_form(self):
        for name in COMPACTION_POLICIES:
            policy = coerce_compaction(name)
            assert coerce_compaction(policy.to_dict()) == policy
        assert compaction_to_dict(None) == {"policy": "manual", "params": {}}

    def test_describe_levels_partitions_every_run(self):
        policy = SizeTieredPolicy()
        levels = policy.describe_levels([10, 10, 80, 640])
        assert sum(entry["runs"] for entry in levels) == 4
        assert sum(entry["keys"] for entry in levels) == 740
        assert [entry["level"] for entry in levels] == sorted(
            entry["level"] for entry in levels
        )
        assert policy.describe_levels([]) == []


# ----------------------------------------------------------------------
# scheduler lifecycle
# ----------------------------------------------------------------------
class _GatedEngine:
    """An engine stub whose merge blocks until the test releases it."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.merges = 0

    def maybe_compact(self):
        if self.merges:
            return None  # quiescent after one merge
        self.started.set()
        assert self.release.wait(timeout=10), "test never released the merge"
        self.merges += 1
        return {"input_runs": 2, "input_keys": 10, "output_keys": 10}


class TestSchedulerLifecycle:
    def test_close_mid_merge_drains_then_stops(self):
        scheduler = CompactionScheduler()
        engine = _GatedEngine()
        assert scheduler.notify(engine) is True
        assert engine.started.wait(timeout=10)
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        # close() must be *waiting* on the in-flight merge, not skipping it.
        closer.join(timeout=0.2)
        assert closer.is_alive()
        engine.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert scheduler.closed
        assert engine.merges == 1  # the merge committed before close returned
        assert scheduler.info()["merges"] == 1

    def test_close_is_idempotent_and_refuses_new_work(self):
        scheduler = CompactionScheduler()
        scheduler.close()
        scheduler.close()
        engine = _GatedEngine()
        assert scheduler.notify(engine) is False
        assert not engine.started.is_set()

    def test_back_to_back_triggers_coalesce(self):
        scheduler = CompactionScheduler()
        engine = _GatedEngine()
        assert scheduler.notify(engine) is True
        assert engine.started.wait(timeout=10)
        # The drain loop is mid-merge: further triggers coalesce into it.
        assert scheduler.notify(engine) is False
        assert scheduler.notify(engine) is False
        assert scheduler.info()["pending"] == 1  # dirty set, not a queue
        engine.release.set()
        scheduler.drain()
        info = scheduler.info()
        assert info["notifications"] == 3
        assert info["merges"] == 1
        assert info["pending"] == 0
        scheduler.close()

    def test_crashing_merge_lands_in_last_error(self):
        class Exploding:
            def maybe_compact(self):
                raise SystemExit("injected")  # a BaseException, like a crash

        with CompactionScheduler() as scheduler:
            scheduler.notify(Exploding())
            scheduler.drain()
            assert "injected" in scheduler.info()["last_error"]

    def test_engine_close_drains_owned_scheduler(self):
        db = open_store(memtable_capacity=8, compaction="size-tiered")
        for i in range(8):
            db.put_many(np.arange(i * 8, i * 8 + 8, dtype=np.uint64))
        db.flush()
        db.close()
        assert db._scheduler.closed
        assert db._scheduler.info()["last_error"] is None


# ----------------------------------------------------------------------
# answer preservation: background == manual, bit for bit
# ----------------------------------------------------------------------
def _churn(db, rng):
    """A deterministic write/delete/flush script shared by both stores.

    Every iteration flushes one ~16-entry run (all-puts or all-deletes),
    so the runs are similar-sized and the default size-tiered ratio
    trigger actually fires within 24 flushes."""
    for i in range(24):
        keys = rng.integers(0, 1 << 12, size=16).astype(np.uint64)
        if i % 4 == 3:
            db.delete_many(keys)
        else:
            db.put_many(keys)
        db.flush()


POLICY_CASES = [
    "size-tiered",
    {"policy": "size-tiered", "min_runs": 2, "max_runs": 4},
    "leveled",
    {"policy": "leveled", "runs_per_level": 1},
]


@pytest.mark.parametrize(
    "compaction", POLICY_CASES, ids=["tiered", "tiered-eager", "leveled", "leveled-eager"]
)
@pytest.mark.parametrize("shards", [1, 3])
def test_background_compaction_preserves_answers(compaction, shards):
    spec = FilterSpec("bloomrf", {"bits_per_key": 12, "max_range": 1 << 10})
    auto = open_store(
        filter=spec, shards=shards, memtable_capacity=16, compaction=compaction
    )
    manual = open_store(filter=spec, shards=shards, memtable_capacity=16)
    _churn(auto, np.random.default_rng(7))
    _churn(manual, np.random.default_rng(7))
    auto.drain_compaction()
    points = np.arange(0, 1 << 12, dtype=np.uint64)
    assert np.array_equal(auto.get_many(points), manual.get_many(points))
    lo = points[:: 16]
    bounds = np.stack([lo, lo + np.uint64(255)], axis=1)
    assert np.array_equal(
        auto.scan_nonempty_many(bounds), manual.scan_nonempty_many(bounds)
    )
    # The whole point: the policy actually bounded the run set.
    info = auto.compaction_info()
    assert info["scheduler"]["merges"] > 0
    auto.close()
    manual.close()


def test_background_compaction_preserves_answers_persistent(tmp_path):
    spec = FilterSpec("bloom", {"bits_per_key": 10})
    auto = open_store(
        path=tmp_path / "auto",
        filter=spec,
        memtable_capacity=16,
        compaction={"policy": "size-tiered", "min_runs": 2},
    )
    manual = open_store(path=tmp_path / "manual", filter=spec, memtable_capacity=16)
    _churn(auto, np.random.default_rng(11))
    _churn(manual, np.random.default_rng(11))
    auto.drain_compaction()
    points = np.arange(0, 1 << 12, dtype=np.uint64)
    assert np.array_equal(auto.get_many(points), manual.get_many(points))
    assert auto.compaction_info()["scheduler"]["merges"] > 0
    auto.close()
    manual.close()
    # Reopen both cold: merged-run recovery must answer identically too.
    with open_store(path=tmp_path / "auto") as back_auto:
        with open_store(path=tmp_path / "manual") as back_manual:
            assert back_auto.compaction == SizeTieredPolicy(min_runs=2)
            assert np.array_equal(
                back_auto.get_many(points), back_manual.get_many(points)
            )


def test_tombstones_survive_interior_merges():
    """Deleted keys stay deleted across background merges (tombstones are
    only dropped when the merge window reaches the oldest run)."""
    db = open_store(
        memtable_capacity=8,
        compaction={"policy": "size-tiered", "min_runs": 2, "max_runs": 3},
    )
    dead = np.arange(0, 64, dtype=np.uint64)
    db.put_many(dead)
    db.flush()
    db.delete_many(dead)
    db.flush()
    for i in range(8):  # bury the tombstone runs under more flushes
        db.put_many(np.arange(1000 + i * 8, 1000 + i * 8 + 8, dtype=np.uint64))
        db.flush()
    db.drain_compaction()
    assert not db.get_many(dead).any()
    db.close()


# ----------------------------------------------------------------------
# manual compact() vs a background merge: supersession
# ----------------------------------------------------------------------
def test_manual_compact_supersedes_in_flight_background_merge():
    """A manual compact() that lands while a background merge is building
    wins: the background commit sees its window gone and aborts, and the
    store holds exactly the manual run with unchanged answers."""
    db = LsmDB(memtable_capacity=8)
    for i in range(4):
        db.put_many(np.arange(i * 8, i * 8 + 8, dtype=np.uint64))
        db.flush()
    db.compaction = SizeTieredPolicy(min_runs=2)  # picker only; no scheduler
    original_merge = db._merge_tables
    state = {"intercepted": False}

    def merge_then_lose_the_race(tables, *, drop_tombstones):
        merged = original_merge(tables, drop_tombstones=drop_tombstones)
        if not state["intercepted"]:
            state["intercepted"] = True
            db._merge_tables = original_merge
            db.compact()  # phase 2 holds no lock: the manual path runs now
        return merged

    db._merge_tables = merge_then_lose_the_race
    assert db.maybe_compact() is None  # commit aborted, merge discarded
    assert state["intercepted"]
    assert len(db.sstables) == 1  # the manual compact's single run
    assert db.get_many(np.arange(32, dtype=np.uint64)).all()
    db.close()


def test_manual_compact_on_background_policy_store():
    """compact() on a store with a live scheduler: both paths serialize on
    the maintenance lock and the store ends fully merged and correct."""
    db = open_store(memtable_capacity=8, compaction="size-tiered")
    keys = np.arange(0, 256, dtype=np.uint64)
    for i in range(0, 256, 8):
        db.put_many(keys[i : i + 8])
    db.flush()
    db.compact()
    db.drain_compaction()
    assert len(db.sstables) == 1
    assert db.get_many(keys).all()
    assert not db.get_many(keys + np.uint64(1000)).any()
    db.close()


def test_flush_at_trigger_boundary_starts_exactly_one_merge():
    """min_runs=4: three flushes stay quiescent, the fourth triggers."""
    db = open_store(
        memtable_capacity=8,
        compaction={"policy": "size-tiered", "min_runs": 4, "max_runs": 4},
    )
    for i in range(3):
        db.put_many(np.arange(i * 8, i * 8 + 8, dtype=np.uint64))
        db.flush()
    db.drain_compaction()
    assert db.compaction_info()["scheduler"]["merges"] == 0
    assert len(db.sstables) == 3
    db.put_many(np.arange(24, 32, dtype=np.uint64))
    db.flush()
    db.drain_compaction()
    assert db.compaction_info()["scheduler"]["merges"] == 1
    assert len(db.sstables) == 1
    db.close()


def test_compaction_info_reports_layout_and_pending():
    db = open_store(memtable_capacity=8)  # manual store still inspects
    for i in range(3):
        db.put_many(np.arange(i * 8, i * 8 + 8, dtype=np.uint64))
        db.flush()
    info = db.compaction_info()
    assert info["policy"] == {"policy": "manual", "params": {}}
    assert info["scheduler"] is None
    assert info["pending"] is False  # manual stores never auto-trigger
    assert sum(entry["runs"] for entry in info["levels"]) == 3
    db.close()


def test_merged_runs_keep_the_specs_bits_per_key_across_reopen(tmp_path):
    """Every run's filter is built for that run's keys: after several
    size-tiered merges and a reopen, each run carries the config the spec
    gives for its key count (bits/key at the spec's 14, up to word
    rounding), and its point FPR on absent keys stays in the band the
    Sect. 7 model predicts for that config."""
    spec = standard_spec("bloomrf", bits_per_key=14, max_range=1 << 20)
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 1 << 63, 4_096, dtype=np.uint64)
    with open_store(
        tmp_path / "db",
        filter=spec,
        memtable_capacity=512,
        wal_sync="off",
        compaction={"policy": "size-tiered", "min_runs": 2},
    ) as db:
        for i, batch in enumerate(np.array_split(keys, 16)):
            db.put_many(batch)
            if i % 4 == 3:
                db.delete_many(batch[:16])
            db.drain_compaction()
        assert db.compaction_info()["scheduler"]["merges"] >= 3
    absent = rng.integers(0, 1 << 63, 20_000, dtype=np.uint64)
    absent = absent[~np.isin(absent, keys)]
    with open_store(tmp_path / "db") as db:
        assert max(sst.num_keys for sst in db.sstables) > 2 * 512  # merged
        assert db.filter_bits_per_key() == pytest.approx(14, rel=0.01)
        for sst in db.sstables:
            config = make_filter(spec, n_keys=sst.num_keys).config
            assert sst.filter.config == config
            assert sst.filter.size_bits / sst.num_keys == pytest.approx(14, rel=0.01)
            predicted = extended_fpr_profile(config, sst.num_keys).point_fpr
            observed = float(np.mean(sst.filter.contains_point_many(absent)))
            slack = 4 * math.sqrt(predicted / absent.size)  # binomial noise
            assert observed <= 2.5 * predicted + slack, (sst.num_keys, observed)


BURST_POLICIES = {
    "size-tiered": ({"policy": "size-tiered", "min_runs": 4, "max_runs": 8}, 13.967),
    "leveled": ({"policy": "leveled", "runs_per_level": 4, "fanout": 8.0}, 11.339),
}


def _burst(compaction):
    """One write burst, a flush per batch, merges drained after each:
    (final runs, mean runs sampled during ingest, write amplification)."""
    spec = FilterSpec("bloomrf", {"bits_per_key": 16, "max_range": 1 << 20})
    keys = np.random.default_rng(71).integers(0, 1 << 48, 24_000, dtype=np.uint64)
    batch = 512
    with open_store(
        filter=spec, memtable_capacity=batch, compaction=compaction
    ) as db:
        curve = []
        for at in range(0, keys.size, batch):
            db.put_many(keys[at : at + batch])
            db.drain_compaction()
            curve.append(len(db.sstables))
        db.flush()
        db.drain_compaction()
        scheduler = db.compaction_info()["scheduler"]
        merged = scheduler["merged_output_keys"] if scheduler else 0
        # Flushes write every key once; merges rewrite their outputs.
        return len(db.sstables), float(np.mean(curve)), (keys.size + merged) / keys.size


@pytest.mark.parametrize("name", sorted(BURST_POLICIES))
def test_background_policy_bounds_runs_under_a_write_burst(name):
    """A background policy ends a burst with fewer runs than manual and
    keeps fewer runs live during it, at a bounded write amplification
    (within 4x of the policy's 120k-key reference: 3.492 size-tiered,
    2.835 leveled).  Merges are drained after every batch, so every count
    here is exact per seed."""
    manual_runs, manual_mean, manual_amp = _burst("manual")
    assert manual_amp == 1.0
    compaction, amp_ceiling = BURST_POLICIES[name]
    runs, mean_runs, write_amp = _burst(compaction)
    assert runs < manual_runs
    assert mean_runs < manual_mean
    assert 1.0 < write_amp <= amp_ceiling
