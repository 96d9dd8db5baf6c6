"""Crash-point stress for background compaction: merges never lose state.

The same failpoint harness as ``test_wal_faults.py`` — a deterministic
mixed workload under :class:`repro.testing.FaultInjector` — but run
against stores opened with an *eager background compaction policy*, so a
large fraction of the armed syscalls are background merge commits (temp
manifest writes, fsyncs, the atomic ``os.replace``) rather than workload
WAL appends.  A crash can therefore land:

* in the **main thread** mid-op (the WAL durability case, re-checked here
  with merges racing underneath), or
* in a **worker thread** mid-merge-commit — the compaction crash-safety
  contract: reopening must find the *pre*- or *post*-merge run set,
  never a mix, and answer exactly like a store that never merged.

Worker crashes cannot unwind the main thread, so the driver polls the
scheduler's ``last_error`` after every op and treats an
:class:`InjectedCrash` there as the whole-process kill it models: the
workload stops, the store is abandoned without close, and recovery is
checked against the acknowledged-op oracle (background merges move no
logical state, so they never add "loose" keys).

``REPRO_STRESS_POINTS`` / ``REPRO_STRESS_SEED`` control volume and
placement (CI pins the seed on push and randomizes + multiplies nightly).

Every test additionally runs under :class:`repro.testing.LockOrderWatcher`
(the ``lock_watcher`` fixture): all locks the stores create are
instrumented, and the fixture fails the test if the observed acquisition
order ever contains a cycle (a potential deadlock the workload happened
to survive) or if a run list is swapped without the maintenance lock.
"""

import os
import random

import numpy as np
import pytest

from repro.api import FilterSpec, open_store
from repro.testing import FaultInjector, InjectedCrash, LockOrderWatcher


@pytest.fixture
def lock_watcher():
    """Instrument every lock created during the test; assert an acyclic
    acquisition-order graph (and no unlocked run-list swaps) on exit."""
    with LockOrderWatcher() as watcher:
        yield watcher


N_POINTS = int(os.environ.get("REPRO_STRESS_POINTS", "18"))
SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))

SPEC = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})

# Trigger floors so merges fire every couple of flushes; small windows so
# many distinct merge commits land inside one 30-op workload.
POLICIES = {
    "size-tiered": {"policy": "size-tiered", "min_runs": 2, "max_runs": 4},
    "leveled": {"policy": "leveled", "runs_per_level": 1},
}

CONFIGS = [
    (policy, shards) for policy in ("size-tiered", "leveled") for shards in (1, 4)
]


def _workload(rng):
    """~30 mixed ops over a 512-key space; flush-heavy so merges trigger."""
    live = set()
    ops = []
    for step in range(30):
        roll = rng.random()
        if roll < 0.40:
            n = rng.randrange(4, 12)
            keys = np.array(sorted(rng.sample(range(512), n)), dtype=np.uint64)
            values = [b"v%d.%d" % (step, int(k)) for k in keys]
            ops.append(("put_many", keys, values))
            live.update(keys.tolist())
        elif roll < 0.55 and live:
            n = rng.randrange(1, min(6, len(live)) + 1)
            keys = np.array(sorted(rng.sample(sorted(live), n)), dtype=np.uint64)
            ops.append(("delete_many", keys, None))
            live.difference_update(keys.tolist())
        elif roll < 0.90:
            ops.append(("flush", None, None))
        else:
            ops.append(("compact", None, None))  # manual racing background
    return ops


def _apply(db, op, keys, values):
    if op == "put_many":
        db.put_many(keys, values)
    elif op == "delete_many":
        db.delete_many(keys)
    elif op == "flush":
        db.flush()
    elif op == "compact":
        db.compact()


def _oracle_update(oracle, op, keys, values):
    if op == "put_many":
        for i, k in enumerate(keys.tolist()):
            oracle[k] = values[i]
    elif op == "delete_many":
        for k in keys.tolist():
            oracle.pop(k, None)


def _scheduler_crash(db):
    """The InjectedCrash a background merge died on, if any."""
    scheduler = getattr(db, "_scheduler", None)
    if scheduler is not None and isinstance(scheduler.last_error, InjectedCrash):
        return scheduler.last_error
    return None


def _abandon(db):
    """Drop the store the way a killed process would.

    Worker threads are not state; stopping the scheduler first keeps a
    straggling merge from writing into the directory while the recovery
    store reopens it (its commit, if one completes, is answer-preserving
    either way)."""
    scheduler = getattr(db, "_scheduler", None)
    if scheduler is not None:
        scheduler.close()


def _open(root, policy, shards, watcher=None):
    db = open_store(
        path=root,
        filter=SPEC,
        shards=shards,
        memtable_capacity=32,
        store_values=True,
        wal_sync="batch",
        wal_group_commit=4,
        compaction=POLICIES[policy],
    )
    if watcher is not None:
        watcher.watch_engine(db)
    return db


def _run_until_crash(root, policy, shards, ops, crash_at, rng, watcher=None):
    """Run the workload with a crash armed at syscall ``crash_at``.

    Returns ``(acked_ops, in_flight)``.  ``in_flight`` is the op running
    when the crash fired in the main thread; a crash that fired inside a
    background merge (or close()) has no in-flight op — merges carry no
    unacknowledged logical state."""
    db = _open(root, policy, shards, watcher)
    acked = []
    current = None
    try:
        with FaultInjector(root, crash_at=crash_at, rng=rng):
            for op in ops:
                current = op
                _apply(db, *op)
                acked.append(op)
                current = None
                crash = _scheduler_crash(db)
                if crash is not None:
                    raise crash  # a worker died mid-merge: stop the world
            db.close()
            crash = _scheduler_crash(db)
            if crash is not None:
                raise crash
    except InjectedCrash:
        _abandon(db)
        return acked, current
    return acked, None


def _check_recovered(root, acked, in_flight):
    """Reopen (twice) and assert the acknowledged-op oracle.

    The reopened store keeps the persisted background policy, so recovery
    itself runs with live compaction — the second reopen doubles as an
    idempotence check on answers with merges enabled."""
    oracle = {}
    for op in acked:
        _oracle_update(oracle, *op)
    loose = set()
    if in_flight is not None and in_flight[1] is not None:
        loose = set(in_flight[1].tolist())

    probes = np.arange(512, dtype=np.uint64)
    snapshots = []
    for attempt in range(2):
        db = open_store(path=root)
        answers = db.get_many(probes)
        for k in range(512):
            if k in loose:
                continue  # the un-acked op: either side is acceptable
            if k in oracle:
                assert answers[k], f"lost acknowledged key {k}"
                assert db.get_value(k) == oracle[k], (
                    f"acknowledged value for key {k} corrupted"
                )
        # The run set must be a consistent pre- or post-merge state: the
        # manifest parsed (open succeeded) and a full merge of whatever
        # runs survived yields exactly the oracle's live key set.
        scan_keys = {int(k) for k, _ in db.scan(0, 511)}
        unacked = scan_keys.symmetric_difference(oracle)
        assert unacked <= loose, (
            f"recovered key set diverges from acked oracle beyond the "
            f"in-flight op: {sorted(unacked - loose)[:8]}"
        )
        snapshots.append(answers)
        _abandon(db) if attempt == 0 else db.close()
    assert (snapshots[0] == snapshots[1]).all(), (
        "recovery is not idempotent: answers changed between reopens"
    )


@pytest.mark.parametrize("policy,shards", CONFIGS)
def test_crash_mid_merge_preserves_acked_state(policy, shards, tmp_path, lock_watcher):
    rng = random.Random(SEED * 2003 + hash((policy, shards)) % 100003)
    ops = _workload(random.Random(SEED * 37 + shards))

    # Dry run: count post-creation syscalls (workload + merges + close) so
    # sampled crash points land in the armed window.  Merge timing makes
    # the count run-to-run noisy; points past a replay's actual count
    # simply never fire, which degrades to a clean-completion check.
    dry_root = tmp_path / "dry"
    with FaultInjector(dry_root) as counter:
        db = _open(dry_root, policy, shards, lock_watcher)
        created = counter.count
        for op in ops:
            _apply(db, *op)
        db.close()
    armed = counter.count - created
    assert armed > 40, f"workload too small to probe ({armed} syscalls)"

    points = sorted(rng.sample(range(1, armed + 1), min(N_POINTS, armed)))
    for crash_at in points:
        root = tmp_path / f"crash-{crash_at}"
        torn = random.Random(rng.randrange(1 << 30))
        acked, in_flight = _run_until_crash(
            root, policy, shards, ops, crash_at, torn, lock_watcher
        )
        _check_recovered(root, acked, in_flight)


def test_merge_commit_crash_is_pre_or_post(tmp_path, lock_watcher):
    """Pin crashes onto the merge-commit window itself: build a store
    whose only remaining work is one background merge, then crash at
    every syscall boundary of that commit.  Each outcome must reopen to
    either the un-merged or the fully-merged run set — identical answers,
    parseable manifest — never a half-committed mix."""
    keys = np.arange(0, 192, dtype=np.uint64)

    # Count the merge's own syscalls: create quiescent runs with manual
    # compaction, then trigger one merge under a counting injector.
    def build(root):
        db = open_store(
            path=root, filter=SPEC, memtable_capacity=64, store_values=True
        )
        for i in range(0, 192, 64):
            db.put_many(keys[i : i + 64], [b"x%d" % k for k in keys[i : i + 64]])
            db.flush()
        return db

    from repro.lsm.compaction import SizeTieredPolicy

    dry = build(tmp_path / "dry")
    assert dry.maybe_compact() is None  # manual store: no policy, no merge
    dry.compaction = SizeTieredPolicy(min_runs=2)  # picker only; no scheduler
    with FaultInjector(tmp_path / "dry") as counter:
        assert dry.maybe_compact() is not None
    merge_syscalls = counter.count
    dry.close()
    assert merge_syscalls > 0

    for crash_at in range(1, merge_syscalls + 1):
        root = tmp_path / f"commit-{crash_at}"
        db = build(root)
        db.compaction = SizeTieredPolicy(min_runs=2)
        pre_runs = len(db.sstables)
        try:
            with FaultInjector(root, crash_at=crash_at):
                db.maybe_compact()
        except InjectedCrash:
            pass
        _abandon(db)
        with open_store(path=root) as back:
            # A width-2 window collapsed to one run, or never committed.
            assert len(back.sstables) in (pre_runs, pre_runs - 1), (
                f"crash at {crash_at} left a mixed run set "
                f"({len(back.sstables)} runs from {pre_runs})"
            )
            assert back.get_many(keys).all()
            assert not back.get_many(keys + np.uint64(4096)).any()
