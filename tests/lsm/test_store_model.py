"""Model-based durability testing of the on-disk store.

A Hypothesis :class:`RuleBasedStateMachine` drives random operation
sequences — ``put_many`` / ``delete_many`` / ``get_many`` /
``scan_nonempty_many`` / ``compact`` / ``flush`` / close-and-reopen —
against three models at once:

* the **persistent store** under test (``open_store(path=...)``),
* a plain dict **oracle** holding the exact live key→value map,
* a never-closed in-memory **shadow** store fed the identical operations.

Every read must match the oracle exactly (reads resolve exactly; filters
only accelerate), and after every reopen the store's answers must be
bit-identical to the never-closed shadow's.  The machine is run over
filter kinds × shard counts {1, 4}, so the spec round-trip, the per-shard
manifest fan-out, and the partitioned run layout all sit under the same
random churn.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.api import FilterSpec, open_store

# A compact keyspace so random puts, deletes, and probes actually collide;
# hash partitioning spreads it over every shard regardless of width.
KEYSPACE = 1 << 16

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=KEYSPACE - 1),
    min_size=1,
    max_size=24,
)


class StoreMachine(RuleBasedStateMachine):
    """One machine instance = one store directory + oracle + shadow.

    ``compaction`` (class attribute, default manual) opens the store
    under test with a background merge policy while the shadow stays
    manual — every read comparison then also asserts that background
    compaction is answer-preserving under random churn.
    """

    spec: FilterSpec
    shards: int
    compaction: object = "manual"
    # Read-tier machine parameters: the store under test may run block-
    # compressed under a block-cache budget (the shadow never does), so
    # every comparison also pins the compressed tier to the plain answers.
    compression: object = None
    block_cache_bytes: "int | None" = None

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="store-model-"))
        self.oracle: dict[int, bytes] = {}
        self.ticks = 0
        self.store = self._open()
        self.shadow = open_store(
            filter=self.spec,
            shards=self.shards,
            partition="hash",
            memtable_capacity=32,
            store_values=True,
        )

    def _open(self):
        return open_store(
            path=self.tmp / "db",
            filter=self.spec,
            shards=self.shards,
            partition="hash",
            memtable_capacity=32,
            store_values=True,
            compaction=self.compaction,
            compression=self.compression,
            block_cache_bytes=self.block_cache_bytes,
        )

    # ------------------------------------------------------------------
    # writes (applied to store, shadow, and oracle identically)
    # ------------------------------------------------------------------
    @rule(keys=keys_strategy)
    def put_many(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        self.ticks += 1
        values = [b"%d:%d" % (self.ticks, key) for key in keys]
        self.store.put_many(arr, values)
        self.shadow.put_many(arr, values)
        for key, value in zip(keys, values, strict=True):
            self.oracle[key] = value

    @rule(keys=keys_strategy)
    def delete_many(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        self.store.delete_many(arr)
        self.shadow.delete_many(arr)
        for key in keys:
            self.oracle.pop(key, None)

    @rule()
    def flush(self):
        self.store.flush()
        self.shadow.flush()

    @rule()
    def compact(self):
        self.store.compact()
        self.shadow.compact()

    # ------------------------------------------------------------------
    # reads (checked against the oracle)
    # ------------------------------------------------------------------
    @rule(keys=keys_strategy)
    def get_many_matches_oracle(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        expected = np.array([key in self.oracle for key in keys], dtype=bool)
        assert np.array_equal(self.store.get_many(arr), expected)
        assert np.array_equal(self.shadow.get_many(arr), expected)

    @rule(key=st.integers(min_value=0, max_value=KEYSPACE - 1))
    def get_value_matches_oracle(self, key):
        assert self.store.get_value(key) == self.oracle.get(key)

    @rule(
        lo=st.integers(min_value=0, max_value=KEYSPACE - 1),
        width=st.integers(min_value=0, max_value=KEYSPACE // 4),
    )
    def scan_nonempty_matches_oracle(self, lo, width):
        hi = min(lo + width, KEYSPACE - 1)
        bounds = np.array([[lo, hi]], dtype=np.uint64)
        truth = any(lo <= key <= hi for key in self.oracle)
        assert bool(self.store.scan_nonempty_many(bounds)[0]) == truth
        assert bool(self.shadow.scan_nonempty_many(bounds)[0]) == truth

    # ------------------------------------------------------------------
    # durability: close, reopen, compare against the never-closed shadow
    # ------------------------------------------------------------------
    @rule()
    def reopen(self):
        self.store.close()
        self.store = self._open()
        self._assert_matches_shadow()

    @rule()
    def crash_and_reopen(self):
        """Drop the store without close() or flush(): the write-ahead log
        must replay every acknowledged write, so the reopened store still
        answers bit-identically to the never-closed shadow."""
        scheduler = getattr(self.store, "_scheduler", None)
        if scheduler is not None:
            # Background merges are not state either way — an in-flight
            # merge either commits (answer-preserving) or never ran —
            # but the worker must stop before a second store opens the
            # same directory.  Mid-merge kills are covered separately by
            # the fault-injection stress suite.
            scheduler.close()
        self.store = self._open()
        self._assert_matches_shadow()

    def _assert_matches_shadow(self):
        """Reopened answers must be bit-identical to the live store's."""
        probes = np.array(
            sorted(set(self.oracle) | {0, 1, KEYSPACE - 1, 777}),
            dtype=np.uint64,
        )
        assert np.array_equal(
            self.store.get_many(probes), self.shadow.get_many(probes)
        )
        hi = np.minimum(probes + np.uint64(64), np.uint64(KEYSPACE - 1))
        bounds = np.stack([np.minimum(probes, hi), hi], axis=1)
        assert np.array_equal(
            self.store.scan_nonempty_many(bounds),
            self.shadow.scan_nonempty_many(bounds),
        )

    @invariant()
    def key_count_is_consistent(self):
        # Live key count from a full-domain scan equals the oracle's size
        # (scan merges runs + memtable and drops tombstones exactly).
        assert len(self.store.scan(0, KEYSPACE - 1)) == len(self.oracle)

    def teardown(self):
        self.store.close()
        self.shadow.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


MACHINE_SETTINGS = settings(
    max_examples=12, stateful_step_count=20, deadline=None
)

CASES = [
    ("bloomrf", FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})),
    ("bloom", FilterSpec("bloom", {"bits_per_key": 12})),
    ("none", FilterSpec("none")),
]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("kind,spec", CASES, ids=[kind for kind, _ in CASES])
def test_store_model(kind, spec, shards):
    machine_cls = type(
        f"StoreMachine_{kind}_{shards}",
        (StoreMachine,),
        {"spec": spec, "shards": shards},
    )
    run_state_machine_as_test(machine_cls, settings=MACHINE_SETTINGS)


# Eager triggers (min_runs/runs_per_level at their floors) so background
# merges actually interleave with the machine's reads, reopens, and
# crashes within 20-step runs.
COMPACTION_CASES = [
    ("tiered", {"policy": "size-tiered", "min_runs": 2, "max_runs": 4}),
    ("leveled", {"policy": "leveled", "runs_per_level": 1}),
]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize(
    "name,compaction", COMPACTION_CASES, ids=[name for name, _ in COMPACTION_CASES]
)
def test_store_model_with_background_compaction(name, compaction, shards):
    machine_cls = type(
        f"StoreMachine_{name}_{shards}",
        (StoreMachine,),
        {"spec": CASES[0][1], "shards": shards, "compaction": compaction},
    )
    run_state_machine_as_test(machine_cls, settings=MACHINE_SETTINGS)


# The compressed read tier under the same random churn: tiny blocks so
# values span several compressed blocks, and one case with a cache budget
# far below the working set so eviction interleaves with every rule.
READ_TIER_CASES = [
    ("zlib", {"codec": "zlib", "block_bytes": 1 << 10}, None),
    ("zlib-tiny-cache", {"codec": "zlib", "block_bytes": 1 << 10}, 1 << 11),
]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize(
    "name,compression,cache",
    READ_TIER_CASES,
    ids=[name for name, _, _ in READ_TIER_CASES],
)
def test_store_model_read_tier(name, compression, cache, shards):
    machine_cls = type(
        f"StoreMachine_{name}_{shards}",
        (StoreMachine,),
        {
            "spec": CASES[0][1],
            "shards": shards,
            "compression": compression,
            "block_cache_bytes": cache,
        },
    )
    run_state_machine_as_test(machine_cls, settings=MACHINE_SETTINGS)


def test_reopen_of_empty_store_round_trips(tmp_path):
    """The degenerate sequence: create, write nothing, close, reopen."""
    with open_store(path=tmp_path / "db", shards=4):
        pass
    with open_store(path=tmp_path / "db") as reopened:
        assert reopened.num_keys == 0
        assert not reopened.get_many(np.arange(8, dtype=np.uint64)).any()
