"""Cross-module integration tests: end-to-end flows the benchmarks rely on.

These tie together workload generation, all filters, the LSM substrate and
the measurement harness, asserting the global invariants every experiment
assumes: generated queries are truly empty, no filter ever produces a false
negative end to end, FPR accounting is consistent, and the paper's headline
orderings hold at test scale.
"""

import numpy as np
import pytest

from repro.api import filter_from_bytes
from repro.bench.harness import (
    build_standalone_filter,
    measure_point_fpr,
    measure_range_fpr,
)
from repro.lsm import LsmDB, SpecPolicy
from repro.lsm.filter_policy import VECTOR_MIN_ROWS, RunSetFilter
from repro.workloads import (
    empty_point_queries,
    empty_range_queries,
    normal_keys,
    uniform_keys,
    zipfian_keys,
)

U64 = (1 << 64) - 1
ALL_FILTERS = ("bloomrf", "bloomrf-basic", "rosetta", "surf", "bloom", "cuckoo")
PRF = ("bloomrf", "bloomrf-basic", "rosetta", "surf")


@pytest.fixture(scope="module")
def keys():
    return uniform_keys(25_000, seed=31)


class TestEndToEndSoundness:
    @pytest.mark.parametrize("name", ALL_FILTERS)
    def test_point_soundness_standalone(self, keys, name):
        fut = build_standalone_filter(name, keys, bits_per_key=14, max_range=1 << 16)
        for key in keys[:1500]:
            assert fut.point(int(key)), name

    @pytest.mark.parametrize("name", PRF)
    def test_range_soundness_standalone(self, keys, name):
        fut = build_standalone_filter(name, keys, bits_per_key=14, max_range=1 << 16)
        for key in keys[:800]:
            key = int(key)
            assert fut.range_(max(0, key - 100), min(U64, key + 1000)), name

    @pytest.mark.parametrize(
        "gen", [uniform_keys, normal_keys, zipfian_keys],
        ids=["uniform", "normal", "zipfian"],
    )
    def test_soundness_across_distributions(self, gen):
        dist_keys = gen(8_000, seed=32)
        for name in ("bloomrf", "rosetta", "surf"):
            fut = build_standalone_filter(
                name, dist_keys, bits_per_key=16, max_range=1 << 20
            )
            for key in dist_keys[:400]:
                key = int(key)
                assert fut.point(key), name
                assert fut.range_(key, min(U64, key + 7)), name


class TestWorkloadFilterContract:
    def test_empty_queries_are_empty_for_exact_structures(self, keys):
        """The generator's emptiness guarantee, checked against an exact
        structure (the LSM with no filter reads ground truth)."""
        db = LsmDB()
        db.bulk_load(keys, num_sstables=3)
        for lo, hi in empty_range_queries(keys, 400, range_size=10**4, seed=33):
            assert not db.scan_nonempty(lo, hi)
        for key in empty_point_queries(keys, 400, seed=34):
            assert not db.get(int(key))

    def test_measured_fpr_zero_for_exact_oracle(self, keys):
        """A filter wrapping ground truth must measure FPR 0 — validates the
        harness itself."""
        sorted_keys = keys

        def exact_range(lo, hi):
            idx = int(np.searchsorted(sorted_keys, np.uint64(lo)))
            return idx < sorted_keys.size and int(sorted_keys[idx]) <= hi

        from repro.bench.harness import FilterUnderTest

        oracle = FilterUnderTest("oracle", lambda k: False, exact_range, 0, 0.0)
        queries = empty_range_queries(keys, 300, range_size=1 << 12, seed=35)
        assert measure_range_fpr(oracle, queries).fpr == 0.0


class TestHeadlineOrderings:
    """The paper's Experiment-1/2 orderings at test scale."""

    def test_rosetta_best_points_bloomrf_close(self, keys):
        points = empty_point_queries(keys, 2_000, seed=36)
        fprs = {}
        for name in ("rosetta", "bloomrf", "surf"):
            fut = build_standalone_filter(name, keys, bits_per_key=22, max_range=64)
            fprs[name] = measure_point_fpr(fut, points).fpr
        assert fprs["rosetta"] <= fprs["bloomrf"] + 0.002
        assert fprs["bloomrf"] < 0.01

    def test_bloomrf_wins_medium_ranges_vs_rosetta(self, keys):
        queries = empty_range_queries(keys, 500, range_size=10**6, seed=37)
        fprs = {}
        for name in ("rosetta", "bloomrf"):
            fut = build_standalone_filter(
                name, keys, bits_per_key=18, max_range=10**6
            )
            fprs[name] = measure_range_fpr(fut, queries).fpr
        assert fprs["bloomrf"] < fprs["rosetta"]

    def test_bloomrf_fpr_flat_across_ranges(self, keys):
        """Constant query complexity and bounded FPR from tiny to huge R."""
        rates = []
        for r in (16, 10**4, 10**8):
            fut = build_standalone_filter(
                "bloomrf", keys, bits_per_key=18, max_range=r
            )
            queries = empty_range_queries(keys, 400, range_size=r, seed=38)
            rates.append(measure_range_fpr(fut, queries).fpr)
        assert max(rates) < 0.2


class TestLsmWithEveryPolicy:
    @pytest.mark.parametrize(
        "policy",
        [
            SpecPolicy("bloomrf", bits_per_key=16, max_range=1 << 20),
            SpecPolicy("rosetta", bits_per_key=16, max_range=1 << 20),
            SpecPolicy("surf", bits_per_key=16),
        ],
        ids=["bloomrf", "rosetta", "surf"],
    )
    def test_db_reads_correct_under_policy(self, keys, policy):
        db = LsmDB(policy=policy)
        rng = np.random.default_rng(39)
        db.bulk_load(rng.permutation(keys), num_sstables=4)
        for key in keys[:300]:
            assert db.get(int(key))
        for lo, hi in empty_range_queries(keys, 150, range_size=1 << 16, seed=40):
            assert not db.scan_nonempty(lo, hi)
        # Accounting identity: probes = queries x SSTs for scans + gets
        # that reached the SSTs; every positive is classified.
        stats = db.stats
        assert stats.filter_positives == (
            stats.filter_true_positives + stats.filter_false_positives
        )

    def test_serialization_survives_lsm_round_trip(self, keys):
        policy = SpecPolicy("bloomrf", bits_per_key=16, max_range=1 << 20)
        filt = policy.build(keys)
        restored = filter_from_bytes(filt.to_bytes())
        run_set = RunSetFilter([filt, restored])
        bounds = empty_range_queries(
            keys, 200, range_size=1 << 10, seed=41
        ).bounds
        assert bounds.shape[0] >= VECTOR_MIN_ROWS
        # One row takes the scalar kernel, 200 rows the vectorized one.
        for n in (1, bounds.shape[0]):
            built, reopened = run_set.probe_range_many(bounds[:n])
            assert np.array_equal(built, reopened)
