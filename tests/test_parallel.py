"""The shared partition/dispatch layer both sharded structures ride on."""

import threading

import numpy as np
import pytest

from repro.parallel import (
    HashPartitioner,
    RangePartitioner,
    ShardPool,
    group_by_owner,
    make_partitioner,
)

U64 = (1 << 64) - 1


class TestMakePartitioner:
    def test_factory_dispatch(self):
        assert isinstance(make_partitioner("hash", 4), HashPartitioner)
        assert isinstance(make_partitioner("range", 4), RangePartitioner)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="partition"):
            make_partitioner("modulo", 4)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_partitioner("hash", 0)
        with pytest.raises(ValueError):
            make_partitioner("range", 512, domain_bits=8)


class TestHashPartitioner:
    def test_owners_in_range_and_deterministic(self):
        part = HashPartitioner(7)
        keys = np.random.default_rng(3).integers(0, 1 << 64, 5_000, dtype=np.uint64)
        owner = part.owner_of_many(keys)
        assert owner.min() >= 0 and owner.max() < 7
        assert np.array_equal(owner, part.owner_of_many(keys))
        assert part.owner_of(int(keys[0])) == int(owner[0])

    def test_single_partition_short_circuits(self):
        part = HashPartitioner(1)
        keys = np.arange(100, dtype=np.uint64)
        assert not part.owner_of_many(keys).any()

    def test_split_bounds_fans_out_to_every_shard(self):
        part = HashPartitioner(3)
        bounds = np.array([[0, 10], [20, 30]], dtype=np.uint64)
        jobs = part.split_bounds(bounds)
        assert [s for s, _, _ in jobs] == [0, 1, 2]
        for _, idx, clipped in jobs:
            assert np.array_equal(idx, np.arange(2))
            assert np.array_equal(clipped, bounds)

    def test_roughly_balanced(self):
        part = HashPartitioner(4)
        keys = np.random.default_rng(5).integers(0, 1 << 64, 40_000, dtype=np.uint64)
        counts = np.bincount(part.owner_of_many(keys), minlength=4)
        assert counts.min() > 0.8 * counts.max()


class TestRangePartitioner:
    def test_boundaries_cover_domain(self):
        part = RangePartitioner(5)
        owner = part.owner_of_many(
            np.array([0, 1, U64 // 2, U64 - 1, U64], dtype=np.uint64)
        )
        assert owner.min() >= 0 and owner.max() <= 4
        assert part.owner_of(0) == 0
        assert part.owner_of(U64) == 4

    def test_partition_ranges_tile_the_domain(self):
        part = RangePartitioner(4, domain_bits=16)
        edges = [part.partition_range(s) for s in range(4)]
        assert edges[0][0] == 0
        assert edges[-1][1] == (1 << 16) - 1
        for (_, hi), (lo, _) in zip(edges, edges[1:], strict=False):
            assert lo == hi + 1

    def test_owner_matches_partition_range(self):
        part = RangePartitioner(3, domain_bits=10)
        for s in range(3):
            lo, hi = part.partition_range(s)
            assert part.owner_of(lo) == s
            assert part.owner_of(hi) == s

    def test_split_bounds_clips_to_overlapping_shards(self):
        part = RangePartitioner(4, domain_bits=16)
        lo1, hi1 = part.partition_range(1)
        # A query strictly inside shard 1 plus one spanning shards 1-2.
        bounds = np.array(
            [[lo1 + 5, lo1 + 10], [hi1 - 3, hi1 + 3]], dtype=np.uint64
        )
        jobs = {s: (idx, clipped) for s, idx, clipped in part.split_bounds(bounds)}
        assert set(jobs) == {1, 2}
        idx1, clipped1 = jobs[1]
        assert np.array_equal(idx1, np.array([0, 1]))
        assert int(clipped1[1, 1]) == hi1  # clipped at shard 1's upper edge
        idx2, clipped2 = jobs[2]
        assert np.array_equal(idx2, np.array([1]))
        assert int(clipped2[0, 0]) == hi1 + 1


class TestGroupByOwner:
    def test_groups_preserve_input_order(self):
        owner = np.array([2, 0, 2, 1, 0], dtype=np.int64)
        groups = dict(group_by_owner(owner))
        assert np.array_equal(groups[0], np.array([1, 4]))
        assert np.array_equal(groups[1], np.array([3]))
        assert np.array_equal(groups[2], np.array([0, 2]))

    def test_skips_absent_shards_and_empty_batches(self):
        groups = group_by_owner(np.array([3, 0, 3, 3], dtype=np.int64))
        assert [s for s, _ in groups] == [0, 3]
        assert np.array_equal(groups[1][1], np.array([0, 2, 3]))
        assert group_by_owner(np.zeros(0, dtype=np.int64)) == []

    def test_large_batches_keep_input_order_within_a_shard(self):
        owner = np.random.default_rng(13).integers(0, 5, 1_000)
        for s, idx in group_by_owner(owner):
            assert np.array_equal(idx, np.nonzero(owner == s)[0])

    def test_scatter_back_reconstructs_batch(self):
        rng = np.random.default_rng(11)
        owner = rng.integers(0, 4, 1_000)
        payload = rng.integers(0, 1 << 32, 1_000, dtype=np.uint64)
        out = np.zeros_like(payload)
        for _s, idx in group_by_owner(owner):
            out[idx] = payload[idx]
        assert np.array_equal(out, payload)


class TestShardPool:
    def test_results_in_job_order(self):
        with ShardPool(max_workers=4) as pool:
            jobs = [(s, s * 10) for s in range(8)]
            out = pool.run(jobs, lambda s, payload: (s, payload))
            assert out == [(s, s * 10) for s in range(8)]

    def test_single_job_runs_inline(self):
        pool = ShardPool(max_workers=2)
        thread_ids = []
        pool.run([(0, None)], lambda s, _: thread_ids.append(threading.get_ident()))
        assert thread_ids == [threading.get_ident()]
        assert not pool.is_open  # no executor was ever created
        pool.close()

    def test_close_is_idempotent_and_reopens(self):
        pool = ShardPool(max_workers=2)
        pool.run([(0, 1), (1, 2)], lambda s, p: p)
        assert pool.is_open
        pool.close()
        pool.close()
        assert not pool.is_open
        assert pool.run([(0, 1), (1, 2)], lambda s, p: p) == [1, 2]
        pool.close()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ShardPool(max_workers=0)

    def test_worker_exception_propagates(self):
        def boom(s, _):
            raise RuntimeError("shard failed")

        with ShardPool(max_workers=2) as pool:
            with pytest.raises(RuntimeError, match="shard failed"):
                pool.run([(0, None), (1, None)], boom)
