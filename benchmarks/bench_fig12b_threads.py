"""Fig. 12.B — concurrency: per-thread throughput vs thread counts.

bloomRF is a parallel data structure (plain word-level OR writes, no locks);
this bench runs lookup threads against insert threads on one shared filter
and reports throughput per thread.  CPython's GIL serializes the Python-level
probe loops, so *absolute* scaling is flat by construction — DESIGN.md
documents the substitution; the reproduced quantity is the qualitative
behaviour: inserts have marginal impact on lookup throughput per thread,
and nothing corrupts (soundness asserted after the storm).
"""

import threading
import time

import numpy as np
import pytest

from _common import keyset, print_table, scaled, write_result
from repro.core.bloomrf import BloomRF

N_KEYS = scaled(30_000)
OPS_PER_THREAD = scaled(4_000, 1_000)
U64 = (1 << 64) - 1
THREAD_MIXES = ((1, 0), (2, 0), (4, 0), (1, 1), (2, 2), (4, 4), (0, 2), (0, 4))


def run_threads(n_lookup: int, n_insert: int):
    keys = keyset("uniform", N_KEYS)
    filt = BloomRF.tuned(n_keys=N_KEYS, bits_per_key=16, max_range=1 << 20)
    filt.insert_many(keys)
    results = {}
    barrier = threading.Barrier(n_lookup + n_insert + 1)

    def lookup_worker(idx: int):
        rng = np.random.default_rng(idx)
        probes = rng.integers(0, 1 << 64, OPS_PER_THREAD, dtype=np.uint64).tolist()
        barrier.wait()
        start = time.perf_counter()
        hits = 0
        for key in probes:
            hits += filt.contains_range(key, min(key + 1 << 10, U64))
        results[("lookup", idx)] = OPS_PER_THREAD / (time.perf_counter() - start)

    def insert_worker(idx: int):
        rng = np.random.default_rng(100 + idx)
        fresh = rng.integers(0, 1 << 64, OPS_PER_THREAD, dtype=np.uint64).tolist()
        barrier.wait()
        start = time.perf_counter()
        for key in fresh:
            filt.insert(key)
        results[("insert", idx)] = OPS_PER_THREAD / (time.perf_counter() - start)

    threads = [
        threading.Thread(target=lookup_worker, args=(i,)) for i in range(n_lookup)
    ] + [threading.Thread(target=insert_worker, args=(i,)) for i in range(n_insert)]
    for t in threads:
        t.start()
    barrier.wait()
    for t in threads:
        t.join()
    lookup_tp = [v for (kind, _), v in results.items() if kind == "lookup"]
    insert_tp = [v for (kind, _), v in results.items() if kind == "insert"]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return mean(lookup_tp), mean(insert_tp), filt, keys


@pytest.fixture(scope="module")
def thread_results():
    sink = []
    rows = []
    table = {}
    for n_lookup, n_insert in THREAD_MIXES:
        lookup_tp, insert_tp, filt, keys = run_threads(n_lookup, n_insert)
        table[(n_lookup, n_insert)] = (lookup_tp, insert_tp, filt, keys)
        rows.append([n_lookup, n_insert, lookup_tp, insert_tp])
    print_table(
        "Fig 12.B  Per-thread throughput (ops/s/thread) under concurrent "
        "lookups+inserts (GIL caps absolute scaling; see DESIGN.md)",
        ["lookup threads", "insert threads", "lookup ops/s/thr", "insert ops/s/thr"],
        rows,
        sink=sink,
    )
    write_result("fig12b_threads", "\n".join(sink))
    return table


class TestConcurrency:
    def test_soundness_after_concurrent_storm(self, thread_results):
        """No torn writes: every pre-inserted key still answers positive."""
        _, _, filt, keys = thread_results[(4, 4)]
        for key in keys[:2000]:
            assert filt.contains_point(int(key))

    def test_inserts_have_marginal_impact_on_lookups(self, thread_results):
        """Paper: insertions have marginal impact on per-thread lookups."""
        alone = thread_results[(2, 0)][0]
        mixed = thread_results[(2, 2)][0]
        assert mixed > alone * 0.25

    def test_insert_throughput_reported(self, thread_results):
        assert thread_results[(0, 4)][1] > 0


def test_fig12b_concurrent_benchmark(benchmark, thread_results):
    benchmark.pedantic(
        lambda: run_threads(2, 2), rounds=3, iterations=1, warmup_rounds=0
    )
