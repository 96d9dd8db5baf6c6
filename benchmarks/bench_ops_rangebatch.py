"""Batched range-query engine throughput: batched sweep vs scalar loop.

Measures ``BloomRF.contains_range_many`` (one vectorized top-down sweep
of Algorithm 1's probes for the whole batch) against the seed implementation's scalar loop
(``np.fromiter`` over per-query ``contains_range`` callback walks) on a
mixed-width workload: the paper's worst-case gap-adjacent empty queries
across range sizes 2 .. 2^22 plus a slice of non-empty queries around
inserted keys.  A full run's results (and the bit-identity check) land
in ``BENCH_rangebatch.json`` at the repo root so future PRs can track the
trajectory; a ``--quick`` run writes a file only when given ``--output``.

Usage::

    PYTHONPATH=src python benchmarks/bench_ops_rangebatch.py          # full
    PYTHONPATH=src python benchmarks/bench_ops_rangebatch.py --quick  # CI smoke

The full run uses a 10k-query workload and records the headline speedup.
``--quick`` shrinks the workload — a perf smoke cheap enough to run on
every change.  Both modes exit non-zero on any answer mismatch or when the
speedup falls below its floor in ``SPEEDUP_FLOORS``.

A second section gates request cost against the run count: a 1-row
``LsmDB.scan_nonempty_many`` over the same keys in 1 run and in 28 runs
(``served``'s shard shape: 2,560-key runs, bloomRF at 14 bits/key,
``max_range`` 2^20; widths log-uniform up to 2^20, half of the rows on a
key).  One range filter pass per request keeps the 28-run call within
``MAX_RUN_COST_RATIO`` of the 1-run one; both modes exit non-zero above
it, and when the two stores answer any row differently — its non-empty
check or its ``scan(lo, hi, 16)`` entries, so a version-reconciliation
mismatch fails the smoke too.

A third section gates what a write costs the next range read: the same
1-row scan on the 28-run store with a ~1,280-entry memtable, timed right
after a 16-key ``put_many`` of fresh keys and with no write before it
(``write_scan_cost_ratio``, the first over the second).  A write that
merges its keys into the memtable's range index keeps the ratio near 1;
one that makes the next read rebuild the index reads ~2x (rebuilding a
1,280-entry index costs about as much as the 28-run filter pass).  Both
modes exit non-zero above ``MAX_WRITE_SCAN_COST_RATIO``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.bloomrf import BloomRF
from repro.lsm import LsmDB, SpecPolicy
from repro.workloads.queries import empty_range_queries

U64 = (1 << 64) - 1
EMPTY_RANGE_SIZES = (2, 16, 256, 4096, 1 << 14, 1 << 18, 1 << 22)
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_rangebatch.json"
#: Exit-check floors on the batch-vs-scalar speedup: the committed full
#: run's 23.41x (``BENCH_rangebatch.json``) divided by 4.0 for ``--quick``
#: and by 2.5 for a full run, rounded up.
SPEEDUP_FLOORS = {"quick": 5.853, "full": 9.365}
#: Exit-check ceiling on the 1-row ``scan_nonempty_many`` time at 28 runs
#: over its time at 1 run, in both modes: full runs measured 2.13-2.20x
#: (``BENCH_rangebatch.json``; probing run by run measured 8.8-9.1x),
#: times 1.5 for the timing swings of a shared 2-vCPU VM, rounded up.
MAX_RUN_COST_RATIO = 3.5
#: Exit-check ceiling on ``write_scan_cost_ratio``, midway between the
#: two designs on a shared 2-vCPU VM (5 repeats each): merging each write
#: into the memtable's range index read 1.01-1.09x, rebuilding the index
#: on the first read after a write 1.83-2.14x.
MAX_WRITE_SCAN_COST_RATIO = 1.5
#: The memtable starts at half the target size and each of the rounds
#: adds one 16-key write, so over the rounds it holds ~1,280 entries.
WRITE_KEYS = 16
WRITE_ROUNDS = 80
MEMTABLE_ENTRIES = 1_280
RUN_COUNTS = (1, 28)
RUN_KEYS = 2_560
MAX_RANGE_LOG2 = 20


def build_workload(
    keys: np.ndarray, n_queries: int, positive_share: float, seed: int
) -> np.ndarray:
    """Mixed-width ``(n, 2)`` bounds: mostly-empty queries + positives.

    Empty queries follow the paper's worst case (gap-adjacent, one slice
    per range size); positives are ranges anchored on inserted keys.
    """
    n_pos = int(n_queries * positive_share)
    n_empty = n_queries - n_pos
    parts = []
    per_size = n_empty // len(EMPTY_RANGE_SIZES)
    for i, size in enumerate(EMPTY_RANGE_SIZES):
        count = per_size if i else n_empty - per_size * (len(EMPTY_RANGE_SIZES) - 1)
        parts.append(
            empty_range_queries(
                keys, count, range_size=size, seed=seed + i
            ).bounds
        )
    rng = np.random.default_rng(seed)
    anchors = keys[rng.integers(0, keys.size, n_pos)]
    width = np.uint64(1) << rng.integers(1, 20, n_pos, dtype=np.uint64)
    lo = anchors - np.minimum(anchors, width)
    hi = np.minimum(anchors + width, np.uint64(U64))
    parts.append(np.stack([lo, hi], axis=1))
    bounds = np.concatenate(parts)
    return bounds[rng.permutation(bounds.shape[0])]


def scalar_loop(filt: BloomRF, bounds: np.ndarray) -> np.ndarray:
    """The seed implementation of ``contains_range_many``, kept as the
    baseline: a Python loop over scalar callback walks."""
    return np.fromiter(
        (
            filt.contains_range(int(lo), int(hi))
            for lo, hi in zip(bounds[:, 0], bounds[:, 1], strict=True)
        ),
        dtype=bool,
        count=bounds.shape[0],
    )


def run_stores(rng: np.random.Generator) -> tuple[dict[int, LsmDB], list[np.ndarray]]:
    """A store per entry of :data:`RUN_COUNTS` over the same keys, and the
    1-row bounds to probe them with."""
    keys = np.unique(
        rng.integers(0, 1 << 62, max(RUN_COUNTS) * RUN_KEYS, dtype=np.uint64)
    )
    policy = SpecPolicy("bloomrf", bits_per_key=14, max_range=1 << MAX_RANGE_LOG2)
    stores = {}
    for runs in RUN_COUNTS:
        stores[runs] = LsmDB(policy=policy)
        stores[runs].bulk_load(rng.permutation(keys), num_sstables=runs)
    rows = []
    for i in range(64):
        width = 1 << int(rng.integers(0, MAX_RANGE_LOG2 + 1))
        lo = int(rng.choice(keys)) - int(rng.integers(0, width)) if i % 2 else int(rng.integers(0, 1 << 62))
        rows.append(np.array([[max(lo, 0), max(lo, 0) + width - 1]], dtype=np.uint64))
    return stores, rows


def run_count_cost(
    stores: dict[int, LsmDB], rows: list[np.ndarray], rounds: int
) -> dict:
    """Median 1-row ``scan_nonempty_many`` time at each of
    :data:`RUN_COUNTS` runs.

    Every store holds the same keys; calls alternate between the stores so
    a slow spell of the machine hits both alike.  Untimed, each store also
    answers ``scan(lo, hi, 16)`` for every row.
    """
    times: dict[int, list[float]] = {runs: [] for runs in RUN_COUNTS}
    answers: dict[int, list] = {
        runs: [db.scan(*row[0].tolist(), 16) for row in rows]
        for runs, db in stores.items()
    }
    for i in range(rounds):
        row = rows[i % len(rows)]
        for runs, db in stores.items():
            start = time.perf_counter()
            hit = db.scan_nonempty_many(row)
            times[runs].append(time.perf_counter() - start)
            answers[runs].append(bool(hit[0]))
    medians = {runs: float(np.median(t[len(rows):])) for runs, t in times.items()}
    low, high = min(RUN_COUNTS), max(RUN_COUNTS)
    return {
        "run_counts": list(RUN_COUNTS),
        "scan1_us": {str(r): medians[r] * 1e6 for r in RUN_COUNTS},
        "run_cost_ratio": medians[high] / medians[low],
        "run_answers_identical": answers[low] == answers[high],
    }


def write_scan_cost(
    db: LsmDB, rows: list[np.ndarray], rng: np.random.Generator
) -> dict:
    """Median 1-row ``scan_nonempty_many`` time right after a
    :data:`WRITE_KEYS`-key ``put_many`` over its median time with no write
    before it, on ``db`` with a memtable of ~:data:`MEMTABLE_ENTRIES`.

    Each round times the scan of one row, writes fresh keys, then times
    the scan of the same row again, so both timings see the same memtable
    size and machine spell.
    """
    fresh = np.unique(rng.integers(1 << 62, 1 << 63, 2 * MEMTABLE_ENTRIES, dtype=np.uint64))
    fresh = rng.permutation(fresh)
    start = MEMTABLE_ENTRIES // 2
    db.put_many(fresh[:start])
    db.scan_nonempty_many(rows[0])  # the first read after a fill builds the index
    quiet, written = [], []
    for i in range(WRITE_ROUNDS):
        row = rows[i % len(rows)]
        begin = time.perf_counter()
        db.scan_nonempty_many(row)
        quiet.append(time.perf_counter() - begin)
        db.put_many(fresh[start : start + WRITE_KEYS])
        start += WRITE_KEYS
        begin = time.perf_counter()
        db.scan_nonempty_many(row)
        written.append(time.perf_counter() - begin)
    return {
        "write_scan_memtable_entries": [MEMTABLE_ENTRIES // 2, len(db.memtable)],
        "write_scan_us": {
            "quiet": float(np.median(quiet)) * 1e6,
            "after_write": float(np.median(written)) * 1e6,
        },
        "write_scan_cost_ratio": float(np.median(written) / np.median(quiet)),
    }


def run(quick: bool) -> dict:
    n_keys = 20_000 if quick else 100_000
    n_queries = 2_000 if quick else 10_000
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(0, 1 << 64, n_keys, dtype=np.uint64))
    filt = BloomRF.tuned(n_keys=keys.size, bits_per_key=18, max_range=1 << 30)
    filt.insert_many(keys)
    bounds = build_workload(keys, n_queries, positive_share=0.2, seed=5)

    filt.contains_range_many(bounds[:64])  # warm both paths
    scalar_loop(filt, bounds[:64])
    start = time.perf_counter()
    scalar = scalar_loop(filt, bounds)
    scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    batch = filt.contains_range_many(bounds)
    batch_s = time.perf_counter() - start

    identical = bool(np.array_equal(scalar, batch))
    store_rng = np.random.default_rng(37)
    stores, rows = run_stores(store_rng)
    run_cost = run_count_cost(stores, rows, rounds=600 if quick else 3_000)
    write_cost = write_scan_cost(stores[max(RUN_COUNTS)], rows, store_rng)
    result = {
        "benchmark": "rangebatch",
        "mode": "quick" if quick else "full",
        "n_keys": int(keys.size),
        "n_queries": int(n_queries),
        "positive_fraction": float(np.mean(scalar)),
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "scalar_qps": n_queries / scalar_s,
        "batch_qps": n_queries / batch_s,
        "speedup": scalar_s / batch_s,
        "bit_identical": identical,
        **run_cost,
        **write_cost,
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller workload, lower speedup floor",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"result JSON path (default: {RESULT_PATH} for a full run; "
        "a --quick run writes no file unless given one)",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None and not args.quick:
        output = RESULT_PATH

    result = run(quick=args.quick)
    if output is not None:
        output.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"[rangebatch {result['mode']}] {result['n_queries']} queries "
        f"({result['positive_fraction']:.0%} positive): "
        f"scalar {result['scalar_qps']:,.0f} q/s | "
        f"batch {result['batch_qps']:,.0f} q/s | "
        f"speedup {result['speedup']:.1f}x | "
        f"1-row scan_nonempty_many at {RUN_COUNTS[-1]} runs "
        f"{result['run_cost_ratio']:.2f}x its time at {RUN_COUNTS[0]}, "
        f"{result['write_scan_cost_ratio']:.2f}x right after a "
        f"{WRITE_KEYS}-key put_many -> {output or 'no file written'}"
    )

    if not result["bit_identical"]:
        print("FAIL: batch results differ from scalar contains_range")
        return 1
    if not result["run_answers_identical"]:
        print("FAIL: the 1-run and 28-run stores answer differently")
        return 1
    floor = SPEEDUP_FLOORS[result["mode"]]
    if result["speedup"] < floor:
        print(f"FAIL: speedup {result['speedup']:.2f}x below the {floor}x floor")
        return 1
    if result["run_cost_ratio"] > MAX_RUN_COST_RATIO:
        print(
            f"FAIL: run_cost_ratio {result['run_cost_ratio']:.2f}x above "
            f"the {MAX_RUN_COST_RATIO}x ceiling"
        )
        return 1
    if result["write_scan_cost_ratio"] > MAX_WRITE_SCAN_COST_RATIO:
        print(
            f"FAIL: write_scan_cost_ratio {result['write_scan_cost_ratio']:.2f}x "
            f"above the {MAX_WRITE_SCAN_COST_RATIO}x ceiling"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
