"""Batched point-lookup engine throughput: ``LsmDB.get_many`` vs scalar loop.

The point counterpart of ``bench_ops_rangebatch.py``: a bulk-loaded LSM
(bloomRF filter blocks, overlapping L0 runs) is probed with a mixed workload
of present and absent keys, once through a loop of one-key reads
(``db.get`` per key, each a one-key batch) and once through the batched
path (``db.get_many``, one filter pass over every run for the whole
batch).  A full run's results — and the bit-identity +
accounting-identity checks — land in ``BENCH_pointbatch.json`` at the repo
root so future PRs can track the trajectory; a ``--quick`` run writes a
file only when given ``--output``.

A second section measures the standalone filter: ``BloomRF.contains_point_many``
against the scalar ``contains_point`` loop.

A third section gates request cost against the run count: a 16-key
``get_many`` (12 absent keys) over the same keys in 1 run and in 28 runs
(``served``'s shard shape: 2,560-key runs, bloomRF at 14 bits/key,
``max_range`` 2^20).  One filter pass per request keeps the ratio near 2x;
probing run by run made it ~20x.  The script exits non-zero above
``MAX_RUN_COST_RATIO``.

Usage::

    PYTHONPATH=src python benchmarks/bench_ops_pointbatch.py          # full
    PYTHONPATH=src python benchmarks/bench_ops_pointbatch.py --quick  # CI smoke

The full run uses a 10k-lookup workload and records the headline speedup
(target: >= 10x).  ``--quick`` shrinks the workload.  Both modes exit
non-zero on any answer or accounting mismatch, or when a speedup falls
below its floor in ``SPEEDUP_FLOORS``.
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

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_pointbatch.json"
#: Exit-check floors on the batch-vs-scalar speedups: the committed full
#: run's 14.94x and 25.78x (``BENCH_pointbatch.json``) divided by 4.0 for
#: ``--quick`` and by 2.5 for a full run, rounded up; the full engine
#: floor is the 10x target, which is higher.
SPEEDUP_FLOORS = {
    "quick": {"speedup": 3.735, "filter_speedup": 6.445},
    "full": {"speedup": 10.0, "filter_speedup": 10.311},
}
#: Exit-check ceiling on the 16-key ``get_many`` time at 28 runs over its
#: time at 1 run, in both modes: the target is ~2x, and 4x leaves room for
#: the ~1.5x timing swings of a shared 2-vCPU VM.
MAX_RUN_COST_RATIO = 4.0
RUN_COUNTS = (1, 28)
RUN_KEYS = 2_560


def build_workload(
    keys: np.ndarray, n_lookups: int, present_share: float, seed: int
) -> np.ndarray:
    """Shuffled lookup keys: ``present_share`` hits, the rest absent.

    Absent keys are uniform draws re-rejected against the key set — with
    64-bit keys a collision is effectively impossible, but we reject anyway
    so the present share is exact.
    """
    rng = np.random.default_rng(seed)
    n_present = int(n_lookups * present_share)
    present = keys[rng.integers(0, keys.size, n_present)]
    absent = rng.integers(0, 1 << 64, n_lookups - n_present, dtype=np.uint64)
    absent = absent[~np.isin(absent, keys)]
    while absent.size < n_lookups - n_present:
        extra = rng.integers(
            0, 1 << 64, n_lookups - n_present - absent.size, dtype=np.uint64
        )
        absent = np.concatenate([absent, extra[~np.isin(extra, keys)]])
    lookups = np.concatenate([present, absent])
    return lookups[rng.permutation(lookups.size)]


def scalar_loop(db: LsmDB, lookups: np.ndarray) -> np.ndarray:
    """One ``get`` per key: each is a one-key batch, so every call pays
    the filter pass, the per-run truth and the accounting for one key."""
    return np.fromiter(
        (db.get(int(key)) for key in lookups), dtype=bool, count=lookups.size
    )


def run_count_cost(rounds: int) -> dict:
    """Median 16-key ``get_many`` time at each of :data:`RUN_COUNTS` runs.

    Every store holds the same keys; calls alternate between the stores so
    a slow spell of the machine hits both alike.
    """
    rng = np.random.default_rng(31)
    keys = np.unique(
        rng.integers(0, 1 << 64, max(RUN_COUNTS) * RUN_KEYS, dtype=np.uint64)
    )
    policy = SpecPolicy("bloomrf", bits_per_key=14, max_range=1 << 20)
    stores = {}
    for runs in RUN_COUNTS:
        stores[runs] = LsmDB(policy=policy)
        stores[runs].bulk_load(rng.permutation(keys), num_sstables=runs)
    batches = []
    for _ in range(64):
        batch = rng.integers(0, 1 << 64, 16, dtype=np.uint64)
        batch[:4] = rng.choice(keys, 4)
        batches.append(batch)
    times: dict[int, list[float]] = {runs: [] for runs in RUN_COUNTS}
    for i in range(rounds):
        batch = batches[i % len(batches)]
        for runs, db in stores.items():
            start = time.perf_counter()
            db.get_many(batch)
            times[runs].append(time.perf_counter() - start)
    medians = {runs: float(np.median(t[len(batches):])) for runs, t in times.items()}
    low, high = min(RUN_COUNTS), max(RUN_COUNTS)
    return {
        "run_counts": list(RUN_COUNTS),
        "get_many16_us": {str(r): medians[r] * 1e6 for r in RUN_COUNTS},
        "run_cost_ratio": medians[high] / medians[low],
    }


def run(quick: bool) -> dict:
    n_keys = 20_000 if quick else 100_000
    n_lookups = 2_000 if quick else 10_000
    num_sstables = 8
    rng = np.random.default_rng(23)
    keys = np.unique(rng.integers(0, 1 << 64, n_keys, dtype=np.uint64))
    db = LsmDB(policy=SpecPolicy("bloomrf", bits_per_key=18, max_range=1 << 20))
    db.bulk_load(rng.permutation(keys), num_sstables=num_sstables)
    lookups = build_workload(keys, n_lookups, present_share=0.2, seed=29)

    db.get_many(lookups[:64])  # warm both paths
    scalar_loop(db, lookups[:64])
    db.reset_stats()
    start = time.perf_counter()
    scalar = scalar_loop(db, lookups)
    scalar_s = time.perf_counter() - start
    scalar_stats = db.reset_stats()
    start = time.perf_counter()
    batch = db.get_many(lookups)
    batch_s = time.perf_counter() - start
    batch_stats = db.reset_stats()

    identical = bool(np.array_equal(scalar, batch))
    accounting_identical = bool(
        scalar_stats.filter_probes == batch_stats.filter_probes
        and scalar_stats.filter_false_positives
        == batch_stats.filter_false_positives
        and scalar_stats.blocks_read == batch_stats.blocks_read
    )

    # Standalone filter section: batched vs scalar probes of one filter.
    filt = BloomRF.tuned(n_keys=keys.size, bits_per_key=18, max_range=1 << 20)
    filt.insert_many(keys)
    start = time.perf_counter()
    filter_scalar = np.fromiter(
        (filt.contains_point(int(key)) for key in lookups),
        dtype=bool,
        count=lookups.size,
    )
    filter_scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    filter_batch = filt.contains_point_many(lookups)
    filter_batch_s = time.perf_counter() - start
    filter_identical = bool(np.array_equal(filter_scalar, filter_batch))
    run_cost = run_count_cost(rounds=600 if quick else 3_000)

    return {
        "benchmark": "pointbatch",
        "mode": "quick" if quick else "full",
        "n_keys": int(keys.size),
        "n_lookups": int(n_lookups),
        "num_sstables": num_sstables,
        "present_fraction": float(np.mean(scalar)),
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "scalar_qps": n_lookups / scalar_s,
        "batch_qps": n_lookups / batch_s,
        "speedup": scalar_s / batch_s,
        "bit_identical": identical,
        "accounting_identical": accounting_identical,
        "filter_scalar_qps": n_lookups / filter_scalar_s,
        "filter_batch_qps": n_lookups / filter_batch_s,
        "filter_speedup": filter_scalar_s / filter_batch_s,
        "filter_identical": filter_identical,
        **run_cost,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller workload, lower speedup floors",
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
        f"[pointbatch {result['mode']}] {result['n_lookups']} lookups "
        f"({result['present_fraction']:.0%} present) over "
        f"{result['num_sstables']} runs: "
        f"scalar {result['scalar_qps']:,.0f} q/s | "
        f"batch {result['batch_qps']:,.0f} q/s | "
        f"speedup {result['speedup']:.1f}x | "
        f"filter-only {result['filter_speedup']:.1f}x | "
        f"16-key get_many at {RUN_COUNTS[-1]} runs "
        f"{result['run_cost_ratio']:.2f}x its time at {RUN_COUNTS[0]} -> "
        f"{output or 'no file written'}"
    )

    if not result["bit_identical"]:
        print("FAIL: batch results differ from scalar get loop")
        return 1
    if not result["accounting_identical"]:
        print("FAIL: batch probe/IO accounting differs from the scalar loop")
        return 1
    if not result["filter_identical"]:
        print("FAIL: batched filter probes differ from the scalar loop")
        return 1
    for name, floor in SPEEDUP_FLOORS[result["mode"]].items():
        if result[name] < floor:
            print(f"FAIL: {name} {result[name]:.2f}x below the {floor}x floor")
            return 1
    if result["run_cost_ratio"] > MAX_RUN_COST_RATIO:
        print(
            f"FAIL: run_cost_ratio {result['run_cost_ratio']:.2f}x above "
            f"the {MAX_RUN_COST_RATIO}x ceiling"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
