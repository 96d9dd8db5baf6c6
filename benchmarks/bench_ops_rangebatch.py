"""Batched range-query engine throughput: compiled plans vs scalar loop.

Measures ``BloomRF.contains_range_many`` (plan compilation + vectorized
probe execution) against the seed implementation's scalar loop
(``np.fromiter`` over per-query ``contains_range`` callback walks) on a
mixed-width workload: the paper's worst-case gap-adjacent empty queries
across range sizes 2 .. 2^22 plus a slice of non-empty queries around
inserted keys.  Results (and the bit-identity check) land in
``BENCH_rangebatch.json`` at the repo root so future PRs can track the
trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_ops_rangebatch.py          # full
    PYTHONPATH=src python benchmarks/bench_ops_rangebatch.py --quick  # CI smoke

The full run uses a 10k-query workload and records the headline speedup.
``--quick`` shrinks the workload — a perf smoke cheap enough to run on
every change.  Both modes exit non-zero on any answer mismatch or when the
speedup falls below its floor in ``SPEEDUP_FLOORS``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.bloomrf import BloomRF
from repro.workloads.queries import empty_range_queries

U64 = (1 << 64) - 1
EMPTY_RANGE_SIZES = (2, 16, 256, 4096, 1 << 14, 1 << 18, 1 << 22)
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_rangebatch.json"
#: Exit-check floors on the batch-vs-scalar speedup: the committed full
#: run's 23.41x (``BENCH_rangebatch.json``) divided by 4.0 for ``--quick``
#: and by 2.5 for a full run, rounded up.
SPEEDUP_FLOORS = {"quick": 5.853, "full": 9.365}


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
        default=RESULT_PATH,
        help=f"result JSON path (default: {RESULT_PATH})",
    )
    args = parser.parse_args(argv)

    result = run(quick=args.quick)
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"[rangebatch {result['mode']}] {result['n_queries']} queries "
        f"({result['positive_fraction']:.0%} positive): "
        f"scalar {result['scalar_qps']:,.0f} q/s | "
        f"batch {result['batch_qps']:,.0f} q/s | "
        f"speedup {result['speedup']:.1f}x -> {args.output}"
    )

    if not result["bit_identical"]:
        print("FAIL: batch results differ from scalar contains_range")
        return 1
    floor = SPEEDUP_FLOORS[result["mode"]]
    if result["speedup"] < floor:
        print(f"FAIL: speedup {result['speedup']:.2f}x below the {floor}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
