"""Persistent store throughput: ingest, reopen, and query the on-disk engines.

The persistence layer of :mod:`repro.lsm.store` behind the PR-5 tentpole:
``open_store(path=...)`` writes runs as :mod:`repro.serial` frames and
reopens them with *deserialized* filter blocks — the RocksDB-style claim
(paper Sect. 9) that filter blocks are built once at flush time and then
only ever loaded.  This benchmark measures the three phases that matter
for that deployment shape and guards their correctness:

* **ingest** — bulk ``put_many`` into a fresh on-disk store (runs + filter
  blocks + manifest written at every memtable flush);
* **reopen** — cold-open the directory: manifest parse, every SST frame
  mapped and CRC-checked, keys decoded into owned arrays, and filter
  blocks CRC-checked and deserialized (never a rebuild);
* **query** — the mixed read batch against the reopened store, asserted
  bit-identical (answers *and* IOStats counters) to an in-memory engine
  fed the same operations.

Two further sections measure the read tier:

* **reopen curve** — values-bearing stores of growing size (run count held
  at ~30), cold-opened through the one reopen path.  Reopen reads every
  byte once for the payload CRC, but value blobs stay mapped rather than
  copied, so the curve shows the cost of that check as stores grow.
* **codec sweep** — the same workload stored under each available codec
  (``none``/``zlib``, plus ``zstd`` when the extra is installed):
  disk bytes and shrink vs uncompressed, ingest rate, membership QPS, and
  cold-vs-warm value reads (the warm pass re-reads the same values through
  the decompressed-block cache).

Both the unsharded and the 4-shard engines run; results land in
``BENCH_store.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_ops_store.py          # full
    PYTHONPATH=src python benchmarks/bench_ops_store.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import FilterSpec, open_store
from repro.lsm import LsmDB, ShardedLsmDB, SpecPolicy
from repro.lsm.blocks import available_codecs

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_store.json"

SPEC = FilterSpec("bloomrf", {"bits_per_key": 16, "max_range": 1 << 20})


def make_values(keys: np.ndarray) -> list[bytes]:
    """Compressible ~500-byte payloads: a unique prefix + repetitive tail.

    Real stored values (JSON, log lines, protobufs) are redundant; random
    key bytes alone are not, and would make every codec look useless.
    """
    tail = b"abcdefghijklmnop" * 30
    return [b"value-%016x|" % int(key) + tail for key in keys]


def disk_usage(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def build_queries(keys: np.ndarray, n_ops: int, seed: int):
    """80% point lookups (quarter present), 20% narrow range scans."""
    rng = np.random.default_rng(seed)
    n_points = int(n_ops * 0.8)
    n_scans = n_ops - n_points
    present = keys[rng.integers(0, keys.size, n_points // 4)]
    absent = rng.integers(
        0, 1 << 64, n_points - present.size, dtype=np.uint64
    )
    points = np.concatenate([present, absent])
    points = points[rng.permutation(points.size)]
    lo = rng.integers(0, 1 << 63, n_scans, dtype=np.uint64)
    width = np.uint64(1) << rng.integers(4, 20, n_scans, dtype=np.uint64)
    bounds = np.stack(
        [lo, np.minimum(lo + width, np.uint64((1 << 64) - 1))], axis=1
    )
    return points, bounds


def drive_queries(db, points, bounds):
    db.reset_stats()
    start = time.perf_counter()
    got = db.get_many(points)
    scanned = db.scan_nonempty_many(bounds)
    elapsed = time.perf_counter() - start
    return got, scanned, db.stats.counters(), elapsed


def bench_engine(
    root: Path, shards: int, keys, points, bounds, capacity: int
) -> dict:
    """One engine (unsharded or sharded): ingest -> reopen -> query."""
    path = root / f"store-{shards}"
    store = open_store(
        path=path, filter=SPEC, shards=shards, memtable_capacity=capacity
    )
    start = time.perf_counter()
    store.put_many(keys)
    store.flush()
    ingest_s = time.perf_counter() - start
    disk_bytes = disk_usage(path)
    store.close()

    start = time.perf_counter()
    reopened = open_store(path=path)
    reopen_s = time.perf_counter() - start

    # The in-memory twin, driven identically (flush included so the run
    # layouts — and therefore the probe accounting — match exactly).
    if shards == 1:
        memory = LsmDB(policy=SpecPolicy(SPEC), memtable_capacity=capacity)
    else:
        memory = ShardedLsmDB(
            policy=SpecPolicy(SPEC),
            num_shards=shards,
            memtable_capacity=capacity,
        )
    memory.put_many(keys)
    memory.flush()

    reopened.get_many(points[:64])  # warm pools and caches
    got, scanned, counters, query_s = drive_queries(reopened, points, bounds)
    mem_got, mem_scanned, mem_counters, _ = drive_queries(
        memory, points, bounds
    )
    exact = bool(
        np.array_equal(got, mem_got) and np.array_equal(scanned, mem_scanned)
    )
    n_ops = points.size + bounds.shape[0]
    row = {
        "shards": shards,
        "ingest_seconds": ingest_s,
        "ingest_keys_per_second": keys.size / ingest_s,
        "reopen_seconds": reopen_s,
        "query_seconds": query_s,
        "query_qps": n_ops / query_s,
        "disk_bytes": int(disk_bytes),
        "num_runs": (
            len(reopened.sstables)
            if getattr(reopened, "num_sstables", None) is None
            else reopened.num_sstables
        ),
        "reopen_bit_identical": exact,
        "reopen_counters_identical": counters == mem_counters,
    }
    reopened.close()
    memory.close()
    return row


def _timed_reopen(path: Path, repeat: int = 3) -> float:
    """Best-of-``repeat`` cold-open time (open + close between attempts)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        db = open_store(path=path)
        best = min(best, time.perf_counter() - start)
        db.close()
    return best


def bench_reopen_curve(root: Path, quick: bool) -> dict:
    """Reopen time vs store size, run count held at ~30.

    The stores are uncompressed and values-bearing: reopen reads every
    payload once for its CRC and decodes keys into owned arrays, while
    the value blobs stay mapped.
    """
    sizes = [7_500, 15_000] if quick else [7_500, 15_000, 30_000, 60_000]
    rng = np.random.default_rng(61)
    rows = []
    for n_keys in sizes:
        keys = rng.integers(0, 1 << 64, n_keys, dtype=np.uint64)
        path = root / f"curve-{n_keys}"
        capacity = max(128, n_keys // 30)
        store = open_store(
            path=path,
            filter=SPEC,
            memtable_capacity=capacity,
            store_values=True,
        )
        store.put_many(keys, make_values(keys))
        store.flush()
        num_runs = (
            len(store.sstables)
            if getattr(store, "num_sstables", None) is None
            else store.num_sstables
        )
        store.close()
        rows.append(
            {
                "n_keys": int(n_keys),
                "num_runs": int(num_runs),
                "disk_bytes": disk_usage(path),
                "reopen_seconds": _timed_reopen(path),
            }
        )
    return {"points": rows}


def bench_codec_sweep(root: Path, quick: bool) -> dict:
    """One values-bearing workload per codec, queried after a reopen.

    ``disk_shrink`` is relative to the uncompressed store; the cold value
    pass decompresses blocks on demand, the warm pass re-reads the same
    values through the decompressed-block cache.
    """
    n_keys = 12_000 if quick else 60_000
    n_ops = 2_000 if quick else 10_000
    capacity = 1 << 9 if quick else 1 << 11
    rng = np.random.default_rng(67)
    keys = rng.integers(0, 1 << 64, n_keys, dtype=np.uint64)
    values = make_values(keys)
    points, bounds = build_queries(keys, n_ops, seed=71)
    sample = keys[:: max(1, keys.size // 2_000)]

    codecs = ["none", "zlib"]
    if "zstd" in available_codecs():
        codecs.append("zstd")

    rows = []
    baseline = None  # (disk_bytes, got, scanned, counters, values) for "none"
    for codec in codecs:
        path = root / f"codec-{codec}"
        store = open_store(
            path=path,
            filter=SPEC,
            memtable_capacity=capacity,
            store_values=True,
            compression=None if codec == "none" else codec,
        )
        start = time.perf_counter()
        store.put_many(keys, values)
        store.flush()
        ingest_s = time.perf_counter() - start
        store.close()
        disk_bytes = disk_usage(path)

        db = open_store(path=path)
        try:
            got, scanned, counters, query_s = drive_queries(db, points, bounds)
            start = time.perf_counter()
            read_values = [db.get_value(int(key)) for key in sample]
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            for key in sample:
                db.get_value(int(key))
            warm_s = time.perf_counter() - start
            cache_hits = db.stats.block_cache_hits
            cache_misses = db.stats.block_cache_misses
        finally:
            db.close()

        if baseline is None:
            baseline = (disk_bytes, got, scanned, counters, read_values)
        matches = bool(
            np.array_equal(got, baseline[1])
            and np.array_equal(scanned, baseline[2])
            and counters == baseline[3]
            and read_values == baseline[4]
        )
        rows.append(
            {
                "codec": codec,
                "disk_bytes": int(disk_bytes),
                "disk_shrink": 1.0 - disk_bytes / baseline[0],
                "ingest_seconds": ingest_s,
                "ingest_keys_per_second": keys.size / ingest_s,
                "query_qps": (points.size + bounds.shape[0]) / query_s,
                "cold_value_read_seconds": cold_s,
                "warm_value_read_seconds": warm_s,
                "warm_speedup": cold_s / warm_s,
                "block_cache_hits": int(cache_hits),
                "block_cache_misses": int(cache_misses),
                "answers_match_none": matches,
            }
        )

    zlib_shrink = next(
        row["disk_shrink"] for row in rows if row["codec"] == "zlib"
    )
    return {
        "codecs": rows,
        "zlib_disk_shrink": zlib_shrink,
        "zlib_shrink_ok": bool(zlib_shrink >= 0.30),
        "answers_match_none": all(row["answers_match_none"] for row in rows),
    }


def run(quick: bool) -> dict:
    n_keys = 12_000 if quick else 60_000
    n_ops = 2_000 if quick else 10_000
    capacity = 1 << 9 if quick else 1 << 11
    rng = np.random.default_rng(53)
    keys = rng.integers(0, 1 << 64, n_keys, dtype=np.uint64)
    points, bounds = build_queries(keys, n_ops, seed=59)

    root = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        rows = [
            bench_engine(root, shards, keys, points, bounds, capacity)
            for shards in (1, 4)
        ]
        curve = bench_reopen_curve(root, quick)
        sweep = bench_codec_sweep(root, quick)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "benchmark": "store",
        "mode": "quick" if quick else "full",
        "n_keys": int(n_keys),
        "n_ops": int(n_ops),
        "memtable_capacity": capacity,
        "spec": SPEC.to_dict(),
        "engines": rows,
        "reopen_curve": curve,
        "codec_sweep": sweep,
        "reopen_bit_identical": all(r["reopen_bit_identical"] for r in rows),
        "reopen_counters_identical": all(
            r["reopen_counters_identical"] for r in rows
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller workload",
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
    for row in result["engines"]:
        print(
            f"[store {result['mode']}] {row['shards']}sh: ingest "
            f"{row['ingest_keys_per_second']:,.0f} keys/s | reopen "
            f"{row['reopen_seconds'] * 1e3:.1f} ms | query "
            f"{row['query_qps']:,.0f} ops/s | "
            f"{row['disk_bytes'] / 1024:.0f} KiB on disk"
        )
    curve = result["reopen_curve"]
    top = curve["points"][-1]
    print(
        f"[store {result['mode']}] reopen curve @{top['n_keys']} keys / "
        f"{top['num_runs']} runs / {top['disk_bytes'] / 1e6:.1f} MB: "
        f"{top['reopen_seconds'] * 1e3:.1f} ms"
    )
    for row in result["codec_sweep"]["codecs"]:
        print(
            f"[store {result['mode']}] codec {row['codec']}: "
            f"{row['disk_bytes'] / 1024:.0f} KiB "
            f"(shrink {row['disk_shrink'] * 100:.0f}%) | ingest "
            f"{row['ingest_keys_per_second']:,.0f} keys/s | query "
            f"{row['query_qps']:,.0f} ops/s | values cold "
            f"{row['cold_value_read_seconds'] * 1e3:.1f} ms / warm "
            f"{row['warm_value_read_seconds'] * 1e3:.1f} ms"
        )
    print(f"-> {args.output}")

    if not result["reopen_bit_identical"]:
        print("FAIL: reopened answers differ from the in-memory store")
        return 1
    if not result["reopen_counters_identical"]:
        print("FAIL: reopened IOStats counters differ from the in-memory store")
        return 1
    if not result["codec_sweep"]["answers_match_none"]:
        print("FAIL: a compressed store answered differently than uncompressed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
