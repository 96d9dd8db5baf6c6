"""``ingest``: write-heavy batches with reads beside them, over several
compaction cycles.

A persistent single-shard store with ``wal_sync="batch"`` (fixed group
commit), size-tiered background compaction and 64-byte stored values.
Set-up preloads a base data set through the same write path.  One caller
then issues ``put_many`` batches, ``delete_many`` batches and small
``get_many`` batches that favour recently written keys.  Afterwards the
store drains its compaction, and the point and range false positive
rates are measured on keys and ranges that were never written (the range
probes are timed: they give ``range_ops_per_s`` after compaction).

``lsm.memtable``, ``lsm.wal``, the flush in ``lsm.store`` and
``lsm.compaction`` do most of the work; the filter mostly builds.

Every write call returns only after the compaction it triggered has
drained (``drain_compaction()``), so the run layout, and with it every
count, FPR, bits/key and amplification, depends only on the seed.  A
merge's time therefore lands in the latency of the write that triggered
it, where ``p99_ms`` shows it.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from common import (
    Checker,
    Gauge,
    cpus,
    dir_bytes,
    latency_summary,
    local_factors,
    on_cpu,
    peak_rss_mb,
    wchar,
)

BASE_KEYS = 131_072
VALUE_BYTES = 64
MEMTABLE = 16_384
GROUP_COMMIT = 4_096
PUT_BATCH = 1_024
DELETE_BATCH = 256
GET_BATCH = 64
RECENT_WINDOW = 32_768
#: Call mix: put / delete / get shares of the timed calls.  Deletes are
#: about a tenth of the calls; the rest is split evenly between writes and
#: reads, as in YCSB's update-heavy workload A (50 % reads, 50 % updates).
MIX = (0.45, 0.10, 0.45)
#: Timed calls per ``--seconds``.
CALLS_PER_S = 150
#: Set-ups per run, each followed by one replay of the same calls.
REPEATS = 5
#: Gauge samples around each set-up, one between every this many calls,
#: and how far from a call the samples that scale it may be.
GAUGE_SAMPLES = 10
GAUGE_EVERY = 10
GAUGE_WINDOW = 0.5
FPR_PROBES = 20_000
FPR_RANGES = 10_240
RANGE_CALLS = 80
FPR_RANGE_LOG2 = 16
FINAL_CHECK = 20_000
BITS_PER_KEY = 14.0


@dataclass
class Inputs:
    base_keys: np.ndarray
    base_values: list
    calls: list  # ("put", keys, values) | ("delete", keys) | ("get", keys, expected)
    written: np.ndarray  # every key ever written (sorted)
    live: np.ndarray  # final live keys (sorted)
    absent: np.ndarray  # never-written probe keys
    empty_ranges: np.ndarray


def _values(rng: np.random.Generator, n: int) -> list:
    blob = rng.integers(0, 256, n * VALUE_BYTES, dtype=np.uint8).tobytes()
    return [blob[i * VALUE_BYTES : (i + 1) * VALUE_BYTES] for i in range(n)]


def make_inputs(seed: int, scale: float, seconds: float) -> Inputs:
    """The whole operation sequence, with the expected answer of every read."""
    from repro.workloads.queries import empty_point_queries, empty_range_queries

    rng = np.random.default_rng([seed, 2])
    n_calls = max(int(round(CALLS_PER_S * seconds)), 10)
    base = max(int(BASE_KEYS * scale), 2 * PUT_BATCH)
    sizes = np.floor(np.array(MIX) * n_calls).astype(int)
    sizes[0] += n_calls - int(sizes.sum())
    kinds = rng.permutation(np.repeat(np.arange(3), sizes))
    n_put = int(np.count_nonzero(kinds == 0))
    total = base + n_put * PUT_BATCH
    keys = np.unique(rng.integers(0, 1 << 64, int(total * 1.01) + 64, dtype=np.uint64))
    keys = rng.permutation(keys)[:total]
    live = np.zeros(total, dtype=bool)
    live[:base] = True
    cursor = base
    calls = []
    for kind in kinds.tolist():
        if kind == 0:
            idx = np.arange(cursor, cursor + PUT_BATCH)
            cursor += PUT_BATCH
            live[idx] = True
            calls.append(("put", keys[idx], _values(rng, PUT_BATCH)))
        elif kind == 1:
            window = np.arange(max(0, cursor - RECENT_WINDOW), cursor)
            idx = rng.choice(window, DELETE_BATCH, replace=False)
            live[idx] = False
            calls.append(("delete", keys[idx]))
        else:
            back = np.minimum(
                rng.geometric(4.0 / RECENT_WINDOW, GET_BATCH), cursor
            ).astype(np.int64)
            idx = cursor - back
            calls.append(("get", keys[idx], live[idx].copy()))
    written = np.sort(keys[:cursor])
    probes = empty_point_queries(written, FPR_PROBES, seed=int(rng.integers(1 << 31)))
    ranges = empty_range_queries(
        written, FPR_RANGES, 1 << FPR_RANGE_LOG2, seed=int(rng.integers(1 << 31))
    ).bounds
    return Inputs(
        base_keys=keys[:base],
        base_values=_values(rng, base),
        calls=calls,
        written=written,
        live=np.sort(keys[:cursor][live[:cursor]]),
        absent=probes,
        empty_ranges=ranges,
    )


def open_fresh(path):
    from repro.api import open_store, standard_spec

    return open_store(
        path,
        filter=standard_spec("bloomrf", bits_per_key=BITS_PER_KEY, max_range=1 << 20),
        memtable_capacity=MEMTABLE,
        value_bytes=VALUE_BYTES,
        store_values=True,
        wal_sync="batch",
        wal_group_commit=GROUP_COMMIT,
        compaction="size-tiered",
    )


def preload(path, inputs: Inputs):
    """Set-up: write the base data set through the write path, reopen."""
    from repro.api import open_store

    start = time.perf_counter()
    with open_fresh(path) as db:
        for i in range(0, inputs.base_keys.size, PUT_BATCH):
            db.put_many(
                inputs.base_keys[i : i + PUT_BATCH],
                inputs.base_values[i : i + PUT_BATCH],
            )
            db.drain_compaction()
    db = open_store(path)
    return time.perf_counter() - start, db


def replay(
    db, inputs: Inputs, lat: np.ndarray, range_lat: np.ndarray, checker, gauge: Gauge
) -> dict:
    """The timed call sequence, then the untimed after-compaction probes.

    Writes each call's latency into ``lat`` (and each post-compaction
    range call's into ``range_lat``), scaled by the gauge around it.
    """
    answers = []
    mid = np.empty(lat.size)
    range_mid = np.empty(range_lat.size)
    db.reset_stats()
    written = wchar()
    for i, call in enumerate(inputs.calls):
        if i % GAUGE_EVERY == 0:
            gauge.sample()
        kind = call[0]
        start = time.perf_counter()
        if kind == "put":
            db.put_many(call[1], call[2])
            db.drain_compaction()
        elif kind == "delete":
            db.delete_many(call[1])
            db.drain_compaction()
        else:
            answers.append(db.get_many(call[1]))
        end = time.perf_counter()
        lat[i], mid[i] = end - start, (start + end) / 2
    db.flush()
    db.drain_compaction()
    written = wchar() - written
    gets = [c for c in inputs.calls if c[0] == "get"]
    for call, got in zip(gets, answers, strict=True):
        checker.check(got, call[2])
    reads = db.stats.counters()
    # After compaction, on keys and ranges never written: the FPRs, and
    # the post-compaction range-probe throughput.
    db.reset_stats()
    checker.check(db.get_many(inputs.absent), np.zeros(inputs.absent.size, bool))
    point = db.reset_stats()
    for i, rows in enumerate(np.array_split(inputs.empty_ranges, RANGE_CALLS)):
        if i % GAUGE_EVERY == 0:
            gauge.sample()
        start = time.perf_counter()
        got = db.scan_nonempty_many(rows)
        end = time.perf_counter()
        range_lat[i], range_mid[i] = end - start, (start + end) / 2
        checker.check(got, np.zeros(rows.shape[0], bool))
    ranges = db.reset_stats()
    sample = np.random.default_rng(0).choice(
        inputs.written, min(FINAL_CHECK, inputs.written.size), replace=False
    )
    idx = np.searchsorted(inputs.live, sample)
    safe = np.minimum(idx, inputs.live.size - 1)
    checker.check(db.get_many(sample), (idx < inputs.live.size) & (inputs.live[safe] == sample))
    info = db.compaction_info()["scheduler"]
    samples = gauge.array()
    lat *= local_factors(samples, mid, GAUGE_WINDOW)
    range_lat *= local_factors(samples, range_mid, GAUGE_WINDOW)
    return {
        "written": written,
        "counters": reads,
        "point_fpr": point.fpr,
        "range_fpr": ranges.fpr,
        "bits_per_key": db.filter_bits_per_key(),
        "runs": len(db.sstables),
        "merges": info["merges"] if info else 0,
    }


def measure(ctx, inputs: Inputs, repeats: int) -> dict:
    """``repeats`` times: preload a store, replay the calls, probe.

    Timings are scaled by the gauge sampled around the set-up and between
    the calls of the replay, on the one vCPU the run is held to.  Each
    call's latency is its median over the replays: the run layout is the
    same in every replay, so a cost of the program shows in every replay
    while a burst of the machine's drifting speed does not (see README).
    """
    checker = Checker(ctx.flip)
    gauge = Gauge()
    lat = np.empty((repeats, len(inputs.calls)))
    range_lat = np.empty((repeats, RANGE_CALLS))
    setup_times, raw_setup = [], []
    for r in range(repeats):
        path = ctx.fresh_dir("ingest")
        before = gauge.mark()
        gauge.sample(GAUGE_SAMPLES)
        seconds, db = preload(path, inputs)
        gauge.sample(GAUGE_SAMPLES)
        raw_setup.append(seconds)
        setup_times.append(seconds * gauge.factor(before))
        out = replay(db, inputs, lat[r], range_lat[r], checker, gauge)
        db.close()
        space = dir_bytes(path)
        shutil.rmtree(path)
    user_bytes = sum(
        c[1].size * (8 + (VALUE_BYTES if c[0] == "put" else 0))
        for c in inputs.calls
        if c[0] != "get"
    )
    out.update(
        setup_s=statistics.median(setup_times),
        setup_runs=raw_setup,
        gauge_ms=1e3 * float(np.median(gauge.array()[:, 1])),
        lat=np.median(lat, axis=0),
        range_lat=np.median(range_lat, axis=0),
        checker=checker,
        write_amp=out["written"] / user_bytes,
        space_amp=space / (inputs.live.size * (8 + VALUE_BYTES)),
    )
    return out


def run(ctx) -> dict:
    with on_cpu(cpus()[0]):
        return _run(ctx)


def _run(ctx) -> dict:
    inputs = make_inputs(ctx.seed, ctx.scale, ctx.seconds)
    items = np.array([c[1].size for c in inputs.calls], dtype=np.float64)
    kind = np.array([c[0] for c in inputs.calls])
    if ctx.trace:
        return ctx.traced(
            lambda: measure(ctx, inputs, 1), lambda m: items.sum() / m["lat"].sum()
        )
    m = measure(ctx, inputs, REPEATS)
    lat = m["lat"]
    summary = latency_summary(lat)
    gets = kind == "get"
    metrics = {
        "setup_s": m["setup_s"],
        "ops_per_s": items.sum() / lat.sum(),
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "ok_ratio": 1.0 - m["checker"].failed / max(m["checker"].attempted, 1),
        "peak_rss_mb": peak_rss_mb(),
        "point_ops_per_s": items[gets].sum() / lat[gets].sum(),
        "range_ops_per_s": inputs.empty_ranges.shape[0] / m["range_lat"].sum(),
        "point_fpr": m["point_fpr"],
        "range_fpr": m["range_fpr"],
        "filter_bits_per_key": m["bits_per_key"],
        "write_amp": m["write_amp"],
        "space_amp": m["space_amp"],
    }
    detail = {
        "base_keys": int(inputs.base_keys.size),
        "calls": {k: int(np.count_nonzero(kind == k)) for k in ("put", "delete", "get")},
        "latency_samples": summary["samples"],
        "setup_runs_s": m["setup_runs"],
        "gauge_ms": m["gauge_ms"],
        "final_runs": m["runs"],
        "merges": m["merges"],
        "counters": m["counters"],
    }
    return {"metrics": metrics, "checker": m["checker"], "detail": detail}
