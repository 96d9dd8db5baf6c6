"""``served``: small requests through the whole request path.

client -> ``server.protocol`` -> ``server.server`` coalescer ->
``lsm.sharded``/``parallel`` -> engine -> ``lsm.blocks`` -> WAL ack.

Set-up builds a 2-shard persistent store (hash partition, ``zlib``
compression, 64-byte stored values, manual compaction) whose raw value
bytes exceed the server's default 8 MiB block cache, and starts the
shipped ``python -m repro serve <dir> --port 0`` in its own process.  The
benchmark process drives it over 2 ``AsyncStoreClient`` connections, each
keeping a fixed number of requests in flight (a closed loop: callers wait
for their replies), for a fixed number of requests.  The server and the
set-up run on one vCPU, the load generator on the other, and timings are
scaled by the machine-speed gauge of :mod:`common` measured on the
server's vCPU.

Reads go to a preloaded key partition that no write touches, so every
answer is known whatever the interleaving.  The two connections write
disjoint keys; a delete only targets keys whose put was already acked, and
the final state of every written key is checked after the run.

This is the one workload where the fixed cost of a call, not the cost per
key, dominates: every request carries a handful of keys, and the
coalescer sends even a single ``SCAN_NONEMPTY`` through
``scan_nonempty_many``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from common import (
    END_TO_END_UNITS,
    Checker,
    Gauge,
    GaugeSampler,
    cpus,
    local_factors,
    dir_bytes,
    latency_summary,
    on_cpu,
    peak_rss_mb,
    wchar,
)

READ_KEYS = 140_000
VALUE_BYTES = 64
MEMTABLE = 2_560
SHARDS = 2
CONNECTIONS = 2
DEPTH = 8
GET_KEYS = 16
PUT_KEYS = 16
DELETE_KEYS = 8
SCAN_LIMIT = 16
MAX_RANGE_LOG2 = 20
#: Request mix: the shares of the repo's own serving benchmark
#: (``repro.server.bench``: 35 % get_many, 25 % put_many, 5 % delete_many,
#: 15 % scan_nonempty, 5 % scan_range), with its 15 % of may_contain_many
#: given to get_value, the other point read.
KINDS = ("get_many", "put_many", "delete_many", "scan_nonempty", "scan_range", "get_value")
MIX = (0.35, 0.25, 0.05, 0.15, 0.05, 0.15)
#: Timed requests per load and ``--seconds``.
REQUESTS_PER_S = 90
WARMUP_REQUESTS = 100
#: Loads per run, each on its own freshly built store and server.
REPEATS = 5
FPR_PROBES = 20_000
FPR_RANGES = 5_000
BITS_PER_KEY = 14.0
READ_TOP = 1 << 62  # read keys live below this; each connection writes above
READY_TIMEOUT_S = 120.0
#: A load's throughput is the median rate of this many equal-count slices.
SEGMENTS = 25
#: Gauge samples before and after the set-up, on the benchmark's vCPU.
GAUGE_SAMPLES = 20
#: Seconds between gauge samples on the server's vCPU during a load, and
#: how far from a timing the samples that scale it may be.
GAUGE_PERIOD = 0.1
GAUGE_WINDOW = 0.5


@dataclass
class Inputs:
    read_keys: np.ndarray  # sorted
    read_values: np.ndarray  # (n, VALUE_BYTES) uint8, aligned with read_keys
    requests: list  # per connection: [(kind, payload, expected)]
    fresh: list  # per connection: its own write keys, in put order
    absent: np.ndarray
    empty_ranges: np.ndarray


def _nonempty(sorted_keys: np.ndarray, lo: int, hi: int) -> bool:
    i = int(np.searchsorted(sorted_keys, np.uint64(lo)))
    return i < sorted_keys.size and int(sorted_keys[i]) <= hi


def _exact_mix(count: int) -> np.ndarray:
    """``count`` request kinds in exactly the :data:`MIX` proportions."""
    sizes = np.floor(np.array(MIX) * count).astype(int)
    sizes[0] += count - int(sizes.sum())
    return np.repeat(np.arange(len(KINDS)), sizes)


def make_inputs(seed: int, scale: float, seconds: float) -> Inputs:
    from repro.workloads.queries import empty_point_queries, empty_range_queries

    from repro.workloads.distributions import sample_indices

    rng = np.random.default_rng([seed, 3])
    n = max(int(READ_KEYS * scale), 4 * MEMTABLE)
    read_keys = np.unique(rng.integers(0, READ_TOP, int(n * 1.01) + 16, dtype=np.uint64))
    read_keys = rng.permutation(read_keys)[:n]
    read_keys.sort()
    read_values = rng.integers(0, 256, (n, VALUE_BYTES), dtype=np.uint8)
    gap = int(READ_TOP // n)
    total = max(int(round(REQUESTS_PER_S * seconds)), 20) + WARMUP_REQUESTS
    requests, fresh = [], []
    for conn in range(CONNECTIONS):
        kinds = rng.permutation(_exact_mix(total // CONNECTIONS))
        n_put = int(np.count_nonzero(kinds == 1)) * PUT_KEYS
        base = READ_TOP * (1 + conn)
        fresh.append(
            np.unique(rng.integers(base, base + READ_TOP, n_put + 64, dtype=np.uint64))[:n_put]
        )
        fresh[-1] = rng.permutation(fresh[-1])
        # get_value keys: YCSB's zipfian law (theta 0.99) over the read keys.
        hot = iter(sample_indices(rng, n, int(np.count_nonzero(kinds == 5)), "zipfian").tolist())
        ops = []
        for kind in (KINDS[k] for k in kinds.tolist()):
            if kind == "get_many":
                # Half present, half (almost always) absent keys.
                keys = np.concatenate(
                    [
                        rng.choice(read_keys, GET_KEYS // 2),
                        rng.integers(0, READ_TOP, GET_KEYS // 2, dtype=np.uint64),
                    ]
                )
                idx = np.searchsorted(read_keys, keys)
                safe = np.minimum(idx, n - 1)
                ops.append((kind, keys.tolist(), (read_keys[safe] == keys).tolist()))
            elif kind == "scan_nonempty":
                # Widths log-uniform up to the filter's max_range; half
                # the ranges hold a read key, half are placed anywhere.
                width = 1 << int(rng.integers(0, MAX_RANGE_LOG2 + 1))
                if rng.random() < 0.5:
                    lo = int(rng.choice(read_keys)) - int(rng.integers(0, width))
                else:
                    lo = int(rng.integers(0, READ_TOP - width))
                lo = max(lo, 0)
                hi = min(lo + width - 1, READ_TOP - 1)
                ops.append((kind, (lo, hi), _nonempty(read_keys, lo, hi)))
            elif kind == "scan_range":
                start = int(rng.integers(0, n))
                lo = max(int(read_keys[start]) - int(rng.integers(0, gap)), 0)
                hi = min(lo + int(rng.integers(1, 2 * SCAN_LIMIT)) * gap, READ_TOP - 1)
                a = int(np.searchsorted(read_keys, np.uint64(lo)))
                b = int(np.searchsorted(read_keys, np.uint64(hi), side="right"))
                b = min(b, a + SCAN_LIMIT)
                ops.append((kind, (lo, hi), [(int(read_keys[i]), i) for i in range(a, b)]))
            elif kind == "get_value":
                i = next(hot)
                ops.append((kind, int(read_keys[i]), i))
            else:
                ops.append((kind, None, None))  # writes pick their keys at issue time
        requests.append(ops)
    everything = np.sort(np.concatenate([read_keys, *fresh]))
    absent = empty_point_queries(everything, FPR_PROBES, seed=int(rng.integers(1 << 31)))
    empty_ranges = empty_range_queries(
        read_keys, FPR_RANGES, 1 << MAX_RANGE_LOG2, seed=int(rng.integers(1 << 31))
    ).bounds
    return Inputs(read_keys, read_values, requests, fresh, absent, empty_ranges)


def build(path, inputs: Inputs) -> None:
    from repro.api import open_store, standard_spec

    values = [row.tobytes() for row in inputs.read_values]
    with open_store(
        path,
        filter=standard_spec(
            "bloomrf", bits_per_key=BITS_PER_KEY, max_range=1 << MAX_RANGE_LOG2
        ),
        shards=SHARDS,
        partition="hash",
        compression="zlib",
        store_values=True,
        value_bytes=VALUE_BYTES,
        memtable_capacity=MEMTABLE,
        compaction="manual",
    ) as db:
        order = np.random.default_rng(0).permutation(inputs.read_keys.size)
        for chunk in np.array_split(order, 16):
            db.put_many(inputs.read_keys[chunk], [values[i] for i in chunk.tolist()])


class Server:
    """A server process: ``repro serve`` or the traced launcher."""

    def __init__(self, ctx, path, trace_out=None) -> None:
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", str(path), "--port", "0"]
        else:
            launcher = os.path.join(os.path.dirname(__file__), "serve_traced.py")
            cmd = [sys.executable, launcher, str(path), str(trace_out)]
        self.proc = subprocess.Popen(
            cmd,
            cwd=ctx.root,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        self.port = None
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {line}{self.kill()}")
            match = re.search(r" on [\d.]+:(\d+) ", line)
            if match:
                self.port = int(match.group(1))

    def stop(self) -> int:
        """SIGTERM: the server drains, flushes and exits."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        return self.proc.returncode

    def kill(self) -> str:
        """Kill the server (if still running); returns its remaining output."""
        if self.proc.poll() is None:
            self.proc.kill()
        return self.proc.communicate()[0]


class _Writer:
    """One connection's write keys: what is put, acked and deleted."""

    def __init__(self, keys: np.ndarray, seed: int) -> None:
        self.keys = keys.tolist()
        self.next = 0
        self.acked: list[int] = []
        self.deleted: set[int] = set()
        self.rng = np.random.default_rng(seed)

    def take_put(self) -> list[int]:
        keys = self.keys[self.next : self.next + PUT_KEYS]
        self.next += PUT_KEYS
        return keys

    def take_delete(self) -> list[int] | None:
        live = [k for k in self.acked[-512:] if k not in self.deleted]
        if len(live) < DELETE_KEYS:
            return None
        picked = self.rng.choice(len(live), DELETE_KEYS, replace=False)
        keys = [live[i] for i in picked.tolist()]
        self.deleted.update(keys)
        return keys


def _value_of(key: int) -> bytes:
    """Value of a write-partition key: derived from the key itself."""
    return key.to_bytes(8, "little") * (VALUE_BYTES // 8)


async def _drive(port: int, pid: int, inputs: Inputs, seed: int) -> dict:
    """Run every connection's request list; answers are checked later."""
    from repro.server.client import AsyncStoreClient

    clients = [await AsyncStoreClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]
    writers = [_Writer(f, seed * 7 + c) for c, f in enumerate(inputs.fresh)]
    per_conn = [len(r) for r in inputs.requests]
    warm = WARMUP_REQUESTS // CONNECTIONS
    records: list = []  # (conn, index, kind, started, finished, answer, payload)

    async def worker(conn: int, cursor: list) -> None:
        client, writer, ops = clients[conn], writers[conn], inputs.requests[conn]
        while True:
            i = cursor[0]
            if i >= cursor[1]:
                return
            cursor[0] += 1
            kind, payload, _ = ops[i]
            if kind == "delete_many":
                payload = writer.take_delete()
                if payload is None:
                    kind = "put_many"
            if kind == "put_many":
                payload = writer.take_put()
            start = time.perf_counter()
            try:
                if kind == "get_many":
                    answer = await client.get_many(payload)
                elif kind == "put_many":
                    answer = await client.put_many(payload, [_value_of(k) for k in payload])
                    writer.acked.extend(payload)
                elif kind == "delete_many":
                    answer = await client.delete_many(payload)
                elif kind == "scan_nonempty":
                    answer = await client.scan_nonempty(*payload)
                elif kind == "scan_range":
                    answer = await client.scan_range(*payload, limit=SCAN_LIMIT)
                else:
                    answer = await client.get_value(payload)
            except Exception as exc:  # noqa: BLE001 - a refused request is a failure
                answer = exc
            records.append((conn, i, kind, start, time.perf_counter(), answer, payload))

    async def phase(lo_of, hi_of) -> float:
        cursors = [[lo_of(c), hi_of(c)] for c in range(CONNECTIONS)]
        started = time.perf_counter()
        await asyncio.gather(
            *(worker(c, cursors[c]) for c in range(CONNECTIONS) for _ in range(DEPTH))
        )
        return started

    try:
        await phase(lambda c: 0, lambda c: warm)
        del records[:]
        io_before = wchar(pid)
        started = await phase(lambda c: warm, lambda c: per_conn[c])
        finished = time.perf_counter()
        written = wchar(pid) - io_before
        rss = peak_rss_mb(pid)
        # Final state of every written key, through the server (untimed).
        final = []
        for c, writer in enumerate(writers):
            put = writer.keys[: writer.next]
            for i in range(0, len(put), 512):
                chunk = put[i : i + 512]
                final.append((c, chunk, await clients[c].get_many(chunk)))
        sample = [k for w in writers for k in w.acked if k not in w.deleted][:64]
        values = [(k, await clients[0].get_value(k)) for k in sample]
    finally:
        for client in clients:
            await client.aclose()
    return {
        "records": records,
        "started": started,
        "finished": finished,
        "writers": writers,
        "final": final,
        "values": values,
        "written": written,
        "rss": rss,
    }


def check(inputs: Inputs, run: dict, checker: Checker) -> None:
    """Every answer against the benchmark's own ground truth."""
    for conn, i, kind, _, _, answer, payload in run["records"]:
        expected = inputs.requests[conn][i][2]
        if isinstance(answer, Exception):
            checker.error()
        elif kind == "get_many":
            checker.check(answer, expected)
        elif kind == "scan_nonempty":
            checker.check([answer], [expected])
        elif kind == "scan_range":
            want = [(k, inputs.read_values[j].tobytes()) for k, j in expected]
            checker.check_equal(answer, want)
        elif kind == "get_value":
            checker.check_equal(answer, inputs.read_values[expected].tobytes())
        else:
            checker.check_equal(answer, len(payload))
    for conn, chunk, answer in run["final"]:
        writer = run["writers"][conn]
        acked = set(writer.acked)
        checker.check(answer, [k in acked and k not in writer.deleted for k in chunk])
    for key, value in run["values"]:
        checker.check_equal(value, _value_of(key))


def one_load(ctx, inputs: Inputs, checker: Checker, trace_out=None) -> dict:
    """Build, serve, drive, stop; then check the stopped store offline.

    The set-up (store build and server start) runs on the server's vCPU,
    the load generator on the other one.  The set-up's timing is scaled by
    the gauge run before and after it on the server's vCPU, the load's
    timings by a gauge sampler running there during the load.
    """
    server_cpu, _ = cpus()
    path = ctx.fresh_dir("served")
    gauge = Gauge()
    with on_cpu(server_cpu):
        gauge.sample(GAUGE_SAMPLES)
        start = time.perf_counter()
        build(path, inputs)
        server = Server(ctx, path, trace_out)
        setup_s = time.perf_counter() - start
        gauge.sample(GAUGE_SAMPLES)
    try:
        sampler = GaugeSampler(server_cpu, GAUGE_PERIOD)
        try:
            run = asyncio.run(_drive(server.port, server.proc.pid, inputs, ctx.seed))
        finally:
            load_gauge = sampler.stop()
    except BaseException:
        server.kill()
        raise
    if server.stop() != 0:
        checker.error()
    check(inputs, run, checker)
    from repro.api import open_store

    with open_store(path) as db:
        db.reset_stats()
        checker.check(db.get_many(inputs.absent), np.zeros(inputs.absent.size, bool))
        point = db.reset_stats()
        checker.check(
            db.scan_nonempty_many(inputs.empty_ranges),
            np.zeros(inputs.empty_ranges.shape[0], bool),
        )
        ranges = db.reset_stats()
        bits_per_key = db.filter_bits_per_key()
        runs = db.num_sstables
    live_written = sum(len(set(w.acked) - w.deleted) for w in run["writers"])
    live_bytes = (inputs.read_keys.size + live_written) * (8 + VALUE_BYTES)
    space = dir_bytes(path)
    shutil.rmtree(path)
    user_bytes = 0
    for _, _, kind, _, _, _, payload in run["records"]:
        if kind == "put_many":
            user_bytes += len(payload) * (8 + VALUE_BYTES)
        elif kind == "delete_many":
            user_bytes += len(payload) * 8
    rates = _slice_rates(run, load_gauge)
    start = np.array([r[3] for r in run["records"]])
    end = np.array([r[4] for r in run["records"]])
    lat = (end - start) * local_factors(load_gauge, (start + end) / 2, GAUGE_WINDOW)
    return {
        "setup_s": setup_s * gauge.factor(),
        "raw_setup_s": setup_s,
        "gauge_ms": 1e3 * float(np.median(load_gauge[:, 1])),
        "gauge_samples": len(load_gauge),
        "ops_per_s": statistics.median(rates),
        "slice_rates": rates,
        "lat": lat,
        **latency_summary(lat),
        "kinds": np.array([r[2] for r in run["records"]]),
        "peak_rss_mb": run["rss"],
        "write_amp": run["written"] / max(user_bytes, 1),
        "space_amp": space / live_bytes,
        "point_fp_tn": (point.filter_false_positives, point.filter_true_negatives),
        "range_fp_tn": (ranges.filter_false_positives, ranges.filter_true_negatives),
        "filter_bits_per_key": bits_per_key,
        "runs": runs,
    }


def _slice_rates(run: dict, gauge: np.ndarray) -> list[float]:
    """Request rates of :data:`SEGMENTS` equal-count slices of a load,
    each slice's duration scaled by the gauge around it."""
    done = np.sort([r[4] for r in run["records"]])
    edges = np.concatenate([[run["started"]], done])
    parts = [p for p in np.array_split(np.arange(done.size), SEGMENTS) if p.size]
    lo = np.array([edges[p[0]] for p in parts])
    hi = np.array([edges[p[-1] + 1] for p in parts])
    seconds = (hi - lo) * local_factors(gauge, (lo + hi) / 2, GAUGE_WINDOW)
    return [p.size / s for p, s in zip(parts, seconds, strict=True)]


def run(ctx) -> dict:
    inputs = make_inputs(ctx.seed, ctx.scale, ctx.seconds)
    with on_cpu(cpus()[1]):  # the server gets the other vCPU
        return run_traced(ctx, inputs) if ctx.trace else run_loads(ctx, inputs)


def run_loads(ctx, inputs: Inputs) -> dict:
    """:data:`REPEATS` loads: the end-to-end metrics."""
    checker = Checker(ctx.flip)
    loads = [one_load(ctx, inputs, checker) for _ in range(REPEATS)]
    # The request rate is the median over every load's slices, the per-path
    # rates come from the pooled latencies of every load, the FPRs from the
    # pooled probes of every load, and the rest, the latency percentiles
    # too, is the median of the loads.
    lat = np.concatenate([load["lat"] for load in loads])
    kinds = np.concatenate([load["kinds"] for load in loads])
    metrics = {
        "ops_per_s": statistics.median(r for load in loads for r in load["slice_rates"]),
        "ok_ratio": 1.0 - checker.failed / max(checker.attempted, 1),
        # Per path: the keys (rows) a request of that kind resolves over
        # its median latency.
        "point_ops_per_s": GET_KEYS / np.median(lat[kinds == "get_many"]),
        "range_ops_per_s": 1.0 / np.median(lat[kinds == "scan_nonempty"]),
        "point_fpr": _pooled_fpr(load["point_fp_tn"] for load in loads),
        "range_fpr": _pooled_fpr(load["range_fp_tn"] for load in loads),
    }
    for name in END_TO_END_UNITS:
        if name not in metrics:
            metrics[name] = statistics.median(load[name] for load in loads)
    detail = {
        "read_keys": int(inputs.read_keys.size),
        "raw_value_bytes": int(inputs.read_keys.size * VALUE_BYTES),
        "block_cache_bytes": 8 << 20,
        "connections": CONNECTIONS,
        "in_flight_per_connection": DEPTH,
        "latency_samples_per_load": [load["samples"] for load in loads],
        "loads": [
            {
                k: v
                for k, v in load.items()
                if k not in ("lat", "kinds", "slice_rates", "samples")
            }
            for load in loads
        ],
        "client_peak_rss_mb": peak_rss_mb(),
    }
    return {"metrics": metrics, "checker": checker, "detail": detail}


def _pooled_fpr(counts) -> float:
    fp, tn = np.sum(list(counts), axis=0)
    return float(fp / (fp + tn))


def run_traced(ctx, inputs: Inputs) -> dict:
    """Untraced server, then the traced launcher: per-layer metrics."""
    from layertrace import layer_metrics

    checker = Checker(ctx.flip)
    plain = one_load(ctx, inputs, checker)
    out = ctx.work / "server-trace.json"
    traced = one_load(ctx, inputs, checker, trace_out=out)
    with open(out, encoding="utf-8") as fh:
        dump = json.load(fh)
    metrics = layer_metrics(
        dump["spans"],
        dump["counters"],
        dump["extra"]["counters"],
        dump["extra"]["coalescer"],
        dump["wall_s"],
    )
    metrics["trace.traced_ops_per_s"] = traced["ops_per_s"]
    metrics["trace.overhead"] = plain["ops_per_s"] / traced["ops_per_s"]
    return {"metrics": metrics, "checker": checker, "detail": {}}
