"""In-memory span tracer wrapped around each layer's public functions.

The tracer patches functions from the outside (class attributes and the
module-level names the callers look up), so the program under test is
unchanged.  Each call records one span ``(name, start, end, thread,
span_id, parent_id, cause_id, items)``:

* ``parent_id`` is the enclosing span on the *same* thread; self time is a
  span's duration minus the durations of its same-thread children.
* ``cause_id`` links a span that starts on a worker thread (a shard pool
  job, a background merge) to the span that dispatched it.  Cross-thread
  time is never subtracted: a background merge stays on its worker.
* ``items`` is the work count of the call (keys, rows, bytes).

Spans stay in memory; :meth:`Tracer.dump` writes them out once at the end.
:func:`layer_metrics` turns the spans and counters into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "install_layers", "layer_metrics", "PER_LAYER_UNITS"]


def _len0(args: tuple, result: Any) -> int:
    """Item count of a batched call: the length of its first argument."""
    return len(args[1]) if len(args) > 1 else 0


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


class _CountingOs:
    """Stand-in for a module's ``os`` that counts write bytes and fsyncs."""

    def __init__(self, tracer: "Tracer", prefix: str) -> None:
        self._tracer = tracer
        self._prefix = prefix

    def __getattr__(self, name: str) -> Any:
        return getattr(os, name)

    def write(self, fd: int, data: Any) -> int:
        written = os.write(fd, data)
        self._tracer.count(f"{self._prefix}.bytes", written)
        return written

    def fsync(self, fd: int) -> None:
        os.fsync(fd)
        self._tracer.count(f"{self._prefix}.fsyncs")


class Tracer:
    """Collects spans and counters from wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter[str] = Counter()
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.started = time.perf_counter()

    # -- recording -----------------------------------------------------
    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._id_lock:  # worker threads count too: += is not atomic
            self.counters[name] += n

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _sync_wrapper(
        self,
        fn: Callable,
        name: str,
        items: Callable | None,
        after: Callable | None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            cause = None if stack else getattr(tracer._local, "cause", None)
            span_id = tracer._new_id()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n = items(args, result) if items is not None else 0
            tracer.spans.append(
                (name, start, end, threading.get_ident(), span_id, parent, cause, n)
            )
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _async_wrapper(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            # Coroutines interleave on one thread, so they never nest on
            # the span stack: an async span is recorded detached.
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.spans.append(
                    (name, start, time.perf_counter(), threading.get_ident(),
                     tracer._new_id(), None, None, 0)
                )

        return wrapper

    def _cause_wrapper(self, fn: Callable, cause: int | None) -> Callable:
        """Run ``fn`` on a worker thread with ``cause`` as its origin."""
        local = self._local

        @functools.wraps(fn)
        def job(*args: Any, **kwargs: Any) -> Any:
            previous = getattr(local, "cause", None)
            local.cause = cause
            try:
                return fn(*args, **kwargs)
            finally:
                local.cause = previous

        return job

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        items: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(
                self._sync_wrapper(raw.__func__, name, items, after)
            )
        elif inspect.iscoroutinefunction(raw):
            wrapped = self._async_wrapper(raw, name)
        else:
            wrapped = self._sync_wrapper(raw, name, items, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write spans, counters and ``extra`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "wall_s": time.perf_counter() - self.started,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "extra": extra or {},
                },
                fh,
            )


# ----------------------------------------------------------------------
# the layers: which public functions are wrapped, under which span name
# ----------------------------------------------------------------------
def _pool_run(tracer: Tracer, raw: Callable) -> Callable:
    """``ShardPool.run``/``submit`` wrapper handing its span to the jobs."""

    @functools.wraps(raw)
    def run(self: Any, jobs: Any, fn: Callable) -> Any:
        return raw(self, jobs, tracer._cause_wrapper(fn, tracer.current()))

    return run


def _pool_submit(tracer: Tracer, raw: Callable) -> Callable:
    @functools.wraps(raw)
    def submit(self: Any, fn: Callable, *args: Any) -> Any:
        return raw(self, tracer._cause_wrapper(fn, tracer.current()), *args)

    return submit


def _merge_done(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.count("compaction.merges")
        tracer.count("compaction.input_keys", int(result["input_keys"]))


def _cache_lookup(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("blocks.cache_misses" if result is None else "blocks.cache_hits")


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced function of the store, its filter and its server.

    Install before any store is opened: filter handles bind the filter's
    probe methods when they are created.
    """
    from repro.core.bloomrf import BloomRF
    from repro.lsm import blocks, filter_policy, store, wal
    from repro.lsm.db import LsmDB
    from repro.lsm.memtable import MemTable
    from repro.lsm.sharded import ShardedLsmDB
    from repro.lsm.sstable import SSTable
    from repro.lsm.store import PersistentLsmDB
    from repro.parallel import ShardPool
    from repro.server import protocol, server

    w = tracer.wrap
    # core.bloomrf
    w(BloomRF, "contains_point_many", "bloomrf.point", _len0)
    w(BloomRF, "contains_range_many", "bloomrf.range", _len0)
    w(BloomRF, "insert_many", "bloomrf.build", _len0)
    w(BloomRF, "to_bytes", "bloomrf.serde", _result_len)
    w(filter_policy, "filter_from_bytes", "bloomrf.serde")
    # lsm.sstable
    w(SSTable, "__init__", "sstable.build")
    w(SSTable, "get_many", "sstable.get_many", _len0)
    w(SSTable, "scan_many", "sstable.scan_many", _len0)
    w(SSTable, "get", "sstable.get")
    w(SSTable, "scan", "sstable.scan")
    # lsm.db (the persistent engine overrides the write entry points)
    w(LsmDB, "get_many", "db.get_many", _len0)
    w(LsmDB, "scan_nonempty_many", "db.scan_nonempty_many", _len0)
    w(LsmDB, "get_value", "db.get_value")
    w(LsmDB, "scan", "db.scan")
    w(PersistentLsmDB, "put_many", "db.put_many", _len0)
    w(PersistentLsmDB, "delete_many", "db.delete_many", _len0)
    # lsm.memtable
    for attr in ("put", "put_many", "delete", "delete_many"):
        w(MemTable, attr, "memtable.write")
    for attr in ("get", "lookup_many", "contains_range", "contains_range_many"):
        w(MemTable, attr, "memtable.read")
    w(MemTable, "drain_sorted", "memtable.drain")
    # lsm.wal
    w(wal.WriteAheadLog, "append_put", "wal.append")
    w(wal.WriteAheadLog, "append_delete", "wal.append")
    w(wal.WriteAheadLog, "commit", "wal.commit")
    w(wal.WriteAheadLog, "commit_barrier", "wal.barrier")
    tracer.replace(wal, "os", _CountingOs(tracer, "wal"))
    # lsm.store + serial
    w(store, "open_persistent_store", "store.open")
    w(PersistentLsmDB, "flush", "store.flush")
    w(store, "_atomic_write", "store.write", lambda a, r: len(a[1]))
    w(store, "_pack_sstable", "serial.pack", _result_len)
    w(store, "pack_frame", "serial.pack", _result_len)
    w(store, "_unpack_sstable", "serial.unpack")
    w(store, "_map_sstable", "serial.unpack")
    tracer.replace(store, "os", _CountingOs(tracer, "store"))
    # lsm.compaction: the merge work unit runs on the scheduler's worker
    w(LsmDB, "maybe_compact", "compaction.merge", after=_merge_done)
    # lsm.blocks
    w(blocks.BlockedPayload, "_decode", "blocks.decode")
    w(store, "decompress_payload", "blocks.decode")
    w(store, "compress_payload", "blocks.encode")
    w(blocks.BlockCache, "get", "blocks.cache_get", after=_cache_lookup)
    # lsm.sharded + parallel
    for attr in (
        "get_many", "scan_nonempty_many", "put_many", "delete_many",
        "get_value", "scan", "commit_barrier", "flush",
    ):
        w(ShardedLsmDB, attr, "sharded.fanout")
    pool_run = inspect.getattr_static(ShardPool, "run")
    tracer.replace(ShardPool, "run", _pool_run(tracer, pool_run))
    w(ShardPool, "run", "parallel.pool")
    tracer.replace(
        ShardPool, "submit",
        _pool_submit(tracer, inspect.getattr_static(ShardPool, "submit")),
    )
    # server.protocol (the server looks the encoders up in its own module)
    w(server, "encode_frame", "protocol.encode")
    w(server, "encode_value", "protocol.encode")
    w(protocol, "decode_frame_body", "protocol.decode")
    w(server, "decode_value", "protocol.decode")
    # server.server
    w(server.Coalescer, "submit", "coalescer.submit")
    w(server.Coalescer, "_execute", "coalescer.engine")


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
#: Per-layer metric name -> unit (the ``per_layer`` list of BENCHMARK.json).
PER_LAYER_UNITS: dict[str, str] = {}
_LAYERS = (
    "bloomrf", "sstable", "db", "memtable", "wal", "store", "serial",
    "compaction", "blocks", "sharded", "parallel", "protocol", "coalescer",
)
for _name, _unit in [
    ("bloomrf.point.self_s", "s"), ("bloomrf.point.calls", "count"),
    ("bloomrf.point.keys", "count"), ("bloomrf.range.self_s", "s"),
    ("bloomrf.range.calls", "count"), ("bloomrf.range.rows", "count"),
    ("bloomrf.build.self_s", "s"), ("bloomrf.serde.self_s", "s"),
    ("sstable.get_many.self_s", "s"), ("sstable.scan_many.self_s", "s"),
    ("sstable.filter_probes", "count"), ("sstable.filter_positives", "count"),
    ("sstable.false_positives", "count"), ("sstable.blocks_read", "count"),
    ("sstable.fp_share", "ratio"),
    ("db.get_many.self_s", "s"), ("db.scan_nonempty_many.self_s", "s"),
    ("db.put_many.self_s", "s"), ("db.runs_probed_per_lookup", "runs/key"),
    ("memtable.write.self_s", "s"), ("memtable.read.self_s", "s"),
    ("memtable.drain.self_s", "s"),
    ("wal.append.self_s", "s"), ("wal.barrier.self_s", "s"),
    ("wal.appends", "count"), ("wal.fsyncs", "count"), ("wal.bytes", "B"),
    ("store.flush.self_s", "s"), ("store.open.self_s", "s"),
    ("store.bytes_written", "B"), ("serial.pack.self_s", "s"),
    ("serial.unpack.self_s", "s"),
    ("compaction.merge.busy_s", "s"), ("compaction.merges", "count"),
    ("compaction.input_keys", "count"),
    ("blocks.decode.self_s", "s"), ("blocks.cache_hits", "count"),
    ("blocks.cache_misses", "count"), ("blocks.hit_ratio", "ratio"),
    ("sharded.fanout.self_s", "s"), ("parallel.pool.self_s", "s"),
    ("protocol.decode.self_s", "s"), ("protocol.encode.self_s", "s"),
    ("coalescer.submit_ms", "ms"), ("coalescer.engine_ms", "ms"),
    ("coalescer.ops_per_tick", "ops/tick"), ("coalescer.engine_calls", "count"),
    ("coalescer.barriers", "count"),
]:
    PER_LAYER_UNITS[_name] = _unit
for _layer in _LAYERS:
    PER_LAYER_UNITS[f"{_layer}.share"] = "ratio"
PER_LAYER_UNITS.update(
    {
        "trace.overhead": "ratio",
        "trace.traced_ops_per_s": "1/s",
        "trace.spans": "count",
    }
)


#: Spans that block on the jobs they dispatch to other threads: the time
#: their jobs cover is not their own.  Other cross-thread work (a merge
#: triggered by a flush) runs beside its cause and is not subtracted.
_WAITS_ON_JOBS = {"parallel.pool"}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def span_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, items, inclusive seconds and self seconds.

    Self time is the span minus its same-thread children; a span in
    :data:`_WAITS_ON_JOBS` also loses the time its jobs on worker threads
    cover, clipped to the span.
    """
    by_id = {s[4]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    jobs: dict[int, list] = defaultdict(list)
    for name, start, end, thread, span_id, parent, cause, n in spans:
        if parent is not None and parent in by_id and by_id[parent][3] == thread:
            child_time[parent] += end - start
        if cause is not None and cause in by_id and by_id[cause][0] in _WAITS_ON_JOBS:
            owner = by_id[cause]
            jobs[cause].append((max(start, owner[1]), min(end, owner[2])))
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for name, start, end, thread, span_id, parent, cause, n in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["items"] += n
        entry["total_s"] += end - start
        own = end - start - child_time.get(span_id, 0.0)
        if span_id in jobs:
            own -= _covered([iv for iv in jobs[span_id] if iv[1] > iv[0]])
        entry["self_s"] += max(own, 0.0)
    return dict(totals)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list,
    counters: dict[str, int],
    probe_counters: dict[str, int],
    coalescer: dict[str, Any] | None,
    wall_s: float,
) -> dict[str, float]:
    """The per-layer metrics from one traced pass.

    ``probe_counters`` is the store's ``IOStats.counters()`` over the pass;
    ``coalescer`` is the server's ``info()`` (None outside ``served``).
    """
    t = span_totals(spans)

    def get(name: str, field: str) -> float:
        return t.get(name, {}).get(field, 0.0)

    def self_of(*names: str) -> float:
        return sum(get(n, "self_s") for n in names)

    out: dict[str, float] = {
        "bloomrf.point.self_s": self_of("bloomrf.point"),
        "bloomrf.point.calls": get("bloomrf.point", "calls"),
        "bloomrf.point.keys": get("bloomrf.point", "items"),
        "bloomrf.range.self_s": self_of("bloomrf.range"),
        "bloomrf.range.calls": get("bloomrf.range", "calls"),
        "bloomrf.range.rows": get("bloomrf.range", "items"),
        "bloomrf.build.self_s": self_of("bloomrf.build"),
        "bloomrf.serde.self_s": self_of("bloomrf.serde"),
        "sstable.get_many.self_s": self_of("sstable.get_many"),
        "sstable.scan_many.self_s": self_of("sstable.scan_many"),
        "sstable.filter_probes": probe_counters.get("filter_probes", 0),
        "sstable.filter_positives": probe_counters.get("filter_positives", 0),
        "sstable.false_positives": probe_counters.get("filter_false_positives", 0),
        "sstable.blocks_read": probe_counters.get("blocks_read", 0),
        "sstable.fp_share": _ratio(
            probe_counters.get("filter_false_positives", 0),
            probe_counters.get("filter_positives", 0),
        ),
        "db.get_many.self_s": self_of("db.get_many"),
        "db.scan_nonempty_many.self_s": self_of("db.scan_nonempty_many"),
        "db.put_many.self_s": self_of("db.put_many"),
        "db.runs_probed_per_lookup": _ratio(
            get("sstable.get_many", "items"), get("db.get_many", "items")
        ),
        "memtable.write.self_s": self_of("memtable.write"),
        "memtable.read.self_s": self_of("memtable.read"),
        "memtable.drain.self_s": self_of("memtable.drain"),
        "wal.append.self_s": self_of("wal.append"),
        "wal.barrier.self_s": self_of("wal.barrier"),
        "wal.appends": get("wal.append", "calls"),
        "wal.fsyncs": counters.get("wal.fsyncs", 0),
        "wal.bytes": counters.get("wal.bytes", 0),
        "store.flush.self_s": self_of("store.flush"),
        "store.open.self_s": self_of("store.open"),
        "store.bytes_written": get("store.write", "items")
        + counters.get("store.bytes", 0),
        "serial.pack.self_s": self_of("serial.pack"),
        "serial.unpack.self_s": self_of("serial.unpack"),
        "compaction.merge.busy_s": get("compaction.merge", "total_s"),
        "compaction.merges": counters.get("compaction.merges", 0),
        "compaction.input_keys": counters.get("compaction.input_keys", 0),
        "blocks.decode.self_s": self_of("blocks.decode"),
        "blocks.cache_hits": counters.get("blocks.cache_hits", 0),
        "blocks.cache_misses": counters.get("blocks.cache_misses", 0),
        "blocks.hit_ratio": _ratio(
            counters.get("blocks.cache_hits", 0),
            counters.get("blocks.cache_hits", 0)
            + counters.get("blocks.cache_misses", 0),
        ),
        "sharded.fanout.self_s": self_of("sharded.fanout"),
        "parallel.pool.self_s": self_of("parallel.pool"),
        "protocol.decode.self_s": self_of("protocol.decode"),
        "protocol.encode.self_s": self_of("protocol.encode"),
        "coalescer.submit_ms": 1e3 * _ratio(
            get("coalescer.submit", "total_s"), get("coalescer.submit", "calls")
        ),
        "coalescer.engine_ms": 1e3 * _ratio(
            get("coalescer.engine", "total_s"), get("coalescer.engine", "calls")
        ),
        "coalescer.ops_per_tick": _ratio(
            (coalescer or {}).get("coalesced_ops", 0),
            (coalescer or {}).get("ticks", 0),
        ),
        "coalescer.engine_calls": (coalescer or {}).get("engine_calls", 0),
        "coalescer.barriers": (coalescer or {}).get("barriers", 0),
    }
    layer_of = defaultdict(float)
    for name, entry in t.items():
        if name == "coalescer.submit":
            continue  # async waiting, not work on a thread
        layer_of[name.split(".", 1)[0]] += entry["self_s"]
    for layer in _LAYERS:
        out[f"{layer}.share"] = _ratio(layer_of.get(layer, 0.0), wall_s)
    out["trace.spans"] = len(spans)
    return out
