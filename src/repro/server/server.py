"""The asyncio service front-end: a coalescing TCP server over one store.

The batch API *is* the concurrency story.  The engines expose vectorized
sweeps (``get_many`` / ``put_many`` / ``scan_nonempty_many`` ...) whose
per-operation cost collapses as batches grow, so the server's job is to
*manufacture batches out of concurrency*: every request that arrives
while the previous batch executes is parked in the :class:`Coalescer`,
and the next event-loop tick drains them all into one ordered pass of
vectorized engine calls on a single worker thread.

Execution model
---------------
* The event loop only parses frames and builds responses; every engine
  call runs on the coalescer's single executor thread.  One thread, one
  batch at a time: the server is a *serializer* — concurrent clients
  observe some interleaving of whole operations, never a torn one.
* Within a tick, arrival order is preserved and *adjacent* operations of
  the same class merge into one engine call (``get`` + ``get_many``
  payloads concatenate into a single ``get_many`` sweep; puts and
  deletes merge the same way).  The executed engine-call sequence is a
  serialization of the client operations — replaying it single-threaded
  on a shadow store reproduces every answer and every ``IOStats``
  counter bit for bit (the exactness suite does exactly that via
  ``trace=True``).
* Writes are acknowledged at the WAL group-commit boundary: after a
  tick's engine calls, one ``store.commit_barrier()`` covers every write
  in the tick, and only then are the write futures resolved.  Under
  ``wal_sync="batch"`` an acked write is therefore power-loss durable —
  one fsync per write-carrying tick instead of one per request.
* Backpressure is per connection: at most ``max_inflight`` requests may
  be in flight; past that the server stops reading the connection's
  socket and TCP pushes back on the client.

Graceful shutdown (:meth:`StoreServer.aclose`) drains in order: stop
accepting, stop reading, finish and answer every in-flight request,
drain the coalescer, flush the store.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from repro.server.protocol import (
    ProtocolError,
    decode_value,
    encode_frame,
    encode_value,
    read_frame,
)

__all__ = ["Coalescer", "StoreServer", "run_server"]

#: Operation classes whose adjacent payloads merge into one engine call.
_VECTOR_KINDS = frozenset({"get", "may_contain", "scan_nonempty", "put", "delete"})
_WRITE_KINDS = frozenset({"put", "delete"})


class _Op:
    """One queued engine operation: kind, payload, and the waiting future."""

    __slots__ = ("future", "kind", "payload")

    def __init__(self, kind: str, payload: Any, future: asyncio.Future) -> None:
        self.kind = kind
        self.payload = payload
        self.future = future


class _OpError:
    """Result slot marker: this operation's group raised ``exc``."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def _split_rows(answers: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Scatter a concatenated answer array back into per-op views."""
    parts = []
    start = 0
    for size in sizes:
        parts.append(answers[start : start + size])
        start += size
    return parts


class Coalescer:
    """Per-tick request batcher over one store's vectorized engine calls.

    ``submit()`` parks an operation and wakes the dispatcher; the
    dispatcher drains *everything* pending into one batch, executes it on
    the single worker thread (adjacent same-class operations merged into
    one vectorized call, arrival order preserved), runs one
    ``commit_barrier()`` for the tick's writes, and only then resolves
    the futures — the ack point.

    ``trace=True`` records the executed engine-call sequence (method,
    arguments, answers) — the serialization witness the exactness tests
    replay against a shadow store.
    """

    def __init__(self, store: Any, *, trace: bool = False) -> None:
        self.store = store
        self.trace: list[tuple] | None = [] if trace else None
        self._pending: deque[_Op] = deque()
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._task: asyncio.Task | None = None
        self._closed = False
        # Accounting (read by StoreServer.info()):
        self.ticks = 0
        self.ops = 0
        self.engine_calls = 0
        self.barriers = 0
        self.max_tick_ops = 0

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def submit(self, kind: str, payload: Any) -> Any:
        """Park one operation; resolves with its answer after execution
        (for writes: after the covering group commit)."""
        if self._closed:
            raise ConnectionResetError("server is draining")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(_Op(kind, payload, future))
        self._wake.set()
        return await future

    async def aclose(self) -> None:
        """Drain every parked operation, then stop the dispatcher."""
        self._closed = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        self._executor.shutdown(wait=True)

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self._closed:
                    return
                await self._wake.wait()
                self._wake.clear()
                continue
            batch = list(self._pending)
            self._pending.clear()
            try:
                results = await loop.run_in_executor(
                    self._executor, self._execute, batch
                )
            except BaseException as exc:  # noqa: B036 - fault drills raise BaseException
                for op in batch:
                    if not op.future.done():
                        op.future.set_exception(exc)
                continue
            for op, result in zip(batch, results):
                if op.future.done():
                    continue
                if isinstance(result, _OpError):
                    op.future.set_exception(result.exc)
                else:
                    op.future.set_result(result)

    # -- executor-thread side ------------------------------------------
    def _execute(self, batch: list[_Op]) -> list[Any]:
        results: list[Any] = [None] * len(batch)
        wrote = False
        index = 0
        total = len(batch)
        while index < total:
            kind = batch[index].kind
            stop = index + 1
            if kind in _VECTOR_KINDS:
                while stop < total and batch[stop].kind == kind:
                    stop += 1
            group = batch[index:stop]
            try:
                answers = self._run_group(kind, [op.payload for op in group])
            except Exception as exc:
                for offset in range(len(group)):
                    results[index + offset] = _OpError(exc)
            else:
                for offset, answer in enumerate(answers):
                    results[index + offset] = answer
                if kind in _WRITE_KINDS:
                    wrote = True
            index = stop
        if wrote:
            # One group commit covers every write of the tick; resolving
            # the futures (the ack) happens after this returns.
            self.store.commit_barrier()
            self.barriers += 1
        self.ticks += 1
        self.ops += total
        self.max_tick_ops = max(self.max_tick_ops, total)
        return results

    def _record(self, *entry: Any) -> None:
        if self.trace is not None:
            self.trace.append(entry)

    def _run_group(self, kind: str, payloads: list[Any]) -> list[Any]:
        store = self.store
        if kind in ("get", "may_contain"):
            keys = (
                payloads[0] if len(payloads) == 1 else np.concatenate(payloads)
            )
            self.engine_calls += 1
            if kind == "get":
                answers = store.get_many(keys)
                self._record("get_many", keys, answers)
            else:
                answers = store.may_contain_many(keys)
                self._record("may_contain_many", keys, answers)
            return _split_rows(answers, [int(p.size) for p in payloads])
        if kind == "scan_nonempty":
            bounds = (
                payloads[0]
                if len(payloads) == 1
                else np.concatenate(payloads, axis=0)
            )
            self.engine_calls += 1
            answers = store.scan_nonempty_many(bounds)
            self._record("scan_nonempty_many", bounds, answers)
            return _split_rows(answers, [int(p.shape[0]) for p in payloads])
        if kind == "put":
            keys = (
                payloads[0][0]
                if len(payloads) == 1
                else np.concatenate([p[0] for p in payloads])
            )
            values: list[bytes] | None = None
            if any(p[1] is not None for p in payloads):
                values = []
                for chunk_keys, chunk_values in payloads:
                    if chunk_values is None:
                        values.extend([b""] * int(chunk_keys.size))
                    else:
                        values.extend(chunk_values)
            self.engine_calls += 1
            store.put_many(keys, values)
            self._record("put_many", keys, values)
            return [int(p[0].size) for p in payloads]
        if kind == "delete":
            keys = (
                payloads[0] if len(payloads) == 1 else np.concatenate(payloads)
            )
            self.engine_calls += 1
            store.delete_many(keys)
            self._record("delete_many", keys)
            return [int(p.size) for p in payloads]
        if kind == "scan":
            out: list[Any] = []
            for lo, hi, limit in payloads:
                self.engine_calls += 1
                entries = store.scan(lo, hi, limit)
                self._record("scan", lo, hi, limit, entries)
                out.append(entries)
            return out
        if kind == "get_value":
            out = []
            for key in payloads:
                self.engine_calls += 1
                value = store.get_value(key)
                self._record("get_value", key, value)
                out.append(value)
            return out
        if kind == "stats":
            snapshot = self._stats_snapshot()
            return [snapshot] * len(payloads)
        raise ProtocolError(f"unknown operation kind {kind!r}")

    def _stats_snapshot(self) -> dict[str, Any]:
        """A consistent stats read: runs on the worker thread, serialized
        with every other engine call."""
        store = self.store
        stats = store.stats
        snapshot: dict[str, Any] = {
            "counters": stats.counters(),
            "block_cache": {
                "hits": int(stats.block_cache_hits),
                "misses": int(stats.block_cache_misses),
            },
            "breakdown": stats.breakdown(),
            "num_keys": int(store.num_keys),
            "num_sstables": int(store.num_sstables),
        }
        wal_info = getattr(store, "wal_info", None)
        if callable(wal_info):
            snapshot["wal"] = wal_info()
        return snapshot


# ----------------------------------------------------------------------
# request validation (before anything reaches a NumPy buffer)
# ----------------------------------------------------------------------
def _field(request: dict[str, Any], name: str) -> Any:
    try:
        return request[name]
    except KeyError:
        raise ProtocolError(f"request is missing field {name!r}") from None


def _key_int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"key must be an integer, got {value!r}")
    if not 0 <= value < 1 << 64:
        raise ProtocolError(f"key {value} is outside the u64 domain")
    return value


def _keys_array(values: Any) -> np.ndarray:
    if not isinstance(values, list):
        raise ProtocolError("keys must be a JSON array of integers")
    return np.array([_key_int(v) for v in values], dtype=np.uint64)


def _bounds_array(rows: Any) -> np.ndarray:
    if not isinstance(rows, list):
        raise ProtocolError("bounds must be a JSON array of [lo, hi] pairs")
    checked = []
    for row in rows:
        if not isinstance(row, list) or len(row) != 2:
            raise ProtocolError(f"bounds entry {row!r} is not a [lo, hi] pair")
        lo, hi = _key_int(row[0]), _key_int(row[1])
        if lo > hi:
            raise ProtocolError(f"inverted bounds [{lo}, {hi}]")
        checked.append((lo, hi))
    return np.array(checked, dtype=np.uint64).reshape(-1, 2)


def _values_list(raw: Any, count: int) -> list[bytes] | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != count:
        raise ProtocolError("values must be a JSON array aligned with keys")
    return [decode_value(v) for v in raw]


class StoreServer:
    """The asyncio TCP front-end over one :func:`repro.api.open_store`.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.  ``max_inflight`` caps in-flight requests per
    connection (backpressure); ``trace=True`` records the executed
    engine-call serialization for the exactness tests.
    """

    def __init__(
        self,
        store: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 64,
        trace: bool = False,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.store = store
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.coalescer = Coalescer(store, trace=trace)
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._closing = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._closed = False
        self.connections_total = 0
        self.requests_total = 0
        self.errors_total = 0

    @property
    def trace(self) -> list[tuple] | None:
        """The executed engine-call serialization (``trace=True`` only)."""
        return self.coalescer.trace

    async def start(self) -> None:
        """Bind the listener and start the dispatcher."""
        self.coalescer.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])

    async def serve_forever(self) -> None:
        """Block until :meth:`aclose` (or a fatal listener error)."""
        if self._server is None:
            raise RuntimeError("server not started; call start() first")
        await self._closing.wait()

    async def aclose(self) -> None:
        """Graceful shutdown: drain the coalescer, flush, release.

        Stops accepting and reading, answers every in-flight request
        (writes still ack at their group-commit barrier), drains parked
        operations, then flushes the store so everything acked is also in
        runs.  The store itself stays open — its owner closes it.
        """
        if self._closed:
            return
        self._closed = True
        self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        await self.coalescer.aclose()
        await asyncio.get_running_loop().run_in_executor(None, self.store.flush)

    def info(self) -> dict[str, Any]:
        """Server + coalescer accounting (also served by op ``stats``)."""
        c = self.coalescer
        return {
            "max_inflight": self.max_inflight,
            "connections": self.connections_total,
            "requests": self.requests_total,
            "errors": self.errors_total,
            "ticks": c.ticks,
            "coalesced_ops": c.ops,
            "engine_calls": c.engine_calls,
            "barriers": c.barriers,
            "max_tick_ops": c.max_tick_ops,
            "mean_tick_ops": (c.ops / c.ticks) if c.ticks else 0.0,
        }

    # -- connection handling -------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        self.connections_total += 1
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._conn_tasks.discard(task)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        gate = asyncio.Semaphore(self.max_inflight)
        write_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()
        closing_wait = asyncio.ensure_future(self._closing.wait())
        try:
            while not self._closing.is_set():
                read = asyncio.ensure_future(read_frame(reader))
                await asyncio.wait(
                    {read, closing_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read.done():
                    read.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, ProtocolError, OSError
                    ):
                        await read
                    break
                try:
                    request = read.result()
                except ProtocolError as exc:
                    # Framing is lost: answer once, then drop the link.
                    with contextlib.suppress(ConnectionError, OSError):
                        await self._send(
                            writer,
                            write_lock,
                            {
                                "id": None,
                                "ok": False,
                                "error": str(exc),
                                "kind": "ProtocolError",
                            },
                        )
                    break
                except (ConnectionError, OSError):
                    break
                if request is None:
                    break
                # Backpressure: cap in-flight requests; past the cap we
                # stop reading this socket and TCP pushes back.
                await gate.acquire()
                task = asyncio.ensure_future(
                    self._process(request, writer, write_lock, gate)
                )
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        finally:
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            closing_wait.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await closing_wait
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _process(
        self,
        request: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        gate: asyncio.Semaphore,
    ) -> None:
        try:
            response = await self._respond(request)
            await self._send(writer, write_lock, response)
        except (ConnectionError, OSError):
            pass  # client went away; the read loop notices on its own
        finally:
            gate.release()

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        message: dict[str, Any],
    ) -> None:
        frame = encode_frame(message)
        async with write_lock:
            writer.write(frame)
            await writer.drain()

    async def _respond(self, request: dict[str, Any]) -> dict[str, Any]:
        rid = request.get("id")
        self.requests_total += 1
        try:
            op = request.get("op")
            if not isinstance(op, str):
                raise ProtocolError("request is missing a string 'op' field")
            answer = await self._dispatch(op, request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.errors_total += 1
            return {
                "id": rid,
                "ok": False,
                "error": str(exc),
                "kind": type(exc).__name__,
            }
        return {"id": rid, "ok": True, **answer}

    async def _dispatch(
        self, op: str, request: dict[str, Any]
    ) -> dict[str, Any]:
        submit = self.coalescer.submit
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            return {"stats": await submit("stats", None)}
        if op == "get":
            keys = _keys_array([_field(request, "key")])
            answers = await submit("get", keys)
            return {"found": bool(answers[0])}
        if op == "get_many":
            keys = _keys_array(_field(request, "keys"))
            answers = await submit("get", keys)
            return {"found": [bool(a) for a in answers]}
        if op == "get_value":
            key = _key_int(_field(request, "key"))
            value = await submit("get_value", key)
            return {"found": value is not None, "value": encode_value(value)}
        if op == "put":
            keys = _keys_array([_field(request, "key")])
            raw = request.get("value")
            values = [decode_value(raw)] if raw is not None else None
            acked = await submit("put", (keys, values))
            return {"acked": acked}
        if op == "put_many":
            keys = _keys_array(_field(request, "keys"))
            values = _values_list(request.get("values"), int(keys.size))
            acked = await submit("put", (keys, values))
            return {"acked": acked}
        if op == "delete":
            keys = _keys_array([_field(request, "key")])
            acked = await submit("delete", keys)
            return {"acked": acked}
        if op == "delete_many":
            keys = _keys_array(_field(request, "keys"))
            acked = await submit("delete", keys)
            return {"acked": acked}
        if op == "may_contain":
            keys = _keys_array([_field(request, "key")])
            answers = await submit("may_contain", keys)
            return {"maybe": bool(answers[0])}
        if op == "may_contain_many":
            keys = _keys_array(_field(request, "keys"))
            answers = await submit("may_contain", keys)
            return {"maybe": [bool(a) for a in answers]}
        if op == "scan_nonempty":
            bounds = _bounds_array([[_field(request, "lo"), _field(request, "hi")]])
            answers = await submit("scan_nonempty", bounds)
            return {"nonempty": bool(answers[0])}
        if op == "scan_nonempty_many":
            bounds = _bounds_array(_field(request, "bounds"))
            answers = await submit("scan_nonempty", bounds)
            return {"nonempty": [bool(a) for a in answers]}
        if op == "scan_range":
            lo = _key_int(_field(request, "lo"))
            hi = _key_int(_field(request, "hi"))
            if lo > hi:
                raise ProtocolError(f"inverted bounds [{lo}, {hi}]")
            limit = request.get("limit")
            if limit is not None and (
                isinstance(limit, bool)
                or not isinstance(limit, int)
                or limit < 0
            ):
                raise ProtocolError(
                    f"limit must be a non-negative integer, got {limit!r}"
                )
            entries = await submit("scan", (lo, hi, limit))
            return {
                "entries": [
                    [int(key), encode_value(value)] for key, value in entries
                ]
            }
        raise ProtocolError(f"unknown op {op!r}")


async def run_server(
    store: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_inflight: int = 64,
    on_ready: Callable[[str, int], None] | None = None,
) -> StoreServer:
    """Serve ``store`` until SIGINT/SIGTERM, then shut down gracefully.

    The ``repro serve`` entry point: installs signal handlers when the
    loop allows it, calls ``on_ready(host, port)`` once listening, and
    always runs the drain-flush shutdown on the way out.
    """
    server = StoreServer(store, host, port, max_inflight=max_inflight)
    await server.start()
    assert server.address is not None
    if on_ready is not None:
        on_ready(*server.address)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: list[signal.Signals] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread / non-Unix loop: rely on cancellation
    try:
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.aclose()
    return server
