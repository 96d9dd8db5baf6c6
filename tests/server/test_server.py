"""End-to-end server tests over live TCP sockets.

Round trips for every protocol op against in-memory, persistent, and
sharded stores; error responses that keep the connection alive;
per-connection backpressure; per-request dispatch mode; and the graceful
shutdown contract (every acknowledged write survives a mid-load stop).
"""

import asyncio
import struct
import threading
import time

import numpy as np
import pytest

from repro.api import FilterSpec, open_store
from repro.server import AsyncStoreClient, ServerError, StoreClient
from repro.server.protocol import MAX_FRAME_BYTES

SPEC = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})


@pytest.fixture(params=["memory", "persistent", "sharded"])
def store(request, tmp_path):
    if request.param == "memory":
        db = open_store()
    elif request.param == "persistent":
        db = open_store(
            path=tmp_path / "db",
            filter=SPEC,
            store_values=True,
            memtable_capacity=256,
            wal_sync="batch",
            wal_group_commit=8,
        )
    else:
        db = open_store(
            path=tmp_path / "db",
            filter=SPEC,
            shards=3,
            memtable_capacity=256,
            wal_sync="batch",
            wal_group_commit=8,
        )
    yield db
    db.close()


class TestRoundTrips:
    def test_point_ops(self, store, running_server):
        with running_server(store) as server:
            host, port = server.address
            with StoreClient(host, port) as c:
                assert c.ping()
                assert c.put_many([5, 6, 7]) == 3
                c.put(42)
                assert c.get(42)
                assert c.get_many([5, 6, 7, 9999]) == [True, True, True, False]
                assert c.may_contain(5)
                assert all(c.may_contain_many([5, 6, 7]))
                c.delete(6)
                assert c.delete_many([7]) == 1
                assert c.get_many([5, 6, 7]) == [True, False, False]

    def test_range_ops(self, store, running_server):
        with running_server(store) as server:
            host, port = server.address
            with StoreClient(host, port) as c:
                c.put_many(list(range(100, 111)))
                assert c.scan_nonempty(100, 110)
                assert not c.scan_nonempty(200, 300)
                assert c.scan_nonempty_many(
                    [[0, 99], [105, 107], [500, 600]]
                ) == [False, True, False]
                entries = c.scan_range(100, 105)
                assert [k for k, _ in entries] == [100, 101, 102, 103, 104, 105]
                assert len(c.scan_range(100, 110, limit=3)) == 3

    def test_stats_op(self, store, running_server):
        with running_server(store) as server:
            host, port = server.address
            with StoreClient(host, port) as c:
                c.put_many([1, 2, 3])
                c.get_many([1, 2, 3, 4])
                stats = c.stats()
                assert stats["num_keys"] == 3
                assert stats["counters"]["filter_probes"] >= 0
                assert "breakdown" in stats

    def test_empty_batches(self, store, running_server):
        with running_server(store) as server:
            host, port = server.address
            with StoreClient(host, port) as c:
                assert c.get_many([]) == []
                assert c.put_many([]) == 0
                assert c.delete_many([]) == 0
                assert c.may_contain_many([]) == []
                assert c.scan_nonempty_many([]) == []


def test_stats_count_an_unsharded_stores_runs(running_server):
    with open_store(filter=SPEC, memtable_capacity=64) as db:
        with running_server(db) as server:
            with StoreClient(*server.address) as c:
                c.put_many(list(range(1_000)))
                assert len(db.sstables) > 1
                assert c.stats()["num_sstables"] == len(db.sstables)


def test_values_round_trip(tmp_path, running_server):
    store = open_store(
        path=tmp_path / "db", filter=SPEC, store_values=True,
        memtable_capacity=256,
    )
    try:
        with running_server(store) as server:
            host, port = server.address
            with StoreClient(host, port) as c:
                c.put(1, b"one")
                c.put_many([2, 3], [b"two", b"\x00\xffbinary"])
                assert c.get_value(1) == b"one"
                assert c.get_value(3) == b"\x00\xffbinary"
                assert c.get_value(99) is None
                assert c.scan_range(1, 3) == [
                    (1, b"one"), (2, b"two"), (3, b"\x00\xffbinary"),
                ]
    finally:
        store.close()


def test_writes_ack_after_covering_group_commit(tmp_path, running_server):
    """Under wal_sync="batch" an acked write is already fsync-covered:
    pending_ops is zero after every acknowledged write returns."""
    store = open_store(
        path=tmp_path / "db", filter=SPEC, wal_sync="batch",
        wal_group_commit=1000, memtable_capacity=1 << 12,
    )
    try:
        with running_server(store) as server:
            host, port = server.address
            with StoreClient(host, port) as c:
                for k in range(20):
                    c.put(k)
                    assert store.wal_info()["pending_ops"] == 0
                assert store.wal_info()["fsyncs"] >= 1
    finally:
        store.close()


class TestErrors:
    def test_bad_requests_answer_and_keep_connection(self, running_server):
        store = open_store()
        try:
            with running_server(store) as server:
                host, port = server.address
                with StoreClient(host, port) as c:
                    c.put_many([1, 2])
                    for op, fields, fragment in [
                        ("bogus", {}, "unknown op"),
                        ("get_many", {"keys": "nope"}, "array of integers"),
                        ("get_many", {"keys": [1, "x"]}, "integer"),
                        ("get_many", {"keys": [-5]}, "u64"),
                        ("get_many", {"keys": [1 << 64]}, "u64"),
                        ("get_many", {"keys": [True]}, "integer"),
                        ("get", {}, "missing field"),
                        ("scan_nonempty", {"lo": 9, "hi": 3}, "inverted"),
                        ("scan_range", {"lo": 9, "hi": 3}, "inverted"),
                        ("scan_range", {"lo": 1, "hi": 2, "limit": -1}, "limit"),
                        ("put_many", {"keys": [1, 2], "values": ["AA=="]},
                         "aligned"),
                        ("put", {"key": 1, "value": "!!"}, "base64"),
                        ("scan_nonempty_many", {"bounds": [[1]]}, "pair"),
                    ]:
                        with pytest.raises(ServerError, match=fragment) as err:
                            c._request(op, **fields)
                        assert err.value.kind == "ProtocolError"
                    # The connection survived all of it.
                    assert c.get_many([1, 2, 3]) == [True, True, False]
                assert server.errors_total == 13
        finally:
            store.close()

    def test_frame_level_garbage_drops_connection(self, running_server):
        store = open_store()
        try:
            with running_server(store) as server:
                host, port = server.address
                client = StoreClient(host, port)
                try:
                    # An impossible length prefix: framing is lost.
                    client._sock.sendall(
                        struct.pack("<I", MAX_FRAME_BYTES + 1)
                    )
                    (length,) = struct.unpack(
                        "<I", client._recv_exact(4)
                    )
                    from repro.server.protocol import decode_frame_body

                    response = decode_frame_body(client._recv_exact(length))
                    assert response["ok"] is False
                    assert response["kind"] == "ProtocolError"
                    # ... and then the server hangs up.
                    with pytest.raises(ConnectionError):
                        client._recv_exact(1)
                finally:
                    client.close()
        finally:
            store.close()


class _SlowReads:
    """Store wrapper: delays get_many so requests pile up server-side."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get_many(self, keys):
        time.sleep(self._delay_s)
        return self._inner.get_many(keys)


def test_backpressure_caps_inflight_per_connection(running_server):
    """With max_inflight=2 the server stops reading past two queued
    requests, so no coalescer tick can ever hold more than two ops from
    the single pipelined connection."""
    store = _SlowReads(open_store(), delay_s=0.004)
    try:
        with running_server(store, max_inflight=2) as server:
            host, port = server.address

            async def hammer():
                client = await AsyncStoreClient.connect(host, port)
                try:
                    answers = await asyncio.gather(
                        *(client.get(k) for k in range(24))
                    )
                finally:
                    await client.aclose()
                return answers

            answers = asyncio.run(hammer())
            assert answers == [False] * 24
            assert server.coalescer.max_tick_ops <= 2
            assert server.requests_total == 24
    finally:
        store._inner.close()


def test_pipelined_async_client_coalesces(running_server):
    """Concurrent requests on one connection land in shared ticks: fewer
    engine calls than requests."""
    store = _SlowReads(open_store(), delay_s=0.002)
    store._inner.put_many(np.arange(64, dtype=np.uint64))
    try:
        with running_server(store, max_inflight=64) as server:
            host, port = server.address

            async def hammer():
                client = await AsyncStoreClient.connect(host, port)
                try:
                    return await asyncio.gather(
                        *(client.get(k) for k in range(40))
                    )
                finally:
                    await client.aclose()

            answers = asyncio.run(hammer())
            assert answers == [True] * 40
            assert server.coalescer.engine_calls < 40
            assert server.coalescer.max_tick_ops > 1
    finally:
        store._inner.close()


def test_graceful_shutdown_preserves_acked_writes(tmp_path, running_server):
    """Stop the server while a client hammers it: every put acknowledged
    before the connection died must be durable after reopen."""
    root = tmp_path / "db"
    store = open_store(
        path=root, filter=SPEC, memtable_capacity=128,
        wal_sync="batch", wal_group_commit=16,
    )
    acked = []

    def writer(host, port):
        try:
            with StoreClient(host, port) as c:
                for k in range(100_000):
                    c.put(k)
                    acked.append(k)
        except (ConnectionError, ServerError, OSError):
            pass  # the shutdown cut us off mid-stream

    with running_server(store) as server:
        host, port = server.address
        thread = threading.Thread(target=writer, args=(host, port))
        thread.start()
        while len(acked) < 64:
            time.sleep(0.001)
        # exiting the block: aclose() drains while the writer hammers
    thread.join(30)
    assert not thread.is_alive()
    store.close()
    acked_snapshot = list(acked)
    assert len(acked_snapshot) >= 64
    with open_store(path=root) as db:
        answers = db.get_many(np.array(acked_snapshot, dtype=np.uint64))
        assert answers.all(), "an acknowledged write was lost by shutdown"


def test_server_info_accounting(running_server):
    store = open_store()
    try:
        with running_server(store) as server:
            host, port = server.address
            with StoreClient(host, port) as c:
                c.ping()
                c.put_many([1])
                c.get(1)
            info = server.info()
            assert info["requests"] == 3
            assert info["connections"] == 1
            assert info["errors"] == 0
            assert info["barriers"] >= 1
            assert info["coalesced_ops"] == 2  # ping never reaches the engine
    finally:
        store.close()
