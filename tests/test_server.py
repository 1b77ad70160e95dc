"""The network service: server, clients, coalescing, shutdown, metrics.

The server runs on a helper thread (:class:`repro.server.testing.
ServerThread`); tests talk to it over real sockets.  The headline
property is that :class:`RemoteIndex` *is* an index -- it satisfies
``IndexProtocol``/``BatchOpsProtocol`` structurally and agrees with a
local DyTIS on the same workload -- and that the coalescing fast path
is behaviourally invisible (same results, per-connection order
preserved) while actually batching under pipelined load.
"""

import asyncio
import random
import socket
import urllib.request

import pytest

from repro.api import BatchOpsProtocol, IndexProtocol, batch_pairs
from repro.core import DyTIS
from repro.kvstore import KVStore
from repro.obs import parse_prometheus
from repro.shard import ShardedIndex
from repro.server import (
    AsyncRemoteIndex,
    RemoteError,
    RemoteIndex,
    ServerConfig,
    ServerThread,
    frame,
)
from repro.wal import DurableKVStore


@pytest.fixture(params=[True, False], ids=["coalesce", "naive"])
def server(request):
    with ServerThread(
        config=ServerConfig(coalesce=request.param, admin_port=0)
    ) as st:
        yield st


@pytest.fixture
def remote(server):
    with RemoteIndex(server.host, server.port, "t") as idx:
        yield idx


class TestRemoteIndexIsAnIndex:
    def test_satisfies_protocols(self, remote):
        assert isinstance(remote, IndexProtocol)
        assert isinstance(remote, BatchOpsProtocol)

    def test_full_surface(self, remote):
        remote.insert(5, "five")
        remote.insert_many([1, 2, 3], ["a", "b", "c"])
        assert remote.get(5) == "five"
        assert remote.get(99) is None
        assert remote.get_many([1, 3, 99]) == ["a", "c", None]
        assert remote.scan(0, 2) == [(1, "a"), (2, "b")]
        assert remote.scan_range(2, 5) == [(2, "b"), (3, "c")]
        assert remote.count_range(0, 100) == 4
        assert 3 in remote and 99 not in remote
        assert len(remote) == 4
        assert remote.delete(1) is True
        assert remote.delete(1) is False
        assert remote.delete_range(2, 4) == 2
        assert list(remote.items()) == [(5, "five")]

    def test_differential_vs_local_dytis(self, remote):
        rng = random.Random(31)
        keys = rng.sample(range(1, 200_000), 3000)
        local = DyTIS()
        remote.bulk_load(keys, [k * 3 for k in keys])
        for k in keys:
            local.insert(k, k * 3)
        assert len(remote) == len(local)
        probes = rng.sample(keys, 300) + [
            rng.randrange(200_000, 400_000) for _ in range(100)
        ]
        assert remote.get_many(probes) == local.get_many(probes)
        for lo, hi in [(0, 1), (7, 7), (100, 50_000), (150_000, 160_000)]:
            assert remote.scan_range(lo, hi) == local.scan_range(lo, hi)
            assert remote.count_range(lo, hi) == local.count_range(lo, hi)
        assert remote.delete_range(40_000, 90_000) == local.delete_range(
            40_000, 90_000
        )
        assert list(remote.items()) == list(local.items())

    def test_namespaces_are_disjoint(self, server):
        with RemoteIndex(server.host, server.port, "a") as a, RemoteIndex(
            server.host, server.port, "b"
        ) as b:
            a.insert(1, "a1")
            b.insert(1, "b1")
            assert a.get(1) == "a1"
            assert b.get(1) == "b1"
            assert a.ns_id != b.ns_id

    def test_ns_open_is_idempotent(self, server):
        with RemoteIndex(server.host, server.port, "same") as a, RemoteIndex(
            server.host, server.port, "same"
        ) as b:
            assert a.ns_id == b.ns_id
            a.ping()


class TestErrors:
    def test_unknown_namespace(self, remote):
        with pytest.raises(RemoteError) as exc:
            remote._call(frame.OP_GET, frame.encode_key(999, 1))
        assert exc.value.code == frame.ERR_UNKNOWN_NS

    def test_bad_opcode(self, remote):
        with pytest.raises(RemoteError) as exc:
            remote._call(77, b"")
        assert exc.value.code == frame.ERR_BAD_OPCODE

    def test_bad_payload(self, remote):
        with pytest.raises(RemoteError) as exc:
            remote._call(frame.OP_GET, b"\x01\x02")
        assert exc.value.code == frame.ERR_BAD_PAYLOAD

    def test_connection_survives_structured_errors(self, remote):
        for _ in range(3):
            with pytest.raises(RemoteError):
                remote._call(frame.OP_GET, frame.encode_key(999, 1))
        remote.insert(1, "still alive")
        assert remote.get(1) == "still alive"


class TestCoalescing:
    def _pipeline(self, server, coro_fn):
        async def go():
            client = await AsyncRemoteIndex.connect(
                server.host, server.port, "p"
            )
            try:
                return await coro_fn(client)
            finally:
                await client.close()

        return server.run(go())

    def test_pipelined_gets_are_batched(self):
        with ServerThread(config=ServerConfig(coalesce=True)) as st:
            async def go(client):
                futs = [client.submit_insert(k, k) for k in range(300)]
                await client.drain()
                await asyncio.gather(*futs)
                futs = [client.submit_get(k) for k in range(300)]
                await client.drain()
                payloads = await asyncio.gather(*futs)
                return [frame.decode_value(p) for p in payloads]

            values = self._pipeline(st, go)
            assert values == list(range(300))
            m = st.server.metrics
            assert m.batches_total["get"] >= 1
            assert m.batched_requests_total["get"] >= 300
            assert m.mean_batch_size("get") > 1

    def test_read_your_writes_order_preserved(self):
        """Interleaved insert/get on one connection must never reorder."""
        with ServerThread(config=ServerConfig(coalesce=True)) as st:
            async def go(client):
                futs = []
                for generation in range(5):
                    for k in range(50):
                        futs.append(
                            client.submit_insert(k, generation * 1000 + k)
                        )
                    for k in range(50):
                        futs.append(client.submit_get(k))
                await client.drain()
                return await asyncio.gather(*futs)

            replies = self._pipeline(st, go)
            # Each get must observe the insert batch just before it.
            for generation in range(5):
                block = replies[generation * 100 + 50 : generation * 100 + 100]
                got = [frame.decode_value(p) for p in block]
                assert got == [generation * 1000 + k for k in range(50)]

    def test_bad_request_does_not_poison_batch(self):
        """A failing request coalesced into a run must error alone.

        2**63 is outside the default namespace codec's key range, so
        the batched ``get_many`` raises mid-run; the server must fall
        back to per-request execution (as the naive path would) rather
        than failing every coalesced request.
        """
        with ServerThread(config=ServerConfig(coalesce=True)) as st:
            async def go(client):
                futs = [client.submit_insert(k, k) for k in range(20)]
                await client.drain()
                await asyncio.gather(*futs)
                futs = [client.submit_get(k) for k in range(10)]
                bad = client.submit_get(2**63)
                futs += [client.submit_get(k) for k in range(10, 20)]
                await client.drain()
                good = await asyncio.gather(*futs)
                with pytest.raises(RemoteError) as exc:
                    await bad
                assert exc.value.code == frame.ERR_OP_FAILED
                return [frame.decode_value(p) for p in good]

            assert self._pipeline(st, go) == list(range(20))
            # The fallback records every re-served request exactly once:
            # the counters equal the replies sent (20 + 1 GETs, one an
            # error reply; 20 INSERTs).
            m = st.server.metrics
            assert m.requests_total["get"] == 21
            assert m.requests_total["insert"] == 20
            assert m.latency["get"].count == 21

    def test_multi_connection_batching(self):
        with ServerThread(config=ServerConfig(coalesce=True)) as st:
            async def go():
                clients = [
                    await AsyncRemoteIndex.connect(st.host, st.port, "p")
                    for _ in range(4)
                ]
                await clients[0].insert_many(list(range(100)),
                                             list(range(100)))

                async def read_all(c):
                    futs = [c.submit_get(k) for k in range(100)]
                    await c.drain()
                    return await asyncio.gather(*futs)

                results = await asyncio.gather(*(read_all(c) for c in clients))
                for payloads in results:
                    assert [frame.decode_value(p) for p in payloads] == list(
                        range(100)
                    )
                for c in clients:
                    await c.close()

            st.run(go())


class _Wire:
    """A raw pipelining connection: a burst leaves in one send and the
    replies come back as the bytes the server wrote."""

    def __init__(self, st, namespace="e"):
        self.sock = socket.create_connection((st.host, st.port), timeout=10)
        self.decoder = frame.FrameDecoder()
        self.rid = 0
        self.send([(frame.OP_NS_OPEN, frame.encode_ns_open(namespace))])
        self.ns_id = frame.decode_ns_id(self.recv(1)[1][0][2])

    def send(self, requests):
        buf = bytearray()
        for opcode, payload in requests:
            self.rid += 1
            buf += frame.encode_frame(self.rid, opcode, payload)
        self.sock.sendall(buf)

    def recv(self, n):
        raw, frames = bytearray(), []
        while len(frames) < n:
            data = self.sock.recv(65536)
            assert data, "server hung up"
            raw += data
            frames += self.decoder.feed(data)
        assert len(frames) == n
        return bytes(raw), frames

    def get(self, key):
        return frame.OP_GET, frame.encode_key(self.ns_id, key)

    def insert(self, key, value):
        return frame.OP_INSERT, frame.encode_key_value(self.ns_id, key, value)

    def burst(self, requests):
        """Send, then the (opcode, payload) of every reply, in order."""
        first = self.rid + 1
        self.send(requests)
        frames = self.recv(len(requests))[1]
        assert [f[0] for f in frames] == list(
            range(first, first + len(requests))
        )
        return [(op, payload) for _, op, payload in frames]

    def close(self):
        self.sock.close()


_BAD_KEY = 2**63  # outside the default namespace codec's key range
_OK_EMPTY = (frame.OP_OK, b"")


def _ok(value):
    return frame.OP_OK, frame.encode_value(value)


class TestEpochs:
    """A drain's GETs and INSERTs share one ``get_many`` and one
    ``insert_many``; the replies must not show it."""

    def test_read_before_write_and_failed_insert(self):
        """``insert_many`` raising keeps the reads already taken (a GET
        before the write still sees the old value) and errors only the
        offender; a forwarded GET re-runs behind its write."""
        with ServerThread(config=ServerConfig(coalesce=True)) as st:
            w = _Wire(st)
            assert w.burst([w.insert(7, "old")]) == [_OK_EMPTY]
            got = w.burst(
                [w.get(7), w.insert(7, "new"), w.insert(_BAD_KEY, "x")]
            )
            assert got[:2] == [_ok("old"), _OK_EMPTY]
            assert got[2][0] == frame.OP_ERR
            assert frame.decode_err(got[2][1])[0] == frame.ERR_OP_FAILED
            got = w.burst(
                [w.insert(7, "newer"), w.get(7), w.insert(_BAD_KEY, "x")]
            )
            assert got[:2] == [_OK_EMPTY, _ok("newer")]
            assert got[2][0] == frame.OP_ERR
            w.close()
            m = st.server.metrics
            assert m.requests_total["get"] == 2
            assert m.requests_total["insert"] == 5
            assert m.forwarded_reads_total == 0  # the forward never stood

    def test_forward_waits_for_its_write(self):
        """A forwarded reply leaves only once ``insert_many`` succeeded:
        if the write it read from is refused, the GET re-runs and sees
        what is actually stored."""

        class Picky(DyTIS):
            def insert(self, key, value):
                if value == "poison":
                    raise ValueError("refused")
                super().insert(key, value)

            def insert_many(self, keys, values=None):
                for key, value in batch_pairs(keys, values):
                    self.insert(key, value)

        with ServerThread(index=Picky(), config=ServerConfig()) as st:
            w = _Wire(st)
            assert w.burst([w.insert(7, "old")]) == [_OK_EMPTY]
            got = w.burst([w.insert(7, "poison"), w.get(7)])
            assert got[0][0] == frame.OP_ERR
            assert got[1] == _ok("old")
            w.close()
            assert st.server.metrics.forwarded_reads_total == 0

    def test_reads_forward_the_latest_pending_write(self):
        with ServerThread(config=ServerConfig(coalesce=True)) as st:
            w = _Wire(st)
            got = w.burst(
                [w.insert(7, "v1"), w.get(7), w.insert(7, "v2"), w.get(7)]
            )
            assert got == [_OK_EMPTY, _ok("v1"), _OK_EMPTY, _ok("v2")]
            assert w.burst([w.get(7)]) == [_ok("v2")]
            w.close()
            m = st.server.metrics
            assert m.forwarded_reads_total == 2
            assert m.requests_total["get"] == 3
            # One store call per kind: the epoch's two INSERTs were one
            # batch, its two (forwarded) GETs one more.
            assert m.batches_total == {"get": 1, "insert": 1}

    @pytest.mark.parametrize("backend", ["kvstore", "durable", "sharded"])
    def test_differential_vs_naive_and_oracle(self, backend, tmp_path):
        """Random GET/INSERT bursts over a 4-key hot set, two
        connections: the coalescing server, the naive server and a dict
        applied in arrival order must agree byte for byte."""

        def make_store(tag):
            if backend == "durable":
                return DurableKVStore(tmp_path / tag, fsync="never")
            if backend == "sharded":
                return KVStore(index=ShardedIndex(2, mode="hash"))
            return KVStore()

        transcripts = []
        for coalesce in (True, False):
            with ServerThread(
                make_store(f"c{coalesce}"),
                config=ServerConfig(coalesce=coalesce),
            ) as st:
                transcripts.append(self._drive(st))
                if coalesce:
                    m = st.server.metrics
                    assert m.forwarded_reads_total > 0
                    assert m.mean_batch_size("insert") > 2
        assert transcripts[0] == transcripts[1]

    @staticmethod
    def _drive(st):
        rng = random.Random(15)
        hot = [3, 1 << 40, (1 << 55) + 9, 77]
        wires = [_Wire(st), _Wire(st)]
        oracle = {}
        raw = [bytearray(), bytearray()]

        def make_burst(w, keys):
            requests, expect = [], []
            for _ in range(rng.randrange(1, 48)):
                key, roll = rng.choice(keys), rng.random()
                if roll < 0.03:
                    requests.append(w.insert(_BAD_KEY, 0))
                    expect.append(None)  # an error reply
                elif roll < 0.06:
                    requests.append(
                        (frame.OP_DELETE, frame.encode_key(w.ns_id, key))
                    )
                    removed = oracle.pop(key, None) is not None
                    expect.append((frame.OP_OK, frame.encode_bool(removed)))
                elif roll < 0.5:
                    requests.append(w.get(key))
                    expect.append(_ok(oracle.get(key)))
                else:
                    value = [w.rid, len(requests)]
                    oracle[key] = value
                    requests.append(w.insert(key, value))
                    expect.append(_OK_EMPTY)
            return requests, expect

        def collect(i, n, expect):
            data, frames = wires[i].recv(n)
            raw[i] += data
            for (_, op, payload), want in zip(frames, expect):
                if want is None:
                    assert op == frame.OP_ERR
                else:
                    assert (op, payload) == want

        for round_ in range(60):
            if round_ % 2:
                # Both connections in one drain, each on its own half of
                # the hot set so either interleaving has one outcome.
                bursts = [
                    make_burst(wires[0], hot[:2]),
                    make_burst(wires[1], hot[2:]),
                ]
                for w, (requests, _) in zip(wires, bursts):
                    w.send(requests)
                for i, (requests, expect) in enumerate(bursts):
                    collect(i, len(requests), expect)
            else:
                i = (round_ // 2) % 2
                requests, expect = make_burst(wires[i], hot)
                wires[i].send(requests)
                collect(i, len(requests), expect)
        for w in wires:
            w.close()
        return bytes(raw[0]), bytes(raw[1])


class TestDurableShutdown:
    def test_graceful_shutdown_checkpoints(self, tmp_path):
        directory = tmp_path / "srv"
        store = DurableKVStore(directory, fsync="never")
        st = ServerThread(store, config=ServerConfig(coalesce=True)).start()
        try:
            with RemoteIndex(st.host, st.port, "t") as idx:
                idx.insert_many(list(range(500)), [k * 2 for k in range(500)])
                idx.insert(999_999, "last")
        finally:
            st.stop()
        assert store.metrics.checkpoints_total >= 1
        with DurableKVStore(directory, fsync="never") as reopened:
            ns = reopened.namespace("t")
            assert len(ns) == 501
            assert ns.get(999_999) == "last"
            assert ns.get_many([0, 250, 499]) == [0, 500, 998]


    def test_shutdown_with_connected_clients(self):
        """Shutdown must not wait for connected clients to hang up.

        On Python >= 3.12.1 ``Server.wait_closed`` also waits for the
        connection-handler tasks, so shutdown must tear down client
        connections first or SIGTERM deadlocks with clients attached.
        """
        st = ServerThread(config=ServerConfig(coalesce=True)).start()
        idx = RemoteIndex(st.host, st.port, "t")
        try:
            idx.insert(1, "one")
            st.stop()
            assert not st._thread.is_alive()
        finally:
            idx.close()


class TestReplyDecoderBounds:
    """Truncated reply payloads must raise, never silently mis-decode.

    The regression: a value column truncated mid-value used to slice
    short and ``json.loads`` could parse a prefix (``b"123456"`` ->
    ``123``), returning wrong data instead of an error.
    """

    def test_values_reply_truncation_always_raises(self):
        raw = frame.encode_values([123456, "abc", None])
        assert frame.decode_values(raw) == [123456, "abc", None]
        for cut in range(len(raw)):
            with pytest.raises(frame.PayloadError):
                frame.decode_values(raw[:cut])

    def test_values_reply_trailing_bytes_raise(self):
        with pytest.raises(frame.PayloadError):
            frame.decode_values(frame.encode_values([1]) + b"x")

    def test_pairs_reply_truncation_always_raises(self):
        raw = frame.encode_pairs([(1, "a"), (2, 123456)])
        assert frame.decode_pairs(raw) == [(1, "a"), (2, 123456)]
        for cut in range(len(raw)):
            with pytest.raises(frame.PayloadError):
                frame.decode_pairs(raw[:cut])

    def test_pairs_reply_trailing_bytes_raise(self):
        with pytest.raises(frame.PayloadError):
            frame.decode_pairs(frame.encode_pairs([(1, "a")]) + b"\x00")


class TestAdminEndpoint:
    def test_metrics_scrape(self, server, remote):
        remote.insert_many(list(range(50)), list(range(50)))
        remote.get_many(list(range(50)))
        remote.get(1)
        url = f"http://{server.host}:{server.admin_port}"
        page = urllib.request.urlopen(f"{url}/metrics").read().decode()
        samples = parse_prometheus(page)
        total = "dytis_server_requests_total"
        assert samples[(total, (("op", "insert_many"),))] == 1
        assert samples[(total, (("op", "get_many"),))] == 1
        assert samples[(total, (("op", "get"),))] >= 1
        assert samples[("dytis_server_connections_open", ())] >= 1
        hist = "dytis_server_op_latency_ns_count"
        assert samples[(hist, (("op", "get"),))] >= 1
        assert samples[("dytis_server_forwarded_reads_total", ())] == 0

    def test_page_declares_each_family_once_and_fills_it(self, tmp_path):
        """The /metrics page of a durable server after an in-process
        maintenance step, plus a 2-shard fleet's page: every family is
        declared once, has samples, and is typed by the one rule."""
        store = DurableKVStore(tmp_path / "srv", fsync="never")
        with ServerThread(
            store, config=ServerConfig(admin_port=0)
        ) as st, RemoteIndex(st.host, st.port, "t") as idx:
            idx.insert_many(list(range(200)), list(range(200)))
            idx.get_many(list(range(0, 200, 3)))
            url = f"http://{st.host}:{st.admin_port}"
            urllib.request.urlopen(f"{url}/maintenance").read()
            page = urllib.request.urlopen(f"{url}/metrics").read().decode()
        assert "dytis_maint_steps_total 1" in page
        with ShardedIndex(2, durable_dir=str(tmp_path / "fleet")) as fleet:
            fleet.insert_many(list(range(300)), list(range(300)))
            fleet.maintenance()
            page += fleet.metrics_to_prometheus()
        samples = parse_prometheus(page)
        types = {}
        for line in page.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert name not in types, f"{name} declared twice"
                types[name] = kind
        assert "dytis_shard_maint_steps_total" in types
        for name, kind in types.items():
            names = {name} | {
                name + s for s in ("_bucket", "_sum", "_count")
                if kind == "histogram"
            }
            assert any(n in names for n, _ in samples), f"{name} is empty"
            if kind != "histogram":
                want = "counter" if name.endswith("_total") else "gauge"
                assert kind == want, (name, kind)

    def test_healthz_and_404(self, server):
        url = f"http://{server.host}:{server.admin_port}"
        assert urllib.request.urlopen(f"{url}/healthz").read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{url}/nope")

    def test_checkpoint_endpoint_runs_off_the_event_loop(self, tmp_path):
        """A store-level /checkpoint must not stall the data plane.

        With a remote attached a checkpoint can spend seconds in
        upload latency and retry backoff sleeps; it therefore runs on
        a worker thread.  Here the checkpoint is parked on an event
        and both planes are probed while it is provably in flight.
        """
        import threading

        store = DurableKVStore(tmp_path / "srv", fsync="never")
        entered = threading.Event()
        release = threading.Event()
        inner = store.checkpoint

        def slow_checkpoint():
            entered.set()
            release.wait(timeout=30.0)
            return inner()

        store.checkpoint = slow_checkpoint
        st = ServerThread(
            store, config=ServerConfig(coalesce=True, admin_port=0)
        ).start()
        try:
            with RemoteIndex(st.host, st.port, "t") as idx:
                idx.insert(1, "one")
                url = f"http://{st.host}:{st.admin_port}"
                resp = {}
                req = threading.Thread(
                    target=lambda: resp.setdefault(
                        "body",
                        urllib.request.urlopen(f"{url}/checkpoint").read(),
                    )
                )
                req.start()
                assert entered.wait(timeout=10.0)
                # The checkpoint is parked on its worker thread; the
                # loop must keep serving reads and admin probes.
                assert idx.get(1) == "one"
                assert (
                    urllib.request.urlopen(f"{url}/healthz").read() == b"ok\n"
                )
                release.set()
                req.join(timeout=10.0)
                assert resp["body"].startswith(b"checkpointed ")
        finally:
            release.set()
            st.stop()
        assert store.metrics.checkpoints_total >= 1


def test_server_wraps_bare_index():
    """index= takes any IndexProtocol implementation directly."""
    from repro.btree import BPlusTree

    with ServerThread(index=BPlusTree(), config=ServerConfig()) as st:
        with RemoteIndex(st.host, st.port, "t") as idx:
            idx.insert_many([3, 1, 2], ["c", "a", "b"])
            assert idx.scan_range(0, 10) == [(1, "a"), (2, "b"), (3, "c")]


def test_server_refuses_store_and_index():
    from repro.server import IndexServer

    with pytest.raises(ValueError):
        IndexServer(KVStore(), index=DyTIS())


def test_a_client_that_stops_reading_stalls_only_itself():
    """A client that pipelines scans and never reads its replies must
    not freeze the data plane: the server stops reading *that* client
    (so what it holds for it stays bounded) and keeps serving the rest.
    """
    import time

    value = "v" * 98  # 100 bytes as JSON
    with ServerThread(config=ServerConfig(coalesce=True)) as st:
        with RemoteIndex(st.host, st.port, "slow") as idx:
            idx.bulk_load(list(range(5000)), [value] * 5000)
        hog = _Wire(st, "slow")
        scan = (frame.OP_SCAN, frame.encode_scan(hog.ns_id, 0, 1000))
        try:
            hog.send([scan] * 2000)
            time.sleep(0.3)  # the server reads the burst and stalls on it
            t0 = time.perf_counter()
            with RemoteIndex(st.host, st.port, "slow", timeout=5) as idx:
                assert idx.get(7) == value
            assert time.perf_counter() - t0 < 1.0
            assert st.server.metrics.requests_total["scan"] < 500
        finally:
            hog.close()


class TestAsyncClientLifecycle:
    def test_server_going_away_mid_burst_fails_the_pending_futures(self):
        """Stop the server (what SIGTERM does) under bursts of 64
        pipelined requests: every future ends -- a reply, or
        ``ConnectionError`` once the connection is gone -- none hangs,
        and ``close()`` may be called twice."""
        st = ServerThread(config=ServerConfig(coalesce=True)).start()

        async def go():
            client = await AsyncRemoteIndex.connect(st.host, st.port, "t")
            stopping = asyncio.get_running_loop().run_in_executor(
                None, st.stop
            )
            futs = []
            while not any(f.exception() for f in futs):
                buf = bytearray()
                burst = [
                    client.submit_into(
                        buf, frame.OP_GET, frame.encode_key(client.ns_id, k)
                    )
                    for k in range(64)
                ]
                client.send_buffer(buf)
                futs += burst
                await asyncio.wait_for(
                    asyncio.gather(*burst, return_exceptions=True), 10
                )
            await stopping
            await client.close()
            await client.close()
            return futs

        futs = asyncio.run(go())
        assert not st._thread.is_alive()
        failed = [f.exception() for f in futs if f.exception() is not None]
        assert failed and all(isinstance(e, ConnectionError) for e in failed)
        assert all(
            frame.decode_value(f.result()) is None
            for f in futs
            if f.exception() is None
        )

    def test_drain_on_a_closed_client_raises(self):
        with ServerThread(config=ServerConfig()) as st:

            async def go():
                client = await AsyncRemoteIndex.connect(st.host, st.port)
                await client.drain()  # open and writable: returns at once
                await client.close()
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.drain(), 5)
                with pytest.raises(ConnectionError):
                    await client.submit_get(1)

            asyncio.run(go())

    def test_drain_waits_for_a_slow_peer_and_fails_if_it_goes(self):
        """Write past the high-water mark to a peer that accepts and
        never reads: ``drain()`` waits, and raises ``ConnectionError``
        when that peer hangs up instead of waiting forever."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        async def go():
            loop = asyncio.get_running_loop()
            accepted = loop.run_in_executor(None, listener.accept)
            client = await loop.create_connection(
                AsyncRemoteIndex, "127.0.0.1", port
            )
            client = client[1]
            peer, _ = await accepted
            for _ in range(64):
                client.send_buffer(bytearray(1 << 20))
            waiting = asyncio.ensure_future(client.drain())
            await asyncio.sleep(0.2)
            assert not waiting.done()
            peer.close()
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(waiting, 5)

        try:
            asyncio.run(go())
        finally:
            listener.close()
