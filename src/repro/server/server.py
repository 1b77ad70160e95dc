"""The asyncio TCP index server with request coalescing.

One :class:`IndexServer` exposes a :class:`~repro.kvstore.KVStore` (or
:class:`~repro.wal.DurableKVStore`, or any bare
:class:`~repro.api.IndexProtocol` index, wrapped) over the framed
binary protocol of :mod:`repro.server.frame`.

The performance mechanism is *pipelining with epoch coalescing*.
Each connection is an :class:`asyncio.Protocol`: its ``data_received``
callback decodes and queues a readable buffer in one pass, so every
data frame from every connection lands in one server-wide arrival
queue; a drain callback scheduled for the next event-loop tick walks
the queue **in arrival order**, cutting it into *epochs*: maximal runs
of consecutive same-namespace point ops, gets and inserts mixed.  An
epoch is served as one ``get_many`` then one ``insert_many`` (on a
durable store a single WAL record and one group-committed fsync) -- or,
on a sharded index, as one ``read_write_many``: one message per touched
shard.  A get whose key was written earlier in its epoch is answered
from that pending write, every other get reads pre-epoch state, and
replies are laid out by arrival position, so the reply bytes are those
of one-at-a-time execution and per-connection request order is
preserved exactly.  Each connection's replies for a tick leave in one
``transport.write`` instead of one write per request.  No task runs per
connection or per drain.

The coalescer's state machine::

    IDLE --first burst enqueued--> SCHEDULED (call_soon)
    SCHEDULED --callback runs--> DRAINING
    DRAINING: pop an epoch (<= max_batch) -> one or two store calls
              -> collect reply frames in arrival order
              -> queue empty -> one joined write per connection -> IDLE

Flow control is per connection: when a client's transport buffer
passes its high-water mark (the client is not reading its replies) the
server stops reading that client, and the drain holds rather than
serves its queued requests until the buffer drains.  Nothing waits on
a connection's writes, so a client that stops reading stalls only
itself, and what the server holds for it is bounded.

``coalesce=False`` gives the naive one-request-per-call server: the
same queue and drain, but every request is its own store call and its
own write -- the baseline ``bench_server_throughput.py`` measures
against.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns as _now
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.kvstore import KVStore
from repro.obs.exposition import snapshot_to_prometheus
from repro.server import frame
from repro.server.metrics import ServerMetrics

_NS_KEY = frame._NS_KEY  # the 12-byte head of every point-op payload

#: Per-read timeout and header-line cap for the admin HTTP endpoint.
_ADMIN_READ_TIMEOUT = 5.0
_ADMIN_MAX_HEADER_LINES = 100

#: Seconds shutdown lets closed connections flush their last replies
#: before it cuts the ones whose peer is not reading.
_CLOSE_GRACE = 1.0


@dataclass
class ServerConfig:
    """Knobs for :class:`IndexServer`.

    ``port``/``admin_port`` of 0 bind ephemeral ports (read the bound
    ones back from ``server.port``/``server.admin_port`` after
    ``start``).  ``admin_port=None`` disables the admin endpoint.
    ``max_batch`` bounds an epoch (gets plus inserts).  A drain runs
    one event-loop tick after the first request is queued, so every
    connection that is already readable gets to enqueue into the batch.
    """

    host: str = "127.0.0.1"
    port: int = 0
    admin_port: Optional[int] = None
    coalesce: bool = True
    max_batch: int = 1024
    checkpoint_on_shutdown: bool = True


class _Connection(asyncio.Protocol):
    """One client connection: the transport callbacks and their state.

    ``paused`` is the write-side flow control: set while the
    transport's buffer is above its high-water mark, when the server
    stops reading this client and the drain moves its queued requests
    to ``held`` instead of serving them; ``resume_writing`` queues them
    again, ahead of anything the client sends next.
    """

    __slots__ = ("server", "transport", "decoder", "alive", "paused", "held")

    def __init__(self, server: "IndexServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = frame.FrameDecoder()
        self.alive = False
        self.paused = False
        self.held: List[_Entry] = []

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.alive = True
        server = self.server
        server._conns.add(self)
        server.metrics.connections_total += 1
        server.metrics.connections_open += 1

    def data_received(self, data: bytes) -> None:
        server = self.server
        damage = None
        try:
            frames = self.decoder.feed(data)
        except frame.FrameError as exc:
            # The frames ahead of the damage arrived intact and are
            # served, whichever way TCP cut the stream into reads.
            frames, damage = exc.frames, exc
        server._enqueue_burst(self, frames)
        if damage is not None:
            # A corrupt stream has no reliable frame boundaries left:
            # answer what is queued (so the error is this connection's
            # last reply), one structured error, hang up.
            server.metrics.record_error(frame.ERR_BAD_FRAME)
            server._drain()
            self.transport.write(
                frame.encode_frame(
                    0,
                    frame.OP_ERR,
                    frame.encode_err(frame.ERR_BAD_FRAME, str(damage)),
                )
            )
            self.close()

    def connection_lost(self, exc) -> None:
        self.alive = False
        self.held.clear()
        server = self.server
        server._conns.discard(self)
        server.metrics.connections_open -= 1

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        if self.held and self.alive:
            server = self.server
            server._queue.extend(self.held)
            self.held.clear()
            server._schedule_drain()
        self.transport.resume_reading()

    def close(self) -> None:
        """Stop serving this client; what was written still flushes."""
        self.alive = False
        self.transport.close()


#: One queued request: (conn, request_id, opcode, decoded args, t_enqueue_ns).
_Entry = Tuple[_Connection, int, int, Any, int]
#: A drain round's encoded reply frames, per connection, in order.
_Replies = Dict[_Connection, List[bytes]]


class IndexServer:
    """Asyncio TCP server mapping wire opcodes 1:1 onto the protocol."""

    def __init__(
        self,
        store: Optional[Any] = None,
        *,
        index: Optional[Any] = None,
        config: Optional[ServerConfig] = None,
        metrics: Optional[ServerMetrics] = None,
    ):
        if store is not None and index is not None:
            raise ValueError("pass either store= or index=, not both")
        if store is None:
            store = KVStore(index=index)  # index=None -> default DyTIS
        self.store = store
        self.config = config or ServerConfig()
        self.metrics = metrics or ServerMetrics()
        self.port: Optional[int] = None
        self.admin_port: Optional[int] = None
        self._ns_by_id: Dict[int, Any] = {}
        self._ns_ids: Dict[str, int] = {}
        self._queue: Deque[_Entry] = deque()
        self._drain_handle: Optional[asyncio.Handle] = None
        self._conns: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._admin_server: Optional[asyncio.AbstractServer] = None
        self._shutting_down = False
        self._closed = False
        # Lazily built MaintenanceController for an in-process index
        # (the sharded front-end runs its own inside each worker).
        self._maintainer: Optional[Any] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the data (and optional admin) listeners."""
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), cfg.host, cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if cfg.admin_port is not None:
            self._admin_server = await asyncio.start_server(
                self._on_admin, cfg.host, cfg.admin_port
            )
            self.admin_port = self._admin_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful stop: quiesce in-flight batches, then checkpoint.

        Sequence: stop accepting; serve every queued request and write
        its replies; close client transports; close the admin listener;
        checkpoint + close a durable store.
        """
        if self._closed:
            return
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
        # Quiesce: the scheduled drain, run now, replies to everything
        # already queued.
        self._drain()
        # Close the transports *before* wait_closed(): on Python >=
        # 3.12.1 it waits until every connection is lost.  A close
        # flushes what was written; a peer that stopped reading never
        # takes its bytes, so what is still open after the grace is cut.
        for conn in list(self._conns):
            conn.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _CLOSE_GRACE
        while self._conns and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for conn in list(self._conns):
            conn.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
        if self._admin_server is not None:
            self._admin_server.close()
            await self._admin_server.wait_closed()
        store = self.store
        # A durable store checkpoints/closes itself; a plain KVStore
        # over a lifecycle-owning index (e.g. a ShardedIndex and its
        # worker fleet) delegates to the index instead.
        ckpt = (
            store
            if hasattr(store, "checkpoint")
            else getattr(store, "index", None)
        )
        if self.config.checkpoint_on_shutdown and hasattr(ckpt, "checkpoint"):
            ckpt.checkpoint()
        closer = (
            store if hasattr(store, "close") else getattr(store, "index", None)
        )
        if hasattr(closer, "close"):
            closer.close()
        self._closed = True

    # -- namespaces -----------------------------------------------------

    def _open_namespace(self, name: str) -> int:
        if name in self._ns_ids:
            return self._ns_ids[name]
        ns = self.store.namespace(name)
        ns_id = len(self._ns_by_id)
        self._ns_by_id[ns_id] = ns
        self._ns_ids[name] = ns_id
        return ns_id

    def _ns(self, ns_id: int):
        try:
            return self._ns_by_id[ns_id]
        except KeyError:
            raise _RequestError(
                frame.ERR_UNKNOWN_NS, f"namespace id {ns_id} is not open"
            ) from None

    # -- request queue and drain ----------------------------------------

    def _enqueue_burst(self, conn: _Connection, frames: List[frame.Frame]) -> None:
        """Queue one readable buffer's requests in arrival order and
        schedule the drain.  Point ops are parsed right here, in the
        pass that queues them; every other opcode and a GET of the
        wrong size go through :meth:`_parse`.  A request that does not
        parse, or arrives during shutdown, is answered at once and
        never queued.
        """
        t0 = _now()
        push = self._queue.append
        OP_GET, OP_INSERT = frame.OP_GET, frame.OP_INSERT
        unpack = _NS_KEY.unpack_from
        decode_key_value = frame.decode_key_value
        shutting_down = self._shutting_down
        for request_id, opcode, payload in frames:
            try:
                if shutting_down:
                    raise _RequestError(
                        frame.ERR_SHUTTING_DOWN, "server is shutting down"
                    )
                if opcode == OP_GET and len(payload) == 12:
                    args = unpack(payload)
                elif opcode == OP_INSERT:
                    args = decode_key_value(payload)
                else:
                    args = self._parse(opcode, payload)
            except frame.PayloadError as exc:
                code, msg = frame.ERR_BAD_PAYLOAD, str(exc)
            except _RequestError as exc:
                code, msg = exc.code, exc.msg
            else:
                push((conn, request_id, opcode, args, t0))
                continue
            self.metrics.record_error(code)
            conn.transport.write(
                frame.encode_frame(
                    request_id, frame.OP_ERR, frame.encode_err(code, msg)
                )
            )
        if self._queue:
            self._schedule_drain()

    def _schedule_drain(self) -> None:
        """IDLE -> SCHEDULED.  ``call_soon`` runs the drain on the next
        tick, after every connection that was readable in this one has
        queued its frames."""
        if self._drain_handle is None:
            self._drain_handle = self._loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Serve the whole queue and hand each connection its replies
        as one write.  Runs as the scheduled callback, or ahead of it
        (a damaged stream, shutdown), which cancels the schedule."""
        handle, self._drain_handle = self._drain_handle, None
        if handle is not None:
            handle.cancel()
        replies: _Replies = {}
        self._drain_once(replies)
        for conn, chunks in replies.items():
            if conn.alive:
                conn.transport.write(b"".join(chunks))

    def _drain_once(self, replies: _Replies) -> None:
        """Serve the queued requests, one epoch of point ops at a time.

        Processes the queue in arrival order.  An *epoch* is the
        maximal run of consecutive OP_GET / OP_INSERT requests on one
        namespace (bounded by ``max_batch``); any other request closes
        the epoch before it and is served alone, as is every request
        when coalescing is off.  A paused connection's requests are
        held, not served: its client is not reading the replies.
        """
        queue = self._queue
        max_batch = self.config.max_batch
        coalesce = self.config.coalesce
        OP_GET, OP_INSERT = frame.OP_GET, frame.OP_INSERT
        while queue:
            entry = queue.popleft()
            if entry[0].paused:
                entry[0].held.append(entry)
                continue
            opcode = entry[2]
            if not coalesce or (opcode != OP_GET and opcode != OP_INSERT):
                self._serve_single(*entry, replies)
                continue
            epoch: List[_Entry] = [entry]
            ns_id = entry[3][0]
            mixed = False  # does the epoch hold both kinds?
            while queue and len(epoch) < max_batch:
                nxt = queue[0]
                op = nxt[2]
                if (
                    (op != OP_GET and op != OP_INSERT)
                    or nxt[3][0] != ns_id
                    or nxt[0].paused
                ):
                    break
                if op != opcode:
                    mixed = True
                epoch.append(queue.popleft())
            self._serve_epoch(ns_id, epoch, mixed, replies)

    def _serve_epoch(
        self,
        ns_id: int,
        epoch: List[_Entry],
        mixed: bool,
        replies: _Replies,
    ) -> None:
        """One ``get_many`` then one ``insert_many`` for a whole epoch.

        Reply bytes equal arrival-order execution: a GET whose key was
        written earlier in the epoch is *forwarded* the latest such
        value, every other GET reads pre-epoch state (no earlier write
        of the epoch touches its key), and ``insert_many`` is
        last-write-wins.  A pure run (``mixed`` false) skips the split.
        """
        metrics = self.metrics
        encode_value = frame.encode_value
        OP_GET = frame.OP_GET
        forwarded = 0
        r_keys: List[int] = []
        w_keys: List[int] = []
        w_vals: List[Any] = []
        if mixed:
            payloads = [b""] * len(epoch)  # an INSERT's OK reply is empty
            pending: Dict[int, Any] = {}  # key -> latest value written
            reads: Sequence[int] = []  # positions of the GETs the store serves
            for i, (_, _, op, args, _) in enumerate(epoch):
                key = args[1]
                if op != OP_GET:
                    pending[key] = args[2]
                    w_keys.append(key)
                    w_vals.append(args[2])
                elif key in pending:
                    payloads[i] = encode_value(pending[key])
                    forwarded += 1
                else:
                    reads.append(i)
                    r_keys.append(key)
        elif epoch[0][2] == OP_GET:
            reads = range(len(epoch))  # payloads: the values, in order
            r_keys = [e[3][1] for e in epoch]
        else:
            payloads = [b""] * len(epoch)
            reads = ()
            w_keys = [e[3][1] for e in epoch]
            w_vals = [e[3][2] for e in epoch]
        encode_frame = frame.encode_frame
        OP_OK = frame.OP_OK
        # One bad request must not poison the epoch (requests of other
        # connections share it): the fallbacks re-serve per request, as
        # the naive path would, so only the offender gets an error.
        merged = None
        values: Sequence[Any] = ()
        try:
            ns = self._ns(ns_id)
            if mixed:
                # A fleet serves both sides in one message per shard.
                merged = getattr(ns, "read_write_many", None)
            if merged is not None:
                values = merged(r_keys, w_keys, w_vals)
                w_keys = []  # applied: nothing left for insert_many
            elif r_keys:
                values = ns.get_many(r_keys)
            if mixed:
                for i, value in zip(reads, values):
                    payloads[i] = encode_value(value)
            elif r_keys:
                payloads = [encode_value(v) for v in values]
        except Exception as exc:  # noqa: BLE001 -- op failure, not server
            if merged is None or isinstance(exc, ValueError):
                # No read of this epoch can have missed a write: with
                # reads to serve, the merged call raises ValueError only
                # before it sends (anything later is a ShardError).
                # Re-serve the whole epoch.
                for entry in epoch:
                    self._serve_single(*entry, replies)
            else:
                # A shard failed after the scatter: healthy shards may
                # hold this epoch's writes, and a re-served GET could
                # observe a write that arrived after it.
                for entry in epoch:
                    self._reply_error(
                        entry, frame.ERR_OP_FAILED, repr(exc), replies
                    )
            return
        if w_keys:
            try:
                ns.insert_many(w_keys, w_vals)
            except Exception:  # noqa: BLE001
                # The reads already taken stand (they must not see a
                # write that follows them); the INSERTs and forwarded
                # GETs re-run in arrival order, which is idempotent for
                # whatever part of the batch had applied (overwrites).
                done = _now()
                taken = set(reads)
                for i, entry in enumerate(epoch):
                    if i in taken:
                        replies.setdefault(entry[0], []).append(
                            encode_frame(entry[1], OP_OK, payloads[i])
                        )
                    else:
                        self._serve_single(*entry, replies)
                if taken:
                    metrics.record_requests(
                        "get", [done - epoch[i][4] for i in reads]
                    )
                return
        done = _now()
        if mixed:
            metrics.record_requests(
                "get", [done - e[4] for e in epoch if e[2] == OP_GET]
            )
            metrics.record_requests(
                "insert", [done - e[4] for e in epoch if e[2] != OP_GET]
            )
            metrics.forwarded_reads_total += forwarded
        else:
            metrics.record_requests(
                "insert" if w_keys else "get", [done - e[4] for e in epoch]
            )
        for (conn, request_id, _, _, _), payload in zip(epoch, payloads):
            chunks = replies.get(conn)
            if chunks is None:
                chunks = replies[conn] = []
            chunks.append(encode_frame(request_id, OP_OK, payload))

    def _serve_single(
        self,
        conn: _Connection,
        request_id: int,
        opcode: int,
        args: Any,
        t0: int,
        replies: _Replies,
    ) -> None:
        """Serve one request alone.  Its reply leaves at once, behind
        the connection's replies collected so far: a scan can answer
        megabytes, and writing it is what lets flow control pause a
        client that does not read before the drain serves its next."""
        try:
            reply_op, payload = self._execute_parsed(opcode, args)
        except Exception as exc:  # noqa: BLE001
            if isinstance(exc, _RequestError):
                code, msg = exc.code, exc.msg
            else:
                code, msg = frame.ERR_OP_FAILED, repr(exc)
            entry = (conn, request_id, opcode, args, t0)
            self._reply_error(entry, code, msg, replies)
            return
        name = frame.OP_NAMES.get(opcode)
        if name is not None:
            self.metrics.record_request(name, _now() - t0)
        chunks = replies.pop(conn, [])
        chunks.append(frame.encode_frame(request_id, reply_op, payload))
        if conn.alive:
            conn.transport.write(b"".join(chunks))

    def _reply_error(
        self, entry: _Entry, code: int, msg: str, replies: _Replies
    ) -> None:
        """Answer a queued request with an error.  Error replies are
        recorded too, so requests_total and the latency histograms
        count every reply, whichever path produced it."""
        conn, request_id, opcode, _, t0 = entry
        self.metrics.record_error(code)
        name = frame.OP_NAMES.get(opcode)
        if name is not None:
            self.metrics.record_request(name, _now() - t0)
        replies.setdefault(conn, []).append(
            frame.encode_frame(
                request_id, frame.OP_ERR, frame.encode_err(code, msg)
            )
        )

    # -- request parsing and execution ----------------------------------

    def _parse(self, opcode: int, payload: bytes) -> Any:
        """Decode a request payload into an args tuple (ns id first)."""
        try:
            if opcode in (frame.OP_GET, frame.OP_DELETE, frame.OP_CONTAINS):
                return frame.decode_key(payload)
            if opcode == frame.OP_INSERT:
                return frame.decode_key_value(payload)
            if opcode == frame.OP_SCAN:
                return frame.decode_scan(payload)
            if opcode in (
                frame.OP_SCAN_RANGE,
                frame.OP_COUNT_RANGE,
                frame.OP_DELETE_RANGE,
            ):
                return frame.decode_range(payload)
            if opcode == frame.OP_GET_MANY:
                return frame.decode_keys(payload)
            if opcode == frame.OP_INSERT_MANY:
                return frame.decode_batch(payload)
            if opcode in (frame.OP_NS_CLOSE, frame.OP_LEN):
                return (frame.decode_ns_id(payload),)
            if opcode == frame.OP_NS_OPEN:
                return (frame.decode_ns_open(payload),)
            if opcode == frame.OP_PING:
                return ()
        except frame.PayloadError as exc:
            raise _RequestError(frame.ERR_BAD_PAYLOAD, str(exc)) from None
        raise _RequestError(frame.ERR_BAD_OPCODE, f"unknown opcode {opcode}")

    def _execute_parsed(self, opcode: int, args: Any) -> Tuple[int, bytes]:
        """Execute a parsed request; opcodes map 1:1 onto protocol calls."""
        if opcode == frame.OP_GET:
            ns_id, key = args
            return frame.OP_OK, frame.encode_value(self._ns(ns_id).get(key))
        if opcode == frame.OP_INSERT:
            ns_id, key, value = args
            self._ns(ns_id).insert(key, value)
            return frame.OP_OK, b""
        if opcode == frame.OP_DELETE:
            ns_id, key = args
            return frame.OP_OK, frame.encode_bool(self._ns(ns_id).delete(key))
        if opcode == frame.OP_CONTAINS:
            ns_id, key = args
            return frame.OP_OK, frame.encode_bool(key in self._ns(ns_id))
        if opcode == frame.OP_SCAN:
            ns_id, start_key, count = args
            return frame.OP_OK, frame.encode_pairs(
                self._ns(ns_id).scan(start_key, count)
            )
        if opcode == frame.OP_SCAN_RANGE:
            ns_id, low, high = args
            return frame.OP_OK, frame.encode_pairs(
                self._ns(ns_id).scan_range(low, high)
            )
        if opcode == frame.OP_COUNT_RANGE:
            ns_id, low, high = args
            return frame.OP_OK, frame.encode_u64(
                self._ns(ns_id).count_range(low, high)
            )
        if opcode == frame.OP_DELETE_RANGE:
            ns_id, low, high = args
            return frame.OP_OK, frame.encode_u64(
                self._ns(ns_id).delete_range(low, high)
            )
        if opcode == frame.OP_GET_MANY:
            ns_id, keys = args
            return frame.OP_OK, frame.encode_values(
                self._ns(ns_id).get_many(keys)
            )
        if opcode == frame.OP_INSERT_MANY:
            ns_id, keys, values = args
            self._ns(ns_id).insert_many(keys, values)
            return frame.OP_OK, b""
        if opcode == frame.OP_NS_OPEN:
            (name,) = args
            return frame.OP_OK, frame.encode_ns_id(self._open_namespace(name))
        if opcode == frame.OP_NS_CLOSE:
            (ns_id,) = args
            self._ns(ns_id)  # validate; namespaces are shared, not owned
            return frame.OP_OK, b""
        if opcode == frame.OP_LEN:
            (ns_id,) = args
            return frame.OP_OK, frame.encode_u64(len(self._ns(ns_id)))
        if opcode == frame.OP_PING:
            return frame.OP_OK, b""
        raise _RequestError(frame.ERR_BAD_OPCODE, f"unknown opcode {opcode}")

    # -- admin endpoint -------------------------------------------------

    def _run_maintenance(self) -> Optional[Dict[str, int]]:
        """One maintenance step; None when the index supports none.

        A :class:`~repro.shard.sharded.ShardedIndex` runs the step in
        its workers (each the single writer of its slice); a local
        index gets a lazily built, server-lifetime
        :class:`~repro.core.maintenance.MaintenanceController` so the
        traffic baseline spans steps.
        """
        index = getattr(self.store, "index", None)
        fleet = getattr(index, "maintenance", None)
        if callable(fleet):
            return fleet()
        core = getattr(index, "_d", index)  # unwrap ConcurrentDyTIS
        if core is None or not hasattr(core, "_tables"):
            return None
        if self._maintainer is None:
            from repro.core.maintenance import MaintenanceController

            self._maintainer = MaintenanceController(core)
        events = self._maintainer.step()
        return {
            "rebuilds": len(events),
            "segment_rebuilds": sum(
                1 for e in events if e.scope == "segment"
            ),
            "table_rebuilds": sum(1 for e in events if e.scope == "table"),
            "keys_moved": sum(e.keys_moved for e in events),
            "degraded": self._maintainer.metrics.last_degraded,
        }

    async def _on_admin(self, reader, writer) -> None:
        """Minimal HTTP/1.0 responder for /metrics and /healthz.

        Reads are bounded (timeout + header-line cap) so a silent or
        header-spamming client cannot hold the handler task open and
        stall shutdown.
        """
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=_ADMIN_READ_TIMEOUT
            )
            for _ in range(_ADMIN_MAX_HEADER_LINES):
                line = await asyncio.wait_for(
                    reader.readline(), timeout=_ADMIN_READ_TIMEOUT
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            else:
                return
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else ""
            if path.startswith("/metrics"):
                status, ctype = "200 OK", "text/plain; version=0.0.4"
                text = self.metrics.to_prometheus()
                # Indexes with their own exposition (the sharded
                # front-end's per-shard + merged series) share the page.
                index_page = getattr(
                    getattr(self.store, "index", None),
                    "metrics_to_prometheus",
                    None,
                )
                if index_page is not None:
                    text += index_page()
                # Stores with their own exposition (the durable store's
                # wal_* and remote_* shipping series) share it too.
                store_page = getattr(
                    self.store, "metrics_to_prometheus", None
                )
                if store_page is not None:
                    text += store_page()
                # Maintenance counters, once /maintenance has run at
                # least one step on an in-process index (the sharded
                # fleet ships its own maint_* series per shard above).
                if self._maintainer is not None:
                    text += snapshot_to_prometheus(
                        {"maint": self._maintainer.metrics.to_dict()}
                    )
                body = text.encode("utf-8")
            elif path.startswith("/healthz"):
                status, ctype = "200 OK", "text/plain"
                body = b"ok\n"
            elif path.startswith("/checkpoint"):
                # Force a checkpoint (and, with a remote attached, a
                # ship) right now -- the hook the backup/restore smoke
                # uses to pin down what must survive a SIGKILL.  Like
                # everything on the admin port it is unauthenticated:
                # bind admin_port to an operator-only interface.
                store_ckpt = getattr(self.store, "checkpoint", None)
                index_ckpt = getattr(
                    getattr(self.store, "index", None), "checkpoint", None
                )
                if store_ckpt is not None:
                    # The durable store's checkpoint holds its write
                    # lock for the duration, so it is safe on a worker
                    # thread -- and it must run there: with a remote
                    # attached it does retry backoff sleeps and real
                    # uploads, which on the loop thread would stall
                    # the entire data plane.  Reads (and this loop)
                    # keep serving; only writes queue on the lock.
                    lsn = await asyncio.get_running_loop().run_in_executor(
                        None, store_ckpt
                    )
                    status, ctype = "200 OK", "text/plain"
                    body = f"checkpointed {lsn}\n".encode()
                elif index_ckpt is not None:
                    # An index-level checkpoint (the sharded fleet)
                    # speaks over worker pipes that are not thread-
                    # safe, so it stays on the loop thread and is
                    # stop-the-world for its duration: a test-drill
                    # hook, not a production fast path.
                    status, ctype = "200 OK", "text/plain"
                    body = f"checkpointed {index_ckpt()}\n".encode()
                else:
                    status, ctype = "409 Conflict", "text/plain"
                    body = b"store has no checkpoint support\n"
            elif path.startswith("/maintenance"):
                # Trigger one online-maintenance step (probe-depth
                # driven re-bulkload of degraded segments; see
                # repro.core.maintenance).  Runs on the loop thread:
                # the loop is the index's single writer, so the swap
                # is atomic with respect to every data-plane request,
                # and a step is budget-bounded (maint_max_rebuilds).
                summary = self._run_maintenance()
                if summary is None:
                    status, ctype = "409 Conflict", "text/plain"
                    body = b"index has no maintenance support\n"
                else:
                    status, ctype = "200 OK", "application/json"
                    body = (json.dumps(summary) + "\n").encode()
            else:
                status, ctype = "404 Not Found", "text/plain"
                body = b"not found\n"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.TimeoutError,
            ValueError,  # readline() overrunning the stream limit
        ):
            pass
        finally:
            writer.close()


class _RequestError(Exception):
    """A request that gets a structured error reply (not a crash)."""

    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code
        self.msg = msg
