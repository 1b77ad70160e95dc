"""Clients for the index server.

:class:`RemoteIndex` is the synchronous client: one blocking socket,
one request in flight.  Because the wire opcodes map 1:1 onto
:class:`~repro.api.BatchOpsProtocol` methods, a ``RemoteIndex``
*structurally satisfies* ``IndexProtocol`` (and ``BatchOpsProtocol``)
-- it drops into the bench adapters, the differential tests, and any
other protocol-typed code path unchanged, with the network as an
invisible layer.

:class:`AsyncRemoteIndex` is the pipelined asyncio client the load
generator uses: many requests in flight per connection, matched to
replies by request id in the connection's ``data_received`` callback.
Pipelining is what gives the server's coalescer something to coalesce.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.server import frame

#: Page size for items()/bulk_load chunking.
_PAGE = 1024
_CHUNK = 8192


class RemoteError(Exception):
    """Structured error reply from the server."""

    def __init__(self, code: int, message: str):
        name = frame.ERR_NAMES.get(code, str(code))
        super().__init__(f"[{name}] {message}")
        self.code = code
        self.message = message


class RemoteIndex:
    """Synchronous remote view of one server-side namespace.

    Satisfies :class:`repro.api.IndexProtocol` and
    :class:`repro.api.BatchOpsProtocol` structurally; every method is
    one request/reply round trip except ``items`` (paged ``scan``) and
    ``bulk_load`` (chunked ``insert_many``).
    """

    def __init__(
        self, host: str, port: int, namespace: str = "default", timeout=30.0
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = frame.FrameDecoder()
        self._next_id = 1
        self._closed = False
        self.namespace = namespace
        self.ns_id = frame.decode_ns_id(
            self._call(frame.OP_NS_OPEN, frame.encode_ns_open(namespace))
        )

    # -- plumbing -------------------------------------------------------

    def _call(self, opcode: int, payload: bytes = b"") -> bytes:
        request_id = self._next_id
        self._next_id += 1
        self._sock.sendall(frame.encode_frame(request_id, opcode, payload))
        while True:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            try:
                frames = self._decoder.feed(data)
            except frame.FrameError as exc:
                # Replies ahead of the damage stand; the stream is dead.
                frames = exc.frames
                self.close()
                if not frames:
                    raise ConnectionError(str(exc)) from None
            if frames:
                break
        if len(frames) != 1:
            raise ConnectionError("unexpected pipelined reply")
        rid, reply_op, reply_payload = frames[0]
        if rid != request_id:
            raise ConnectionError(
                f"reply id {rid} does not match request {request_id}"
            )
        if reply_op == frame.OP_ERR:
            raise RemoteError(*frame.decode_err(reply_payload))
        return reply_payload

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> "RemoteIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ping(self) -> None:
        self._call(frame.OP_PING)

    # -- IndexProtocol --------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        return frame.decode_value(
            self._call(frame.OP_GET, frame.encode_key(self.ns_id, key))
        )

    def insert(self, key: int, value: Any) -> None:
        self._call(
            frame.OP_INSERT, frame.encode_key_value(self.ns_id, key, value)
        )

    def delete(self, key: int) -> bool:
        return frame.decode_bool(
            self._call(frame.OP_DELETE, frame.encode_key(self.ns_id, key))
        )

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]:
        return frame.decode_pairs(
            self._call(
                frame.OP_SCAN, frame.encode_scan(self.ns_id, start_key, count)
            )
        )

    def scan_range(self, low: int, high: int) -> List[Tuple[int, Any]]:
        return frame.decode_pairs(
            self._call(
                frame.OP_SCAN_RANGE, frame.encode_range(self.ns_id, low, high)
            )
        )

    def count_range(self, low: int, high: int) -> int:
        return frame.decode_u64(
            self._call(
                frame.OP_COUNT_RANGE, frame.encode_range(self.ns_id, low, high)
            )
        )

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Ascending pairs, paged through ``scan`` (one page in flight)."""
        cursor = 0
        while True:
            page = self.scan(cursor, _PAGE)
            yield from page
            if len(page) < _PAGE:
                return
            cursor = page[-1][0] + 1

    def bulk_load(
        self, keys: Sequence[int], values: Sequence[Any]
    ) -> None:
        """Chunked ``insert_many``: no native remote sorted-build."""
        keys = list(keys)
        values = list(values)
        for i in range(0, len(keys), _CHUNK):
            self.insert_many(keys[i : i + _CHUNK], values[i : i + _CHUNK])

    def __len__(self) -> int:
        return frame.decode_u64(
            self._call(frame.OP_LEN, frame.encode_ns_id(self.ns_id))
        )

    def __contains__(self, key: int) -> bool:
        return frame.decode_bool(
            self._call(frame.OP_CONTAINS, frame.encode_key(self.ns_id, key))
        )

    # -- BatchOpsProtocol ------------------------------------------------

    def get_many(self, keys: Sequence[int]) -> List[Optional[Any]]:
        return frame.decode_values(
            self._call(
                frame.OP_GET_MANY, frame.encode_keys(self.ns_id, list(keys))
            )
        )

    def insert_many(
        self, keys: Sequence[int], values: Optional[Sequence[Any]] = None
    ) -> None:
        if values is None:
            pairs = list(keys)
            keys = [k for k, _ in pairs]
            values = [v for _, v in pairs]
        self._call(
            frame.OP_INSERT_MANY,
            frame.encode_batch(self.ns_id, list(keys), list(values)),
        )

    def delete_range(self, low: int, high: int) -> int:
        return frame.decode_u64(
            self._call(
                frame.OP_DELETE_RANGE,
                frame.encode_range(self.ns_id, low, high),
            )
        )


class AsyncRemoteIndex(asyncio.Protocol):
    """Pipelined asyncio client: many requests in flight per connection.

    The client is its connection's protocol: each request gets a fresh
    id and a future, and ``data_received`` resolves futures as reply
    frames arrive (replies come back in request order per connection,
    but matching by id keeps the client honest) -- no task runs per
    connection.  When the connection is lost, closed, or its reply
    stream is damaged, every pending future fails with
    :class:`ConnectionError` (replies ahead of the damage stand), and so
    does every later request.  Create with :meth:`connect`.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._decoder = frame.FrameDecoder()
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 1
        #: Why the connection is gone; None while it is up.
        self._lost: Optional[ConnectionError] = None
        #: Set while the transport's buffer is above its high-water mark.
        self._paused = False
        self._drain_waiters: List[asyncio.Future] = []
        self.ns_id: Optional[int] = None

    @classmethod
    async def connect(
        cls, host: str, port: int, namespace: str = "default"
    ) -> "AsyncRemoteIndex":
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port
        )
        client.ns_id = frame.decode_ns_id(
            await client.call(frame.OP_NS_OPEN, frame.encode_ns_open(namespace))
        )
        return client

    # -- transport callbacks --------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        damage = None
        try:
            frames = self._decoder.feed(data)
        except frame.FrameError as exc:
            # Replies ahead of the damage stand; the rest fail.
            frames, damage = exc.frames, exc
        pop = self._pending.pop
        for rid, op, payload in frames:
            fut = pop(rid, None)
            if fut is None or fut.done():
                continue
            if op == frame.OP_ERR:
                fut.set_exception(RemoteError(*frame.decode_err(payload)))
            else:
                fut.set_result(payload)
        if damage is not None:
            self._fail(ConnectionError(str(damage)))
            self._transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail(
            ConnectionError(str(exc) if exc else "server closed the connection")
        )

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake_drainers()

    def _fail(self, exc: ConnectionError) -> None:
        """The connection is gone: fail what is pending (the first
        cause is kept for later requests) and release drain waiters."""
        if self._lost is None:
            self._lost = exc
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(exc)
        self._pending.clear()
        self._wake_drainers()

    def _wake_drainers(self) -> None:
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._drain_waiters.clear()

    # -- requests -------------------------------------------------------

    def submit(self, opcode: int, payload: bytes = b"") -> asyncio.Future:
        """Fire one request without awaiting: the pipelining primitive."""
        buf = bytearray()
        fut = self.submit_into(buf, opcode, payload)
        self.send_buffer(buf)
        return fut

    def submit_into(
        self, buf: bytearray, opcode: int, payload: bytes = b""
    ) -> asyncio.Future:
        """Like :meth:`submit`, but append the frame to ``buf`` instead
        of writing it.  Callers batch a whole burst into one buffer and
        hand it to :meth:`send_buffer` -- one write (usually one
        syscall) for N requests instead of N."""
        request_id = self._next_id
        self._next_id += 1
        fut = self._loop.create_future()
        if self._lost is None:
            self._pending[request_id] = fut
        else:
            fut.set_exception(self._lost)
        frame.encode_frame_into(buf, request_id, opcode, payload)
        return fut

    def send_buffer(self, buf: bytearray) -> None:
        if self._lost is None:
            self._transport.write(bytes(buf))

    async def drain(self) -> None:
        """Wait until the connection takes writes again (the transport's
        buffer is below its low-water mark): backpressure for callers
        that pipeline.  Raises :class:`ConnectionError` once the
        connection is gone, rather than waiting on a dead peer."""
        if self._paused and self._lost is None:
            waiter = self._loop.create_future()
            self._drain_waiters.append(waiter)
            await waiter
        if self._lost is not None:
            raise ConnectionError(str(self._lost))

    async def call(self, opcode: int, payload: bytes = b"") -> bytes:
        return await self.submit(opcode, payload)

    async def close(self) -> None:
        """Fail whatever is still pending and close the connection;
        idempotent."""
        self._fail(ConnectionError("client closed the connection"))
        self._transport.close()

    # -- pipelined convenience wrappers ---------------------------------

    def submit_get(self, key: int) -> asyncio.Future:
        return self.submit(frame.OP_GET, frame.encode_key(self.ns_id, key))

    def submit_insert(self, key: int, value: Any) -> asyncio.Future:
        return self.submit(
            frame.OP_INSERT, frame.encode_key_value(self.ns_id, key, value)
        )

    def submit_scan(self, start_key: int, count: int) -> asyncio.Future:
        return self.submit(
            frame.OP_SCAN, frame.encode_scan(self.ns_id, start_key, count)
        )

    async def get(self, key: int) -> Optional[Any]:
        return frame.decode_value(await self.call(
            frame.OP_GET, frame.encode_key(self.ns_id, key)
        ))

    async def insert(self, key: int, value: Any) -> None:
        await self.call(
            frame.OP_INSERT, frame.encode_key_value(self.ns_id, key, value)
        )

    async def insert_many(
        self, keys: Sequence[int], values: Sequence[Any]
    ) -> None:
        await self.call(
            frame.OP_INSERT_MANY,
            frame.encode_batch(self.ns_id, list(keys), list(values)),
        )
