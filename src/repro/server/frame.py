"""The wire protocol: length-prefixed, CRC-framed binary messages.

Every message -- request or reply -- is one frame::

    u32 frame_len | u32 crc32 | u64 request_id | u8 opcode | payload

``frame_len`` counts everything after itself (crc through payload);
``crc32`` covers everything after *itself* (request_id, opcode,
payload), the same cover-what-follows discipline as the WAL record
format.  All integers are little-endian.  A frame that fails the
length bounds or the CRC is a protocol error: the peer replies with a
structured :data:`OP_ERR` frame (request id 0, :data:`ERR_BAD_FRAME`)
and closes the connection, because a corrupt stream has no reliable
record boundaries left.

Opcodes map 1:1 onto :class:`repro.api.BatchOpsProtocol` methods --
the wire format *is* the typed contract, which is why the remote
client can satisfy ``IndexProtocol`` verbatim.  Keys travel as u64
(the store's codec-encoded integers); values travel in the system-wide
compact-JSON value encoding (:func:`repro.kvstore.codec.dump_value`)
shared with the WAL and snapshot layers.  Batch payloads are columnar
-- one packed key column, then length-prefixed value bytes -- the same
shape as the WAL's ``OP_BATCH2`` record and the columnar engine's
batched insert.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, List, Optional, Sequence, Tuple

from repro.kvstore.codec import dump_value, load_value

#: Hard per-frame ceiling: a length prefix beyond this is treated as
#: corruption, not as a request to buffer gigabytes.
MAX_FRAME_LEN = 16 * 1024 * 1024

_LEN = struct.Struct("<I")
_LEN_CRC = struct.Struct("<II")  # frame_len, crc32
_HEADER = struct.Struct("<IIQB")  # frame_len, crc32, request_id, opcode
_RID_OP = struct.Struct("<QB")
#: Minimum legal frame_len: crc + request_id + opcode, empty payload.
_MIN_FRAME_LEN = _HEADER.size - _LEN.size

# -- request opcodes --------------------------------------------------------
OP_PING = 1
OP_NS_OPEN = 2
OP_NS_CLOSE = 3

OP_GET = 16
OP_INSERT = 17
OP_DELETE = 18
OP_SCAN = 19
OP_SCAN_RANGE = 20
OP_COUNT_RANGE = 21
OP_GET_MANY = 22
OP_INSERT_MANY = 23
OP_DELETE_RANGE = 24
OP_CONTAINS = 25
OP_LEN = 26

# -- reply opcodes ----------------------------------------------------------
OP_OK = 0x80
OP_ERR = 0x81

#: Wire opcode -> metric/display name (requests only).
OP_NAMES = {
    OP_PING: "ping",
    OP_NS_OPEN: "ns_open",
    OP_NS_CLOSE: "ns_close",
    OP_GET: "get",
    OP_INSERT: "insert",
    OP_DELETE: "delete",
    OP_SCAN: "scan",
    OP_SCAN_RANGE: "scan_range",
    OP_COUNT_RANGE: "count_range",
    OP_GET_MANY: "get_many",
    OP_INSERT_MANY: "insert_many",
    OP_DELETE_RANGE: "delete_range",
    OP_CONTAINS: "contains",
    OP_LEN: "len",
}

# -- error codes ------------------------------------------------------------
ERR_BAD_FRAME = 1  # framing/CRC damage; connection closes after the reply
ERR_BAD_OPCODE = 2
ERR_BAD_PAYLOAD = 3
ERR_UNKNOWN_NS = 4
ERR_OP_FAILED = 5
ERR_SHUTTING_DOWN = 6

ERR_NAMES = {
    ERR_BAD_FRAME: "bad_frame",
    ERR_BAD_OPCODE: "bad_opcode",
    ERR_BAD_PAYLOAD: "bad_payload",
    ERR_UNKNOWN_NS: "unknown_ns",
    ERR_OP_FAILED: "op_failed",
    ERR_SHUTTING_DOWN: "shutting_down",
}


class FrameError(ValueError):
    """The byte stream does not contain a structurally valid frame;
    ``frames`` are the valid ones that preceded the damage."""

    def __init__(self, message: str, frames: Sequence["Frame"] = ()):
        super().__init__(message)
        self.frames = list(frames)


class PayloadError(ValueError):
    """A well-framed message carries a malformed payload."""


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(request_id: int, opcode: int, payload: bytes = b"") -> bytes:
    """One wire frame; the inverse of what :class:`FrameDecoder` yields."""
    body = _RID_OP.pack(request_id, opcode) + payload
    return _LEN_CRC.pack(_MIN_FRAME_LEN + len(payload), zlib.crc32(body)) + body


def encode_frame_into(
    buf: bytearray, request_id: int, opcode: int, payload: bytes = b""
) -> None:
    """Append one frame to ``buf``: the clients' burst-batching path."""
    body = _RID_OP.pack(request_id, opcode) + payload
    buf += _LEN_CRC.pack(_MIN_FRAME_LEN + len(payload), zlib.crc32(body))
    buf += body


Frame = Tuple[int, int, bytes]  # (request_id, opcode, payload)


class FrameDecoder:
    """Incremental frame parser over an arbitrary-chunked byte stream.

    ``feed`` returns every complete frame in arrival order and buffers
    the tail.  A read that starts on a frame boundary -- the common
    case -- is parsed in place from the ``bytes`` the socket returned:
    per frame one header unpack, one body slice (what the CRC covers)
    and the payload cut from it (two small copies beat a ``memoryview``
    slice at point-op sizes).  On the first structurally invalid frame
    (absurd length, CRC mismatch) it raises :class:`FrameError`
    carrying the valid frames decoded before it from this buffer --
    they must be served however TCP segmented the stream -- after
    which the stream must be abandoned: there is no trustworthy resync
    point.
    """

    def __init__(self) -> None:
        self._buf = bytearray()  # an incomplete frame, across reads
        self._need = 0  # bytes it takes before the parse can progress

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of the (possibly incomplete) next frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Frame]:
        pending = self._buf
        if pending:
            pending += data
            if len(pending) < self._need:
                return []
            data = bytes(pending)
            pending.clear()
        frames: List[Frame] = []
        append = frames.append
        unpack_from = _HEADER.unpack_from
        crc32 = zlib.crc32
        min_len, max_len = _MIN_FRAME_LEN, MAX_FRAME_LEN
        n = len(data)
        offset = 0
        need = _LEN.size
        while offset + 4 <= n:
            if offset + 17 <= n:
                frame_len, crc, request_id, opcode = unpack_from(data, offset)
            else:  # the length prefix alone can already be absurd
                (frame_len,) = _LEN.unpack_from(data, offset)
            if not min_len <= frame_len <= max_len:
                raise FrameError(
                    f"frame length {frame_len} outside [{min_len}, {max_len}]",
                    frames,
                )
            end = offset + 4 + frame_len
            if end > n:
                need = 4 + frame_len
                break
            body = data[offset + 8 : end]  # what the CRC covers
            if crc32(body) != crc:
                raise FrameError("frame checksum mismatch", frames)
            append((request_id, opcode, body[9:]))
            offset = end
        if offset < n:
            pending += data[offset:]
            self._need = need
        return frames


# ---------------------------------------------------------------------------
# Payload codecs (requests)
# ---------------------------------------------------------------------------

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_NS_KEY = struct.Struct("<IQ")  # ns_id, key
_NS_SCAN = struct.Struct("<IQI")  # ns_id, start_key, count
_NS_RANGE = struct.Struct("<IQQ")  # ns_id, low, high
_NS_COUNT = struct.Struct("<II")  # ns_id, n


def _unpack(spec: struct.Struct, payload: bytes, what: str):
    if len(payload) != spec.size:
        raise PayloadError(
            f"{what}: expected {spec.size} payload bytes, got {len(payload)}"
        )
    return spec.unpack(payload)


def encode_ns_open(name: str) -> bytes:
    return name.encode("utf-8")


def decode_ns_open(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PayloadError(f"ns_open: {exc}") from None


def encode_ns_id(ns_id: int) -> bytes:
    return _U32.pack(ns_id)


def decode_ns_id(payload: bytes) -> int:
    return _unpack(_U32, payload, "ns_id")[0]


def encode_key(ns_id: int, key: int) -> bytes:
    return _NS_KEY.pack(ns_id, key)


def decode_key(payload: bytes) -> Tuple[int, int]:
    return _unpack(_NS_KEY, payload, "key op")


def encode_key_value(ns_id: int, key: int, value: Any) -> bytes:
    return _NS_KEY.pack(ns_id, key) + dump_value(value)


def decode_key_value(payload: bytes) -> Tuple[int, int, Any]:
    if len(payload) < _NS_KEY.size:
        raise PayloadError("insert: payload shorter than header")
    ns_id, key = _NS_KEY.unpack_from(payload, 0)
    try:
        value = load_value(payload[_NS_KEY.size :])
    except ValueError as exc:
        raise PayloadError(f"insert: bad value encoding: {exc}") from None
    return ns_id, key, value


def encode_scan(ns_id: int, start_key: int, count: int) -> bytes:
    return _NS_SCAN.pack(ns_id, start_key, count)


def decode_scan(payload: bytes) -> Tuple[int, int, int]:
    return _unpack(_NS_SCAN, payload, "scan")


def encode_range(ns_id: int, low: int, high: int) -> bytes:
    return _NS_RANGE.pack(ns_id, low, high)


def decode_range(payload: bytes) -> Tuple[int, int, int]:
    return _unpack(_NS_RANGE, payload, "range op")


def encode_keys(ns_id: int, keys: Sequence[int]) -> bytes:
    n = len(keys)
    return _NS_COUNT.pack(ns_id, n) + struct.pack(f"<{n}Q", *keys)


def decode_keys(payload: bytes) -> Tuple[int, List[int]]:
    if len(payload) < _NS_COUNT.size:
        raise PayloadError("get_many: payload shorter than header")
    ns_id, n = _NS_COUNT.unpack_from(payload, 0)
    if len(payload) != _NS_COUNT.size + 8 * n:
        raise PayloadError(
            f"get_many: {n} keys need {8 * n} bytes, "
            f"got {len(payload) - _NS_COUNT.size}"
        )
    return ns_id, list(struct.unpack_from(f"<{n}Q", payload, _NS_COUNT.size))


def encode_batch(
    ns_id: int, keys: Sequence[int], values: Sequence[Any]
) -> bytes:
    """Columnar batch: ns | u32 n | n*u64 keys | n*(u32 len | value)."""
    n = len(keys)
    chunks = [_NS_COUNT.pack(ns_id, n), struct.pack(f"<{n}Q", *keys)]
    for value in values:
        raw = dump_value(value)
        chunks.append(_U32.pack(len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


def decode_batch(payload: bytes) -> Tuple[int, List[int], List[Any]]:
    if len(payload) < _NS_COUNT.size:
        raise PayloadError("insert_many: payload shorter than header")
    ns_id, n = _NS_COUNT.unpack_from(payload, 0)
    offset = _NS_COUNT.size + 8 * n
    if len(payload) < offset:
        raise PayloadError("insert_many: truncated key column")
    keys = list(struct.unpack_from(f"<{n}Q", payload, _NS_COUNT.size))
    values: List[Any] = []
    try:
        for _ in range(n):
            (vlen,) = _U32.unpack_from(payload, offset)
            offset += 4
            if offset + vlen > len(payload):
                raise PayloadError("insert_many: truncated value")
            values.append(load_value(payload[offset : offset + vlen]))
            offset += vlen
    except (struct.error, ValueError) as exc:
        raise PayloadError(f"insert_many: {exc}") from None
    if offset != len(payload):
        raise PayloadError("insert_many: trailing bytes after batch")
    return ns_id, keys, values


# ---------------------------------------------------------------------------
# Payload codecs (replies)
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> bytes:
    return dump_value(value)


def decode_value(payload: bytes) -> Any:
    try:
        return load_value(payload)
    except ValueError as exc:
        raise PayloadError(f"bad value encoding: {exc}") from None


def encode_values(values: Sequence[Any]) -> bytes:
    chunks = [_U32.pack(len(values))]
    for value in values:
        raw = dump_value(value)
        chunks.append(_U32.pack(len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


def decode_values(payload: bytes) -> List[Any]:
    if len(payload) < 4:
        raise PayloadError("values reply shorter than header")
    (n,) = _U32.unpack_from(payload, 0)
    offset = 4
    out: List[Any] = []
    try:
        for _ in range(n):
            (vlen,) = _U32.unpack_from(payload, offset)
            offset += 4
            if offset + vlen > len(payload):
                raise PayloadError("values reply: truncated value")
            out.append(load_value(payload[offset : offset + vlen]))
            offset += vlen
    except (struct.error, ValueError) as exc:
        raise PayloadError(f"bad values reply: {exc}") from None
    if offset != len(payload):
        raise PayloadError("values reply: trailing bytes")
    return out


def encode_pairs(pairs: Sequence[Tuple[int, Any]]) -> bytes:
    """Scan reply: u32 n | n*u64 keys | n*(u32 len | value bytes)."""
    n = len(pairs)
    chunks = [_U32.pack(n), struct.pack(f"<{n}Q", *(k for k, _ in pairs))]
    for _, value in pairs:
        raw = dump_value(value)
        chunks.append(_U32.pack(len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


def decode_pairs(payload: bytes) -> List[Tuple[int, Any]]:
    if len(payload) < 4:
        raise PayloadError("pairs reply shorter than header")
    (n,) = _U32.unpack_from(payload, 0)
    if len(payload) < 4 + 8 * n:
        raise PayloadError("pairs reply: truncated key column")
    keys = struct.unpack_from(f"<{n}Q", payload, 4)
    offset = 4 + 8 * n
    out: List[Tuple[int, Any]] = []
    try:
        for i in range(n):
            (vlen,) = _U32.unpack_from(payload, offset)
            offset += 4
            if offset + vlen > len(payload):
                raise PayloadError("pairs reply: truncated value")
            out.append((keys[i], load_value(payload[offset : offset + vlen])))
            offset += vlen
    except (struct.error, ValueError) as exc:
        raise PayloadError(f"bad pairs reply: {exc}") from None
    if offset != len(payload):
        raise PayloadError("pairs reply: trailing bytes")
    return out


def encode_u64(x: int) -> bytes:
    return _U64.pack(x)


def decode_u64(payload: bytes) -> int:
    return _unpack(_U64, payload, "u64 reply")[0]


def encode_bool(flag: bool) -> bytes:
    return b"\x01" if flag else b"\x00"


def decode_bool(payload: bytes) -> bool:
    if len(payload) != 1:
        raise PayloadError("bool reply must be one byte")
    return payload != b"\x00"


def encode_err(code: int, message: str) -> bytes:
    return struct.pack("<H", code) + message.encode("utf-8", "replace")


def decode_err(payload: bytes) -> Tuple[int, str]:
    if len(payload) < 2:
        raise PayloadError("error reply shorter than its code")
    (code,) = struct.unpack_from("<H", payload, 0)
    return code, payload[2:].decode("utf-8", "replace")
