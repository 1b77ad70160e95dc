"""Binary WAL record and segment-header codecs.

Every logical write becomes one fixed-header record::

    u32 crc32 | u64 lsn | u8 op | u32 payload_len | payload bytes

with the CRC covering everything after itself (lsn, op, length,
payload), so a torn, zero-filled, or bit-flipped tail is detected at
the first bad record and replay stops cleanly *before* it.  LSNs are
monotonic and gapless (the first record of a log is LSN 1); a
continuity break is treated exactly like a CRC failure.

Segments open with their own header::

    b"DWAL" | u8 version | u64 seqno | u64 base_lsn | u32 crc32

(the CRC covers the preceding fields -- a bit-flipped header must not
yield a garbage base LSN).

``base_lsn`` is the LSN the segment's first record will carry, which
lets truncation decide segment liveness without reading record bodies
and lets recovery detect a log whose tail was truncated past the
checkpoint it needs.

Payload codecs live here too: keys are the store's full 64-bit encoded
integers (namespace prefix included), values round-trip through compact
JSON -- the same "values must be JSON-serialisable" contract the
snapshot layer already imposes.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, List, NamedTuple, Optional, Tuple

from repro.kvstore.codec import dump_value, load_value

SEGMENT_MAGIC = b"DWAL"
FORMAT_VERSION = 1

_SEGMENT_HEADER = struct.Struct("<4sBQQI")  # magic, version, seqno, base_lsn, crc
_RECORD_HEADER = struct.Struct("<IQBI")  # crc32, lsn, op, payload_len

SEGMENT_HEADER_SIZE = _SEGMENT_HEADER.size
RECORD_HEADER_SIZE = _RECORD_HEADER.size

# Operation kinds.
OP_INSERT = 1
OP_DELETE = 2
OP_DELETE_RANGE = 3
OP_BATCH = 4
OP_NS_OPEN = 5
OP_BATCH2 = 6

OP_NAMES = {
    OP_INSERT: "insert",
    OP_DELETE: "delete",
    OP_DELETE_RANGE: "delete_range",
    OP_BATCH: "batch",
    OP_NS_OPEN: "ns_open",
    OP_BATCH2: "batch2",
}

_U64 = struct.Struct("<Q")
_U64U64 = struct.Struct("<QQ")
_U32 = struct.Struct("<I")
_PAIR = struct.Struct("<QI")  # key, value length


class WalFormatError(ValueError):
    """A record or segment header is structurally invalid."""


class WalRecord(NamedTuple):
    lsn: int
    op: int
    payload: bytes


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


_RECORD_BODY = struct.Struct("<QBI")  # lsn, op, payload_len (after the crc)
_KEYED_BODY = struct.Struct("<QBIQ")  # the same, then an insert payload's key


def encode_record(lsn: int, op: int, payload: bytes) -> bytes:
    body = _RECORD_BODY.pack(lsn, op, len(payload)) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _U32.pack(crc) + body


class TailStatus(NamedTuple):
    """Why record decoding stopped: clean end vs. detected damage."""

    clean: bool  # True: buffer ended exactly at a record boundary
    reason: str  # "end" | "torn" | "crc" | "lsn_gap"
    offset: int  # byte offset of the first undecodable record


def decode_records(
    buf: bytes, offset: int = 0, prev_lsn: Optional[int] = None
) -> Tuple[List[WalRecord], TailStatus]:
    """Decode records until the buffer ends or the first bad record.

    ``prev_lsn`` (when given) arms the gapless-LSN check: each record
    must carry ``prev_lsn + 1``.  Damage is never raised -- a WAL tail
    is *expected* to be damaged after a crash -- it is reported in the
    returned :class:`TailStatus` so callers can count torn tails.
    """
    records: List[WalRecord] = []
    n = len(buf)
    while True:
        if offset == n:
            return records, TailStatus(True, "end", offset)
        if offset + RECORD_HEADER_SIZE > n:
            return records, TailStatus(False, "torn", offset)
        crc, lsn, op, plen = _RECORD_HEADER.unpack_from(buf, offset)
        if offset + RECORD_HEADER_SIZE + plen > n:
            return records, TailStatus(False, "torn", offset)
        body = buf[offset + 4 : offset + RECORD_HEADER_SIZE + plen]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            return records, TailStatus(False, "crc", offset)
        if prev_lsn is not None and lsn != prev_lsn + 1:
            return records, TailStatus(False, "lsn_gap", offset)
        payload = bytes(buf[offset + RECORD_HEADER_SIZE : offset + RECORD_HEADER_SIZE + plen])
        records.append(WalRecord(lsn, op, payload))
        prev_lsn = lsn  # every later record is continuity-checked
        offset += RECORD_HEADER_SIZE + plen


# ---------------------------------------------------------------------------
# Segment header
# ---------------------------------------------------------------------------


def encode_segment_header(seqno: int, base_lsn: int) -> bytes:
    body = struct.pack("<4sBQQ", SEGMENT_MAGIC, FORMAT_VERSION, seqno, base_lsn)
    return body + _U32.pack(zlib.crc32(body) & 0xFFFFFFFF)


def decode_segment_header(buf: bytes) -> Tuple[int, int]:
    """Return (seqno, base_lsn); raises :class:`WalFormatError` on a
    file too damaged to even carry a header."""
    if len(buf) < SEGMENT_HEADER_SIZE:
        raise WalFormatError("segment shorter than its header")
    magic, version, seqno, base_lsn, crc = _SEGMENT_HEADER.unpack_from(buf, 0)
    if magic != SEGMENT_MAGIC:
        raise WalFormatError(f"bad segment magic {magic!r}")
    if version != FORMAT_VERSION:
        raise WalFormatError(
            f"segment format v{version} is not supported (this build "
            f"reads v{FORMAT_VERSION})"
        )
    if zlib.crc32(buf[: SEGMENT_HEADER_SIZE - 4]) & 0xFFFFFFFF != crc:
        raise WalFormatError("segment header checksum mismatch")
    return seqno, base_lsn


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------


# The WAL shares the system-wide value codec (compact JSON) with the
# snapshot layer and the network wire protocol; see repro.kvstore.codec.
_dump_value = dump_value
_load_value = load_value


def encode_insert(key: int, value: Any) -> bytes:
    return _U64.pack(key) + _dump_value(value)


def decode_insert(payload: bytes) -> Tuple[int, Any]:
    (key,) = _U64.unpack_from(payload, 0)
    return key, _load_value(payload[8:])


def encode_delete(key: int) -> bytes:
    return _U64.pack(key)


def decode_delete(payload: bytes) -> int:
    (key,) = _U64.unpack_from(payload, 0)
    return key


def encode_delete_range(low: int, high: int) -> bytes:
    return _U64U64.pack(low, high)


def decode_delete_range(payload: bytes) -> Tuple[int, int]:
    return _U64U64.unpack_from(payload, 0)


def encode_batch(pairs) -> bytes:
    """One record for a whole ``insert_many`` batch."""
    chunks = [_U32.pack(len(pairs))]
    for key, value in pairs:
        raw = _dump_value(value)
        chunks.append(_PAIR.pack(key, len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


def decode_batch(payload: bytes) -> List[Tuple[int, Any]]:
    (count,) = _U32.unpack_from(payload, 0)
    offset = 4
    pairs: List[Tuple[int, Any]] = []
    for _ in range(count):
        key, vlen = _PAIR.unpack_from(payload, offset)
        offset += _PAIR.size
        pairs.append((key, _load_value(payload[offset : offset + vlen])))
        offset += vlen
    return pairs


def encode_batch2(keys, values) -> bytes:
    """Columnar batch record: parallel key and value columns.

    Layout: ``u32 count | count * u64 keys | count * (u32 len | bytes)``.
    Packing all keys with one ``struct`` call (instead of interleaving
    per-pair headers as :func:`encode_batch` does) is what makes the
    batched durable write path one cheap record per ``insert_many``;
    the split columns also hand replay the exact shape the columnar
    engine's batched insert wants.
    """
    n = len(keys)
    chunks = [_U32.pack(n), struct.pack(f"<{n}Q", *keys)]
    for value in values:
        raw = _dump_value(value)
        chunks.append(_U32.pack(len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


def decode_batch2(payload: bytes) -> Tuple[List[int], List[Any]]:
    (count,) = _U32.unpack_from(payload, 0)
    keys = list(struct.unpack_from(f"<{count}Q", payload, 4))
    offset = 4 + 8 * count
    values: List[Any] = []
    for _ in range(count):
        (vlen,) = _U32.unpack_from(payload, offset)
        offset += 4
        values.append(_load_value(payload[offset : offset + vlen]))
        offset += vlen
    return keys, values


def encode_ns_open(name: str) -> bytes:
    return name.encode("utf-8")


def decode_ns_open(payload: bytes) -> str:
    return payload.decode("utf-8")
