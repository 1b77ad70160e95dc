"""Per-shard durability: one WAL + checkpoint directory per worker.

A shard worker cannot reuse :class:`repro.wal.DurableKVStore` -- that
layer owns namespace encoding and a whole-store snapshot format -- but
it runs on the same durability core
(:class:`~repro.wal.checkpoint.DurableDirectory`: recovery on open, the
checkpoint protocol, remote shipping).  :class:`DurableShardIndex` adds
what is the shard's own: it logs every mutation before applying it to
its inner :class:`DyTIS`, keeps the log under ``wal/``, and checkpoints
the whole (small, per-shard) index as one ``BATCH2`` column behind a
``DSK1`` header, ``shard-ckpt-<lsn>.snap``.

Because each shard has its *own* directory, shard crash recovery is
independent: the router can restart worker 3 while workers 0-2 keep
serving, and worker 3 replays only its own history.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, List, Optional

from repro.api.protocol import batch_columns
from repro.core import DyTIS, DyTISConfig
from repro.wal import record as rec
from repro.wal.checkpoint import DurableDirectory

#: Checkpoint file magic + format version.
_CKPT_MAGIC = b"DSK1"
#: magic | u64 lsn | u32 body crc32 | u32 body length
_CKPT_HEADER = struct.Struct("<4sQII")


class DurableShardIndex(DurableDirectory):
    """A :class:`DyTIS` whose mutations survive worker crashes.

    Write path: encode the operation with the shared WAL codecs, append
    (acknowledged per the fsync policy), then apply to the index.  The
    worker is the index's single writer, so mutations take no lock.
    """

    ckpt_prefix = "shard-ckpt-"
    wal_subdir = "wal/"

    def __init__(
        self,
        directory: str,
        *,
        config: Optional[DyTISConfig] = None,
        obs=None,
        fsync: str = "always",
        fs=None,
        remote=None,
        remote_policy=None,
    ):
        index = self.index = DyTIS(config, obs=obs)
        self.config = index.config
        # Reads never touch the log: they *are* the index's bound methods.
        self.get, self.get_many = index.get, index.get_many
        self.scan, self.scan_range = index.scan, index.scan_range
        self.count_range, self.items = index.count_range, index.items
        super().__init__(directory, fs, fsync, remote, remote_policy)

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: int) -> bool:
        return key in self.index

    # -- the checkpoint codec: DSK1 header + one BATCH2 column ----------

    def _dump_checkpoint(self, lsn: int) -> bytes:
        # Tables by high bits, then segments by directory slot: the
        # walk meets keys in ascending order, as the body must hold them.
        keys: List[int] = []
        values: List[Any] = []
        for table in self.index._tables:
            if table is not None:
                for seg in table.unique_segments():
                    ks, vs = seg.collect()
                    keys += ks.tolist()
                    values += vs
        body = rec.encode_batch2(keys, values)
        return _CKPT_HEADER.pack(
            _CKPT_MAGIC, lsn, zlib.crc32(body) & 0xFFFFFFFF, len(body)
        ) + body

    def _load_checkpoint(self, data: bytes, lsn: int, source: str) -> None:
        body = data[_CKPT_HEADER.size :]
        try:
            magic, hdr_lsn, crc, blen = _CKPT_HEADER.unpack_from(data, 0)
            if (magic, hdr_lsn, blen) != (_CKPT_MAGIC, lsn, len(body)):
                raise ValueError("magic, LSN or length mismatch")
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                raise ValueError("body checksum mismatch")
            keys, values = rec.decode_batch2(body)
        except (struct.error, ValueError) as exc:
            raise rec.WalFormatError(f"{source}: {exc}") from None
        if keys:
            self.index.bulk_load(keys, values)

    # -- mutations (log first, then apply) ------------------------------

    def insert(self, key: int, value: Any) -> None:
        self.wal.append(rec.OP_INSERT, rec.encode_insert(key, value))
        self.index.insert(key, value)

    def insert_many(self, keys, values=None) -> None:
        keys, values = batch_columns(keys, values)
        if not keys:
            return
        self.wal.append(
            rec.OP_BATCH2, rec.encode_batch2(keys, values), ops=len(keys)
        )
        self.index.insert_many(keys, values)

    def bulk_load(self, keys, values) -> None:
        keys = list(keys)
        values = list(values)
        if keys:
            self.wal.append(
                rec.OP_BATCH2, rec.encode_batch2(keys, values), ops=len(keys)
            )
        self.index.bulk_load(keys, values)

    def delete(self, key: int) -> bool:
        self.wal.append(rec.OP_DELETE, rec.encode_delete(key))
        return self.index.delete(key)

    def delete_range(self, low: int, high: int) -> int:
        self.wal.append(rec.OP_DELETE_RANGE, rec.encode_delete_range(low, high))
        return self.index.delete_range(low, high)
