"""Per-shard durability: one WAL + checkpoint directory per worker.

A shard worker cannot reuse :class:`repro.wal.DurableKVStore` -- that
layer owns namespace encoding and a whole-store snapshot format --
but it *can* reuse the WAL machinery underneath it verbatim:
:class:`~repro.wal.log.WriteAheadLog` for segmented CRC-framed
append/replay/truncate, and the :mod:`repro.wal.record` codecs for
payloads.  :class:`DurableShardIndex` is the thin layer in between: it
logs every mutation before applying it to its inner :class:`DyTIS`,
checkpoints the whole (small, per-shard) index as one ``BATCH2``
column snapshot, and on startup restores newest-verifiable-checkpoint
+ WAL replay -- the same recovery contract as the full store, scoped
to one shard's key subset.

Because each shard has its *own* directory, shard crash recovery is
independent: the router can restart worker 3 while workers 0-2 keep
serving, and worker 3 replays only its own history.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, List, Optional, Tuple

from repro.api.protocol import batch_columns
from repro.core import DyTIS, DyTISConfig
from repro.wal import record as rec
from repro.wal.faultfs import OsFS, join
from repro.wal.log import WriteAheadLog

#: Checkpoint file magic + format version.
_CKPT_MAGIC = b"DSK1"
#: magic | u64 lsn | u32 body crc32 | u32 body length
_CKPT_HEADER = struct.Struct("<4sQII")
_CKPT_PREFIX = "shard-ckpt-"
_CKPT_SUFFIX = ".snap"


def _checkpoint_name(lsn: int) -> str:
    return f"{_CKPT_PREFIX}{lsn:020d}{_CKPT_SUFFIX}"


def _checkpoint_lsns(fs, directory: str) -> List[int]:
    out = []
    for name in fs.listdir(directory):
        if name.startswith(_CKPT_PREFIX) and name.endswith(_CKPT_SUFFIX):
            try:
                out.append(int(name[len(_CKPT_PREFIX) : -len(_CKPT_SUFFIX)]))
            except ValueError:
                continue
    return sorted(out)


class DurableShardIndex:
    """A :class:`DyTIS` whose mutations survive worker crashes.

    Write path: encode the operation with the shared WAL codecs, append
    (acknowledged per the fsync policy), then apply to the index.
    Replay is idempotent -- insert overwrites, delete of an absent key
    is a no-op -- so a crash between append and apply costs nothing.
    """

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
        self.directory = str(directory)
        self.fs = fs if fs is not None else OsFS()
        self.fs.makedirs(self.directory)
        self.index = DyTIS(config, obs=obs)
        self.config = self.index.config
        self._uploader = None
        self._in_checkpoint = False
        wal_dir = join(self.directory, "wal")
        if remote is not None:
            # Attach-on-empty: a wiped shard directory with a populated
            # remote prefix restores the newest shipped state, then the
            # ordinary recovery path below replays it.  This is exactly
            # what ``restart_shard`` leans on when a worker's local
            # directory is gone.
            from repro.remote.metrics import RemoteMetrics
            from repro.remote.uploader import (
                Uploader,
                attach_incomplete,
                restore,
                scan_sealed_segments,
                wipe_directory,
            )
            from repro.wal.faultfs import segment_files

            rmetrics = RemoteMetrics()
            torn = attach_incomplete(self.fs, self.directory)
            if torn:
                # A crashed attach left a partial restore (checkpoint
                # without its WAL tail, or vice versa).  Recovering it
                # silently would serve truncated history: wipe and
                # attach from scratch instead.
                wipe_directory(self.fs, self.directory)
            if torn or (
                not _checkpoint_lsns(self.fs, self.directory)
                and not segment_files(self.fs, wal_dir)
            ):
                restore(
                    remote,
                    self.directory,
                    fs=self.fs,
                    policy=remote_policy,
                    metrics=rmetrics,
                )
            self._uploader = Uploader(
                remote,
                self.directory,
                fs=self.fs,
                policy=remote_policy,
                metrics=rmetrics,
            )
        self._restore()
        self.wal = WriteAheadLog(
            wal_dir,
            fs=self.fs,
            policy=fsync,
            on_seal=self._on_seal if self._uploader is not None else None,
            retention_pin=(
                self._uploader.safe_truncate_lsn
                if self._uploader is not None
                else None
            ),
        )
        if self._uploader is not None:
            for seg in scan_sealed_segments(
                self.fs, wal_dir, rel_prefix="wal/"
            ):
                self._uploader.note_sealed(
                    seg["path"], seg["seqno"], seg["base_lsn"], seg["last_lsn"]
                )
        self._replay()

    # -- recovery -------------------------------------------------------

    def _restore(self) -> None:
        """Load the newest checkpoint whose header verifies.

        Walks newest-first: a checkpoint torn mid-write (crash during
        ``write_atomic`` leaves none, but a corrupt disk can) fails its
        CRC and the next-older one serves.
        """
        self.checkpoint_lsn = 0
        for lsn in reversed(_checkpoint_lsns(self.fs, self.directory)):
            raw = self.fs.read_bytes(
                join(self.directory, _checkpoint_name(lsn))
            )
            try:
                magic, hdr_lsn, crc, blen = _CKPT_HEADER.unpack_from(raw, 0)
                if magic != _CKPT_MAGIC or hdr_lsn != lsn:
                    continue
                body = raw[_CKPT_HEADER.size :]
                if len(body) != blen or zlib.crc32(body) & 0xFFFFFFFF != crc:
                    continue
                keys, values = rec.decode_batch2(body)
            except (struct.error, rec.WalFormatError, ValueError):
                continue
            if keys:
                self.index.bulk_load(keys, values)
            self.checkpoint_lsn = lsn
            return

    def _replay(self) -> None:
        idx = self.index
        for r in self.wal.replay(after_lsn=self.checkpoint_lsn):
            if r.op == rec.OP_INSERT:
                key, value = rec.decode_insert(r.payload)
                idx.insert(key, value)
            elif r.op == rec.OP_DELETE:
                idx.delete(rec.decode_delete(r.payload))
            elif r.op == rec.OP_DELETE_RANGE:
                low, high = rec.decode_delete_range(r.payload)
                idx.delete_range(low, high)
            elif r.op == rec.OP_BATCH2:
                keys, values = rec.decode_batch2(r.payload)
                idx.insert_many(keys, values)
            else:
                raise rec.WalFormatError(
                    f"unexpected op {r.op} in shard WAL at lsn {r.lsn}"
                )

    # -- remote shipping ------------------------------------------------

    def _on_seal(
        self, name: str, seqno: int, base_lsn: int, last_lsn: int
    ) -> None:
        # The WAL lives under wal/, so remote keys carry that prefix
        # and the remote tree mirrors the local shard layout.
        self._uploader.note_sealed(f"wal/{name}", seqno, base_lsn, last_lsn)
        if not self._in_checkpoint:
            self._uploader.ship_segments()

    @property
    def uploader(self):
        return self._uploader

    @property
    def remote_metrics(self):
        return self._uploader.metrics if self._uploader is not None else None

    def ship(self) -> bool:
        """Ship pending sealed segments now; True when fully drained."""
        if self._uploader is None:
            return True
        return self._uploader.ship_segments()

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

    # -- reads (delegate) -----------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        return self.index.get(key)

    def get_many(self, keys) -> List[Optional[Any]]:
        return self.index.get_many(keys)

    def scan(self, start_key: int, count: int):
        return self.index.scan(start_key, count)

    def scan_range(self, low: int, high: int):
        return self.index.scan_range(low, high)

    def count_range(self, low: int, high: int) -> int:
        return self.index.count_range(low, high)

    def items(self):
        return self.index.items()

    def export_read_column(self):
        return self.index.export_read_column()

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: int) -> bool:
        return key in self.index

    # -- durability control ---------------------------------------------

    def flush(self) -> None:
        self.wal.sync()

    def checkpoint(self) -> int:
        """Snapshot the shard, rotate the WAL, drop dead segments.

        Protocol (same as the full store): write the snapshot at the
        current durable frontier, rotate so the live segment's tail
        stays appendable, then truncate segments the snapshot covers.
        Returns the checkpoint LSN.
        """
        self.wal.sync()
        lsn = self.wal.last_lsn
        keys, values = self.index.export_read_column()
        body = rec.encode_batch2([int(k) for k in keys], list(values))
        header = _CKPT_HEADER.pack(
            _CKPT_MAGIC, lsn, zlib.crc32(body) & 0xFFFFFFFF, len(body)
        )
        self.fs.write_atomic(
            join(self.directory, _checkpoint_name(lsn)), header + body
        )
        # Older checkpoints are now dead weight.
        for old in _checkpoint_lsns(self.fs, self.directory):
            if old < lsn:
                self.fs.remove(join(self.directory, _checkpoint_name(old)))
        self._in_checkpoint = True
        try:
            self.wal.rotate()
        finally:
            self._in_checkpoint = False
        if self._uploader is not None:
            if self._uploader.ship_checkpoint(_checkpoint_name(lsn), lsn):
                self._uploader.ship_segments()
        self.wal.truncate_upto(lsn)
        self.checkpoint_lsn = lsn
        return lsn

    def close(self) -> None:
        self.wal.close()
