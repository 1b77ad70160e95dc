"""The durability core: a checkpointed, write-ahead-logged directory.

:class:`DurableDirectory` is the one implementation of "log before
apply, checkpoint, restore newest-verifiable + replay".
:class:`~repro.wal.store.DurableKVStore` and
:class:`~repro.shard.durable.DurableShardIndex` subclass it and supply
only what differs: a checkpoint codec (``ckpt_prefix``,
``_dump_checkpoint``, ``_load_checkpoint``), where the WAL lives under
the directory (``wal_subdir``), whether ``OP_NS_OPEN`` means anything
(``_open_namespace``), and their mutation surface.

A checkpoint is one atomically-written file, ``<prefix><lsn>.snap``,
whose codec carries its own checksum; the LSN is the last one its state
includes.  Recovery loads the *newest verifiable* checkpoint and replays
only the WAL past its LSN; checkpoints that fail their checksum are
skipped (and named in the error if the log cannot make up for them), so
a corrupted one degrades to the previous checkpoint plus a longer
replay, never to wrong data.

The checkpoint protocol, in crash-safe order:

0. sync the WAL, then take its last LSN (a checkpoint stamped above the
   log's durable tail would outlive records the log then re-issues),
1. serialise the state at that LSN,
2. ``write_atomic`` the new checkpoint file,
3. drop older checkpoint files,
4. rotate the WAL (the seal's own ship suppressed), ship the checkpoint
   when a remote is attached, truncate segments wholly at or below the
   LSN (and, with a remote, at or below what it acknowledged).

Every step is idempotent and any crash point between steps recovers:
before 2 the old checkpoint rules; after 2 the new one does, and the
not-yet-truncated WAL tail replays as a no-op overlap (records at or
below the checkpoint LSN are skipped by LSN, not re-applied).  A crash
after 4 can leave a log whose only segment was never synced: the log is
reopened with ``checkpoint_lsn=`` so it never restarts below the
checkpoint that covers the gap.
"""

from __future__ import annotations

import re
import threading
import time
from typing import List, Optional

from repro.api import batch_columns, is_batch_index
from repro.kvstore import KVStore, SnapshotCorruptError, dump_snapshot_bytes
from repro.wal import record as rec
from repro.wal.faultfs import OsFS, join, segment_files
from repro.wal.log import DEFAULT_SEGMENT_SIZE, RecoveryError, WriteAheadLog
from repro.wal.metrics import WalMetrics

_SUFFIX = ".snap"
#: What a codec's ``_load_checkpoint`` raises for bytes that do not verify.
CORRUPT_CHECKPOINT = (SnapshotCorruptError, rec.WalFormatError)


def checkpoint_name(lsn: int, prefix: str = "ckpt-") -> str:
    return f"{prefix}{lsn:020d}{_SUFFIX}"


def checkpoint_lsns(fs, directory: str, prefix: str = "ckpt-") -> List[int]:
    """LSNs of the ``prefix`` checkpoint files present, ascending."""
    if not fs.exists(directory):
        return []
    pattern = re.compile(re.escape(prefix) + r"(\d{20})" + re.escape(_SUFFIX))
    matches = map(pattern.fullmatch, fs.listdir(directory))
    return sorted(int(m.group(1)) for m in matches if m)


def publish_checkpoint(fs, directory: str, prefix: str, lsn: int, data: bytes) -> str:
    """Steps 2-3: atomically publish ``data``, drop older checkpoints."""
    name = checkpoint_name(lsn, prefix)
    fs.write_atomic(join(directory, name), data)
    for old in checkpoint_lsns(fs, directory, prefix):
        if old < lsn:
            fs.remove(join(directory, checkpoint_name(old, prefix)))
    return name


def write_checkpoint(store: KVStore, lsn: int, fs, directory: str) -> None:
    """Steps 1-3 for a bare :class:`KVStore`, *without* step 0: how to
    build a store directory whose checkpoint outruns its log."""
    data = dump_snapshot_bytes(store, extra_header={"checkpoint_lsn": lsn})
    publish_checkpoint(fs, directory, "ckpt-", lsn, data)


class DurableDirectory:
    """Recovery on construction, the checkpoint protocol, remote shipping.

    A subclass builds ``self.index`` (what WAL records apply to)
    *before* calling ``__init__``, which is recovery: attach from
    ``remote`` if the directory is empty or holds a torn attach, load
    the newest verifiable checkpoint, open the log at or above it,
    replay the tail.  It supplies ``_dump_checkpoint(lsn) -> bytes`` and
    ``_load_checkpoint(data, lsn, source)``, which raises one of
    :data:`CORRUPT_CHECKPOINT`, naming ``source``, *before* applying
    anything if ``data`` does not verify.
    """

    #: File-name prefix of this wrapper's checkpoints.
    ckpt_prefix = "ckpt-"
    #: The WAL's place under the directory (and under the remote prefix):
    #: ``""`` or a relative path ending in ``/``.
    wal_subdir = ""
    #: ``_open_namespace(name)`` replays an ``OP_NS_OPEN`` record.  A
    #: store's; a shard log has none, and one there is an unknown op.
    _open_namespace = None

    def __init__(
        self,
        directory,
        fs,
        fsync,
        remote,
        remote_policy,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        metrics: Optional[WalMetrics] = None,
    ):
        self.directory = str(directory)
        self.fs = fs if fs is not None else OsFS()
        # Pass a shared WalMetrics to keep counters across close/reopen
        # cycles (each recovery otherwise starts a fresh set).
        self._metrics = metrics if metrics is not None else WalMetrics()
        self._lock = threading.Lock()  # writes never nest it
        self._in_checkpoint = False
        self._checkpoint_errors: List[str] = []
        self.uploader = self.remote_metrics = None
        self.fs.makedirs(self.directory)
        wal_dir = join(self.directory, self.wal_subdir)
        if remote is not None:
            # Attach-on-empty: a wiped directory plus a populated remote
            # means this node is a replica coming up from shipped state
            # (``restart_shard`` leans on exactly this).  Restore first,
            # then run ordinary crash recovery on the restored files --
            # attach *is* recovery.
            from repro.remote.metrics import RemoteMetrics
            from repro.remote.uploader import (
                Uploader,
                attach_incomplete,
                restore,
                scan_sealed_segments,
                wipe_directory,
            )

            shared = dict(fs=self.fs, policy=remote_policy, metrics=RemoteMetrics())
            torn = attach_incomplete(self.fs, self.directory)
            if torn:
                # A previous attach crashed partway: the directory may
                # hold a checkpoint without its WAL tail, which would
                # recover cleanly to a truncated history and restart
                # LSNs below what the remote already acknowledged.
                # Wipe it and attach from scratch -- all or nothing.
                wipe_directory(self.fs, self.directory)
            if torn or not (
                checkpoint_lsns(self.fs, self.directory, self.ckpt_prefix)
                or segment_files(self.fs, wal_dir)
            ):
                restore(remote, self.directory, **shared)
            self.uploader = Uploader(remote, self.directory, **shared)
            self.remote_metrics = shared["metrics"]
        #: LSN of the checkpoint this incarnation recovered from or last
        #: wrote; 0 when it came up from the log alone.
        self.checkpoint_lsn = self._load_newest_checkpoint()
        shipping = self.uploader is not None
        self.wal = WriteAheadLog(
            wal_dir,
            fs=self.fs,
            policy=fsync,
            segment_size=segment_size,
            metrics=self._metrics,
            on_seal=self._on_seal if shipping else None,
            retention_pin=self.uploader.safe_truncate_lsn if shipping else None,
            checkpoint_lsn=self.checkpoint_lsn,
        )
        if shipping:
            # Sealed segments left behind by a previous incarnation
            # (e.g. a crash between rotate and ship) re-enter the
            # pending set so no durable history is stranded locally.
            for seg in scan_sealed_segments(
                self.fs, wal_dir, rel_prefix=self.wal_subdir
            ):
                self.uploader.note_sealed(**seg)
        self._replay()

    # -- recovery -------------------------------------------------------

    def _load_newest_checkpoint(self) -> int:
        """Load the newest verifiable checkpoint; returns its LSN."""
        prefix = self.ckpt_prefix
        for lsn in reversed(checkpoint_lsns(self.fs, self.directory, prefix)):
            source = checkpoint_name(lsn, prefix)
            data = self.fs.read_bytes(join(self.directory, source))
            try:
                self._load_checkpoint(data, lsn, source)
                return lsn
            except CORRUPT_CHECKPOINT as exc:
                # Skipped, not fatal: the WAL may still hold the full
                # history (crash before truncation) or an older
                # checkpoint may verify.
                self._checkpoint_errors.append(str(exc))
        return 0

    def _replay(self) -> None:
        """Apply the log past ``checkpoint_lsn`` to ``self.index`` (records
        carry full integer keys).  Idempotent -- insert overwrites, delete
        of an absent key is a no-op -- so a crash between append and apply
        costs nothing."""
        t0 = time.perf_counter()
        n = 0
        index = self.index
        # One structural check instead of per-record hasattr probes:
        # every in-tree index satisfies BatchOpsProtocol.
        batch = is_batch_index(index)
        try:
            for r in self.wal.replay(self.checkpoint_lsn):
                n += 1
                op = r.op
                if op == rec.OP_INSERT:
                    key, value = rec.decode_insert(r.payload)
                    index.insert(key, value)
                elif op == rec.OP_BATCH2 or op == rec.OP_BATCH:
                    if op == rec.OP_BATCH2:
                        keys, values = rec.decode_batch2(r.payload)
                    else:  # the v1 record: one list of pairs
                        keys, values = batch_columns(rec.decode_batch(r.payload))
                    if batch:
                        index.insert_many(keys, values)
                    else:
                        for key, value in zip(keys, values):
                            index.insert(key, value)
                elif op == rec.OP_DELETE:
                    index.delete(rec.decode_delete(r.payload))
                elif op == rec.OP_DELETE_RANGE:
                    low, high = rec.decode_delete_range(r.payload)
                    if batch:
                        index.delete_range(low, high)
                    else:
                        for key, _ in list(index.scan_range(low, high)):
                            index.delete(key)
                elif op == rec.OP_NS_OPEN and self._open_namespace is not None:
                    self._open_namespace(rec.decode_ns_open(r.payload))
                else:
                    raise RecoveryError(f"LSN {r.lsn}: unknown WAL op {op}")
        except RecoveryError:
            if self._checkpoint_errors and not self.checkpoint_lsn:
                raise RecoveryError(
                    "no checkpoint verified "
                    f"({'; '.join(self._checkpoint_errors)}) and the WAL "
                    "alone cannot rebuild the store"
                )
            raise
        m = self._metrics
        m.replays_total += 1
        m.records_replayed_total += n
        m.replay_ns_total += int((time.perf_counter() - t0) * 1e9)

    @property
    def metrics(self) -> WalMetrics:
        """The WAL counters, read through the log (which publishes its
        derived append counters first)."""
        return self.wal.metrics

    # -- remote shipping ------------------------------------------------

    def _on_seal(self, name: str, seqno: int, base_lsn: int, last_lsn: int) -> None:
        """WAL rotation hook: queue the sealed segment and try to ship.

        Remote keys carry ``wal_subdir`` so the remote tree mirrors the
        local layout.  A failed ship is not an error here -- the
        segment stays pending, the retention pin keeps its file alive,
        and the next seal or checkpoint retries.  During a checkpoint
        the ship is skipped: the checkpoint publish supersedes it.
        """
        self.uploader.note_sealed(self.wal_subdir + name, seqno, base_lsn, last_lsn)
        if not self._in_checkpoint:
            self.uploader.ship_segments()

    def ship(self) -> bool:
        """Ship any pending sealed segments now; True when drained."""
        with self._lock:
            return self.uploader is None or self.uploader.ship_segments()

    # -- durability control ---------------------------------------------

    def flush(self) -> None:
        """Force-fsync the WAL: everything acknowledged becomes durable."""
        with self._lock:
            self.wal.sync()

    def checkpoint(self) -> int:
        """Run the checkpoint protocol; returns its LSN.  Taken under the
        write lock: the checkpoint is a consistent cut at ``last_lsn``."""
        with self._lock:
            t0 = time.perf_counter()
            self.wal.sync()
            lsn = self.wal.last_lsn
            data = self._dump_checkpoint(lsn)
            name = publish_checkpoint(
                self.fs, self.directory, self.ckpt_prefix, lsn, data
            )
            # Rotate so the active segment starts past the checkpoint;
            # every earlier segment is then provably dead.  With a
            # remote attached the checkpoint ships before truncation,
            # and the retention pin keeps any un-acknowledged segment
            # on disk regardless.
            self._in_checkpoint = True
            try:
                self.wal.rotate()
            finally:
                self._in_checkpoint = False
            if self.uploader is not None and self.uploader.ship_checkpoint(
                name, lsn
            ):
                self.uploader.ship_segments()
            self.wal.truncate_upto(lsn)
            self.checkpoint_lsn = lsn
            m = self._metrics
            m.checkpoints_total += 1
            m.checkpoint_ns_total += int((time.perf_counter() - t0) * 1e9)
            return lsn

    def close(self) -> None:
        with self._lock:
            self.wal.close()
