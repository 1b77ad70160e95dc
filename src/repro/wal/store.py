"""``DurableKVStore``: the embedded store with a write-ahead log.

The wrapper owns a plain :class:`~repro.kvstore.store.KVStore` and a
:class:`~repro.wal.log.WriteAheadLog` in one directory.  Every mutation
-- ``insert``, ``insert_many``, ``delete``, ``delete_range``, and
namespace creation -- is logged *before* it is applied, and the call
returns ("acknowledges") only after the log append and the fsync
policy's decision.  With ``fsync='always'`` an acknowledged write is on
stable storage; ``'batch'`` group-commits with bounded, prefix-ordered
loss; ``'never'`` trusts OS writeback (survives a process kill, not a
power cut).

Construction *is* recovery: the newest checkpoint whose checksum
verifies is loaded (corrupt ones are skipped), then the WAL tail past
its LSN replays, stopping cleanly at torn or bit-flipped records.
Codecs are not serialisable, so non-default namespace codecs are handed
back at open time via ``codecs={'name': codec}`` -- the same contract
the snapshot layer has always had.

Replay applies records straight to the inner index (records carry the
full namespace-prefixed integer key); namespace views keep no state of
their own, so the recovered store is indistinguishable from one that
never crashed.
"""

from __future__ import annotations

import struct
import threading
import time
from typing import Any, Dict, List, Optional

from repro.api import batch_columns, is_batch_index
from repro.kvstore import KVStore, SnapshotCorruptError, load_snapshot_bytes
from repro.kvstore.codec import KeyCodec, dump_value
from repro.kvstore.snapshot import read_snapshot_header
from repro.wal import checkpoint as ckpt
from repro.wal import record as rec
from repro.wal.faultfs import OsFS, segment_files
from repro.wal.log import RecoveryError, WriteAheadLog
from repro.wal.metrics import WalMetrics

_U64_PACK = struct.Struct("<Q").pack


class DurableKVStore:
    """A :class:`KVStore` whose writes survive crashes.

    Parameters mirror ``KVStore`` (``config``/``thread_safe``/``index``)
    plus the durability knobs: ``fsync`` policy, WAL ``segment_size``,
    the ``fs`` backend (real disk by default, :class:`~repro.wal.
    faultfs.SimFS` under fault injection), and ``codecs`` for recovering
    namespaces that were opened with non-default codecs.
    """

    def __init__(
        self,
        directory,
        *,
        config=None,
        thread_safe: bool = False,
        index=None,
        codecs: Optional[Dict[str, KeyCodec]] = None,
        fsync="always",
        segment_size: int = 1 << 20,
        fs=None,
        metrics: Optional[WalMetrics] = None,
        remote=None,
        remote_policy=None,
    ):
        self.directory = str(directory)
        self.fs = fs if fs is not None else OsFS()
        # Pass a shared WalMetrics to keep counters across close/reopen
        # cycles (each recovery otherwise starts a fresh set).
        self.metrics = metrics if metrics is not None else WalMetrics()
        self._codecs = dict(codecs or {})
        self._kv = KVStore(config=config, thread_safe=thread_safe, index=index)
        self._durable_ns: Dict[str, DurableNamespace] = {}
        self._lock = threading.Lock()  # writes never nest it
        self._closed = False

        self.fs.makedirs(self.directory)
        self._uploader = None
        if remote is not None:
            # Attach-on-empty: a wiped directory plus a populated remote
            # means this store is a replica coming up from shipped
            # state.  Restore first, then run ordinary crash recovery
            # on the restored files -- attach *is* recovery.
            from repro.remote.metrics import RemoteMetrics
            from repro.remote.uploader import (
                Uploader,
                attach_incomplete,
                restore,
                scan_sealed_segments,
                wipe_directory,
            )

            rmetrics = RemoteMetrics()
            torn = attach_incomplete(self.fs, self.directory)
            if torn:
                # A previous attach crashed partway: the directory may
                # hold a checkpoint without its WAL tail, which would
                # recover cleanly to a truncated history and restart
                # LSNs below what the remote already acknowledged.
                # Wipe it and attach from scratch -- all or nothing.
                wipe_directory(self.fs, self.directory)
            if torn or (
                not ckpt.checkpoint_lsns(self.fs, self.directory)
                and not segment_files(self.fs, self.directory)
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
        recovered_lsn = self._load_newest_checkpoint()
        self.wal = WriteAheadLog(
            self.directory,
            fs=self.fs,
            policy=fsync,
            segment_size=segment_size,
            metrics=self.metrics,
            on_seal=self._on_seal if self._uploader is not None else None,
            retention_pin=(
                self._uploader.safe_truncate_lsn
                if self._uploader is not None
                else None
            ),
            checkpoint_lsn=recovered_lsn,
        )
        if self._uploader is not None:
            # Sealed segments left behind by a previous incarnation
            # (e.g. a crash between rotate and ship) re-enter the
            # pending set so no durable history is stranded locally.
            for seg in scan_sealed_segments(self.fs, self.directory):
                self._uploader.note_sealed(
                    seg["path"], seg["seqno"], seg["base_lsn"], seg["last_lsn"]
                )
        self._replay(recovered_lsn)

    # -- recovery -------------------------------------------------------

    def _load_newest_checkpoint(self) -> int:
        """Load the newest verifiable checkpoint; returns its LSN."""
        errors = []
        for lsn in reversed(ckpt.checkpoint_lsns(self.fs, self.directory)):
            data = ckpt.read_checkpoint(self.fs, self.directory, lsn)
            source = ckpt.checkpoint_name(lsn)
            try:
                header = read_snapshot_header(data, source)
                for name in header.get("namespaces", []):
                    self._kv.namespace(name, self._codecs.get(name))
                load_snapshot_bytes(self._kv, data, source)
                return lsn
            except SnapshotCorruptError as exc:
                # Skipped, not fatal: the WAL may still hold the full
                # history (crash before truncation) or an older
                # checkpoint may verify.
                errors.append(str(exc))
        self._checkpoint_errors = errors
        return 0

    def _replay(self, after_lsn: int) -> None:
        t0 = time.perf_counter()
        n = 0
        index = self._kv.index
        # One structural check instead of per-record hasattr probes:
        # every in-tree index satisfies BatchOpsProtocol.
        batch = is_batch_index(index)
        try:
            for r in self.wal.replay(after_lsn):
                n += 1
                if r.op == rec.OP_INSERT:
                    key, value = rec.decode_insert(r.payload)
                    index.insert(key, value)
                elif r.op == rec.OP_BATCH:
                    pairs = rec.decode_batch(r.payload)
                    if batch:
                        index.insert_many(pairs)
                    else:
                        for key, value in pairs:
                            index.insert(key, value)
                elif r.op == rec.OP_BATCH2:
                    keys, values = rec.decode_batch2(r.payload)
                    if batch:
                        index.insert_many(keys, values)
                    else:
                        for key, value in zip(keys, values):
                            index.insert(key, value)
                elif r.op == rec.OP_DELETE:
                    index.delete(rec.decode_delete(r.payload))
                elif r.op == rec.OP_DELETE_RANGE:
                    low, high = rec.decode_delete_range(r.payload)
                    if batch:
                        index.delete_range(low, high)
                    else:
                        for key, _ in list(index.scan_range(low, high)):
                            index.delete(key)
                elif r.op == rec.OP_NS_OPEN:
                    name = rec.decode_ns_open(r.payload)
                    self._kv.namespace(name, self._codecs.get(name))
                else:
                    raise RecoveryError(
                        f"LSN {r.lsn}: unknown WAL op {r.op}"
                    )
        except RecoveryError:
            if getattr(self, "_checkpoint_errors", None):
                raise RecoveryError(
                    "no checkpoint verified "
                    f"({'; '.join(self._checkpoint_errors)}) and the WAL "
                    "alone cannot rebuild the store"
                )
            raise
        m = self.metrics
        m.replays_total += 1
        m.records_replayed_total += n
        m.replay_ns_total += int((time.perf_counter() - t0) * 1e9)

    # -- remote shipping ------------------------------------------------

    def _on_seal(
        self, name: str, seqno: int, base_lsn: int, last_lsn: int
    ) -> None:
        """WAL rotation hook: queue the sealed segment and try to ship.

        A failed ship is not an error here -- the segment stays
        pending, the retention pin keeps its file alive, and the next
        seal or checkpoint retries.  During a checkpoint the ship is
        skipped: the checkpoint publish supersedes it.
        """
        self._uploader.note_sealed(name, seqno, base_lsn, last_lsn)
        if not getattr(self, "_in_checkpoint", False):
            self._uploader.ship_segments()

    @property
    def uploader(self):
        return self._uploader

    @property
    def remote_metrics(self):
        return self._uploader.metrics if self._uploader is not None else None

    def ship(self) -> bool:
        """Ship any pending sealed segments now; True when drained."""
        if self._uploader is None:
            return True
        with self._lock:
            return self._uploader.ship_segments()

    def metrics_to_prometheus(self, prefix: str = "dytis") -> str:
        """WAL (and, when shipping, remote) counters as Prometheus text."""
        from repro.obs.exposition import snapshot_to_prometheus

        snapshot = {"wal": self.metrics.to_dict()}
        if self._uploader is not None:
            snapshot["remote"] = self._uploader.metrics.to_dict()
        return snapshot_to_prometheus(snapshot, prefix=prefix)

    # -- store surface --------------------------------------------------

    @property
    def index(self):
        return self._kv.index

    @property
    def kv(self) -> KVStore:
        """The wrapped in-memory store (reads bypass the WAL anyway)."""
        return self._kv

    def __len__(self) -> int:
        return len(self._kv)

    def namespaces(self) -> List[str]:
        return self._kv.namespaces()

    def namespace(
        self, name: str, codec: Optional[KeyCodec] = None
    ) -> "DurableNamespace":
        """Get or create the durable view of namespace ``name``.

        Creation is itself a logged event, so recovery reproduces the
        namespace table (and its id assignment order) exactly.
        """
        with self._lock:
            if name in self._durable_ns:
                # Delegate codec mismatch checks to the inner store.
                self._kv.namespace(name, codec)
                return self._durable_ns[name]
            is_new = name not in self._kv.namespaces()
            # Create first, log second: creation can fail validation
            # (codec width, namespace limit) and a ghost NS_OPEN record
            # would shift namespace-id assignment at replay.  The write
            # lock totally orders this append before any write through
            # the namespace, so the log can never hold a write without
            # its NS_OPEN.
            inner = self._kv.namespace(name, codec)
            if is_new:
                self.wal.append(rec.OP_NS_OPEN, rec.encode_ns_open(name))
            if codec is not None:
                self._codecs.setdefault(name, codec)
            dns = DurableNamespace(self, inner)
            self._durable_ns[name] = dns
            return dns

    # -- durability control ---------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self.wal.last_lsn

    @property
    def durable_lsn(self) -> int:
        return self.wal.durable_lsn

    def flush(self) -> None:
        """Force-fsync the WAL: everything acknowledged becomes durable."""
        with self._lock:
            self.wal.sync()

    def checkpoint(self) -> int:
        """Snapshot the store, then truncate dead WAL segments.

        Returns the checkpoint LSN.  Taken under the write lock: the
        snapshot is a consistent cut at ``last_lsn``.
        """
        with self._lock:
            t0 = time.perf_counter()
            # Sync, then take the LSN: a checkpoint stamped above the
            # log's durable tail would, after a crash, sit over a log
            # that restarts below it and hands out LSNs replay skips.
            self.wal.sync()
            lsn = self.wal.last_lsn
            ckpt.write_checkpoint(self._kv, lsn, self.fs, self.directory)
            # Rotate so the active segment starts past the checkpoint;
            # every earlier segment is then provably dead.  With a
            # remote attached, the rotation's seal skips its own ship
            # (the checkpoint publish below supersedes it), the
            # checkpoint ships before truncation, and the retention pin
            # keeps any un-acknowledged segment on disk regardless.
            self._in_checkpoint = True
            try:
                self.wal.rotate()
            finally:
                self._in_checkpoint = False
            if self._uploader is not None:
                if self._uploader.ship_checkpoint(
                    ckpt.checkpoint_name(lsn), lsn
                ):
                    self._uploader.ship_segments()
            self.wal.truncate_upto(lsn)
            m = self.metrics
            m.checkpoints_total += 1
            m.checkpoint_ns_total += int((time.perf_counter() - t0) * 1e9)
            return lsn

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            self.wal.close()
            self._closed = True

    def __enter__(self) -> "DurableKVStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DurableNamespace:
    """Namespace view that logs every mutation before applying it.

    Reads (``get``, ``get_many``, ``scan``, ``scan_range``,
    ``count_range``, ``items``) are the in-memory namespace's own bound
    methods; writes append one WAL record carrying the *encoded*
    (namespace-prefixed) key, so replay needs no codec.
    """

    def __init__(self, store: DurableKVStore, inner):
        self._ns = inner
        # The write path's callees, bound once: the store's write lock,
        # its log's ``append`` and, for ``insert``, the key encoding and
        # the index's ``insert``.
        self._lock = store._lock
        self._wal_append = store.wal.append
        self._base = inner._base
        self._encode_key = inner.codec.encode
        self._index_insert = inner.store.index.insert
        # Reads never touch the log: they *are* the inner bound methods.
        self.get, self.get_many = inner.get, inner.get_many
        self.scan, self.scan_range = inner.scan, inner.scan_range
        self.count_range, self.items = inner.count_range, inner.items

    @property
    def name(self) -> str:
        return self._ns.name

    @property
    def codec(self):
        return self._ns.codec

    # -- logged mutations -----------------------------------------------

    def insert(self, key, value: Any) -> None:
        # Key and payload (``rec.encode_insert``: u64 key | the value as
        # ``dump_value`` writes it) are encoded here, before the lock:
        # a key or value that fails to encode logs nothing.
        full = self._base | self._encode_key(key)
        payload = _U64_PACK(full) + (
            str(value).encode("ascii") if type(value) is int else dump_value(value)
        )
        with self._lock:
            self._wal_append(rec.OP_INSERT, payload)
            self._index_insert(full, value)

    def insert_many(self, keys, values=None) -> None:
        keys, values = batch_columns(keys, values)
        if not keys:
            return
        # Encode once: the same full keys feed the log record and the
        # in-memory apply.  One columnar OP_BATCH2 record covers the
        # whole batch (keys packed as one u64 column), so the durable
        # batch path costs a single append + a single index splice.
        keys = [self._ns._encode(k) for k in keys]
        with self._lock:
            self._wal_append(
                rec.OP_BATCH2,
                rec.encode_batch2(keys, values),
                ops=len(keys),
            )
            self._ns._insert_full(keys, values)

    def delete(self, key) -> bool:
        full = self._ns._encode(key)
        with self._lock:
            self._wal_append(rec.OP_DELETE, rec.encode_delete(full))
            return self._ns.delete(key)

    def delete_range(self, low, high) -> int:
        lo = self._ns._encode(low)
        hi = self._ns._upper_bound(high)
        if hi <= lo:
            return 0
        with self._lock:
            self._wal_append(
                rec.OP_DELETE_RANGE, rec.encode_delete_range(lo, hi)
            )
            return self._ns.delete_range(low, high)

    def __contains__(self, key) -> bool:
        return key in self._ns

    def __len__(self) -> int:
        return len(self._ns)
