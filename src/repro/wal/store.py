"""``DurableKVStore``: the embedded store with a write-ahead log.

The wrapper owns a plain :class:`~repro.kvstore.store.KVStore` and a
:class:`~repro.wal.log.WriteAheadLog` in one directory.  Every mutation
-- ``insert``, ``insert_many``, ``delete``, ``delete_range``, and
namespace creation -- is logged *before* it is applied, and the call
returns ("acknowledges") only after the log append and the fsync
policy's decision.  With ``fsync='always'`` an acknowledged write is on
stable storage; ``'batch'`` group-commits with bounded, prefix-ordered
loss; ``'never'`` trusts OS writeback: records reach the kernel when
the log's 64 KiB buffer fills or at ``flush``, checkpoint, rotation or
``close``, so a process kill loses at most the buffered tail (a prefix
survives) and a power cut everything since the last sync.

Construction *is* recovery, and recovery, the checkpoint protocol and
remote shipping are the durability core's (:mod:`repro.wal.checkpoint`);
checkpoints here are v2 store snapshots, ``ckpt-<lsn>.snap``, beside the
log.  Codecs are not serialisable, so non-default namespace codecs are
handed back at open time via ``codecs={'name': codec}`` -- the same
contract the snapshot layer has always had.  Namespace views keep no
state of their own, so the recovered store is indistinguishable from one
that never crashed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.api import batch_columns
from repro.kvstore import KVStore, dump_snapshot_bytes, load_snapshot_bytes
from repro.kvstore.codec import KeyCodec, dump_value
from repro.kvstore.snapshot import read_snapshot_header
from repro.wal import record as rec
from repro.wal.checkpoint import DurableDirectory
from repro.wal.metrics import WalMetrics

_OP_INSERT = rec.OP_INSERT


class DurableKVStore(DurableDirectory):
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
        self._codecs = dict(codecs or {})
        #: The wrapped in-memory store (reads bypass the WAL anyway).
        self.kv = KVStore(config=config, thread_safe=thread_safe, index=index)
        self.index = self.kv.index
        self._durable_ns: Dict[str, DurableNamespace] = {}
        super().__init__(
            directory, fs, fsync, remote, remote_policy, segment_size, metrics
        )

    # -- the checkpoint codec: a v2 snapshot stamped with the LSN -------

    def _dump_checkpoint(self, lsn: int) -> bytes:
        return dump_snapshot_bytes(self.kv, extra_header={"checkpoint_lsn": lsn})

    def _load_checkpoint(self, data: bytes, lsn: int, source: str) -> None:
        header = read_snapshot_header(data, source)
        for name in header.get("namespaces", []):
            self._open_namespace(name)
        load_snapshot_bytes(self.kv, data, source)

    def _open_namespace(self, name: str) -> None:
        self.kv.namespace(name, self._codecs.get(name))

    def metrics_to_prometheus(self, prefix: str = "dytis") -> str:
        """WAL (and, when shipping, remote) counters as Prometheus text."""
        from repro.obs.exposition import snapshot_to_prometheus

        snapshot = {"wal": self.metrics.to_dict()}
        if self.uploader is not None:
            snapshot["remote"] = self.uploader.metrics.to_dict()
        return snapshot_to_prometheus(snapshot, prefix=prefix)

    # -- store surface --------------------------------------------------

    def __len__(self) -> int:
        return len(self.kv)

    def namespaces(self) -> List[str]:
        return self.kv.namespaces()

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
                self.kv.namespace(name, codec)
                return self._durable_ns[name]
            is_new = name not in self.kv.namespaces()
            # Create first, log second: creation can fail validation
            # (codec width, namespace limit) and a ghost NS_OPEN record
            # would shift namespace-id assignment at replay.  The write
            # lock totally orders this append before any write through
            # the namespace, so the log can never hold a write without
            # its NS_OPEN.
            inner = self.kv.namespace(name, codec)
            if is_new:
                self.wal.append(rec.OP_NS_OPEN, rec.encode_ns_open(name))
            dns = DurableNamespace(self, inner)
            self._durable_ns[name] = dns
            return dns

    @property
    def last_lsn(self) -> int:
        return self.wal.last_lsn

    @property
    def durable_lsn(self) -> int:
        return self.wal.durable_lsn

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
        self.name, self.codec = inner.name, inner.codec
        # The write path's callees, bound once: the store's write lock
        # (and, for ``insert``, its bound ``acquire``/``release``: a
        # ``with`` block costs about twice the two calls), its log's
        # ``append`` and the index's ``insert`` and ``delete``; and the
        # namespace's inline key check (see ``Namespace.__init__``).
        self._lock = store._lock
        self._acquire, self._release = store._lock.acquire, store._lock.release
        self._wal_append = store.wal.append
        self._base = inner._base
        self._plain_int, self._codec_bits = inner._plain_int, inner._codec_bits
        self._encode_key = inner.codec.encode
        self._index_insert = inner.store.index.insert
        self._index_delete = inner.store.index.delete
        # Reads never touch the log: they *are* the inner bound methods.
        self.get, self.get_many = inner.get, inner.get_many
        self.scan, self.scan_range = inner.scan, inner.scan_range
        self.count_range, self.items = inner.count_range, inner.items

    # -- logged mutations -----------------------------------------------

    def insert(self, key, value: Any) -> None:
        # The key (``Namespace._encode`` inlined) and the value bytes
        # (``dump_value``, its int case inline) are encoded here, before
        # the lock: a key or value that fails to encode logs nothing.
        # ``append`` packs the key into the record header, so the
        # payload is ``rec.encode_insert``'s: u64 key | value bytes.
        if type(key) is self._plain_int and not key >> self._codec_bits:
            full = self._base | key
        else:
            full = self._base | self._encode_key(key)
        value_bytes = (
            str(value).encode("ascii") if type(value) is int else dump_value(value)
        )
        self._acquire()
        try:
            self._wal_append(_OP_INSERT, value_bytes, 1, full)
            self._index_insert(full, value)
        finally:
            self._release()

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
        full = self._ns._encode(key)  # once: the record and the apply share it
        with self._lock:
            self._wal_append(rec.OP_DELETE, rec.encode_delete(full))
            return self._index_delete(full)

    def delete_range(self, low, high) -> int:
        lo = self._ns._encode(low)
        hi = self._ns._upper_bound(high)
        if hi <= lo:
            return 0
        with self._lock:
            self._wal_append(
                rec.OP_DELETE_RANGE, rec.encode_delete_range(lo, hi)
            )
            return self._ns._delete_span(lo, hi)

    def __contains__(self, key) -> bool:
        return key in self._ns

    def __len__(self) -> int:
        return len(self._ns)
