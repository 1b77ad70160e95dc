"""The embedded store: namespaces over one ordered index.

A :class:`KVStore` owns a single ordered index (DyTIS by default) and
hands out :class:`Namespace` views.  A namespace combines a numeric
prefix with a key codec, so many logical tables share the index while
staying disjoint in key space and scannable per table -- the standard
embedded-store layout (think column families over one keyspace).
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, List, Optional, Tuple

from repro.api import batch_columns, is_batch_index
from repro.core import ConcurrentDyTIS, DyTIS, DyTISConfig
from repro.kvstore.codec import CodecError, KeyCodec, UintCodec

_NAMESPACE_BITS = 8  # up to 256 namespaces per store


class KVStore:
    """Embedded ordered key-value store with namespace views.

    ``thread_safe=True`` swaps in :class:`ConcurrentDyTIS` (paper §3.4's
    multi-threaded engine); the default single-threaded engine skips
    locking entirely, mirroring the paper's H-Store/Redis-style usage.
    """

    def __init__(
        self,
        config: Optional[DyTISConfig] = None,
        thread_safe: bool = False,
        index: Optional[Any] = None,
    ):
        if index is not None:
            self._index = index
        else:
            cfg = config or DyTISConfig()
            self._index = ConcurrentDyTIS(cfg) if thread_safe else DyTIS(cfg)
        key_bits = getattr(
            getattr(self._index, "config", None), "key_bits", 64
        )
        if key_bits <= _NAMESPACE_BITS:
            raise ValueError("index key space too small for namespaces")
        self._payload_bits = key_bits - _NAMESPACE_BITS
        # Capability flags, resolved once: every in-tree index satisfies
        # the full BatchOpsProtocol, but ``index=`` accepts any object
        # with the five core methods, so the namespaces keep loop
        # fallbacks for minimal (e.g. scan-only) indexes.
        self._index_is_batch = is_batch_index(self._index)
        # A process fleet serves an epoch's reads and writes in one
        # message per shard; in-process indexes have no such call.
        self._index_read_write = getattr(self._index, "read_write_many", None)
        self._index_has_scan_range = hasattr(self._index, "scan_range")
        self._index_has_count_range = hasattr(self._index, "count_range")
        self._namespaces: dict = {}
        self._ns_lock = threading.Lock()

    @property
    def index(self):
        return self._index

    def __len__(self) -> int:
        return len(self._index)

    def namespace(
        self, name: str, codec: Optional[KeyCodec] = None
    ) -> "Namespace":
        """Get or create the namespace ``name``.

        The codec is fixed at creation; re-opening with a different
        codec is an error (it would scramble the mapping).
        """
        with self._ns_lock:
            if name in self._namespaces:
                ns = self._namespaces[name]
                if codec is not None and codec is not ns.codec:
                    raise ValueError(
                        f"namespace {name!r} already open with a different codec"
                    )
                return ns
            if len(self._namespaces) >= (1 << _NAMESPACE_BITS):
                raise ValueError("namespace limit reached")
            ns_id = len(self._namespaces)
            ns = Namespace(
                self, name, ns_id, codec or UintCodec(self._payload_bits)
            )
            self._namespaces[name] = ns
            return ns

    def namespaces(self) -> List[str]:
        return list(self._namespaces)


class Namespace:
    """One logical table: codec-translated view over the shared index.

    The view keeps no state of its own: writes are plain upserts into
    the index and ``len(namespace)`` counts the namespace's key span in
    the index on demand, so it is exact whoever wrote the keys (another
    view, WAL replay, a snapshot load) and costs one ``count_range``.
    """

    def __init__(self, store: KVStore, name: str, ns_id: int, codec: KeyCodec):
        if codec.bits > store._payload_bits:
            raise ValueError(
                f"codec needs {codec.bits} bits; namespace payload has "
                f"{store._payload_bits}"
            )
        self.store = store
        self.name = name
        self.codec = codec
        self._base = ns_id << store._payload_bits
        self._span = 1 << store._payload_bits
        # The key check, picked once.  Under the identity codec
        # (``UintCodec`` exactly) a plain int below 2^bits *is* its
        # encoding, tested inline as ``type(key) is int and not key >>
        # bits``.  Every other key -- and every key of any other codec,
        # whose ``_plain_int`` is None, which no ``type(key)`` is --
        # goes through ``codec.encode``, which raises the rejections.
        self._plain_int = int if type(codec) is UintCodec else None
        self._codec_bits = codec.bits
        # The scalar read's callees, bound once (``get`` below).
        self._encode_key = codec.encode
        self._index_get = store.index.get
        if store._index_read_write is not None:
            self.read_write_many = self._read_write_many

    def _encode(self, key) -> int:
        if type(key) is self._plain_int and not key >> self._codec_bits:
            return self._base | key
        return self._base | self._encode_key(key)

    def _upper_bound(self, high) -> int:
        """Encode an *exclusive* range bound, saturating at the span end.

        Closed-open ranges need ``high`` one past the last wanted key,
        which for the namespace's maximum key is not codec-encodable;
        an unrepresentable ``high`` therefore means "to the end of the
        namespace".
        """
        try:
            off = self.codec.encode(high)
        except CodecError:
            return self._base + self._span
        return self._base + min(off, self._span)

    def __len__(self) -> int:
        if self.store._index_has_count_range:
            return self.store.index.count_range(
                self._base, self._base + self._span
            )
        return sum(1 for _ in self.items())

    # -- operations -----------------------------------------------------

    def insert(self, key, value: Any) -> None:
        """Insert or overwrite ``key`` (IndexProtocol naming)."""
        self.store.index.insert(self._encode(key), value)

    def get(self, key, default: Any = None) -> Any:
        # ``_encode`` inlined: a read is one frame above the index's.
        if type(key) is self._plain_int and not key >> self._codec_bits:
            found = self._index_get(self._base | key)
        else:
            found = self._index_get(self._base | self._encode_key(key))
        return default if found is None else found

    def get_many(self, keys) -> List[Any]:
        """Batched lookups, None for absent keys.

        Delegates to the index's vectorised ``get_many`` when it
        satisfies :class:`repro.api.BatchOpsProtocol` (checked once at
        store construction), else loops.
        """
        index = self.store.index
        encoded = [self._encode(k) for k in keys]
        if self.store._index_is_batch:
            return index.get_many(encoded)
        return [index.get(full) for full in encoded]

    def insert_many(self, keys, values=None) -> None:
        """Batched insert-or-update.

        Accepts ``(keys, values)`` parallel sequences (the typed
        contract) or one iterable of pairs (the legacy form) and hands
        the encoded key column and the value column to the index's
        ``insert_many``.
        """
        keys, values = batch_columns(keys, values)
        self._insert_full([self._encode(k) for k in keys], values)

    def _insert_full(self, full_keys, values) -> None:
        """Upsert columns of already-prefixed index keys."""
        index = self.store.index
        if self.store._index_is_batch:
            index.insert_many(full_keys, values)
        else:
            for full, value in zip(full_keys, values):
                index.insert(full, value)

    def _insert_encoded(self, encoded, values) -> None:
        """Upsert columns of codec-*encoded* keys (a snapshot's), after
        checking that every one fits this namespace's span."""
        span = self._span
        if not all(type(k) is int and 0 <= k < span for k in encoded):
            raise CodecError(
                f"encoded key outside namespace {self.name!r}'s span"
            )
        base = self._base
        self._insert_full([base | k for k in encoded], values)

    def _read_write_many(self, read_keys, keys, values) -> List[Any]:
        """``index.read_write_many`` over the encoded key columns (a
        bad key raises before anything is sent).  Bound as
        ``read_write_many`` only over an index that has the call -- a
        fleet -- which is how the server finds out."""
        encode = self._encode
        return self.store._index_read_write(
            [encode(k) for k in read_keys], [encode(k) for k in keys], values
        )

    def __contains__(self, key) -> bool:
        return self._encode(key) in self.store.index

    def delete(self, key) -> bool:
        return self.store.index.delete(self._encode(key))

    def delete_range(self, low, high) -> int:
        """Delete every key with low <= key < high; returns the count.

        Bounds are namespace keys, clipped to this namespace's span
        (like :meth:`scan_range`), so a spanning range can never reach
        a neighbour's records.
        """
        lo = self._encode(low)
        hi = self._upper_bound(high)
        return self._delete_span(lo, hi) if lo < hi else 0

    def _delete_span(self, lo: int, hi: int) -> int:
        """Delete every prefixed index key in ``[lo, hi)``, ``lo < hi``;
        returns the count."""
        index = self.store.index
        if self.store._index_is_batch:
            return index.delete_range(lo, hi)
        doomed = [full for full, _ in self._raw_range(lo, hi)]
        return sum(1 for full in doomed if index.delete(full))

    def scan(self, start_key, count: int) -> List[Tuple[Any, Any]]:
        """Up to ``count`` pairs with key >= start_key, decoded, in order.

        Never leaks entries from other namespaces: results are clipped
        to this namespace's key span.
        """
        raw = self.store.index.scan(self._encode(start_key), count)
        end = self._base + self._span
        out: List[Tuple[Any, Any]] = []
        for full, value in raw:
            if full >= end:
                break
            out.append((self.codec.decode(full - self._base), value))
        return out

    def scan_range(self, low, high) -> List[Tuple[Any, Any]]:
        """All pairs with low <= key < high (decoded), in key order.

        The bounds are namespace keys; the range is clipped to this
        namespace's span so neighbours can never leak in.
        """
        lo = self._encode(low)
        hi = self._upper_bound(high)
        if hi <= lo:
            return []
        return [
            (self.codec.decode(full - self._base), value)
            for full, value in self._raw_range(lo, hi)
        ]

    def _raw_range(self, lo: int, hi: int) -> List[Tuple[int, Any]]:
        """The index's pairs with ``lo <= key < hi`` (prefixed keys);
        a scan-only index is paged through ``scan``."""
        index = self.store.index
        if self.store._index_has_scan_range:
            return index.scan_range(lo, hi)
        raw = []
        cursor = lo
        while cursor < hi:
            batch = index.scan(cursor, 1024)
            if not batch:
                break
            for full, value in batch:
                if full >= hi:
                    break
                raw.append((full, value))
            else:
                cursor = batch[-1][0] + 1
                continue
            break
        return raw

    def count_range(self, low, high) -> int:
        """Number of keys with low <= key < high in this namespace."""
        lo = self._encode(low)
        hi = self._upper_bound(high)
        if hi <= lo:
            return 0
        index = self.store.index
        if self.store._index_has_count_range:
            return index.count_range(lo, hi)
        return len(self.scan_range(low, high))

    def _full_items(self) -> List[Tuple[int, Any]]:
        """Every ``(prefixed index key, value)`` pair, ascending."""
        index = self.store.index
        if self.store._index_has_scan_range:
            return index.scan_range(self._base, self._base + self._span)
        pairs = []
        cursor = self._base
        end = self._base + self._span
        while True:
            batch = index.scan(cursor, 1024)
            live = [(k, v) for k, v in batch if k < end]
            pairs.extend(live)
            if len(live) < len(batch) or not batch:
                break
            cursor = batch[-1][0] + 1
        return pairs

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Every pair of this namespace in ascending key order."""
        for full, value in self._full_items():
            yield self.codec.decode(full - self._base), value
