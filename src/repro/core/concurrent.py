"""Concurrent DyTIS (paper §3.4).

Two-level locking adapted from CCEH/Ellis: a reader/writer lock per EH
table synchronises structure changes (split, directory doubling, sibling
updates) against everything else, while a mutex per segment serialises
the operations that only touch one segment object (normal insert,
search, remapping/expansion prepare their new segment under the EH
write lock here, conservatively).

Inserts run optimistically: take the EH read lock plus the segment
lock, re-validate the directory still points at the segment, and insert
in place; only when the bucket is full do they escalate to the EH write
lock and run the full Algorithm-1 path.  Scans lock segments one by one
over the range, per the paper.

Python's GIL prevents true parallel speedup; this wrapper reproduces
the *protocol* (and its contention behaviour) and exposes lock-wait
statistics so Figure 12 can be interpreted honestly -- see DESIGN.md §1
and EXPERIMENTS.md.
"""

from __future__ import annotations

import threading
import time
from operator import index as _as_int
from typing import Any, List, Optional, Tuple

from repro.api.protocol import batch_pairs
from repro.core.config import DyTISConfig
from repro.core.dytis import DyTIS


class RWLock:
    """Writer-preferring reader/writer lock."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _ReadGuard:
        __slots__ = ("_lock",)

        def __init__(self, lock: "RWLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_read()

        def __exit__(self, *exc):
            self._lock.release_read()
            return False

    class _WriteGuard:
        __slots__ = ("_lock",)

        def __init__(self, lock: "RWLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_write()

        def __exit__(self, *exc):
            self._lock.release_write()
            return False

    def read(self) -> "_ReadGuard":
        return RWLock._ReadGuard(self)

    def write(self) -> "_WriteGuard":
        return RWLock._WriteGuard(self)


class ConcurrentDyTIS:
    """Thread-safe DyTIS with EH-level RW locks + segment-level mutexes.

    Observability: latencies are recorded into one
    :class:`repro.obs.ObsShard` *per EH table* -- writers on different
    tables never contend on instrumentation, and readers merge the
    shards on demand (``obs.histogram(op)``).  Structural events flow
    through the shared bus from the inner index (whose own latency
    recording is disabled via :meth:`Observability.structural_view`, so
    escalated inserts are not double-counted).
    """

    def __init__(self, config: Optional[DyTISConfig] = None, obs=None):
        self.obs = obs
        self._obs = obs if (obs is not None and obs.enabled) else None
        self._d = DyTIS(
            config,
            obs=self._obs.structural_view() if self._obs is not None else None,
        )
        self._eh_locks: List[RWLock] = [
            RWLock() for _ in range(len(self._d._tables))
        ]
        self._shards = (
            [self._obs.new_shard() for _ in self._d._tables]
            if self._obs is not None
            else None
        )
        self._size_lock = threading.Lock()
        #: Seconds spent escalated to EH write locks (contention probe).
        self.structural_lock_time = 0.0

    # -- delegation -----------------------------------------------------------

    @property
    def config(self) -> DyTISConfig:
        return self._d.config

    @property
    def stats(self):
        return self._d.stats

    def __len__(self) -> int:
        return len(self._d)

    def check_invariants(self) -> None:
        self._d.check_invariants()

    def items(self):
        return self._d.items()

    # -- batch operations ---------------------------------------------------------

    def bulk_load(self, keys, values) -> None:
        """Bottom-up bulk load under exclusive access.

        Takes every EH write lock (in index order, so concurrent bulk
        loads cannot deadlock) and delegates to :meth:`DyTIS.bulk_load`;
        the index must be empty, exactly as in the single-threaded API.
        """
        t0 = time.perf_counter_ns()
        for lock in self._eh_locks:
            lock.acquire_write()
        try:
            self._d.bulk_load(keys, values)
        finally:
            for lock in reversed(self._eh_locks):
                lock.release_write()
        if self._obs is not None:
            self._obs.record("bulk_load", time.perf_counter_ns() - t0)

    def get_many(self, keys) -> List[Optional[Any]]:
        """Batched lookups through the locking :meth:`get` path.

        The concurrent wrapper keeps the paper's two-level locking
        protocol per key rather than vectorising across segments: each
        lookup is individually consistent, like a scan's one-segment-
        at-a-time locking.
        """
        return [self.get(key) for key in keys]

    def insert_many(self, keys, values=None) -> None:
        """Batched inserts through the locking :meth:`insert` path.

        Accepts ``(keys, values)`` parallel sequences (the typed
        contract) or one iterable of pairs (the legacy form).
        """
        for key, value in batch_pairs(keys, values):
            self.insert(key, value)

    # -- operations --------------------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        """Thread-safe point lookup."""
        if self._obs is not None:
            return self._get_observed(key)
        d = self._d
        key = d._check_key(key)
        ti = d._table_index(key)
        lock = self._eh_locks[ti]
        with lock.read():
            table = d._tables[ti]
            if table is None:
                return None
            seg = table.segment_for(key & d._local_mask, d._m)
            with seg.lock:
                return seg.get(key)

    def _get_observed(self, key: int) -> Optional[Any]:
        """``get`` recording latency + probes into the table's shard."""
        d = self._d
        t0 = time.perf_counter_ns()
        key = d._check_key(key)
        ti = d._table_index(key)
        shard = self._shards[ti]
        found = False
        value = None
        probed = False
        with self._eh_locks[ti].read():
            table = d._tables[ti]
            if table is not None:
                seg = table.segment_for(key & d._local_mask, d._m)
                with seg.lock:
                    probed = True
                    found, value = seg.probe(key)
        ns = time.perf_counter_ns() - t0
        with shard.lock:
            shard.record("get", ns)
            p = shard.probes
            p.gets += 1
            if probed:
                p.buckets_probed += 1
                if found:
                    p.plr_hits += 1
                else:
                    p.plr_misses += 1
        return value

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None or self._contains_slow(key)

    def _contains_slow(self, key: int) -> bool:
        d = self._d
        ti = d._table_index(key)
        with self._eh_locks[ti].read():
            table = d._tables[ti]
            if table is None:
                return False
            seg = table.segment_for(key & d._local_mask, d._m)
            with seg.lock:
                return seg.contains(key)

    def insert(self, key: int, value: Any) -> None:
        """Thread-safe insert-or-update (optimistic, escalates when full)."""
        if self._obs is not None:
            t0 = time.perf_counter_ns()
            ti = self._insert_impl(key, value)
            self._shards[ti].record_locked(
                "insert", time.perf_counter_ns() - t0
            )
            return
        self._insert_impl(key, value)

    def _insert_impl(self, key: int, value: Any) -> int:
        d = self._d
        key = d._check_key(key)
        ti = d._table_index(key)
        lock = self._eh_locks[ti]
        local = key & d._local_mask
        while True:
            with lock.read():
                table = d._tables[ti]
                if table is not None:
                    idx = table.dir_index(local, d._m)
                    seg = table.dir[idx]
                    with seg.lock:
                        # Re-validate: a racing structural op may have
                        # replaced the segment before we got its lock.
                        if table.dir[table.dir_index(local, d._m)] is seg:
                            result = seg.insert(key, value)
                            if result == "inserted":
                                with self._size_lock:
                                    d._size += 1
                                return ti
                            if result == "updated":
                                return ti
                            # full: fall through to the structural path
            t0 = time.perf_counter()
            with lock.write():
                # The whole Algorithm-1 path (and lazy table creation)
                # runs exclusively; d.insert re-checks everything.
                d.insert(key, value)
                self.structural_lock_time += time.perf_counter() - t0
                return ti

    def delete(self, key: int) -> bool:
        """Thread-safe delete.

        The key leaves under the table's read lock and its segment's
        mutex.  A delete that leaves the segment below a quarter of the
        utilization threshold then takes the table's write lock and
        runs :meth:`DyTIS._maybe_merge_after_delete` on the key's
        segment, as :meth:`DyTIS.delete` does.
        """
        if self._obs is not None:
            t0 = time.perf_counter_ns()
            found = self._delete_impl(key)
            ti = self._d._table_index(key)
            self._shards[ti].record_locked(
                "delete", time.perf_counter_ns() - t0
            )
            return found
        return self._delete_impl(key)

    def _delete_impl(self, key: int) -> bool:
        d = self._d
        key = d._check_key(key)
        ti = d._table_index(key)
        local = key & d._local_mask
        with self._eh_locks[ti].read():
            table = d._tables[ti]
            if table is None:
                return False
            while True:
                seg = table.dir[table.dir_index(local, d._m)]
                with seg.lock:
                    if table.dir[table.dir_index(local, d._m)] is not seg:
                        continue
                    if not seg.delete(key):
                        return False
                    with self._size_lock:
                        d._size -= 1
                    sparse = (
                        seg.utilization() < 0.25 * d.config.util_threshold
                    )
                    break
        if sparse:
            with self._eh_locks[ti].write():
                # Re-resolve: another writer may have restructured the
                # segment between the two locks.
                table = d._tables[ti]
                d._maybe_merge_after_delete(
                    table, table.segment_for(local, d._m), local
                )
        return True

    def delete_range(self, low: int, high: int) -> int:
        """Delete every key in [low, high); returns how many went.

        One EH table at a time, under its write lock: each segment the
        range overlaps cuts its run (:meth:`DyTIS._cut_range`, which
        also runs the post-delete merge policy on the touched
        segments), so the range's part in a table goes atomically.  The
        call as a whole is not atomic across tables: a writer may insert
        into a table the walk has already passed.
        """
        d = self._d
        key = d._check_key(low)
        high = min(_as_int(high), d._key_limit)
        m = d._m
        removed = 0
        while key < high:
            ti = key >> m
            end = (ti + 1) << m
            with self._eh_locks[ti].write():
                table = d._tables[ti]
                gone = (
                    d._cut_range(table, key, min(high, end))
                    if table is not None else 0
                )
            if gone:
                with self._size_lock:
                    d._size -= gone
                removed += gone
            key = end
        return removed

    def count_range(self, low: int, high: int) -> int:
        """Number of keys with low <= key < high (API parity with DyTIS).

        Counted from bounded :meth:`scan` batches under the same
        one-segment-at-a-time locking; unlike the single-threaded
        metadata fast path this materialises batches, trading speed for
        the consistency model every other concurrent read uses.
        """
        low = self._d._check_key(low)
        count = 0
        cursor = low
        while cursor < high:
            batch = self.scan(cursor, 512)
            if not batch:
                break
            for key, _ in batch:
                if key >= high:
                    return count
                count += 1
            cursor = batch[-1][0] + 1
        return count

    def scan_range(self, low: int, high: int) -> List[Tuple[int, Any]]:
        """Thread-safe closed-open range scan (API parity with DyTIS).

        Built from bounded :meth:`scan` batches, each of which holds its
        segment locks only while copying; the result is a consistent
        prefix-at-a-time view, like the paper's one-segment-at-a-time
        scan locking.
        """
        low = self._d._check_key(low)
        out: List[Tuple[int, Any]] = []
        cursor = low
        while cursor < high:
            batch = self.scan(cursor, 512)
            if not batch:
                break
            for key, value in batch:
                if key >= high:
                    return out
                out.append((key, value))
            cursor = batch[-1][0] + 1
        return out

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]:
        """Thread-safe range scan, locking segments one by one (§3.4)."""
        if self._obs is None:
            return self._scan_impl(start_key, count)
        t0 = time.perf_counter_ns()
        hops = [0]
        out = self._scan_impl(start_key, count, hops)
        ns = time.perf_counter_ns() - t0
        shard = self._shards[self._d._table_index(start_key)]
        with shard.lock:
            shard.record("scan", ns)
            shard.probes.scans += 1
            shard.probes.scan_segment_hops += hops[0]
        return out

    def _scan_impl(
        self, start_key: int, count: int, hops: Optional[List[int]] = None
    ) -> List[Tuple[int, Any]]:
        d = self._d
        start_key = d._check_key(start_key)
        out: List[Tuple[int, Any]] = []
        segments_visited = 0
        table_idx = d._table_index(start_key)
        first = True
        while len(out) < count and table_idx < len(d._tables):
            lock = self._eh_locks[table_idx]
            with lock.read():
                table = d._tables[table_idx]
                if table is None:
                    table_idx += 1
                    first = False
                    continue
                if first:
                    seg: Optional = table.segment_for(
                        start_key & d._local_mask, d._m
                    )
                else:
                    seg = table.dir[0]
                while seg is not None and len(out) < count:
                    segments_visited += 1
                    # Copy the segment's contiguous runs in bulk while
                    # its lock is held; overshoot is trimmed below.
                    with seg.lock:
                        if first:
                            seg.extend_from(out, start_key, count)
                        else:
                            seg.extend_items(out, count)
                    first = False
                    seg = seg.sibling
            table_idx += 1
            first = False
        if hops is not None:
            hops[0] = max(0, segments_visited - 1)
        if len(out) > count:
            del out[count:]
        return out
