"""DyTIS -- Dynamic dataset Targeted Index Structure (paper §3).

Two-level layout (Figure 5): the R most significant key bits select one
of 2^R second-level Extendible-Hashing tables; inside an EH table the
next GD bits index a directory of segments; a segment's remapping
function maps the remaining low bits to one of its sorted buckets.

Insertion follows Algorithm 1: a full bucket triggers split, remapping,
expansion, or directory doubling depending on the segment's local depth
vs. the table's global depth and on segment utilization vs. U_t.  Until
a segment reaches local depth L_start, only the basic Extendible-hashing
schemes run.  Segment sizes are capped per depth; the cap factor is
boosted once for expansion-heavy (near-uniform) datasets, decided at
depth L' = L_start + 2 from observed operation mix (§3.3 'Selecting a
segment size').
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from itertools import chain
from operator import index as _as_int
from time import perf_counter_ns as _now
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.api.protocol import batch_columns
from repro.core import bulkload
from repro.core.config import DyTISConfig
from repro.core.invariants import require
from repro.core.remap import (
    PiecewiseRemap,
    _apportion,
    line_remap,
    proportional_allocs,
)
from repro.core.segment import (
    ROUTED_PROBE_BUCKETS,
    Segment,
    build_fitting,
    count_pieces,
    fit_run,
    line_split_size,
    plan_remap,
    plan_split,
)
from repro.core.stats import OperationStats
from repro.obs.events import (
    DirectoryResizeEvent,
    DoublingEvent,
    ExpandEvent,
    FusedRebuildEvent,
    MergeEvent,
    RemapEvent,
    SplitEvent,
)

#: Batches of at most this many keys take the list paths of
#: ``get_many``/``insert_many``/``delete_many``, which make no NumPy
#: call: a 2-shard fleet epoch hands each worker ~22 keys per side,
#: where the array path's fixed cost (key column, argsort, dedupe)
#: outweighs the per-key work.  Measured crossover: ARCHITECTURE §6.
_SMALL_BATCH = 32


#: ``get_many`` probes a batch above ``_SMALL_BATCH`` keys against the
#: read snapshot this many keys at a time: per chunk one key column,
#: one sort, one ``searchsorted``, one equality test and one gather, so
#: the call's transient memory beyond its output list is the snapshot
#: plus O(chunk) whatever the batch size.
_PROBE_CHUNK = 16_384


#: The append cursor when none is armed: an empty key interval that
#: starts above every key, so the range test ``cur[0] <= key < cur[1]``
#: fails, at its first comparison for any key in the domain.
_NO_CURSOR = (1 << 64, 0)


def _record_batch(rec, t0: int, n: int) -> None:
    """Record a batch call of ``n`` keys begun at ``t0`` as ``n``
    samples of its time divided by ``n``: a histogram's count stays the
    keys served however they were batched, and its sum the time spent."""
    if n:
        ns = (_now() - t0) // n
        for _ in range(n):
            rec(ns)


class _ReadSnapshot:
    """A read-only snapshot of the index's live pairs for ``get_many``.

    ``keys`` holds every live key as ``uint64`` in global key order
    (strictly increasing) and ``vals`` an object array of their values,
    16 bytes per live key (see :meth:`DyTIS._build_snapshot`).  ``gen`` is
    the index's write generation when the snapshot was taken; it answers
    reads exactly while ``DyTIS._gen`` still equals it, and is never
    updated in place.
    """

    __slots__ = ("gen", "keys", "vals")

    def __init__(self, gen, keys, vals):
        self.gen = gen
        self.keys = keys
        self.vals = vals


class _EHTable:
    """One second-level Extendible-Hashing table (paper Figure 5)."""

    __slots__ = ("global_depth", "dir")

    def __init__(self, segments: List[Segment]):
        """A table over ``segments``, in key order, whose spans tile the
        table's key range: the directory at GD = the deepest LD, with
        the segments' sibling pointers chained."""
        if len(segments) == 1:  # a new table, or a small bulk-loaded one
            self.global_depth = segments[0].local_depth
            self.dir = segments
            return
        gd = max(seg.local_depth for seg in segments)
        directory: List[Segment] = []
        prev = None
        for seg in segments:
            directory.extend([seg] * (1 << (gd - seg.local_depth)))
            if prev is not None:
                prev.sibling = seg
            prev = seg
        self.global_depth = gd
        self.dir = directory

    def dir_index(self, local_key: int, eh_key_bits: int) -> int:
        # GD == 0 shifts the whole local key out: slot 0, no branch.
        return local_key >> (eh_key_bits - self.global_depth)

    def segment_for(self, local_key: int, eh_key_bits: int) -> Segment:
        return self.dir[self.dir_index(local_key, eh_key_bits)]

    def unique_segments(self) -> Iterator[Segment]:
        prev = None
        for seg in self.dir:
            if seg is not prev:
                yield seg
                prev = seg


class DyTIS:
    """The DyTIS index: search, insert, scan, update, delete.

    Keys are integers in [0, 2^key_bits); values are arbitrary objects.
    ``insert`` updates in place when the key exists (paper §3.3).
    """

    def __init__(self, config: Optional[DyTISConfig] = None, obs=None):
        self.config = config or DyTISConfig()
        self.stats = OperationStats()
        #: Optional :class:`repro.obs.Observability` collector.  Hot
        #: paths branch once on ``self._obs``; a disabled collector is
        #: normalized to None here so they pay nothing else.
        self.obs = obs
        self._obs = obs if (obs is not None and obs.enabled) else None
        # Bound per-op recorders: one closure call per observed
        # operation, straight into the histogram's pending buffer (see
        # Observability.recorder); None doubles as the disabled flag so
        # hot paths pay exactly one load + branch.
        if self._obs is not None:
            self._rec_get = self._obs.recorder("get")
            self._rec_insert = self._obs.recorder("insert")
            self._rec_delete = self._obs.recorder("delete")
            self._rec_scan = self._obs.recorder("scan")
        else:
            self._rec_get = None
            self._rec_insert = None
            self._rec_delete = None
            self._rec_scan = None
        self._m = self.config.eh_key_bits
        self._local_mask = (1 << self._m) - 1
        self._key_bits = self.config.key_bits
        self._key_limit = 1 << self._key_bits
        self._tables: List[Optional[_EHTable]] = [None] * (
            1 << self.config.first_level_bits
        )
        self._size = 0
        # ``_gen`` counts every write.  The read snapshot of live pairs
        # (serves ``get_many`` in read-only phases) is tagged with the
        # ``_gen`` it was built at, and a stale one is dropped by the
        # next ``get_many``, batch write or restructure; ``_rent_keys``
        # counts the keys ``get_many`` resolved without it during
        # generation ``_rent_gen`` (see the rebuild rule in
        # :meth:`get_many`).
        self._gen = 0
        self._snapshot: Optional[_ReadSnapshot] = None
        self._rent_gen = -1
        self._rent_keys = 0
        # The append cursor (see :meth:`insert`): ``(lo, hi, counts, b,
        # off, capacity, karr, values[b], seg, piece_counts, i)`` for
        # the key interval ``[lo, hi)`` of sub-range ``i`` that bucket
        # ``b`` of live segment ``seg`` takes, armed by the last insert
        # that appended; ``_NO_CURSOR`` after anything replaces a
        # segment or a table.
        self._cursor = _NO_CURSOR
        # Segment-size-limit escalation state (§3.3).
        self._boost_decided = False
        self._boosted = False
        self._window_expansions = 0
        self._window_splits = 0

    def __len__(self) -> int:
        return self._size

    # -- key plumbing ------------------------------------------------------

    def _check_key(self, key: int) -> int:
        """``key`` as a plain ``int`` inside the key domain.

        The scalar API's boundary: the stores do exact Python-int
        arithmetic on keys, so anything with ``__index__`` (NumPy
        integer scalars, ``bool`` as 0/1) is normalised once here;
        floats have none and raise ``TypeError``.
        """
        if type(key) is not int:
            key = _as_int(key)
        if key >> self._key_bits:  # nonzero for a negative key too
            raise ValueError(
                f"key {key} outside [0, 2^{self.config.key_bits})"
            )
        return key

    def _table_index(self, key: int) -> int:
        return key >> self._m

    def _segment(self, key: int) -> Optional[Segment]:
        """The segment owning checked ``key``, or None (no EH table)."""
        table = self._tables[key >> self._m]
        if table is None:
            return None
        return table.dir[
            (key & self._local_mask) >> (self._m - table.global_depth)
        ]

    # -- point operations ------------------------------------------------------
    #
    # ``get`` and ``insert`` run flat: key check, table and directory
    # lookup (for ``insert`` also the remap arithmetic and the bucket
    # splice, for ``get`` the probe rule: the remap arithmetic in a
    # long segment, the live-prefix hit check in a short one) are
    # inlined, so no Python frame sits between either method and the
    # store's C ``bisect``.

    def get(self, key: int) -> Optional[Any]:
        """Value stored under ``key``, or None ('not exist')."""
        if self._obs is not None:
            return self._get_observed(key)
        if type(key) is not int:
            key = _as_int(key)
        if key >> self._key_bits:
            self._check_key(key)  # raises ValueError
        m = self._m
        table = self._tables[key >> m]
        if table is None:
            return None
        seg = table.dir[(key & self._local_mask) >> (m - table.global_depth)]
        store = seg.store
        if store.n_buckets > ROUTED_PROBE_BUCKETS:
            # Long column: the bucket the remap names (insert's routing),
            # then a bisect of its live prefix only.
            (mask, shift, cum, allocs, offmask, n_buckets, cap, counts,
             karr, values, _) = seg._route
            lk = key & mask
            i = lk >> shift
            b = cum[i] + ((allocs[i] * (lk & offmask)) >> shift)
            if b >= n_buckets:  # trailing zero-allocation sub-ranges
                b = n_buckets - 1
            off = b * cap
            end = off + counts[b]
            j = bisect_left(karr, key, off, end)
            if j < end and karr[j] == key:
                return values[b][j - off]
            return None
        # ``ColumnarStorage.probe_key``'s first step inlined: the last
        # slot <= key is a hit when it lies in its bucket's live prefix.
        # ``pos == -1`` needs no test: the column is non-decreasing, so
        # its last slot is >= the first, which exceeds ``key``.
        karr = store._karr
        pos = bisect_right(karr, key) - 1
        if karr[pos] != key:
            return None
        cap = store.capacity
        b = pos // cap
        i = pos - b * cap
        if i < store.counts[b]:
            return store.values[b][i]
        # Padding equal to ``key``: the store walks back over it.
        return store.probe_key(key)[1]

    def _get_observed(self, key: int) -> Optional[Any]:
        """``get`` with latency + probe-depth recording (same semantics)."""
        obs = self._obs
        t0 = _now()
        key = self._check_key(key)
        probes = obs.probes
        m = self._m
        seg = self._segment(key)
        if seg is None:
            # No segment exists for this key span; attribute the miss to
            # the whole table's span so absent-table traffic still shows.
            probes.note_get((key >> m) << m, 0, False)
            self._rec_get(_now() - t0)
            return None
        # Span-start key of the probed segment: the lowest key the
        # segment can hold.  Stable across rebuilds of the same region,
        # so shard scrapes merge by summation.
        shift = m - seg.local_depth
        span = ((key >> shift) << shift)
        # Probe depth = live keys in the routed bucket, which a long
        # segment's probe then searches without routing again.
        b = seg.bucket_index_for(key)
        depth = seg.store.bucket_len(b)
        found, value = seg.probe(key, b)
        probes.note_get(span, depth, found)
        self._rec_get(_now() - t0)
        return value

    def __contains__(self, key: int) -> bool:
        key = self._check_key(key)
        seg = self._segment(key)
        return seg is not None and seg.contains(key)

    def insert(self, key: int, value: Any) -> None:
        """Insert ``key`` or update its value in place (Algorithm 1).

        One body, traced or not (``rec`` brackets it with two clock
        reads).  It is :meth:`Segment.insert` and
        :meth:`ColumnarStorage.insert` inlined, reading the segment's
        remap and columns with one load of ``seg._route`` -- those stay
        the definition ``ConcurrentDyTIS`` and the batch paths use, and
        ``tests/test_insert_path.py`` holds the two in lockstep.

        A key inside the append cursor's interval whose bucket is not
        empty, not full and whose live maximum is below it appends
        through the cursor without routing: the writes of the append
        branch below, from the tuple that branch armed.  Every other
        key routes as before.
        """
        rec = self._rec_insert
        if rec is not None:
            t0 = _now()
        if type(key) is int:
            cur = self._cursor
            # Two tests, not a chained comparison, whose stack shuffling
            # every miss would pay.
            if cur[0] <= key and key < cur[1]:
                (_, _, counts, b, off, cap, karr, vals, seg, piece_counts,
                 i) = cur
                cnt = counts[b]
                if 0 < cnt < cap and karr[off + cnt - 1] < key:
                    karr[off + cnt] = key
                    vals.append(value)
                    counts[b] = cnt + 1
                    seg.total_keys += 1
                    piece_counts[i] += 1
                    self._size += 1
                    self._gen += 1
                    if rec is not None:
                        rec(_now() - t0)
                    return
        else:
            key = _as_int(key)
        if key >> self._key_bits:
            self._check_key(key)  # raises ValueError
        m = self._m
        table = self._tables[key >> m]
        if table is None:
            table = self._new_table(key >> m)
        local = key & self._local_mask
        while True:
            seg = table.dir[local >> (m - table.global_depth)]
            (mask, shift, cum, allocs, offmask, n_buckets, cap, counts, karr,
             values, piece_counts) = seg._route
            lk = key & mask
            i = lk >> shift
            b = cum[i] + ((allocs[i] * (lk & offmask)) >> shift)
            if b >= n_buckets:  # trailing zero-allocation sub-ranges
                b = n_buckets - 1
            off = b * cap
            cnt = counts[b]
            end = off + cnt
            if 0 < cnt < cap and karr[end - 1] < key:
                # Past the bucket maximum (a time-advancing key): the
                # bisect would return ``end``, whose slot is padding
                # >= key, so nothing shifts and no padding is rewritten.
                karr[end] = key
                vals = values[b]
                vals.append(value)
                counts[b] = cnt + 1
                seg.total_keys += 1
                piece_counts[i] += 1
                self._size += 1
                # Arm the cursor on the keys of sub-range ``i`` that
                # route to ``b`` or below: from the sub-range's start
                # to bucket ``b + 1``'s first offset
                # (``PiecewiseRemap.bucket_offset``, never past the
                # sub-range's end since ``b - cum[i] < allocs[i]``), or
                # to its end when the sub-range has no allocation of its
                # own (its keys all share ``b``, clamped or not).  A key
                # there above ``b``'s live maximum routes to ``b``.
                lo = key - (lk & offmask)
                a = allocs[i]
                if a:
                    hi = lo - (-((b - cum[i] + 1) << shift) // a)
                else:
                    hi = lo + offmask + 1
                self._cursor = (
                    lo, hi, counts, b, off, cap, karr, vals, seg,
                    piece_counts, i,
                )
                break
            j = bisect_left(karr, key, off, end)
            if j < end and karr[j] == key:
                values[b][j - off] = value
                break
            if cnt < cap:
                if j < end:
                    karr[j + 1 : end + 1] = karr[j:end]
                karr[j] = key
                if j == off:
                    # New bucket minimum: rewrite padding before the
                    # span that now exceeds the key (store.insert).
                    p = off - 1
                    while p >= 0 and karr[p] > key:
                        karr[p] = key
                        p -= 1
                values[b].insert(j - off, value)
                counts[b] = cnt + 1
                seg.total_keys += 1
                piece_counts[i] += 1
                self._size += 1
                break
            self._handle_full(table, seg, local)
        self._gen += 1
        if rec is not None:
            rec(_now() - t0)

    def _new_table(self, ti: int) -> _EHTable:
        root = Segment(0, line_remap(self._m, 1), self.config.bucket_capacity)
        table = self._tables[ti] = _EHTable([root])
        return table

    def delete(self, key: int) -> bool:
        """Remove ``key``; return whether it was present (paper §3.3).

        A segment left badly under-utilized is merged down (rebuilt with
        fewer buckets) -- 'similar to remapping but in the opposite
        direction'.
        """
        rec = self._rec_delete
        if rec is not None:
            t0 = _now()
        if type(key) is not int:
            key = _as_int(key)
        if key >> self._key_bits:
            self._check_key(key)  # raises ValueError
        seg = self._segment(key)
        found = seg is not None and seg.delete(key)
        if found:
            self._size -= 1
            self._gen += 1
            self._maybe_merge_after_delete(
                self._tables[key >> self._m], seg, key & self._local_mask
            )
        if rec is not None:
            rec(_now() - t0)
        return found

    def _maybe_merge_after_delete(
        self, table: _EHTable, seg: Segment, local: int
    ) -> None:
        """Merge ``seg`` down when deletes left it badly under-utilized."""
        if seg.utilization() < 0.25 * self.config.util_threshold:
            if seg.merge_backoff is not None and seg.total_keys > seg.merge_backoff:
                return
            self._snapshot = None  # stale since the delete; a merge may follow
            before = seg
            if seg.n_buckets > 1:
                self._merge_down(table, seg, local)
                seg = table.segment_for(local, self._m)
            self._try_buddy_merge(table, seg, local)
            if table.segment_for(local, self._m) is before:
                # No merge was feasible; feasibility only improves as
                # keys leave, so wait for half of them before retrying.
                before.merge_backoff = before.total_keys // 2

    # -- scans ---------------------------------------------------------------

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]:
        """Up to ``count`` pairs with key >= start_key, in key order.

        Walks buckets within the start segment, then sibling segments,
        then subsequent first-level EH tables (paper §3.3 Scan): cost is
        O(result + segments touched), writes beside it or not.  One
        body, traced or not (``rec`` brackets it with two clock reads
        and hands the walk the probe counters).
        """
        rec = self._rec_scan
        if rec is not None:
            t0 = _now()
        start_key = self._check_key(start_key)
        out: List[Tuple[int, Any]] = []
        if count > 0:
            probes = None
            if rec is not None:
                probes = self._obs.probes
                probes.scans += 1
            self._scan_collect(start_key, count, out, probes)
            del out[count:]
        if rec is not None:
            rec(_now() - t0)
        return out

    def scan_range(self, low: int, high: int) -> List[Tuple[int, Any]]:
        """All pairs with low <= key < high, in key order.

        A closed-open range variant of :meth:`scan` for callers that
        know the end key instead of a count; the same segment walk.
        """
        low, high = self._check_key(low), _as_int(high)
        if high <= low:
            return []
        rec = self._rec_scan
        probes = None
        if rec is not None:
            t0 = _now()
            probes = self._obs.probes
            probes.scans += 1
        out: List[Tuple[int, Any]] = []
        self._scan_range_collect(low, high, out, probes)
        if rec is not None:
            rec(_now() - t0)
        return out

    def _scan_collect(
        self, start_key: int, limit: int, out: List[Tuple[int, Any]], probes
    ) -> None:
        """Append >= ``limit`` pairs with key >= ``start_key`` to ``out``.

        Walks the start segment, then sibling segments, then subsequent
        first-level EH tables (paper §3.3 Scan), copying each segment's
        contiguous runs in bulk instead of materialising per-bucket
        iterators; ``out`` may overshoot ``limit`` by part of a bucket,
        which callers trim.  ``probes`` counts sibling-chain hops: one
        per segment visited after the first, exactly as the lazy walk
        consumed them (a segment is never visited once ``limit`` is met).
        """
        table_idx = self._table_index(start_key)
        table = self._tables[table_idx]
        seg: Optional[Segment] = None
        visited = False
        if table is not None:
            seg = table.segment_for(start_key & self._local_mask, self._m)
            seg.extend_from(out, start_key, limit)
            if len(out) >= limit:
                return
            visited = True
            seg = seg.sibling
        while True:
            while seg is None:
                table_idx += 1
                if table_idx >= len(self._tables):
                    return
                table = self._tables[table_idx]
                if table is not None:
                    seg = table.dir[0]
            if probes is not None and visited:
                probes.scan_segment_hops += 1
            visited = True
            seg.extend_items(out, limit)
            if len(out) >= limit:
                return
            seg = seg.sibling

    def _scan_range_collect(
        self, low: int, high: int, out: List[Tuple[int, Any]], probes
    ) -> None:
        """Append every pair with low <= key < high to ``out`` (in order)."""
        table_idx = self._table_index(low)
        table = self._tables[table_idx]
        seg: Optional[Segment] = None
        visited = False
        if table is not None:
            seg = table.segment_for(low & self._local_mask, self._m)
            if seg.extend_range(out, low, high):
                return
            visited = True
            seg = seg.sibling
        while True:
            while seg is None:
                table_idx += 1
                if table_idx >= len(self._tables):
                    return
                table = self._tables[table_idx]
                if table is not None:
                    seg = table.dir[0]
            if probes is not None and visited:
                probes.scan_segment_hops += 1
            visited = True
            if seg.extend_range(out, low, high):
                return
            seg = seg.sibling

    def items(self) -> Iterator[Tuple[int, Any]]:
        """All pairs in ascending key order."""
        for table in self._tables:
            if table is None:
                continue
            seg: Optional[Segment] = table.dir[0]
            while seg is not None:
                yield from seg.items()
                seg = seg.sibling

    def keys(self) -> Iterator[int]:
        """All keys in ascending order."""
        for key, _ in self.items():
            yield key

    def __iter__(self) -> Iterator[int]:
        return self.keys()

    def __getitem__(self, key: int) -> Any:
        """Dict-style lookup; raises KeyError for absent keys.

        A single traversal: the bucket search distinguishes 'absent'
        from 'stored None' directly, instead of running ``get`` and
        ``__contains__`` back to back (two full traversals for misses).
        """
        key = self._check_key(key)
        seg = self._segment(key)
        if seg is not None:
            found, value = seg.probe(key)
            if found:
                return value
        raise KeyError(key)

    def __setitem__(self, key: int, value: Any) -> None:
        self.insert(key, value)

    def __delitem__(self, key: int) -> None:
        if not self.delete(key):
            raise KeyError(key)

    def count_range(self, low: int, high: int) -> int:
        """Number of keys with low <= key < high.

        Whole segments inside the range are counted from their metadata
        (``total_keys``), so the cost is proportional to the number of
        *segments* touched plus the two boundary segments' buckets --
        far cheaper than materialising the scan.
        """
        low, high = self._check_key(low), _as_int(high)
        if high <= low:
            return 0
        count = 0
        table_idx = self._table_index(low)
        table = self._tables[table_idx]
        seg: Optional[Segment] = None
        if table is not None:
            seg = table.segment_for(low & self._local_mask, self._m)
        while True:
            while seg is None:
                table_idx += 1
                if table_idx >= len(self._tables):
                    return count
                table = self._tables[table_idx]
                if table is not None:
                    seg = table.dir[0]
            first_key = seg.min_key()
            if first_key is not None and first_key >= high:
                return count
            last_key = seg.max_key()
            if (
                first_key is not None
                and first_key >= low
                and last_key is not None
                and last_key < high
            ):
                count += seg.total_keys  # fully inside: metadata only
            else:
                # Boundary segment: count via per-bucket binary searches.
                count += seg.count_between(low, high)
                if last_key is not None and last_key >= high:
                    return count
            seg = seg.sibling

    def delete_range(self, low: int, high: int) -> int:
        """Delete every key with low <= key < high; return the count.

        The range is one contiguous run per bucket (paper §3.3): the walk
        visits each EH table the range overlaps, skipping tables never
        created, and cuts each table's part with :meth:`_cut_range`.
        """
        key = self._check_key(low)
        high = min(_as_int(high), self._key_limit)
        m = self._m
        removed = 0
        while key < high:
            ti = key >> m
            end = (ti + 1) << m
            table = self._tables[ti]
            if table is not None:
                removed += self._cut_range(table, key, min(high, end))
            key = end
        if removed:
            self._size -= removed
            if self._snapshot is not None and self._snapshot.gen != self._gen:
                self._snapshot = None  # a stale snapshot goes at a batch write
        return removed

    def _cut_range(self, table: _EHTable, key: int, high: int) -> int:
        """Delete ``[key, high)``, a range inside ``table``, and return
        how many keys went (the caller adjusts ``_size``).

        Each segment whose aligned key span overlaps the range cuts its
        part with :meth:`Segment.delete_run`.  Only once every run is
        gone does the post-delete merge policy visit the touched
        segments, so no merge rewires the walk under it; a segment that
        a buddy merge has already replaced is skipped.
        """
        m = self._m
        removed = 0
        touched = []
        while key < high:
            local = key & self._local_mask
            seg = table.dir[local >> (m - table.global_depth)]
            span_bits = m - seg.local_depth
            end = ((key >> span_bits) + 1) << span_bits
            gone = seg.delete_run(key, min(high, end))
            if gone:
                removed += gone
                touched.append((seg, local))
            key = end
        if removed:
            self._gen += 1
            for seg, local in touched:
                if table.segment_for(local, m) is seg:
                    self._maybe_merge_after_delete(table, seg, local)
        return removed

    def delete_many(self, keys) -> int:
        """Batched delete; returns how many keys were present.

        The batch is sorted and deduplicated once and partitioned into
        per-segment groups as :meth:`insert_many` partitions it; each
        key of a group leaves through the scalar :meth:`Segment.delete`
        splice.  After each segment's group the usual post-delete merge
        policy runs, so structural behaviour matches a sequence of
        scalar deletes to within merge timing.

        A list of at most ``_SMALL_BATCH`` keys makes no NumPy call, as
        in :meth:`insert_many`: ``sorted(set(...))`` orders and
        deduplicates it and its ends are bounds-checked.  A key that
        path refuses sends the batch through the column path, which
        raises for it before any key is deleted.  On an observed index
        the call records one ``delete`` sample per key (see
        :func:`_record_batch`).
        """
        if not isinstance(keys, (np.ndarray, list, tuple)):
            keys = list(keys)
        rec = self._rec_delete
        if rec is None:
            return self._delete_many_impl(keys)
        t0 = _now()
        removed = self._delete_many_impl(keys)
        _record_batch(rec, t0, len(keys))
        return removed

    def _delete_many_impl(self, keys) -> int:
        key_list = None
        if not isinstance(keys, np.ndarray):
            if len(keys) <= _SMALL_BATCH:
                try:
                    key_list = sorted(set(map(_as_int, keys)))
                except TypeError:
                    pass
                else:
                    if key_list and (
                        key_list[0] < 0 or key_list[-1] >= self._key_limit
                    ):
                        key_list = None
        if key_list is None:
            key_list = np.unique(self._key_column(keys)).tolist()
        if not key_list:
            return 0
        m = self._m
        local_mask = self._local_mask
        tables = self._tables
        removed = 0
        n = len(key_list)
        i = 0
        while i < n:
            key = key_list[i]
            table = tables[key >> m]
            if table is None:
                i = bisect_left(key_list, ((key >> m) + 1) << m, i + 1)
                continue
            local = key & local_mask
            seg = table.dir[local >> (m - table.global_depth)]
            # The segment owns the aligned key span of its local depth.
            span_bits = m - seg.local_depth
            j = bisect_left(
                key_list, ((key >> span_bits) + 1) << span_bits, i + 1
            )
            gone = sum(map(seg.delete, key_list[i:j]))
            if gone:
                removed += gone
                self._size -= gone
                self._gen += 1
                self._maybe_merge_after_delete(table, seg, local)
            i = j
        if self._snapshot is not None and self._snapshot.gen != self._gen:
            self._snapshot = None  # a stale snapshot goes at a batch write
        return removed

    # -- batch operations --------------------------------------------------

    def _sorted_batch(
        self, keys_arr: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort a key batch and dedupe it keeping the *last* occurrence.

        Returns ``(sorted_unique_keys, source_index, order)`` where
        ``source_index[i]`` is the original position whose value wins
        for sorted key ``i`` (matching sequential insert-or-update
        semantics) and ``order`` is the full stable sort permutation.
        """
        order = np.argsort(keys_arr, kind="stable")
        sk = keys_arr[order]
        keep = np.empty(sk.size, dtype=bool)
        if sk.size:
            keep[:-1] = sk[:-1] != sk[1:]
            keep[-1] = True
        return sk[keep], order[keep], order

    def _key_column(self, keys) -> np.ndarray:
        """``keys`` as a one-dimensional ``uint64`` column.

        The batch API's boundary, holding the scalar rule of
        :meth:`_check_key` for a whole batch: Python and NumPy integers
        and ``bool`` pass, anything else (floats, strings, nested
        sequences) raises ``TypeError`` instead of being truncated, and
        a key that is negative or >= 2^key_bits raises ``ValueError``
        instead of wrapping.  An ndarray costs a dtype check (plus one
        ``min`` for signed kinds); a sequence one ``operator.index``
        per key.
        """
        if isinstance(keys, np.ndarray):
            if keys.ndim != 1:
                raise ValueError("keys must be one-dimensional")
            kind = keys.dtype.kind
            if kind not in "uib" and keys.size:
                raise TypeError(
                    f"keys must be integers, not an array of {keys.dtype}"
                )
            if kind == "i" and keys.size:
                low = int(keys.min())
                if low < 0:
                    self._check_key(low)  # raises ValueError
            arr = keys.astype(np.uint64, copy=False)
        else:
            if not isinstance(keys, (list, tuple)):
                keys = list(keys)
            try:
                arr = np.fromiter(
                    map(_as_int, keys), dtype=np.uint64, count=len(keys)
                )
            except OverflowError:  # some key is outside [0, 2^64)
                for key in keys:
                    self._check_key(key)  # raises ValueError
                raise
        if arr.size and int(arr.max()) >= self._key_limit:
            self._check_key(int(arr[arr >= np.uint64(self._key_limit)][0]))
        return arr

    def _key_list(self, keys) -> List[int]:
        """``keys`` as a list of plain ints: :meth:`_key_column`'s rule
        for the small-batch paths, without NumPy."""
        ks = [k if type(k) is int else _as_int(k) for k in keys]
        if ks and (min(ks) < 0 or max(ks) >= self._key_limit):
            for key in ks:
                self._check_key(key)  # raises ValueError
        return ks

    def bulk_load(self, keys, values) -> None:
        """Build the index bottom-up from a key/value batch (sorted once).

        The batch is sorted with numpy, deduplicated (later occurrences
        win, matching sequential insert-or-update), partitioned by the R
        first-level bits, and each EH table is laid out directly by
        :mod:`repro.core.bulkload`: prefix groups become segments whose
        piecewise-linear remapping functions are planned from a PLR fit
        of the group's CDF, and buckets are filled by slice.  No split,
        remapping, expansion, or directory doubling ever runs, which
        makes loading N sorted keys dramatically cheaper than N
        Algorithm-1 inserts while producing a structure that satisfies
        the same invariants (and has the same insert headroom, since
        segments are filled only to the utilization threshold).

        Only an empty index can be bulk loaded; use :meth:`insert_many`
        to add batches to a populated index.
        """
        if self._size:
            raise ValueError("bulk_load requires an empty index")
        self._gen += 1
        self._snapshot = None
        self._cursor = _NO_CURSOR  # it may point into a replaced table
        values = list(values)
        arr = self._key_column(keys)
        if arr.size != len(values):
            raise ValueError("keys and values must have the same length")
        if arr.size == 0:
            return
        t0 = time.perf_counter()
        sk, src, _ = self._sorted_batch(arr)
        vals = [values[i] for i in src.tolist()]
        table_ids, starts = np.unique(sk >> np.uint64(self._m), return_index=True)
        bounds = np.append(starts, sk.size).tolist()
        cfg = self.config
        m = self._m
        # A table whose keys fill one LD-0 segment no deeper than
        # ``plan_depths`` would split it is that one sorted bucket.
        small = min(
            bulkload.fill_target(cfg, 0, self._boosted), cfg.bucket_capacity
        )
        for t, tid in enumerate(table_ids.tolist()):
            lo, hi = bounds[t], bounds[t + 1]
            if hi - lo <= small:
                segments = [bulkload.one_bucket_segment(
                    0, m, cfg.bucket_capacity, sk[lo:hi], vals[lo:hi]
                )]
            else:
                segments = bulkload.build_table_segments(
                    sk, vals, lo, hi, m, cfg, self._boosted
                )
            table = self._tables[tid] = _EHTable(segments)
            if self._obs is not None:
                self._obs.events.emit(
                    DirectoryResizeEvent(
                        local_depth=0,
                        global_depth=table.global_depth,
                        keys_moved=hi - lo,
                        duration_ns=0,
                        old_size=0,
                        new_size=len(table.dir),
                    )
                )
        self._size = int(sk.size)
        self.stats.bulk_loads += 1
        self.stats.keys_bulk_loaded += int(sk.size)
        dt = time.perf_counter() - t0
        self.stats.bulk_load_time += dt
        if self._obs is not None:
            self._obs.record("bulk_load", int(dt * 1e9))

    def get_many(self, keys) -> List[Optional[Any]]:
        """Batched point lookups; returns values aligned with ``keys``.

        Two paths.  When the read snapshot is current (no write since
        it was built) the batch is probed against it in chunks of
        ``_PROBE_CHUNK`` keys, each type- and bounds-checked by
        :meth:`_key_column` and resolved with one ``searchsorted``.
        Otherwise every key takes :meth:`get`'s probe in
        :meth:`_get_many_small`, until the keys read since the last
        write pay for a rebuild (the rule below).  Missing keys yield
        None (same contract as :meth:`get`).  A list or tuple of at
        most ``_SMALL_BATCH`` keys always takes the per-key probe and
        does not count toward a rebuild.  On an observed index the call
        records one ``get`` sample per key (see :func:`_record_batch`).
        """
        rec = self._rec_get
        if rec is None:
            return self._get_many_impl(keys)
        t0 = _now()
        out = self._get_many_impl(keys)
        _record_batch(rec, t0, len(out))
        return out

    def _get_many_impl(self, keys) -> List[Optional[Any]]:
        if isinstance(keys, np.ndarray):
            keys = self._key_column(keys)  # checks the array whole
        elif not isinstance(keys, (list, tuple)):
            keys = list(keys)
        elif len(keys) <= _SMALL_BATCH:
            return self._get_many_small(keys)
        n = len(keys)
        if n == 0:
            return []
        snap = self._snapshot
        if snap is None or snap.gen != self._gen:
            # Stale snapshot: rent (probe each key) until the keys read
            # since the last write reach len // 8, then buy (rebuild)
            # -- ski rental.  On 100k paper-shaped keys a rebuild costs
            # 0.03-0.05 us per indexed key and a probed key 0.8-1.7 us,
            # a ratio of 18-42 (ARCHITECTURE §6); at 8 or more a
            # read-only phase probes at least one rebuild's worth
            # before it buys, and batches with writes between them
            # (YCSB-A) never rebuild.
            gen = self._gen
            if self._rent_gen != gen:
                self._rent_gen, self._rent_keys = gen, 0
                self._snapshot = None  # free it: a stale snapshot is never reused
            self._rent_keys += n
            if self._rent_keys < self._size >> 3:
                return self._get_many_small(
                    keys.tolist() if isinstance(keys, np.ndarray) else keys
                )
            snap = self._build_snapshot()
        if n <= _PROBE_CHUNK:
            return self._get_many_snapshot(snap, self._key_column(keys))
        out: List[Optional[Any]] = [None] * n
        for lo in range(0, n, _PROBE_CHUNK):
            hi = lo + _PROBE_CHUNK
            out[lo:hi] = self._get_many_snapshot(
                snap, self._key_column(keys[lo:hi])
            )
        return out

    def _get_many_small(self, keys) -> List[Optional[Any]]:
        """``get_many`` without the read snapshot: :meth:`get`'s probe
        per key, in input order, with no NumPy call.

        Serves every batch of at most ``_SMALL_BATCH`` keys and, while
        the snapshot is stale, larger ones until a rebuild pays (the
        caller keeps that count; this method touches neither).  Each
        key is routed on its own: sorting the batch to share a
        segment's routing between neighbours cost more than it saved
        (ARCHITECTURE §6).
        """
        m = self._m
        local_mask = self._local_mask
        tables = self._tables
        out: List[Optional[Any]] = []
        append = out.append
        for key in self._key_list(keys):
            table = tables[key >> m]
            if table is None:
                append(None)
                continue
            seg = table.dir[(key & local_mask) >> (m - table.global_depth)]
            store = seg.store
            if store.n_buckets > ROUTED_PROBE_BUCKETS:  # as in ``get``
                (mask, shift, cum, allocs, offmask, n_buckets, cap, counts,
                 karr, values, _) = seg._route
                lk = key & mask
                i = lk >> shift
                b = cum[i] + ((allocs[i] * (lk & offmask)) >> shift)
                if b >= n_buckets:
                    b = n_buckets - 1
                off = b * cap
                end = off + counts[b]
                j = bisect_left(karr, key, off, end)
                append(values[b][j - off] if j < end and karr[j] == key
                       else None)
                continue
            karr = store._karr
            pos = bisect_right(karr, key) - 1
            if karr[pos] != key:  # ``pos == -1`` included, as in ``get``
                append(None)
                continue
            cap = store.capacity
            b = pos // cap
            i = pos - b * cap
            if i < store.counts[b]:
                append(store.values[b][i])
            else:  # padding equal to ``key``, as in ``get``
                append(store.probe_key(key)[1])
        return out

    def _build_snapshot(self) -> _ReadSnapshot:
        """Snapshot the index's live pairs into a fresh read snapshot.

        Two arrays preallocated at ``len(self)``, filled segment by
        segment in global key order (tables by high bits, segments by
        directory slot): one live-prefix gather per segment for the
        keys, and one ``fromiter`` over the per-bucket value lists for
        the values, an object array of references (``fromiter`` keeps
        each element opaque; ndarray assignment would try to broadcast
        sequence values).  Slack slots and their padding stay behind,
        so the snapshot costs 16 bytes per live key whatever the load
        factor.
        """
        t0 = time.perf_counter()
        n = self._size
        stores = [
            seg.store
            for table in self._tables
            if table is not None
            for seg in table.unique_segments()
        ]
        keys_col = np.empty(n, dtype=np.uint64)
        at = 0
        for st in stores:
            end = at + sum(st.counts)
            st.live_keys_into(keys_col[at:end])
            at = end
        require(at == n, "segment key counts disagree with len(index)")
        vals_col = np.fromiter(
            chain.from_iterable(
                chain.from_iterable(st.values for st in stores)
            ),
            dtype=object,
            count=n,
        )
        snap = _ReadSnapshot(self._gen, keys_col, vals_col)
        self._snapshot = snap
        if self._obs is not None:
            self._obs.events.emit(
                FusedRebuildEvent(
                    local_depth=0, global_depth=0,
                    keys_moved=n,
                    duration_ns=int((time.perf_counter() - t0) * 1e9),
                )
            )
        return snap

    def _get_many_snapshot(
        self, snap: _ReadSnapshot, arr: np.ndarray
    ) -> List[Optional[Any]]:
        """``get_many`` of one chunk against the current read snapshot.

        The snapshot holds live keys only, so the first key ``>=`` each
        needle either equals it (a hit, whose value sits at the same
        position) or proves its absence: one ``searchsorted``, one
        equality test and one gather resolve the chunk.  No per-segment
        dispatch: on dispersed batches (hundreds of segments per 1024
        keys) this is what beats per-key routing.
        """
        keys_col = snap.keys
        size = keys_col.size
        if not size:
            return [None] * arr.size
        # Sorting the chunk halves searchsorted's cost: numpy narrows
        # the binary-search window as ascending needles advance.
        order = np.argsort(arr)
        sk = arr[order]
        pos = keys_col.searchsorted(sk)
        np.minimum(pos, size - 1, out=pos)
        hit = keys_col[pos] == sk
        outa = np.full(arr.size, None, dtype=object)
        outa[order[hit]] = snap.vals[pos[hit]]
        return outa.tolist()

    def insert_many(self, keys, values=None) -> None:
        """Insert a batch of pairs (order-equivalent to scalar inserts).

        Accepts the typed-contract form ``insert_many(keys, values)``
        (two parallel sequences, like ``bulk_load``) and the legacy
        single-iterable-of-pairs form.  The batch is sorted and
        deduplicated once (the last occurrence of a key wins, exactly
        as sequential insert-or-update resolves it), then partitioned
        into per-segment groups by the routing cache (one directory
        resolution per group, one bisect for the group's end).  Each
        group is applied key by key in ascending order with the scalar
        splice (route, C ``bisect``, shift), inlined so the loop pays no
        per-key call.  A key whose bucket is full runs Algorithm 1's
        restructure (:meth:`_handle_full`) with every earlier key in
        place and no later one, and is retried against the re-resolved
        directory, so the batch sees any rewiring.  The result is the
        layout a scalar ``insert`` loop over the sorted, deduplicated
        batch builds.

        A batch of at most ``_SMALL_BATCH`` keys makes no NumPy call: a
        dict deduplicates it and ``sorted`` orders it (and bounds-checks
        it through its ends), then the same group loop applies it.
        Larger batches are sorted and deduplicated with NumPy.

        On an observed index the call records one ``insert`` sample per
        key, its time divided by the key count (see :func:`_record_batch`).
        """
        keys, values = batch_columns(keys, values)
        rec = self._rec_insert
        if rec is None:
            self._insert_many_impl(keys, values)
            return
        t0 = _now()
        self._insert_many_impl(keys, values)
        _record_batch(rec, t0, len(keys))

    def _insert_many_impl(self, keys: List[int], values: List[Any]) -> None:
        if not keys:
            return
        try:
            if len(keys) <= _SMALL_BATCH:
                # The last occurrence wins; sorting yields the bounds.
                last = dict(zip(map(_as_int, keys), values))
                key_list = sorted(last)
                if key_list[0] < 0 or key_list[-1] >= self._key_limit:
                    raise ValueError
                vals = [last[k] for k in key_list]
            else:
                sk, src, _ = self._sorted_batch(self._key_column(keys))
                vals = [values[i] for i in src.tolist()]
                key_list = sk.tolist()
        except (TypeError, ValueError):
            # A key the scalar API rejects: let the scalar path raise
            # with sequential semantics (prior pairs applied).
            for key, value in zip(keys, values):
                self.insert(key, value)
            return
        m = self._m
        local_mask = self._local_mask
        tables = self._tables
        n = len(key_list)
        self._gen += 1
        self._snapshot = None  # stale from here on: free it now
        i = 0
        while i < n:
            key = key_list[i]
            table = tables[key >> m]
            if table is None:
                table = self._new_table(key >> m)
            seg = table.dir[(key & local_mask) >> (m - table.global_depth)]
            # The segment owns the aligned key span of its local depth.
            span_bits = m - seg.local_depth
            span_end = ((key >> span_bits) + 1) << span_bits
            j = i + 1
            if j < n and key_list[j] < span_end:
                # More than one key here; a dispersed batch usually has
                # one per segment and skips the bisect.
                j = bisect_left(key_list, span_end, j + 1)
            bail = -1
            # The bucket splice of ColumnarStorage.insert, inlined so
            # the hot loop pays no per-key call or attribute lookup.
            (dmask, shift, cum, allocs, offmask, n_buckets, cap, counts,
             karr, store_vals, pc) = seg._route
            last_bucket = n_buckets - 1
            for p in range(i, j):
                k = key_list[p]
                lk = k & dmask
                pi = lk >> shift
                b = cum[pi] + ((allocs[pi] * (lk & offmask)) >> shift)
                if b > last_bucket:
                    b = last_bucket
                off = b * cap
                cnt = counts[b]
                end = off + cnt
                if 0 < cnt < cap and karr[end - 1] < k:
                    # Past the bucket maximum: append (DyTIS.insert).
                    karr[end] = k
                    store_vals[b].append(vals[p])
                    counts[b] = cnt + 1
                    pc[pi] += 1
                    seg.total_keys += 1
                    self._size += 1
                    continue
                idx = bisect_left(karr, k, off, end)
                if idx < end and karr[idx] == k:
                    store_vals[b][idx - off] = vals[p]
                elif cnt >= cap:
                    bail = p
                    break
                else:
                    if idx < end:
                        karr[idx + 1 : end + 1] = karr[idx:end]
                    karr[idx] = k
                    if idx == off:
                        # New bucket minimum: rewrite stale padding
                        # before the span (see ColumnarStorage.insert).
                        q = off - 1
                        while q >= 0 and karr[q] > k:
                            karr[q] = k
                            q -= 1
                    store_vals[b].insert(idx - off, vals[p])
                    counts[b] = cnt + 1
                    pc[pi] += 1
                    seg.total_keys += 1
                    self._size += 1
            if bail < 0:
                i = j
                continue
            # Full bucket: run Algorithm 1's restructure for this key --
            # every earlier key of the batch is in place and no later one
            # is -- then re-resolve routing and retry the key against the
            # rewritten layout, as :meth:`insert`'s loop does.
            self._handle_full(table, seg, key_list[bail] & local_mask)
            i = bail

    # -- Algorithm 1 ------------------------------------------------------------

    def _handle_full(self, table: _EHTable, seg: Segment, local: int) -> None:
        # A restructure is a write: a read snapshot is stale from here on.
        self._snapshot = None
        cfg = self.config
        ld, gd = seg.local_depth, table.global_depth
        if ld < cfg.l_start:
            # Basic Extendible hashing until L_start (paper §3.3).
            if ld == gd:
                self._double_directory(table)
            self._split(table, seg, local)
            return
        high_util = seg.utilization() > cfg.util_threshold
        if ld < gd:
            if high_util:
                self._split(table, seg, local)
            elif not self._remap(table, seg, local):
                self._split(table, seg, local)
            return
        # ld == gd
        if high_util:
            ok = self._expand(table, seg, local)
        else:
            ok = self._remap(table, seg, local)
        if not ok:
            self._double_directory(table)

    # -- structure operations ------------------------------------------------

    def _double_directory(self, table: _EHTable) -> None:
        t0 = time.perf_counter()
        old = table.dir
        old_size = len(old)
        # Each entry twice in a row, by two strided slice copies in C.
        new = old * 2
        new[::2] = old
        new[1::2] = old
        table.dir = new
        table.global_depth += 1
        self.stats.doublings += 1
        dt = time.perf_counter() - t0
        self.stats.doubling_time += dt
        if self._obs is not None:
            gd = table.global_depth
            ns = int(dt * 1e9)
            bus = self._obs.events
            bus.emit(
                DoublingEvent(
                    local_depth=gd - 1, global_depth=gd,
                    keys_moved=0, duration_ns=ns,
                )
            )
            bus.emit(
                DirectoryResizeEvent(
                    local_depth=gd - 1, global_depth=gd,
                    keys_moved=0, duration_ns=ns,
                    old_size=old_size, new_size=len(table.dir),
                )
            )

    def _wire(
        self,
        table: _EHTable,
        old: Segment,
        local: int,
        replacements: List[Segment],
    ) -> None:
        """Replace ``old``'s directory span by ``replacements`` and relink.

        ``local`` is any table-local key ``old`` owns.  ``replacements``
        divide the span evenly and are chained in key order; the
        predecessor segment's sibling pointer is redirected (paper
        §3.4: sibling updates accompany directory updates).  The
        append cursor may point into ``old``: it is dropped.
        """
        self._cursor = _NO_CURSOR
        directory = table.dir
        gd = table.global_depth
        span = 1 << (gd - old.local_depth)
        start = (local >> (self._m - gd)) & -span
        per = span // len(replacements)
        for j, seg in enumerate(replacements):
            directory[start + j * per : start + (j + 1) * per] = [seg] * per
        for a, b in zip(replacements, replacements[1:]):
            a.sibling = b
        replacements[-1].sibling = old.sibling
        if start > 0:
            prev = directory[start - 1]
            if prev.sibling is old:
                prev.sibling = replacements[0]

    def _record_window_op(self, ld: int, op: str) -> None:
        """Track the expansion/split mix that decides the cap boost."""
        cfg = self.config
        if self._boost_decided:
            return
        check_depth = cfg.l_start + cfg.boost_check_offset
        if cfg.l_start <= ld < check_depth:
            if op == "expansion":
                self._window_expansions += 1
            else:
                self._window_splits += 1
        if ld + 1 >= check_depth and op == "split" or ld >= check_depth:
            self._decide_boost()

    def _decide_boost(self) -> None:
        self._boost_decided = True
        total = self._window_expansions + self._window_splits
        if total == 0:
            return
        portion = self._window_expansions / total
        self._boosted = portion >= self.config.boost_portion_threshold

    def _cap(self, local_depth: int) -> int:
        return self.config.segment_cap(local_depth, self._boosted)

    def _split(self, table: _EHTable, seg: Segment, local: int) -> None:
        """Split ``seg`` into two depth+1 children (paper §3.3 Split)."""
        t0 = time.perf_counter()
        ld = seg.local_depth
        require(ld < table.global_depth, "split requires LD < GD")
        cap_child = self._cap(ld + 1)
        n = seg.total_keys
        left, right = self._cut(seg, cap_child) or self._split_planned(
            seg, cap_child
        )
        self._wire(table, seg, local, [left, right])
        self.stats.splits += 1
        self.stats.keys_moved += n
        dt = time.perf_counter() - t0
        self.stats.split_time += dt
        if self._obs is not None:
            self._obs.events.emit(
                SplitEvent(
                    local_depth=ld, global_depth=table.global_depth,
                    keys_moved=n, duration_ns=int(dt * 1e9),
                )
            )
        self._record_window_op(ld, "split")

    def _cut(
        self, seg: Segment, cap_child: int
    ) -> Optional[Tuple[Segment, Segment]]:
        """The split children of a one-bucket, one-line ``seg`` (every
        segment below L_start), or None for any other segment.

        Such a parent's live run is already sorted, and its children
        get one-line remaps (:func:`line_split_size` buckets), so the
        split point and each child bucket's lower bound
        (:meth:`PiecewiseRemap.first_key_of_bucket`) are one ``bisect``
        each, and each child's column is cut from the parent's bytes
        (:meth:`Segment.cut`): no key is routed and no NumPy call runs.
        The parent holds at most ``capacity`` keys, so every child
        bucket fits (and no child gets more than two).
        """
        store = seg.store
        n = seg.total_keys
        if store.n_buckets != 1 or seg.remap.piece_bits or not n:
            return None
        karr = store._karr
        bits = seg.domain_bits - 1
        base = karr[0] & ~seg._mask
        mid = base | (1 << bits)
        split_at = bisect_left(karr, mid, 0, n)
        capacity = store.capacity
        values = store.values[0]
        ld = seg.local_depth + 1
        children = []
        for lo, start, end in ((base, 0, split_at), (mid, split_at, n)):
            remap = line_remap(
                bits, line_split_size(end - start, capacity, cap_child)
            )
            counts = [0] * remap.n_buckets
            a = start
            for b in range(1, remap.n_buckets):
                e = bisect_left(karr, lo + remap.first_key_of_bucket(b), a, end)
                counts[b - 1] = e - a
                a = e
            counts[-1] = end - a
            children.append(Segment.cut(
                ld, remap, capacity, karr, start, end, values, counts,
                [end - start],
            ))
        return children[0], children[1]

    def _split_planned(
        self, seg: Segment, cap_child: int
    ) -> Tuple[Segment, Segment]:
        """The split children of ``seg`` through the planners: the run,
        :func:`plan_split`, and :func:`build_fitting` per child."""
        cfg = self.config
        run, values = seg.run()
        keys = np.frombuffer(run, dtype=np.uint64)
        split_at = int(
            (keys & np.uint64(seg._mask)).searchsorted(
                np.uint64(1 << (seg.domain_bits - 1))
            )
        )
        left_remap, right_remap = plan_split(seg, split_at, cap_child)
        return tuple(
            build_fitting(
                seg.local_depth + 1, remap, cfg.bucket_capacity,
                keys[a:e], values[a:e], cap_child, cfg.max_piece_bits,
            )
            for remap, a, e in (
                (left_remap, 0, split_at), (right_remap, split_at, len(keys))
            )
        )

    def _expand(self, table: _EHTable, seg: Segment, local: int) -> bool:
        """Double ``seg``'s size, scaling its remap (paper §3.3 Expansion).

        The doubled remap keeps the sub-ranges, so ``piece_counts``
        still holds their histogram and the layout is counted on and
        cut from the segment's run.  It always fits: a key's new bucket
        is ``2b`` or ``2b + 1`` for its old bucket ``b`` (the floor of
        twice a slope's offset halves back to the old one), so no new
        bucket holds more keys than an old one did.
        """
        t0 = time.perf_counter()
        ld = seg.local_depth
        new_remap = seg.remap.doubled()
        if new_remap.n_buckets > self._cap(ld):
            self.stats.expansion_failures += 1
            return False
        cfg = self.config
        run, values = seg.run()
        counts = fit_run(new_remap, run, seg.piece_counts, cfg.bucket_capacity)
        require(counts is not None, "a doubled remap overfilled a bucket")
        new_seg = Segment.cut(
            ld, new_remap, cfg.bucket_capacity, run, 0, len(run), values,
            counts, list(seg.piece_counts),
        )
        self._wire(table, seg, local, [new_seg])
        self.stats.expansions += 1
        self.stats.keys_moved += len(run)
        dt = time.perf_counter() - t0
        self.stats.expansion_time += dt
        if self._obs is not None:
            self._obs.events.emit(
                ExpandEvent(
                    local_depth=ld, global_depth=table.global_depth,
                    keys_moved=len(run), duration_ns=int(dt * 1e9),
                )
            )
        self._record_window_op(ld, "expansion")
        return True

    def _remap(self, table: _EHTable, seg: Segment, local: int) -> bool:
        """Re-learn ``seg``'s remapping functions (paper §3.3 Remapping):
        plan on the segment's run, then cut the new layout from it."""
        t0 = time.perf_counter()
        cfg = self.config
        ld = seg.local_depth
        run, values = seg.run()
        plan = plan_remap(
            seg,
            run,
            local,
            cap=self._cap(ld),
            util_threshold=cfg.util_threshold,
            max_piece_bits=cfg.max_piece_bits,
        )
        if plan is None:
            # The planner may have grown the layout up to the cap before
            # giving up: that work is remapping time too.
            self.stats.remap_failures += 1
            self.stats.remap_time += time.perf_counter() - t0
            return False
        remap, counts, piece_counts = plan
        new_seg = Segment.cut(
            ld, remap, cfg.bucket_capacity, run, 0, len(run), values,
            counts, piece_counts,
        )
        self._wire(table, seg, local, [new_seg])
        self.stats.remappings += 1
        self.stats.keys_moved += len(run)
        dt = time.perf_counter() - t0
        self.stats.remap_time += dt
        if self._obs is not None:
            self._obs.events.emit(
                RemapEvent(
                    local_depth=ld, global_depth=table.global_depth,
                    keys_moved=len(run), duration_ns=int(dt * 1e9),
                )
            )
        return True

    def _merge_down(self, table: _EHTable, seg: Segment, local: int) -> None:
        """Shrink an under-utilized segment after deletes (paper §3.3)."""
        t0 = time.perf_counter()
        cfg = self.config
        target = max(
            1,
            -(-seg.total_keys // int(cfg.bucket_capacity * cfg.util_threshold)),
        )
        if target >= seg.n_buckets:
            return
        run, values = seg.run()
        candidate = PiecewiseRemap(
            seg.domain_bits, _apportion(seg.piece_counts, target)
        )
        fit = fit_run(candidate, run, seg.piece_counts, cfg.bucket_capacity)
        if fit is None:
            return  # keep the larger layout; merging is best-effort
        new_seg = Segment.cut(
            seg.local_depth, candidate, cfg.bucket_capacity, run, 0, len(run),
            values, fit, list(seg.piece_counts),
        )
        self._wire(table, seg, local, [new_seg])
        self.stats.merges += 1
        self.stats.keys_moved += len(run)
        if self._obs is not None:
            self._obs.events.emit(
                MergeEvent(
                    local_depth=seg.local_depth,
                    global_depth=table.global_depth,
                    keys_moved=len(run),
                    duration_ns=int((time.perf_counter() - t0) * 1e9),
                )
            )

    def _try_buddy_merge(self, table: _EHTable, seg: Segment, local: int) -> None:
        """Merge ``seg`` with its buddy into one depth-1 segment.

        The reverse of a split (paper §3.3 Deletion: merging 'reduces
        the size of the segment'): when the two segments sharing an
        LD-1 prefix are both under-utilized, they collapse back into a
        single segment covering the parent span.
        """
        t0 = time.perf_counter()
        cfg = self.config
        ld = seg.local_depth
        if ld < 1 or ld > table.global_depth:
            return
        gd = table.global_depth
        span = 1 << (gd - ld)
        start = table.dir_index(local, self._m) & -span
        buddy_start = start ^ span
        buddy = table.dir[buddy_start]
        if buddy is seg or buddy.local_depth != ld:
            return
        combined = seg.total_keys + buddy.total_keys
        capacity = cfg.bucket_capacity
        # Merge only when the union is comfortably under-utilized too.
        limit = max(1, int(capacity * cfg.util_threshold))
        target = max(1, -(-combined // limit))
        if combined > 0.5 * cfg.util_threshold * capacity * (
            seg.n_buckets + buddy.n_buckets
        ):
            return
        parent_cap = max(self._cap(ld - 1), 1)
        if target > parent_cap:
            return
        left_seg = table.dir[min(start, buddy_start)]
        right_seg = table.dir[max(start, buddy_start)]
        keys, values = left_seg.collect()
        rk, rv = right_seg.collect()
        keys = np.concatenate([keys, rk])
        values.extend(rv)
        domain_bits = self._m - (ld - 1)
        initial = PiecewiseRemap(
            domain_bits,
            proportional_allocs(
                count_pieces(
                    keys & np.uint64((1 << domain_bits) - 1),
                    domain_bits,
                    min(2, domain_bits),
                ),
                target,
            ),
        )
        merged = build_fitting(
            ld - 1, initial, capacity, keys, values,
            parent_cap, cfg.max_piece_bits,
            max_total_buckets=4 * parent_cap,
        )
        if merged is None:  # no compact layout at the parent depth
            return
        parent_start = min(start, buddy_start)
        self._cursor = _NO_CURSOR  # it may point into either buddy
        merged.sibling = right_seg.sibling
        for i in range(parent_start, parent_start + 2 * span):
            table.dir[i] = merged
        if parent_start > 0:
            prev = table.dir[parent_start - 1]
            if prev.sibling is left_seg:
                prev.sibling = merged
        self.stats.merges += 1
        self.stats.keys_moved += len(keys)
        if self._obs is not None:
            self._obs.events.emit(
                MergeEvent(
                    local_depth=ld - 1,
                    global_depth=table.global_depth,
                    keys_moved=len(keys),
                    duration_ns=int((time.perf_counter() - t0) * 1e9),
                )
            )

    # -- introspection -----------------------------------------------------------

    def segment_count(self) -> int:
        return sum(
            sum(1 for _ in t.unique_segments())
            for t in self._tables
            if t is not None
        )

    def bucket_count(self) -> int:
        return sum(
            sum(s.n_buckets for s in t.unique_segments())
            for t in self._tables
            if t is not None
        )

    def model_count(self) -> int:
        """Total linear models (sub-ranges) across all segments.

        The paper contrasts this with ALEX's node count in §4.4.
        """
        return sum(
            sum(s.remap.n_pieces for s in t.unique_segments())
            for t in self._tables
            if t is not None
        )

    def load_factor(self) -> float:
        buckets = self.bucket_count()
        if buckets == 0:
            return 0.0
        return self._size / (buckets * self.config.bucket_capacity)

    def memory_bytes(self) -> int:
        """Resident bytes of segment key/value storage (value payloads
        excluded).

        Counts the flat key arrays (slack slots included) plus the
        value-pointer lists, and the ``get_many`` read snapshot on top
        while one is resident, current or stale (its value references
        point at payloads the segments already account for).
        """
        total = sum(
            seg.memory_bytes()
            for t in self._tables
            if t is not None
            for seg in t.unique_segments()
        )
        snap = self._snapshot
        if snap is not None:
            total += snap.keys.nbytes + snap.vals.nbytes
        return total

    def describe(self) -> str:
        """Human-readable structural summary (debugging / ops tooling)."""
        lines = [
            f"DyTIS: {self._size:,} keys, key_bits={self.config.key_bits}, "
            f"R={self.config.first_level_bits}, "
            f"bucket_capacity={self.config.bucket_capacity}",
            f"segments={self.segment_count()} buckets={self.bucket_count()} "
            f"models={self.model_count()} load_factor={self.load_factor():.2f} "
            f"boosted={self._boosted}",
            f"storage={self.config.storage}: {self.memory_bytes():,} resident "
            f"bytes in segment key/value storage",
            f"ops: {self.stats.splits} splits, {self.stats.expansions} "
            f"expansions, {self.stats.remappings} remappings, "
            f"{self.stats.doublings} doublings, {self.stats.merges} merges",
        ]
        active = [
            (ti, t) for ti, t in enumerate(self._tables) if t is not None
        ]
        lines.append(f"first level: {len(active)}/{len(self._tables)} EH tables in use")
        for ti, table in active[:8]:
            segs = list(table.unique_segments())
            depths = {}
            for s in segs:
                depths[s.local_depth] = depths.get(s.local_depth, 0) + 1
            lines.append(
                f"  EH[{ti}]: GD={table.global_depth}, {len(segs)} segments, "
                f"LD histogram {dict(sorted(depths.items()))}"
            )
        if len(active) > 8:
            lines.append(f"  ... and {len(active) - 8} more tables")
        return "\n".join(lines)

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` on any structural
        inconsistency (test hook; survives ``python -O``)."""
        total = 0
        for ti, table in enumerate(self._tables):
            if table is None:
                continue
            gd = table.global_depth
            require(len(table.dir) == 1 << gd, "directory size != 2^GD")
            chain = []
            seen = set()
            i = 0
            while i < len(table.dir):
                seg = table.dir[i]
                require(id(seg) not in seen, "segment spans not contiguous")
                seen.add(id(seg))
                ld = seg.local_depth
                require(ld <= gd, "local depth exceeds global depth")
                span = 1 << (gd - ld)
                require(i % span == 0, "segment span misaligned")
                for j in range(i, i + span):
                    require(table.dir[j] is seg, "directory span not uniform")
                prefix = i >> (gd - ld) if gd > ld else i
                for k, _ in seg.items():
                    lk = k & self._local_mask
                    require(k >> self._m == ti, "key in wrong EH table")
                    if ld:
                        require(
                            lk >> (self._m - ld) == prefix,
                            "key in wrong segment",
                        )
                seg.check_invariants()
                chain.append(seg)
                total += seg.total_keys
                i += span
            # Sibling chain must equal directory order, ending with None.
            for a, b in zip(chain, chain[1:]):
                require(a.sibling is b, "sibling chain broken")
            require(chain[-1].sibling is None, "sibling chain must end the table")
        require(total == self._size, "size counter out of sync")
        if self._cursor is not _NO_CURSOR:
            self._check_cursor()

    def _check_cursor(self) -> None:
        """The armed append cursor names live objects, and every key of
        its interval above bucket ``b``'s live maximum routes to ``b``."""
        (lo, hi, counts, b, off, cap, karr, vals, seg, piece_counts,
         i) = self._cursor
        require(
            lo < hi and self._segment(lo) is seg
            and self._segment(hi - 1) is seg,
            "append cursor's segment is not the directory's",
        )
        store, remap = seg.store, seg.remap
        require(
            counts is store.counts and karr is store._karr
            and cap == store.capacity and off == b * cap
            and vals is store.values[b]
            and piece_counts is seg.piece_counts,
            "append cursor does not hold the segment's live objects",
        )
        llo, ltop = lo & seg._mask, (hi - 1) & seg._mask
        require(
            llo & remap._offmask == 0
            and remap.piece_of(llo) == i == remap.piece_of(ltop),
            "append cursor's interval is not the start of sub-range i",
        )
        require(
            remap.bucket_of(llo) <= b == remap.bucket_of(ltop),
            "append cursor's interval does not end in bucket b",
        )
