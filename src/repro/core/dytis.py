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
from operator import index as _as_int
from time import perf_counter_ns as _now
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.api.protocol import batch_columns
from repro.core import bulkload
from repro.core.config import DyTISConfig
from repro.core.invariants import require
from repro.core.remap import PiecewiseRemap, proportional_allocs
from repro.core.segment import (
    Segment,
    build_fitting,
    count_pieces,
    fit_counts,
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

#: One past the largest representable key; ``searchsorted`` guards
#: against group upper bounds that overflow uint64.
_KEY_SPACE = 1 << 64


class _FusedColumn:
    """A read-only snapshot of the whole index for ``get_many``.

    ``keys``/``counts``/``vals`` are the concatenated per-segment
    arrays (see :meth:`DyTIS._build_fused`).  ``gen`` is the index's
    write generation when the snapshot was taken; the column answers
    reads exactly while ``DyTIS._gen`` still equals it, and is never
    updated in place.
    """

    __slots__ = ("gen", "keys", "counts", "vals")

    def __init__(self, gen, keys, counts, vals):
        self.gen = gen
        self.keys = keys
        self.counts = counts
        self.vals = vals


class _EHTable:
    """One second-level Extendible-Hashing table (paper Figure 5)."""

    __slots__ = ("global_depth", "dir")

    def __init__(self, eh_key_bits: int, bucket_capacity: int):
        self.global_depth = 0
        root = Segment(0, PiecewiseRemap(eh_key_bits, [1]), bucket_capacity)
        self.dir: List[Segment] = [root]

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
        self._key_limit = 1 << self.config.key_bits
        self._tables: List[Optional[_EHTable]] = [None] * (
            1 << self.config.first_level_bits
        )
        self._size = 0
        # ``_gen`` counts every write.  The fused read column (serves
        # ``get_many`` in read-only phases) is a snapshot tagged with
        # the ``_gen`` it was built at; ``_routed_keys`` counts the keys
        # ``get_many`` resolved without it during generation
        # ``_routed_gen`` (see the rebuild rule in :meth:`get_many`).
        self._gen = 0
        self._fused: Optional[_FusedColumn] = None
        self._routed_gen = -1
        self._routed_keys = 0
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
        if not 0 <= key < self._key_limit:
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
    # lookup (for ``insert`` also the remap arithmetic, for ``get`` the
    # live-prefix hit check) are inlined, leaving one Python frame
    # (insert) or none (get) between the method and the store's C
    # ``bisect``.

    def get(self, key: int) -> Optional[Any]:
        """Value stored under ``key``, or None ('not exist')."""
        if self._obs is not None:
            return self._get_observed(key)
        if type(key) is not int:
            key = _as_int(key)
        if not 0 <= key < self._key_limit:
            self._check_key(key)  # raises ValueError
        m = self._m
        table = self._tables[key >> m]
        if table is None:
            return None
        seg = table.dir[(key & self._local_mask) >> (m - table.global_depth)]
        store = seg.store
        # ``ColumnarStorage.probe_key``'s first step inlined: the last
        # slot <= key is a hit when it lies in its bucket's live prefix.
        karr = store._karr
        pos = bisect_right(karr, key) - 1
        if pos < 0 or karr[pos] != key:
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
        # Probe depth = live keys in the routed bucket (the bisect
        # search space the get paid for).
        depth = seg.store.bucket_len(seg.bucket_index_for(key))
        found, value = seg.probe(key)
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
        reads).  The routing is :meth:`Segment.insert` inlined -- that
        stays the definition ``ConcurrentDyTIS`` uses -- around
        ``store.insert(bucket, key, value)``.
        """
        rec = self._rec_insert
        if rec is not None:
            t0 = _now()
        if type(key) is not int:
            key = _as_int(key)
        if not 0 <= key < self._key_limit:
            self._check_key(key)  # raises ValueError
        m = self._m
        table = self._tables[key >> m]
        if table is None:
            table = self._new_table(key >> m)
        local = key & self._local_mask
        while True:
            seg = table.dir[local >> (m - table.global_depth)]
            remap = seg.remap
            lk = key & seg._mask
            shift = remap._shift
            i = lk >> shift
            cum = remap._cum
            b = cum[i] + ((remap.allocs[i] * (lk & ((1 << shift) - 1))) >> shift)
            if b >= cum[-1]:  # trailing zero-allocation sub-ranges
                b = cum[-1] - 1
            result = seg.store.insert(b, key, value)
            if result == "full":
                self._handle_full(table, seg, local)
                continue
            if result == "inserted":
                seg.total_keys += 1
                seg.piece_counts[i] += 1
                self._size += 1
            self._gen += 1
            break
        if rec is not None:
            rec(_now() - t0)

    def _new_table(self, ti: int) -> _EHTable:
        table = _EHTable(self._m, self.config.bucket_capacity)
        self._tables[ti] = table
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
        key = self._check_key(key)
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

        Keys are collected first with the :meth:`scan_range` walk
        (deleting while iterating a structure that merges segments
        underneath the iterator is undefined), then removed through
        :meth:`delete_many`, so each bucket takes one splice and
        under-utilized segments still merge down.
        """
        victims = [k for k, _ in self.scan_range(low, high)]
        if not victims:
            return 0
        return self.delete_many(victims)

    def delete_many(self, keys) -> int:
        """Batched delete; returns how many keys were present.

        The batch is sorted and deduplicated once, partitioned per
        segment with the same cached routing as :meth:`insert_many`,
        and each segment's group is removed with one splice per bucket.
        After each segment's group the usual post-delete merge policy
        runs, so structural behaviour matches a sequence of scalar
        deletes to within merge timing.
        """
        arr = self._key_column(keys)
        if arr.size == 0:
            return 0
        sk = np.unique(arr)
        m = self._m
        local_mask = self._local_mask
        tables = self._tables
        removed = 0
        n = int(sk.size)
        i = 0
        while i < n:
            key = int(sk[i])
            ti = key >> m
            table = tables[ti]
            if table is None:
                upper = (ti + 1) << m
                i = (
                    n
                    if upper >= _KEY_SPACE
                    else int(sk.searchsorted(np.uint64(upper), side="left"))
                )
                continue
            gd = table.global_depth
            local = key & local_mask
            if gd:
                di = local >> (m - gd)
                seg = table.dir[di]
                span = 1 << (gd - seg.local_depth)
                end_di = (di // span) * span + span
                seg_upper = (ti << m) + (end_di << (m - gd))
            else:
                seg = table.dir[0]
                seg_upper = (ti + 1) << m
            j = (
                n
                if seg_upper >= _KEY_SPACE
                else int(sk.searchsorted(np.uint64(seg_upper), side="left"))
            )
            hits = seg.delete_batch(sk[i:j])
            gone = int(hits.sum())
            if gone:
                removed += gone
                self._size -= gone
                self._gen += 1
                self._maybe_merge_after_delete(table, seg, local)
            i = j
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
        for t, tid in enumerate(table_ids.tolist()):
            lo, hi = bounds[t], bounds[t + 1]
            segments, gd = bulkload.build_table_segments(
                sk, vals, lo, hi, self._m, cfg, self._boosted
            )
            table = _EHTable(self._m, cfg.bucket_capacity)
            table.global_depth = gd
            table.dir = []
            prev: Optional[Segment] = None
            for seg in segments:
                table.dir.extend([seg] * (1 << (gd - seg.local_depth)))
                if prev is not None:
                    prev.sibling = seg
                prev = seg
            self._tables[int(tid)] = table
            if self._obs is not None:
                self._obs.events.emit(
                    DirectoryResizeEvent(
                        local_depth=0,
                        global_depth=gd,
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

        The batch is type- and bounds-checked once
        (:meth:`_key_column`), then resolved with one ``searchsorted``
        over the fused read column when that snapshot is current (no
        write since it was built), else walked in key order against the
        live segments with the routing state resolved once per *group*
        of keys sharing a segment.  Missing keys yield None (same
        contract as :meth:`get`).
        """
        arr = self._key_column(keys)
        n = int(arr.size)
        out: List[Optional[Any]] = [None] * n
        if n == 0:
            return out
        fused = self._fused
        if fused is None or fused.gen != self._gen:
            # Stale column: rent (route) until the keys read since the
            # last write reach len // 8, then buy (rebuild) -- ski
            # rental.  Measured, a rebuild costs 0.05-0.09 us per
            # indexed key and a routed read 0.7-2.0 us per key, a ratio
            # of 7.6-30; 8 is its low end, so a read-only phase rebuilds
            # once routing has cost about a rebuild, while batches with
            # writes between them (YCSB-A) never rebuild.
            gen = self._gen
            if self._routed_gen != gen:
                self._routed_gen, self._routed_keys = gen, 0
                self._fused = None  # free it: a stale snapshot is never reused
            self._routed_keys += n
            if self._routed_keys < self._size >> 3:
                return self._get_many_routed(arr, out)
            fused = self._build_fused()
        return self._get_many_fused(fused, arr, out)

    def _build_fused(self) -> _FusedColumn:
        """Snapshot the index into a fresh fused read column.

        Concatenates every segment's sentinel-padded key column in
        global key order (tables by high bits, segments by directory
        slot), then repairs cross-segment padding with one vectorised
        suffix-minimum pass: a segment's trailing MAX-key slack must not
        exceed the next segment's first key or the fused column would
        not be non-decreasing.  The suffix minimum never changes a live
        key -- every slot to the right of a live key holds a key or
        padding value >= it -- and rewrites each slack slot to the next
        live key overall, which is exactly the single-segment padding
        policy applied globally.  Values are fused too, as an object
        ndarray of references aligned slot-for-slot with the key column
        (slack slots hold None), so a whole batch of hits resolves with
        one fancy-index gather.
        """
        t0 = time.perf_counter()
        cap = self.config.bucket_capacity
        cols: List[np.ndarray] = []
        cnts: List[np.ndarray] = []
        flat: List[Any] = []
        pad = [None] * cap
        for table in self._tables:
            if table is None:
                continue
            for seg in table.unique_segments():
                st = seg.store
                cols.append(st.keys)
                cnts.append(st._counts_array())
                for vlist in st.values:
                    flat += vlist
                    flat += pad[len(vlist):]
        if cols:
            keys_col = np.concatenate(cols)
            rev = keys_col[::-1]
            np.minimum.accumulate(rev, out=rev)
            counts_col = np.concatenate(cnts)
            # fromiter keeps each element as an opaque reference;
            # ndarray assignment would try to broadcast sequence values.
            vals_col = np.fromiter(flat, dtype=object, count=len(flat))
        else:
            keys_col = np.empty(0, dtype=np.uint64)
            counts_col = np.empty(0, dtype=np.int64)
            vals_col = np.empty(0, dtype=object)
        fused = _FusedColumn(self._gen, keys_col, counts_col, vals_col)
        self._fused = fused
        if self._obs is not None:
            self._obs.events.emit(
                FusedRebuildEvent(
                    local_depth=0, global_depth=0,
                    keys_moved=int(keys_col.size),
                    duration_ns=int((time.perf_counter() - t0) * 1e9),
                )
            )
        return fused

    def _get_many_routed(
        self, arr: np.ndarray, out: List[Optional[Any]]
    ) -> List[Optional[Any]]:
        """Routed ``get_many`` against the live key columns.

        Walks the batch in key order with per-segment cached routing
        state (refreshed when the next key leaves the current segment's
        key range, ``seg_upper``) and probes each segment's key column
        with a bounded C ``bisect``; used while the fused column is
        stale and too few keys have been read to pay for a rebuild (see
        the rule in :meth:`get_many`).
        """
        order = np.argsort(arr, kind="stable").tolist()
        key_list = arr.tolist()
        m = self._m
        local_mask = self._local_mask
        tables = self._tables
        seg_upper = -1
        in_gap = False
        cum = allocs = karr = counts = store_vals = None
        shift = dmask = offmask = last_bucket = cap = 0
        for pos in order:
            key = key_list[pos]
            if key >= seg_upper:
                ti = key >> m
                table = tables[ti]
                if table is None:
                    seg_upper = (ti + 1) << m
                    in_gap = True
                    continue
                in_gap = False
                gd = table.global_depth
                local = key & local_mask
                if gd:
                    di = local >> (m - gd)
                    seg = table.dir[di]
                    span = 1 << (gd - seg.local_depth)
                    end_di = (di // span) * span + span
                    seg_upper = (ti << m) + (end_di << (m - gd))
                else:
                    seg = table.dir[0]
                    seg_upper = (ti + 1) << m
                remap = seg.remap
                cum = remap._cum
                allocs = remap.allocs
                shift = remap._shift
                dmask = seg._mask
                offmask = (1 << shift) - 1
                last_bucket = cum[-1] - 1
                store = seg.store
                karr = store._karr
                counts = store.counts
                store_vals = store.values
                cap = store.capacity
            elif in_gap:
                continue
            lk = key & dmask
            i = lk >> shift
            b = cum[i] + ((allocs[i] * (lk & offmask)) >> shift)
            if b > last_bucket:
                b = last_bucket
            off = b * cap
            end = off + counts[b]
            idx = bisect_left(karr, key, off, end)
            if idx < end and karr[idx] == key:
                out[pos] = store_vals[b][idx - off]
        return out

    def _get_many_fused(
        self, fused: _FusedColumn, arr: np.ndarray, out: List[Optional[Any]]
    ) -> List[Optional[Any]]:
        """Vectorised ``get_many`` over the current fused read column.

        One ``searchsorted`` resolves the whole batch: sentinel padding
        makes the fused column globally non-decreasing, so the last slot
        <= key either holds the key (hit) or proves its absence.  A hit
        is genuine iff the slot falls inside its bucket's live prefix
        (``slot % capacity < count``); an equal slack slot can only
        happen for the 2^64-1 sentinel used as a real key, which falls
        back to a scalar probe.  No per-segment dispatch: on dispersed
        batches (hundreds of segments per 1024 keys) this is what beats
        per-key routing.
        """
        keys_col = fused.keys
        counts_col = fused.counts
        vals_col = fused.vals
        if not keys_col.size:
            return out
        cap = self.config.bucket_capacity
        # Sorting the batch halves searchsorted's cost: numpy narrows
        # the binary-search window as ascending needles advance.
        order = np.argsort(arr, kind="stable")
        sk = arr[order]
        pos = keys_col.searchsorted(sk, side="right") - 1
        valid = pos >= 0
        posc = np.where(valid, pos, 0)
        eq = (keys_col[posc] == sk) & valid
        if not eq.any():
            return out
        live = eq & (posc % cap < counts_col[posc // cap])
        outa = np.full(arr.size, None, dtype=object)
        outa[order[live]] = vals_col[posc[live]]
        fix = eq & ~live
        if fix.any():
            m = self._m
            local_mask = self._local_mask
            tables = self._tables
            for si in np.flatnonzero(fix).tolist():
                key = int(sk[si])
                table = tables[key >> m]
                if table is not None:
                    outa[int(order[si])] = table.segment_for(
                        key & local_mask, m
                    ).get(key)
        return outa.tolist()

    def insert_many(self, keys, values=None) -> None:
        """Insert a batch of pairs (order-equivalent to scalar inserts).

        Accepts the typed-contract form ``insert_many(keys, values)``
        (two parallel sequences, like ``bulk_load``) and the legacy
        single-iterable-of-pairs form.  The batch is sorted and
        deduplicated once (the last occurrence of a key wins, exactly
        as sequential insert-or-update resolves it), then partitioned
        into per-segment groups by the routing cache (one directory
        resolution per group, one bisect for the group's end), and each
        group is applied with :meth:`Segment.insert_batch` -- a
        vectorised ``bucket_indices`` pass plus one gap-aware splice per
        touched bucket, with the sentinel padding repaired once per
        segment.  Keys whose bucket is full spill to the scalar
        :meth:`insert` path, which runs Algorithm 1's restructures
        exactly as sequential insertion would; the next group
        re-resolves the directory, so it sees any rewiring.

        Dispersed batches land only a handful of keys per segment; for
        those groups numpy's fixed per-call cost exceeds the work, so
        small groups apply with the scalar C-bisect store path under
        the same cached routing (the win over per-key ``insert`` is the
        one directory resolution per group either way).
        """
        keys, values = batch_columns(keys, values)
        if not keys:
            return
        try:
            arr = self._key_column(keys)
        except (TypeError, ValueError):
            # A key the scalar API rejects: let the scalar path raise
            # with sequential semantics (prior pairs applied).
            for key, value in zip(keys, values):
                self.insert(key, value)
            return
        sk, src, _ = self._sorted_batch(arr)
        vals = [values[i] for i in src.tolist()]
        m = self._m
        local_mask = self._local_mask
        tables = self._tables
        key_list = sk.tolist()
        n = len(key_list)
        i = 0
        while i < n:
            key = key_list[i]
            ti = key >> m
            table = tables[ti]
            if table is None:
                table = self._new_table(ti)
            gd = table.global_depth
            local = key & local_mask
            if gd:
                di = local >> (m - gd)
                seg = table.dir[di]
                span = 1 << (gd - seg.local_depth)
                end_di = (di // span) * span + span
                seg_upper = (ti << m) + (end_di << (m - gd))
            else:
                seg = table.dir[0]
                seg_upper = (ti + 1) << m
            j = (
                n
                if seg_upper >= _KEY_SPACE
                else bisect_left(key_list, seg_upper, i)
            )
            bail = -1
            remap = seg.remap
            cum = remap._cum
            allocs = remap.allocs
            shift = remap._shift
            offmask = (1 << shift) - 1
            last_bucket = cum[-1] - 1
            dmask = seg._mask
            g = j - i
            if g > 32:
                # Vectorised per-bucket splices only pay off when each
                # touched bucket receives several keys; route the first
                # and last key to bound the bucket span and estimate
                # keys-per-bucket density.
                lk = key_list[i] & dmask
                pi = lk >> shift
                b0 = cum[pi] + ((allocs[pi] * (lk & offmask)) >> shift)
                lk = key_list[j - 1] & dmask
                pi = lk >> shift
                b1 = cum[pi] + ((allocs[pi] * (lk & offmask)) >> shift)
                if b1 > last_bucket:
                    b1 = last_bucket
                if b0 > last_bucket:
                    b0 = last_bucket
                dense = g >= 6 * (b1 - b0 + 1)
            else:
                dense = False
            if not dense:
                # Sparse group: apply inline with C bisect on the key
                # column (the splice plan's per-bucket numpy pass costs
                # more than the work at a handful of keys per bucket).
                # This duplicates ColumnarStorage.insert so the hot
                # loop pays no per-key call/attribute overhead.
                store = seg.store
                pc = seg.piece_counts
                karr = store._karr
                store_vals = store.values
                counts = store.counts
                cap = store.capacity
                grew = False
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
                        grew = True
                        pc[pi] += 1
                        seg.total_keys += 1
                        self._size += 1
                if grew:
                    store._counts_np = None
            else:
                group = sk[i:j]
                new_mask, seg_overflow = seg.insert_batch(group, vals[i:j])
                self._size += int(new_mask.sum())
                if seg_overflow:
                    bail = i + seg_overflow[0]
            self._gen += 1
            if bail < 0:
                i = j
                continue
            # Full bucket: run Algorithm 1's restructure for the first
            # spilled key via the scalar path, then re-resolve routing
            # and continue the batch against the rewritten layout (the
            # rest of the group now lands in buckets with slack instead
            # of spilling one key at a time).  Keys the splice already
            # applied that re-enter the loop degrade to in-place
            # updates, so replaying the tail is idempotent.
            self.insert(key_list[bail], vals[bail])
            i = bail + 1

    # -- Algorithm 1 ------------------------------------------------------------

    def _handle_full(self, table: _EHTable, seg: Segment, local: int) -> None:
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
        old_size = len(table.dir)
        table.dir = [s for s in table.dir for _ in range(2)]
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
        §3.4: sibling updates accompany directory updates).
        """
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
        keys, values, local_keys = seg.snapshot()
        split_at = int(
            local_keys.searchsorted(np.uint64(1 << (seg.domain_bits - 1)))
        )
        left_remap, right_remap = plan_split(seg, split_at, cap_child)
        cfg = self.config
        left = build_fitting(
            ld + 1, left_remap, cfg.bucket_capacity,
            keys[:split_at], values[:split_at],
            cap_child, cfg.max_piece_bits,
        )
        right = build_fitting(
            ld + 1, right_remap, cfg.bucket_capacity,
            keys[split_at:], values[split_at:],
            cap_child, cfg.max_piece_bits,
        )
        self._wire(table, seg, local, [left, right])
        self.stats.splits += 1
        self.stats.keys_moved += len(keys)
        dt = time.perf_counter() - t0
        self.stats.split_time += dt
        if self._obs is not None:
            self._obs.events.emit(
                SplitEvent(
                    local_depth=ld, global_depth=table.global_depth,
                    keys_moved=len(keys), duration_ns=int(dt * 1e9),
                )
            )
        self._record_window_op(ld, "split")

    def _expand(self, table: _EHTable, seg: Segment, local: int) -> bool:
        """Double ``seg``'s size, scaling its remap (paper §3.3 Expansion)."""
        t0 = time.perf_counter()
        ld = seg.local_depth
        new_remap = seg.remap.doubled()
        if new_remap.n_buckets > self._cap(ld):
            self.stats.expansion_failures += 1
            return False
        cfg = self.config
        keys, values = seg.collect()
        new_seg = build_fitting(
            ld, new_remap, cfg.bucket_capacity, keys, values,
            self._cap(ld), cfg.max_piece_bits,
        )
        self._wire(table, seg, local, [new_seg])
        self.stats.expansions += 1
        self.stats.keys_moved += len(keys)
        dt = time.perf_counter() - t0
        self.stats.expansion_time += dt
        if self._obs is not None:
            self._obs.events.emit(
                ExpandEvent(
                    local_depth=ld, global_depth=table.global_depth,
                    keys_moved=len(keys), duration_ns=int(dt * 1e9),
                )
            )
        self._record_window_op(ld, "expansion")
        return True

    def _remap(self, table: _EHTable, seg: Segment, local: int) -> bool:
        """Re-learn ``seg``'s remapping functions (paper §3.3 Remapping)."""
        t0 = time.perf_counter()
        cfg = self.config
        ld = seg.local_depth
        keys, values, local_keys = seg.snapshot()
        plan = plan_remap(
            seg,
            local_keys,
            local,
            cap=self._cap(ld),
            util_threshold=cfg.util_threshold,
            max_piece_bits=cfg.max_piece_bits,
        )
        if plan is None:
            self.stats.remap_failures += 1
            return False
        remap, counts, piece_counts = plan
        new_seg = Segment.build(
            ld, remap, cfg.bucket_capacity, keys, values,
            counts, piece_counts,
        )
        self._wire(table, seg, local, [new_seg])
        self.stats.remappings += 1
        self.stats.keys_moved += len(keys)
        dt = time.perf_counter() - t0
        self.stats.remap_time += dt
        if self._obs is not None:
            self._obs.events.emit(
                RemapEvent(
                    local_depth=ld, global_depth=table.global_depth,
                    keys_moved=len(keys), duration_ns=int(dt * 1e9),
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
        keys, values, local_keys = seg.snapshot()
        counts = count_pieces(local_keys, seg.domain_bits, seg.remap.piece_bits)
        candidate = PiecewiseRemap(
            seg.domain_bits, proportional_allocs(counts, target)
        )
        fit = fit_counts(candidate, local_keys, cfg.bucket_capacity)
        if fit is None:
            return  # keep the larger layout; merging is best-effort
        new_seg = Segment.build(
            seg.local_depth, candidate, cfg.bucket_capacity, keys, values,
            fit, counts,
        )
        self._wire(table, seg, local, [new_seg])
        self.stats.merges += 1
        self.stats.keys_moved += len(keys)
        if self._obs is not None:
            self._obs.events.emit(
                MergeEvent(
                    local_depth=seg.local_depth,
                    global_depth=table.global_depth,
                    keys_moved=len(keys),
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
        value-pointer lists, and a current fused read column on top
        (honest accounting for the ``get_many`` snapshot; the
        per-bucket value lists it references are already counted by
        their segments).
        """
        total = sum(
            seg.memory_bytes()
            for t in self._tables
            if t is not None
            for seg in t.unique_segments()
        )
        fused = self._fused
        if fused is not None and fused.gen == self._gen:
            total += (
                fused.keys.nbytes + fused.counts.nbytes + fused.vals.nbytes
            )
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
