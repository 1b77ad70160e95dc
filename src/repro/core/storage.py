"""Segment storage: one columnar (structure-of-arrays) layout.

A DyTIS segment needs a container for its buckets' sorted key/value
runs.  :class:`ColumnarStorage` keeps one contiguous ``uint64`` key
array for the whole segment (an ``array('Q')`` sharing its buffer with a
numpy view, so scalar probes use C ``bisect`` while batch operations use
vectorised numpy), plus per-bucket object lists for the values.
Bucket ``b`` owns the fixed slot span ``[b*capacity, (b+1)*capacity)``
with its ``counts[b]`` keys packed at the front and the remaining
slots as *gapped slack*: an insert shifts at most one bucket's span,
never the whole segment, and structure operations move keys as
whole-array slice copies instead of per-key Python tuples.

Slack slots are not dead space -- they hold *sentinel padding*
(a following key, or ``2^64 - 1`` past the last one) chosen so the
entire key column stays non-decreasing.  Point lookups therefore
skip bucket routing entirely: one ``bisect_right`` over the whole
column lands on the last slot ``<= key``, and a slot is a genuine
hit only when it lies inside its bucket's live prefix
(``slot - b*capacity < counts[b]``) -- padding can duplicate a key
but always *before* its live slot, never shadow it.  ``DyTIS.get_many``
runs the same probe vectorised, one ``searchsorted`` over every
segment's column concatenated.

:class:`repro.core.segment.Segment` routes keys to buckets (inserts and
deletes need the bucket; lookups and scans do not) and delegates the
storage here; docs/ARCHITECTURE.md §6 records why this is the only
layout.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.invariants import require

#: Sentinel padding past the last live key (also a legal user key; the
#: live-prefix check keeps lookups correct either way).
_MAX_KEY = (1 << 64) - 1


class ColumnarStorage:
    """Structure-of-arrays bucket storage with gapped slack.

    Keys live in one flat ``array('Q')`` (``_karr``); ``keys`` is a
    zero-copy numpy ``uint64`` view over the same buffer, so scalar
    probes run C ``bisect`` on the array while batch operations slice
    the numpy view.  Bucket ``b``'s keys occupy slots
    ``[b*capacity, b*capacity + counts[b])``; the tail of each span is
    free slack, so an insert shifts at most ``capacity`` slots.  Values
    are per-bucket Python lists aligned with the key slots (Python
    objects are pointers either way; per-bucket lists give C-speed
    shifts and slicing).
    """

    __slots__ = (
        "capacity",
        "n_buckets",
        "_karr",
        "keys",
        "values",
        "counts",
        "_counts_np",
    )

    def __init__(self, n_buckets: int, capacity: int):
        self.capacity = capacity
        self.n_buckets = n_buckets
        # All slots start as MAX-sentinel padding (b'\xff' * 8 each), the
        # empty case of the column-wide sorted invariant.
        self._karr = array("Q", b"\xff" * (8 * n_buckets * capacity))
        self.keys = np.frombuffer(self._karr, dtype=np.uint64)
        self.values: List[List[Any]] = [[] for _ in range(n_buckets)]
        self.counts: List[int] = [0] * n_buckets
        #: Lazy int64 mirror of ``counts`` for vectorised live-prefix
        #: checks; invalidated (None) by any mutation.
        self._counts_np: Optional[np.ndarray] = None

    # -- scalar operations ------------------------------------------------

    def bucket_len(self, b: int) -> int:
        return self.counts[b]

    def bucket_keys(self, b: int) -> Sequence[int]:
        off = b * self.capacity
        return self._karr[off : off + self.counts[b]]

    def probe_key(self, key: int) -> Tuple[bool, Any]:
        """(found, value) by binary search over the whole key column.

        ``bisect_right - 1`` lands on the last slot <= ``key``; the hit
        is genuine only inside its bucket's live prefix.  A slot equal
        to ``key`` outside the prefix is padding: the live slot, if any,
        lies among the preceding duplicates (padding never shadows a
        live key from the left), so walk back over equal slots.
        """
        karr = self._karr
        pos = bisect_right(karr, key) - 1
        if pos < 0 or karr[pos] != key:
            return False, None
        cap = self.capacity
        counts = self.counts
        while pos >= 0 and karr[pos] == key:
            b = pos // cap
            i = pos - b * cap
            if i < counts[b]:
                return True, self.values[b][i]
            pos -= 1
        return False, None

    def insert(self, b: int, key: int, value: Any) -> str:
        cap = self.capacity
        off = b * cap
        cnt = self.counts[b]
        karr = self._karr
        end = off + cnt
        i = bisect_left(karr, key, off, end)
        if i < end and karr[i] == key:
            self.values[b][i - off] = value
            return "updated"
        if cnt >= cap:
            return "full"
        if i < end:
            # Shift only within this bucket's slot span (gapped slack);
            # the slack slot absorbing the old maximum was padding >= it.
            karr[i + 1 : end + 1] = karr[i:end]
        karr[i] = key
        if i == off:
            # New bucket minimum: padding before the span may duplicate
            # the *old* minimum and now exceed the key; rewrite those
            # slots so the column stays non-decreasing.  Live keys of
            # earlier buckets are < key by routing, stopping the walk.
            j = off - 1
            while j >= 0 and karr[j] > key:
                karr[j] = key
                j -= 1
        self.values[b].insert(i - off, value)
        self.counts[b] = cnt + 1
        self._counts_np = None
        return "inserted"

    def delete(self, b: int, key: int) -> bool:
        cap = self.capacity
        off = b * cap
        cnt = self.counts[b]
        karr = self._karr
        end = off + cnt
        i = bisect_left(karr, key, off, end)
        if i >= end or karr[i] != key:
            return False
        if i < end - 1:
            karr[i : end - 1] = karr[i + 1 : end]
        # The freed slot becomes padding: copy its right neighbour
        # (itself padding or a later live key) to stay non-decreasing.
        karr[end - 1] = karr[end] if end < len(karr) else _MAX_KEY
        self.values[b].pop(i - off)
        self.counts[b] = cnt - 1
        self._counts_np = None
        return True

    # -- batch splice plan (one searchsorted + one splice per bucket) ------

    def insert_batch_sorted(
        self, bidx: np.ndarray, keys: np.ndarray, values: Sequence[Any]
    ) -> Tuple[np.ndarray, List[int]]:
        """Batched insert-or-update of ascending unique ``keys``.

        The batch arrives pre-partitioned: ``bidx[i]`` is key ``i``'s
        bucket (non-decreasing, since the remap is monotone).  Each
        bucket's group is applied as one planned splice: a single
        ``searchsorted`` against the live prefix classifies
        update-vs-insert, existing values are patched in place, and the
        new keys land with one merged scatter into the bucket's slot
        span -- slack absorbs them, so no slot outside the span moves.
        Keys beyond the remaining slack spill to ``overflow`` (the first
        ``room`` smallest fit, exactly as a sequential insert loop
        would) for the caller's restructure path.

        Sentinel padding is repaired once for the whole touched bucket
        span at the end, not per key; during the loop the column-wide
        sorted invariant is intentionally suspended (each group only
        probes its own bucket's live prefix, which stays sorted).

        Returns ``(new_mask, overflow)``: ``new_mask[i]`` is True where
        key ``i`` was newly inserted (count grew; False means updated in
        place), and ``overflow`` lists the positions that did not fit.
        """
        n = int(keys.size)
        new_mask = np.zeros(n, dtype=bool)
        overflow: List[int] = []
        if n == 0:
            return new_mask, overflow
        cap = self.capacity
        karr = self._karr
        keys_np = self.keys
        counts = self.counts
        if n > 1:
            cuts = np.flatnonzero(bidx[1:] != bidx[:-1]) + 1
            starts = np.concatenate(([0], cuts)).tolist()
            ends = np.concatenate((cuts, [n])).tolist()
        else:
            starts, ends = [0], [1]
        b_lo = b_hi = -1
        for s, e in zip(starts, ends):
            b = int(bidx[s])
            off = b * cap
            cnt = counts[b]
            g = e - s
            if g <= 4:
                # Tiny group: numpy's fixed per-call cost dominates;
                # C bisect + span shift, padding deferred to the sweep.
                vlist = self.values[b]
                grew = False
                for i in range(s, e):
                    k = int(keys[i])
                    j = bisect_left(karr, k, off, off + cnt)
                    if j < off + cnt and karr[j] == k:
                        vlist[j - off] = values[i]
                        continue
                    if cnt >= cap:
                        overflow.append(i)
                        continue
                    end = off + cnt
                    if j < end:
                        karr[j + 1 : end + 1] = karr[j:end]
                    karr[j] = k
                    vlist.insert(j - off, values[i])
                    cnt += 1
                    grew = True
                    new_mask[i] = True
                if grew:
                    counts[b] = cnt
                    if b_lo < 0:
                        b_lo = b
                    b_hi = b
                continue
            nk = keys[s:e]
            if cnt == 0:
                # Empty bucket (the common case while a batched build
                # grows the index): the group IS the bucket content.
                n_new = g if g <= cap else cap
                if n_new < g:
                    overflow.extend(range(s + n_new, e))
                keys_np[off : off + n_new] = nk[:n_new]
                self.values[b] = list(values[s : s + n_new])
                counts[b] = n_new
                new_mask[s : s + n_new] = True
                if b_lo < 0:
                    b_lo = b
                b_hi = b
                continue
            ok = keys_np[off : off + cnt]
            pos = ok.searchsorted(nk).astype(np.int64)
            exists = (pos < cnt) & (ok[np.minimum(pos, cnt - 1)] == nk)
            upd = np.flatnonzero(exists)
            if upd.size:
                vlist = self.values[b]
                for i in upd.tolist():
                    vlist[int(pos[i])] = values[s + i]
            nz = np.flatnonzero(~exists)
            room = cap - cnt
            if nz.size > room:
                # Ascending order: the first `room` new keys fit, the
                # rest see a full bucket -- sequential-loop semantics.
                overflow.extend((s + nz[room:]).tolist())
                nz = nz[:room]
            n_new = int(nz.size)
            if n_new == 0:
                continue
            new_pos = pos[nz]
            tgt = new_pos + np.arange(n_new, dtype=np.int64)
            total = cnt + n_new
            merged = np.empty(total, dtype=np.uint64)
            scatter = np.ones(total, dtype=bool)
            scatter[tgt] = False
            merged[tgt] = nk[nz]
            if cnt:
                merged[scatter] = keys_np[off : off + cnt]
            keys_np[off : off + total] = merged
            old_vals = self.values[b]
            nv: List[Any] = []
            prev = 0
            for i, p in zip(nz.tolist(), new_pos.tolist()):
                if p > prev:
                    nv.extend(old_vals[prev:p])
                    prev = p
                nv.append(values[s + i])
            if prev < cnt:
                nv.extend(old_vals[prev:])
            self.values[b] = nv
            counts[b] = total
            new_mask[s + nz] = True
            if b_lo < 0:
                b_lo = b
            b_hi = b
        if b_lo >= 0:
            self._counts_np = None
            self._repair_padding_span(b_lo, b_hi)
        return new_mask, overflow

    def delete_batch_sorted(
        self, bidx: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Batched delete of ascending unique ``keys``; returns hit mask.

        Each bucket's group compacts the live prefix with one boolean
        gather; the freed tail and any now-stale padding are repaired
        once for the whole touched span.
        """
        n = int(keys.size)
        hits = np.zeros(n, dtype=bool)
        if n == 0:
            return hits
        cap = self.capacity
        keys_np = self.keys
        counts = self.counts
        if n > 1:
            cuts = np.flatnonzero(bidx[1:] != bidx[:-1]) + 1
            starts = np.concatenate(([0], cuts)).tolist()
            ends = np.concatenate((cuts, [n])).tolist()
        else:
            starts, ends = [0], [1]
        b_lo = b_hi = -1
        for s, e in zip(starts, ends):
            b = int(bidx[s])
            off = b * cap
            cnt = counts[b]
            if cnt == 0:
                continue
            nk = keys[s:e]
            ok = keys_np[off : off + cnt]
            pos = ok.searchsorted(nk).astype(np.int64)
            found = (pos < cnt) & (ok[np.minimum(pos, cnt - 1)] == nk)
            n_gone = int(found.sum())
            if n_gone == 0:
                continue
            hits[s + np.flatnonzero(found)] = True
            keep = np.ones(cnt, dtype=bool)
            keep[pos[found]] = False
            kept = ok[keep]  # fancy index: a copy, safe to write back
            keys_np[off : off + cnt - n_gone] = kept
            old_vals = self.values[b]
            self.values[b] = [v for v, kf in zip(old_vals, keep.tolist()) if kf]
            counts[b] = cnt - n_gone
            if b_lo < 0:
                b_lo = b
            b_hi = b
        if b_lo >= 0:
            self._counts_np = None
            self._repair_padding_span(b_lo, b_hi)
        return hits

    def _repair_padding_span(self, b_lo: int, b_hi: int) -> None:
        """Recompute sentinel padding around the touched bucket span.

        Rewrites every slack slot from the end of the last live prefix
        *before* bucket ``b_lo`` (stale padding there may duplicate a
        key the splice displaced or deleted) through the end of bucket
        ``b_hi``'s span.  Walking buckets in reverse, each slack run is
        one constant fill with the next live key inside the span; the
        seed past ``b_hi`` is the *current value of the very next slot*
        (or MAX past the last bucket), NOT the next live key: padding
        between ``b_hi`` and that live key may legally hold a smaller
        stale value (a deleted key's ghost), and seeding from the live
        key would lift the span's tail above it, breaking the global
        non-decreasing order.  The next-slot value is a safe upper fill
        for the span -- every key routed to a bucket <= ``b_hi`` sorts
        strictly below it under the monotone remap.
        """
        cap = self.capacity
        keys_np = self.keys
        counts = self.counts
        if b_hi + 1 < self.n_buckets:
            nxt = int(keys_np[(b_hi + 1) * cap])
        else:
            nxt = _MAX_KEY
        start = 0
        b_start = 0
        for b in range(b_lo - 1, -1, -1):
            if counts[b]:
                start = b * cap + counts[b]
                b_start = b
                break
        for b in range(b_hi, b_start - 1, -1):
            off = b * cap
            c = counts[b]
            lo = max(off + c, start)
            if lo < off + cap:
                keys_np[lo : off + cap] = nxt
            if c:
                nxt = int(keys_np[off])

    # -- iteration ---------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, Any]]:
        karr = self._karr
        cap = self.capacity
        for b, cnt in enumerate(self.counts):
            if cnt:
                off = b * cap
                yield from zip(karr[off : off + cnt], self.values[b])

    def iter_from(self, b: int, key: int) -> Iterator[Tuple[int, Any]]:
        karr = self._karr
        cap = self.capacity
        off = b * cap
        cnt = self.counts[b]
        i = bisect_left(karr, key, off, off + cnt)
        if i < off + cnt:
            yield from zip(karr[i : off + cnt], self.values[b][i - off :])
        for bi in range(b + 1, self.n_buckets):
            cnt = self.counts[bi]
            if cnt:
                off = bi * cap
                yield from zip(karr[off : off + cnt], self.values[bi])

    def min_key(self) -> Optional[int]:
        for b, cnt in enumerate(self.counts):
            if cnt:
                return self._karr[b * self.capacity]
        return None

    def max_key(self) -> Optional[int]:
        for b in range(self.n_buckets - 1, -1, -1):
            cnt = self.counts[b]
            if cnt:
                return self._karr[b * self.capacity + cnt - 1]
        return None

    # -- batch operations ---------------------------------------------------

    def _live_mask(self, counts: np.ndarray) -> np.ndarray:
        """Boolean mask over the key column: True on each bucket's
        first ``counts[b]`` slots."""
        return (
            np.arange(self.capacity, dtype=np.int64)[None, :] < counts[:, None]
        ).ravel()

    def collect(self) -> Tuple[np.ndarray, List[Any]]:
        """All keys (ascending ``uint64`` array) and values (flat list).

        One vectorised mask-gather for the keys, one C-level chain over
        the per-bucket lists for the values -- no per-key or per-bucket
        Python round-trip.
        """
        if self.n_buckets == 1:
            return self.keys[: self.counts[0]].copy(), list(self.values[0])
        keys = self.keys[self._live_mask(self._counts_array())]
        return keys, list(chain.from_iterable(self.values))

    def fill_sorted(self, counts, keys, values) -> None:
        """Fill a fresh storage by slice from ascending ``keys``/``values``.

        ``counts[b]`` keys go to bucket ``b`` and must add up to
        ``len(keys)``.  The keys land with one masked scatter; every
        slot starts as MAX padding, so one reverse running minimum then
        gives each slack slot the next live key (MAX past the last),
        which is the column-wide sorted invariant.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if not isinstance(values, list):
            values = list(values)
        n = int(keys.size)
        mismatch = "bucket counts do not describe the keys being filled"
        if self.n_buckets == 1:
            # One span: one slice, and the tail is MAX already.
            require(len(counts) == 1 and counts[0] == n, mismatch)
            self.keys[:n] = keys
            self.values[0], self.counts[0], self._counts_np = values[:], n, None
            return
        counts = np.asarray(counts, dtype=np.int64)
        ends = counts.cumsum().tolist()
        require(counts.size == self.n_buckets and ends[-1] == n, mismatch)
        keys_np = self.keys
        keys_np[self._live_mask(counts)] = keys
        rev = keys_np[::-1]
        np.minimum.accumulate(rev, out=rev)
        self.values = [values[a:b] for a, b in zip([0] + ends, ends)]
        self.counts = counts.tolist()
        self._counts_np = counts

    def _counts_array(self) -> np.ndarray:
        ca = self._counts_np
        if ca is None:
            ca = np.asarray(self.counts, dtype=np.int64)
            self._counts_np = ca
        return ca

    def extend_items(self, out: list, limit: Optional[int] = None) -> None:
        """Append every pair in key order, stopping once ``limit`` is met."""
        karr = self._karr
        cap = self.capacity
        for b, cnt in enumerate(self.counts):
            if limit is not None and len(out) >= limit:
                return
            if cnt:
                off = b * cap
                out.extend(zip(karr[off : off + cnt], self.values[b]))

    def extend_from(
        self, out: list, key: int, limit: Optional[int] = None
    ) -> None:
        """Append pairs with key >= ``key`` in key order, stopping once
        ``limit`` is met (the padded sorted column locates the start
        bucket directly)."""
        karr = self._karr
        cap = self.capacity
        counts = self.counts
        first = True
        for bi in range(bisect_left(karr, key) // cap, self.n_buckets):
            if limit is not None and len(out) >= limit:
                return
            cnt = counts[bi]
            if not cnt:
                continue
            off = bi * cap
            if first:
                first = False
                i = bisect_left(karr, key, off, off + cnt)
                if i == off + cnt:
                    continue
            else:
                i = off
            out.extend(zip(karr[i : off + cnt], self.values[bi][i - off :]))

    def extend_range(self, out: list, low: int, high: int) -> bool:
        """Append pairs with low <= key < high.

        Returns True when this segment holds a key >= ``high`` (the
        caller's range walk is complete).
        """
        karr = self._karr
        cap = self.capacity
        counts = self.counts
        for bi in range(bisect_left(karr, low) // cap, self.n_buckets):
            cnt = counts[bi]
            if not cnt:
                continue
            off = bi * cap
            end = off + cnt
            if karr[end - 1] < low:
                continue
            lo_i = bisect_left(karr, low, off, end) if karr[off] < low else off
            if karr[end - 1] >= high:
                hi_i = bisect_left(karr, high, off, end)
                if lo_i < hi_i:
                    out.extend(
                        zip(karr[lo_i:hi_i], self.values[bi][lo_i - off : hi_i - off])
                    )
                return True
            out.extend(zip(karr[lo_i:end], self.values[bi][lo_i - off :]))
        return False

    def count_between(self, low: int, high: int) -> int:
        """Number of keys with low <= key < high."""
        karr = self._karr
        cap = self.capacity
        count = 0
        for b in range(bisect_left(karr, low) // cap, self.n_buckets):
            cnt = self.counts[b]
            if not cnt:
                continue
            off = b * cap
            if karr[off + cnt - 1] < low:
                continue
            if karr[off] >= high:
                break
            count += bisect_left(karr, high, off, off + cnt) - bisect_left(
                karr, low, off, off + cnt
            )
        return count

    # -- accounting ----------------------------------------------------------

    def memory_bytes(self) -> int:
        """Resident bytes of the storage itself (value payloads excluded).

        The key column is unboxed (8 bytes per *slot*, slack included);
        value-pointer lists and bookkeeping are counted via
        ``sys.getsizeof``.
        """
        total = (
            sys.getsizeof(self._karr)
            + sys.getsizeof(self.keys)
            + sys.getsizeof(self.counts)
            + sys.getsizeof(self.values)
        )
        for vals in self.values:
            total += sys.getsizeof(vals)
        return total

    def check_invariants(self) -> None:
        cap = self.capacity
        karr = self._karr
        require(
            bool(np.all(self.keys[1:] >= self.keys[:-1])),
            "key column not non-decreasing (sentinel padding broken)",
        )
        for b, cnt in enumerate(self.counts):
            require(0 <= cnt <= cap, "bucket %d count out of range", b)
            require(
                len(self.values[b]) == cnt,
                "bucket %d: values misaligned with count", b,
            )
            off = b * cap
            for i in range(off + 1, off + cnt):
                require(karr[i - 1] < karr[i], "bucket %d keys out of order", b)
