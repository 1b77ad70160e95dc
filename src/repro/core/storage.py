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
entire key column stays non-decreasing.  A point lookup in a short
column can therefore skip bucket routing: one ``bisect_right`` over
the whole column (:meth:`ColumnarStorage.probe_key`) lands on the last
slot ``<= key``, and a slot is a genuine hit only when it lies inside
its bucket's live prefix (``slot - b*capacity < counts[b]``) -- padding
can duplicate a key but always *before* its live slot, never shadow
it.  A long column is probed in the bucket the remap names instead
(:meth:`ColumnarStorage.probe_bucket`; ``Segment.probe`` holds the
rule).  ``DyTIS.get_many`` does not probe these columns in a read-only
phase: it answers from a snapshot of the live keys alone, gathered
segment by segment with :meth:`ColumnarStorage.live_keys_into`, so
neither slack nor padding is copied.

:class:`repro.core.segment.Segment` routes keys to buckets (inserts,
deletes and lookups in long segments need the bucket; scans do not)
and delegates the storage here; docs/ARCHITECTURE.md §6 records why
this is the only layout.
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
#: One MAX slot as bytes (the column's native ``Q`` encoding).
_MAX_BYTES = b"\xff" * 8
#: Up to this many buckets (and, to fit a layout, sub-ranges) a
#: segment's run is read, fitted and laid out one bucket at a time
#: (byte slices, ``bisect``); past it, one NumPy pass over every slot
#: or key costs less than the Python steps.
SLICED_BUCKETS = 128
#: ``sys.getsizeof`` of a ``keys`` view: a one-dimensional view does
#: not own its buffer, so its size does not depend on the column.
_VIEW_BYTES = sys.getsizeof(np.frombuffer(array("Q", [0]), dtype=np.uint64))


class ColumnarStorage:
    """Structure-of-arrays bucket storage with gapped slack.

    Keys live in one flat ``array('Q')`` (``_karr``); ``keys`` is a
    zero-copy numpy ``uint64`` view over the same buffer, built on its
    first read, so scalar probes run C ``bisect`` on the array while
    batch operations slice the numpy view.  Bucket ``b``'s keys occupy
    slots ``[b*capacity, b*capacity + counts[b])``; the tail of each span is
    free slack, so an insert shifts at most ``capacity`` slots.  Values
    are per-bucket Python lists aligned with the key slots (Python
    objects are pointers either way; per-bucket lists give C-speed
    shifts and slicing).
    """

    __slots__ = (
        "capacity",
        "n_buckets",
        "_karr",
        "_kview",
        "values",
        "counts",
    )

    def __init__(self, n_buckets: int, capacity: int):
        # All slots start as MAX-sentinel padding, the empty case of the
        # column-wide sorted invariant.
        self._adopt(
            capacity,
            array("Q", _MAX_BYTES * (n_buckets * capacity)),
            [[] for _ in range(n_buckets)],
            [0] * n_buckets,
        )

    def _adopt(self, capacity, karr, values, counts) -> None:
        self.capacity = capacity
        self.n_buckets = len(counts)
        self._karr = karr
        self._kview = None
        self.values: List[List[Any]] = values
        self.counts: List[int] = counts

    @property
    def keys(self) -> np.ndarray:
        """The key column as a zero-copy ``uint64`` view.  Most stores
        are rebuilt before anything reads it, so it is made on first
        use; ``_karr`` is only ever assigned in :meth:`_adopt`, so the
        cached view cannot go stale."""
        view = self._kview
        if view is None:
            view = self._kview = np.frombuffer(self._karr, dtype=np.uint64)
        return view

    @classmethod
    def laid_out(
        cls, capacity: int, karr: array, values: List[List[Any]],
        counts: List[int],
    ) -> "ColumnarStorage":
        """Storage over a key column that is already laid out: bucket
        ``b``'s ``counts[b]`` keys at the front of its slot span, every
        slack slot padded (see :meth:`from_sorted`).  The column and
        the lists are adopted, not copied."""
        store = cls.__new__(cls)
        store._adopt(capacity, karr, values, counts)
        return store

    @classmethod
    def from_sorted(
        cls, capacity: int, counts, keys, values
    ) -> "ColumnarStorage":
        """Storage holding ascending ``keys``/``values``, ``counts[b]``
        of them in bucket ``b`` (the counts must add up to
        ``len(keys)``).

        Each slack slot holds the next live key, MAX past the last,
        which is the column-wide sorted invariant.  One bucket is one
        byte string (keys, then MAX padding); several get one masked
        scatter into an all-MAX column and one reverse running minimum.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if not isinstance(values, list):
            values = list(values)
        n = len(keys)
        mismatch = "bucket counts do not describe the keys being filled"
        # Value lists are exact slices, held in a list grown the way a
        # comprehension grows it: ``memory_bytes`` counts over-allocation.
        if len(counts) == 1:
            require(counts[0] == n, mismatch)
            vals = []
            vals.append(values[0:n])
            karr = array("Q", b"".join((keys, _MAX_BYTES * (capacity - n))))
            return cls.laid_out(capacity, karr, vals, [n])
        counts = np.asarray(counts, dtype=np.int64)
        ends = counts.cumsum().tolist()
        require(ends[-1] == n, mismatch)
        store = cls.laid_out(
            capacity,
            array("Q", _MAX_BYTES * (len(ends) * capacity)),
            [values[a:b] for a, b in zip([0] + ends, ends)],
            counts.tolist(),
        )
        keys_np = store.keys
        keys_np[store._live_mask(counts)] = keys
        rev = keys_np[::-1]
        np.minimum.accumulate(rev, out=rev)
        return store

    @classmethod
    def cut(
        cls, capacity: int, run: array, lo: int, hi: int,
        counts: List[int], values: List[Any],
    ) -> "ColumnarStorage":
        """Storage holding the sorted keys ``run[lo:hi]`` (``values`` is
        aligned with ``run``), the next ``counts[b]`` of them in bucket
        ``b`` (the counts must add up to ``hi - lo``; the list is
        adopted).

        Each bucket is one byte slice of the run followed by its
        padding -- the next live key, or MAX past ``hi`` -- so the
        column is the one :meth:`from_sorted` lays out, joined once
        without routing a key.  The caller guarantees every bucket fits.
        """
        raw = memoryview(run).cast("B")
        parts = []
        vals: List[List[Any]] = []
        a = lo
        for c in counts:
            e = a + c
            parts.append(raw[8 * a : 8 * e])
            pad = raw[8 * e : 8 * e + 8].tobytes() if e < hi else _MAX_BYTES
            parts.append(pad * (capacity - c))
            vals.append(values[a:e])
            a = e
        require(a == hi, "bucket counts do not describe the run being cut")
        return cls.laid_out(capacity, array("Q", b"".join(parts)), vals, counts)

    def run(self) -> Tuple[array, List[Any]]:
        """The live keys in order, as one ``array('Q')`` (a byte join of
        each bucket's live prefix), and their values (a chain of the
        per-bucket lists): the input of :meth:`cut`."""
        if self.n_buckets == 1:
            n = self.counts[0]
            return self._karr[:n], self.values[0][:]
        if self.n_buckets > SLICED_BUCKETS:
            run = array("Q", bytes(8 * sum(self.counts)))
            self.live_keys_into(np.frombuffer(run, dtype=np.uint64))
        else:
            raw = memoryview(self._karr).cast("B")
            step = 8 * self.capacity
            run = array("Q", b"".join([
                raw[off : off + 8 * c]
                for off, c in zip(
                    range(0, step * self.n_buckets, step), self.counts
                )
                if c
            ]))
        return run, list(chain.from_iterable(self.values))

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

    def probe_bucket(self, b: int, key: int) -> Tuple[bool, Any]:
        """(found, value) by binary search over bucket ``b``'s live
        prefix, the bucket the remap routes ``key`` to: no padding is
        searched, so nothing needs walking back."""
        off = b * self.capacity
        end = off + self.counts[b]
        karr = self._karr
        i = bisect_left(karr, key, off, end)
        if i < end and karr[i] == key:
            return True, self.values[b][i - off]
        return False, None

    def insert(self, b: int, key: int, value: Any) -> str:
        cap = self.capacity
        off = b * cap
        cnt = self.counts[b]
        karr = self._karr
        end = off + cnt
        if 0 < cnt < cap and karr[end - 1] < key:
            # Past the bucket maximum: ``bisect_left`` would return
            # ``end``, a slack slot holding padding >= key (a later
            # bucket's key or MAX), so the key is written over it with
            # nothing to shift and no padding to rewrite.
            karr[end] = key
            self.values[b].append(value)
            self.counts[b] = cnt + 1
            return "inserted"
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
        return True

    def delete_run(self, b: int, lo: int, hi: int) -> array:
        """Remove bucket ``b``'s keys in ``[lo, hi)`` and return them.

        The run is contiguous in the sorted live prefix: the survivors
        above it shift down over it with one slice, and the freed slots
        take :meth:`delete`'s padding, a copy of the slot after the old
        live prefix (MAX past the column's end).
        """
        off = b * self.capacity
        cnt = self.counts[b]
        karr = self._karr
        end = off + cnt
        i = bisect_left(karr, lo, off, end)
        j = bisect_left(karr, hi, i, end)
        gone = karr[i:j]
        n = j - i
        if n:
            if j < end:  # an empty slice would resize the exported array
                karr[i : end - n] = karr[j:end]
            pad = karr[end] if end < len(karr) else _MAX_KEY
            karr[end - n : end] = array("Q", (pad,)) * n
            del self.values[b][i - off : j - off]
            self.counts[b] = cnt - n
        return gone

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

    def _live_mask(self, counts) -> np.ndarray:
        """Boolean mask over the key column: True on each bucket's
        first ``counts[b]`` slots."""
        counts = np.asarray(counts, dtype=np.int64)
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
        keys = self.keys[self._live_mask(self.counts)]
        return keys, list(chain.from_iterable(self.values))

    def live_keys_into(self, out: np.ndarray) -> None:
        """Write the live keys, ascending, into ``out`` (exactly as long
        as there are live keys): one masked gather, no temporary copy."""
        if self.n_buckets == 1:
            out[:] = self.keys[: self.counts[0]]
        else:
            np.compress(self._live_mask(self.counts), self.keys, out=out)

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
        ``sys.getsizeof``, the ``keys`` view whether or not a read has
        built it yet, so the figure does not depend on which reads ran.
        """
        total = (
            sys.getsizeof(self._karr)
            + _VIEW_BYTES
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
