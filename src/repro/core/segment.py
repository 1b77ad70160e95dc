"""Variable-size segments (paper §3.2-3.3).

A segment owns a contiguous slice of an EH table's key range (all keys
sharing its LD-bit directory prefix), a :class:`PiecewiseRemap` CDF
approximation over the remaining low bits, and a variable number of
fixed-capacity sorted buckets.  Buckets store *full* keys (the paper
stores raw keys and uses the remapped key only for routing); routing
masks a key down to its segment-local low ``domain_bits`` bits.  Since
every key in a segment shares the same high bits, full-key order equals
segment-local order, so buckets stay sorted either way.

This module also implements the *planners* for Algorithm 1's structure
operations: :func:`plan_remap` (refine sub-ranges, steal buckets, grow
bounded by the per-depth cap -- §3.3 Remapping) and :func:`plan_split`
(children keep sub-range slopes with doubled allocations -- §3.3 Split),
plus :func:`build_fitting`, the rebuild loop that guarantees a new
segment layout actually holds its keys.  A rebuild that keeps a
segment's keys (remap, expansion, merge-down, a one-bucket split) reads
its sorted run once (:meth:`Segment.run`), counts each bucket's keys by
bisecting bucket bounds in it (:func:`fit_run`) and cuts the new
columns from it (:meth:`Segment.cut`): the memory copy the paper
measures, and little else.  The other rebuilds route the keys with
NumPy (:func:`fit_counts`, :meth:`Segment.build`).
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from itertools import compress
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.invariants import require
from repro.core.remap import PiecewiseRemap, _apportion, proportional_allocs
from repro.core.storage import SLICED_BUCKETS, ColumnarStorage


#: Point reads in a segment of more buckets than this route the key
#: through the remap and bisect only its bucket's live prefix; a
#: segment of this many buckets or fewer is probed with one bisect over
#: its whole padded key column (:meth:`ColumnarStorage.probe_key`),
#: which skips the remap arithmetic.  The break-even comes from
#: ``benchmarks/bench_micro_primitives.py::test_probe_break_even``
#: (table in docs/ARCHITECTURE.md §6).
ROUTED_PROBE_BUCKETS = 64


class SegmentOverflow(Exception):
    """A layout cannot hold its keys within bucket capacity."""

    def __init__(self, bucket_index: int):
        super().__init__(f"bucket {bucket_index} over capacity")
        self.bucket_index = bucket_index


class Segment:
    """One DyTIS segment: remap function + sorted buckets + metadata."""

    __slots__ = (
        "local_depth",
        "remap",
        "store",
        "piece_counts",
        "total_keys",
        "bucket_capacity",
        "sibling",
        "merge_backoff",
        "lock",
        "_mask",
        "_route",
    )

    def __init__(
        self,
        local_depth: int,
        remap: PiecewiseRemap,
        bucket_capacity: int,
        store: Optional[ColumnarStorage] = None,
        piece_counts: Optional[List[int]] = None,
        total_keys: int = 0,
    ):
        """An empty segment, or one over a filled ``store`` whose keys
        number ``total_keys``, ``piece_counts[i]`` of them in sub-range
        ``i`` (see :meth:`build`)."""
        self.local_depth = local_depth
        self.remap = remap
        self.bucket_capacity = bucket_capacity
        if store is None:
            store = ColumnarStorage(remap.n_buckets, bucket_capacity)
            piece_counts = [0] * remap.n_pieces
        self.store = store
        self.piece_counts = piece_counts
        self.total_keys = total_keys
        #: Next segment in key order within the same EH (paper §3.2).
        self.sibling: Optional["Segment"] = None
        #: After a failed merge, skip retries until ``total_keys`` drops
        #: to this value; any rebuild makes a new segment, resetting it.
        self.merge_backoff: Optional[int] = None
        #: Segment-level lock for the concurrent wrapper (paper §3.4).
        self.lock = threading.Lock()
        self._mask = (1 << remap.domain_bits) - 1
        #: Everything the inlined insert splices read, for one load and
        #: one unpack (``DyTIS.insert``, ``insert_many``'s group loop).
        #: Each element is immutable or mutated in place: nothing
        #: reassigns ``remap``, ``store``, ``piece_counts`` or the
        #: store's columns after construction.
        self._route = self._live_route()

    def _live_route(self) -> tuple:
        """What ``_route`` holds, read from the segment now."""
        remap, store = self.remap, self.store
        return (
            self._mask, remap._shift, remap._cum, remap.allocs,
            remap._offmask, remap.n_buckets, store.capacity, store.counts,
            store._karr, store.values, self.piece_counts,
        )

    # -- basic properties ------------------------------------------------

    @property
    def n_buckets(self) -> int:
        return self.remap.n_buckets

    @property
    def domain_bits(self) -> int:
        return self.remap.domain_bits

    def local_key(self, key: int) -> int:
        """Segment-local routing key: the low ``domain_bits`` bits."""
        return key & self._mask

    def utilization(self) -> float:
        return self.total_keys / (self.n_buckets * self.bucket_capacity)

    def piece_utilization(self, piece: int) -> float:
        allocated = max(self.remap.allocs[piece], 1) * self.bucket_capacity
        return self.piece_counts[piece] / allocated

    # -- point operations -------------------------------------------------

    def bucket_index_for(self, key: int) -> int:
        return self.remap.bucket_of(key & self._mask)

    def probe(self, key: int, b: Optional[int] = None) -> Tuple[bool, Any]:
        """(found, value) for ``key`` under the probe rule: past
        :data:`ROUTED_PROBE_BUCKETS` buckets, a bisect of the bucket the
        remap names (``b`` when the caller routed already); otherwise one
        bisect over the whole padded key column, no routing."""
        store = self.store
        if store.n_buckets > ROUTED_PROBE_BUCKETS:
            if b is None:
                b = self.bucket_index_for(key)
            return store.probe_bucket(b, key)
        return store.probe_key(key)

    def get(self, key: int) -> Optional[Any]:
        return self.probe(key)[1]

    def contains(self, key: int) -> bool:
        return self.probe(key)[0]

    def insert(self, key: int, value: Any) -> str:
        """Sorted insert-or-update; 'inserted', 'updated', or 'full'."""
        lk = key & self._mask
        remap = self.remap
        result = self.store.insert(remap.bucket_of(lk), key, value)
        if result == "inserted":
            self.total_keys += 1
            self.piece_counts[lk >> remap._shift] += 1
        return result

    def delete(self, key: int) -> bool:
        lk = key & self._mask
        remap = self.remap
        if self.store.delete(remap.bucket_of(lk), key):
            self.total_keys -= 1
            self.piece_counts[lk >> remap._shift] -= 1
            return True
        return False

    def delete_run(self, lo: int, hi: int) -> int:
        """Delete every key in ``[lo, hi)``, a range inside this
        segment's span; return how many went.

        Each bucket the range routes to loses one contiguous run
        (:meth:`ColumnarStorage.delete_run`).  The buckets go last to
        first, so a full bucket's freed slots copy the next bucket's
        first slot after that bucket is cut: a live key, not a deleted
        one.
        """
        mask = self._mask
        remap = self.remap
        store = self.store
        counts = store.counts
        pc = self.piece_counts
        shift = remap._shift
        removed = 0
        for b in range(
            remap.bucket_of((hi - 1) & mask), remap.bucket_of(lo & mask) - 1, -1
        ):
            if not counts[b]:
                continue
            gone = store.delete_run(b, lo, hi)
            if gone:
                removed += len(gone)
                if len(pc) == 1:
                    pc[0] -= len(gone)
                else:
                    for k in gone:
                        pc[(k & mask) >> shift] -= 1
        self.total_keys -= removed
        return removed

    # -- iteration ----------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, Any]]:
        """All (full key, value) pairs in ascending key order."""
        return self.store.items()

    def iter_from(self, key: int) -> Iterator[Tuple[int, Any]]:
        """Pairs with key >= ``key``, ascending (``key`` must route here)."""
        return self.store.iter_from(self.remap.bucket_of(key & self._mask), key)

    def min_key(self) -> Optional[int]:
        """Smallest key in the segment, or None when empty."""
        return self.store.min_key()

    def max_key(self) -> Optional[int]:
        """Largest key in the segment, or None when empty."""
        return self.store.max_key()

    def extend_items(self, out: list, limit: Optional[int] = None) -> None:
        """Append all pairs to ``out`` (may overshoot ``limit`` slightly)."""
        self.store.extend_items(out, limit)

    def extend_from(self, out: list, key: int, limit: Optional[int] = None) -> None:
        """Append pairs with key >= ``key`` (may overshoot ``limit``)."""
        self.store.extend_from(out, key, limit)

    def extend_range(self, out: list, low: int, high: int) -> bool:
        """Append pairs with low <= key < high; True when a key >= high exists."""
        return self.store.extend_range(out, low, high)

    def count_between(self, low: int, high: int) -> int:
        """Number of keys with low <= key < high."""
        return self.store.count_between(low, high)

    def collect(self) -> Tuple[np.ndarray, List[Any]]:
        """All keys (ascending ``uint64`` array) and values (parallel
        list) -- the rebuild input :meth:`build` / :func:`build_fitting`
        take."""
        return self.store.collect()

    def memory_bytes(self) -> int:
        """Resident bytes of this segment's key/value storage."""
        return self.store.memory_bytes()

    def run(self) -> Tuple[array, List[Any]]:
        """The live keys in order as one ``array('Q')``, and their
        values: the one read a structure operation takes.  A rebuild
        that keeps the keys cuts it (:meth:`cut`) instead of routing
        them again."""
        return self.store.run()

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        local_depth: int,
        remap: PiecewiseRemap,
        bucket_capacity: int,
        keys: Sequence[int],
        values: Sequence[Any],
        counts: Optional[np.ndarray] = None,
        piece_counts: Optional[np.ndarray] = None,
    ) -> "Segment":
        """Build a segment from ascending ``keys`` and parallel ``values``.

        ``counts`` (keys per bucket) and ``piece_counts`` (keys per
        sub-range) are what a planner computed for exactly these keys
        under ``remap``; given them the build routes nothing and only
        lays the keys out by slice, otherwise one vectorised pass
        computes them.  Either way the capacity check runs here
        (:class:`SegmentOverflow`; callers pre-check with
        :func:`fit_counts` or use :func:`build_fitting`) and the storage
        refuses counts that do not add up to ``len(keys)``.
        """
        n = len(keys)
        if n == 0:
            return cls(local_depth, remap, bucket_capacity)
        single = not remap.piece_bits  # one sub-range: its histogram is [n]
        if counts is None or (piece_counts is None and not single):
            lk = np.asarray(keys, dtype=np.uint64) & np.uint64(
                (1 << remap.domain_bits) - 1
            )
            if counts is None:
                counts = np.bincount(
                    remap.bucket_indices(lk), minlength=remap.n_buckets
                )
            if piece_counts is None and not single:
                piece_counts = count_pieces(
                    lk, remap.domain_bits, remap.piece_bits
                )
        require(
            len(counts) == remap.n_buckets,
            "bucket counts do not match the remap's bucket count",
        )
        if int(counts.max()) > bucket_capacity:
            raise SegmentOverflow(int(counts.argmax()))
        return cls(
            local_depth, remap, bucket_capacity,
            ColumnarStorage.from_sorted(bucket_capacity, counts, keys, values),
            [n] if single else piece_counts.tolist(),
            n,
        )

    @classmethod
    def cut(
        cls,
        local_depth: int,
        remap: PiecewiseRemap,
        bucket_capacity: int,
        run: array,
        lo: int,
        hi: int,
        values: List[Any],
        counts: Sequence[int],
        piece_counts: Sequence[int],
    ) -> "Segment":
        """A segment holding the sorted keys ``run[lo:hi]`` (``values``
        aligned with ``run``), ``counts[b]`` of them in bucket ``b`` and
        ``piece_counts[i]`` in sub-range ``i`` of ``remap``.  The counts
        are what :func:`fit_run` (or a split's bisection) found for
        exactly these keys, so nothing is routed; the guards are
        :meth:`build`'s.  Past :data:`SLICED_BUCKETS` buckets this is
        :meth:`build`, which takes the counts as arrays.
        """
        if remap.n_buckets > SLICED_BUCKETS:
            keys = np.frombuffer(run, dtype=np.uint64)[lo:hi]
            return cls.build(
                local_depth, remap, bucket_capacity, keys,
                values[lo:hi] if lo else values,
                np.asarray(counts), np.asarray(piece_counts),
            )
        counts, piece_counts = _as_list(counts), _as_list(piece_counts)
        require(
            len(counts) == remap.n_buckets,
            "bucket counts do not match the remap's bucket count",
        )
        top = max(counts)
        if top > bucket_capacity:
            raise SegmentOverflow(counts.index(top))
        store = ColumnarStorage.cut(bucket_capacity, run, lo, hi, counts, values)
        return cls(
            local_depth, remap, bucket_capacity, store, piece_counts, hi - lo
        )

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` on inconsistencies (test hook)."""
        self.remap.check_invariants()
        require(
            all(
                a is b or (type(a) is int and a == b)
                for a, b in zip(self._route, self._live_route())
            ),
            "route tuple does not hold the segment's live objects",
        )
        require(
            self.store.n_buckets == self.remap.n_buckets,
            "storage bucket count disagrees with remap",
        )
        self.store.check_invariants()
        total = 0
        last_key = -1
        counts = [0] * self.remap.n_pieces
        for bi in range(self.remap.n_buckets):
            bkeys = self.store.bucket_keys(bi)
            for k in bkeys:
                require(k > last_key, "keys out of order across buckets")
                last_key = k
                local = k & self._mask
                require(
                    self.remap.bucket_of(local) == bi, "key in wrong bucket"
                )
                counts[self.remap.piece_of(local)] += 1
            total += len(bkeys)
        require(total == self.total_keys, "total_keys out of sync")
        require(counts == self.piece_counts, "piece_counts out of sync")


def _as_list(counts: Sequence[int]) -> List[int]:
    """Counts as a list of ints: the sliced steps index them one by one."""
    return counts.tolist() if isinstance(counts, np.ndarray) else counts


# -- planners ---------------------------------------------------------------


def fit_counts(
    remap: PiecewiseRemap,
    local_keys: np.ndarray,
    bucket_capacity: int,
    extra_key: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Keys per bucket of ``local_keys`` under ``remap``, or None when
    some bucket would overflow (counting the pending ``extra_key``,
    which the returned counts leave out).  The counts prove the layout
    fits; :meth:`Segment.build` takes them instead of routing again."""
    counts = np.bincount(
        remap.bucket_indices(local_keys), minlength=remap.n_buckets
    )
    if int(counts.max()) > bucket_capacity:
        return None
    if (
        extra_key is not None
        and counts[remap.bucket_of(extra_key)] >= bucket_capacity
    ):
        return None
    return counts


def fit_run(
    remap: PiecewiseRemap,
    run: array,
    piece_counts: Sequence[int],
    bucket_capacity: int,
    extra_key: Optional[int] = None,
) -> Optional[Sequence[int]]:
    """:func:`fit_counts` of the sorted full keys ``run``, routing none.

    ``piece_counts`` (a list or an integer array) is the run's histogram
    over ``remap``'s sub-ranges, so each non-empty sub-range is a known
    slice of the run.  One with at most one bucket adds its count to
    that bucket; any other bisects its buckets' lower bounds
    (:meth:`PiecewiseRemap.first_key_of_bucket`) inside its slice,
    skipping the buckets no key reaches.  Returns the keys per bucket
    as a list, or None when a bucket overflows (counting the pending
    segment-local ``extra_key``, which the counts leave out).  A remap
    of more than :data:`SLICED_BUCKETS` sub-ranges or buckets has its
    keys routed after all, by :func:`fit_counts`, whose array it
    returns.
    """
    if max(remap.n_pieces, remap.n_buckets) > SLICED_BUCKETS:
        return fit_counts(
            remap,
            np.frombuffer(run, dtype=np.uint64)
            & np.uint64((1 << remap.domain_bits) - 1),
            bucket_capacity,
            extra_key,
        )
    piece_counts = _as_list(piece_counts)
    cum = remap._cum
    allocs = remap.allocs
    shift = remap._shift
    offset = remap.bucket_offset
    n_buckets = cum[-1]
    out = [0] * n_buckets
    base = run[0] >> remap.domain_bits << remap.domain_bits if len(run) else 0
    start = 0
    for i in compress(range(len(piece_counts)), piece_counts):
        c = piece_counts[i]
        end = start + c
        a = allocs[i]
        b = cum[i]
        if a < 2:
            # Zero allocations take the next allocated sub-range's first
            # bucket; trailing ones clamp to the last bucket.
            out[b if b < n_buckets else n_buckets - 1] += c
        else:
            # From the next key not yet counted, bisect to the lower
            # bound of the bucket after its own: one step per non-empty
            # bucket.
            first = base + (i << shift)
            p = start
            while p < end:
                j = (a * (run[p] - first)) >> shift
                e = bisect_left(run, first + offset(j + 1, a), p + 1, end)
                out[b + j] += e - p
                p = e
        start = end
    if max(out) > bucket_capacity:
        return None
    if extra_key is not None and out[remap.bucket_of(extra_key)] >= bucket_capacity:
        return None
    return out


def count_pieces(
    local_keys: np.ndarray, domain_bits: int, piece_bits: int
) -> np.ndarray:
    """Histogram segment-local keys over 2^piece_bits equal sub-ranges."""
    shift = np.uint64(domain_bits - piece_bits)
    return np.bincount(
        (local_keys >> shift).view(np.int64), minlength=1 << piece_bits
    )


def plan_remap(
    segment: Segment,
    run: array,
    insert_key: int,
    cap: int,
    util_threshold: float,
    max_piece_bits: int,
) -> Optional[Tuple[PiecewiseRemap, Sequence[int], Sequence[int]]]:
    """Compute the remapped layout for ``segment`` (paper §3.3 Remapping).

    Returns ``(remap, counts, piece_counts)`` -- a layout under which
    ``run`` (the segment's :meth:`Segment.run`) plus ``insert_key`` fit,
    with the per-bucket and per-sub-range counts that prove it, ready
    for :meth:`Segment.cut` -- or None when no layout within the
    segment-size cap ``cap`` works (remapping *fails* and Algorithm 1
    escalates).

    Procedure:
      1. refine sub-ranges (halving widths) until the sub-range that
         will receive ``insert_key`` has utilization > U_t, or the
         granularity limit is reached (Figure 7);
      2. re-apportion the current buckets over sub-ranges by key count,
         which steals buckets from low-utilization sub-ranges for
         high-utilization ones (Figure 6);
      3. if the layout still overflows, grow the bucket count
         geometrically up to ``cap`` (the paper doubles the target
         sub-range's share; geometric growth of the total is the
         same policy at whole-segment granularity).

    Each granularity of up to :data:`SLICED_BUCKETS` sub-ranges has its
    histogram counted on the sorted run, one ``bisect`` per non-empty
    sub-range (:func:`run_histogram`), or read from ``piece_counts`` at
    the segment's own granularity; a finer one is one ``bincount``.  Up
    to ``_LIST_APPORTION`` sub-ranges the apportionment runs on lists
    too, so a small segment's plan makes no NumPy call.  Each candidate
    layout is checked by :func:`fit_run`.
    """
    insert_local = segment.local_key(insert_key)
    domain_bits = segment.domain_bits
    capacity = segment.bucket_capacity
    n_buckets = segment.n_buckets
    max_bits = min(max_piece_bits, domain_bits)
    own_bits = segment.remap.piece_bits
    local_keys = None

    def histogram(piece_bits: int):
        nonlocal local_keys
        if 1 << piece_bits <= SLICED_BUCKETS:
            if piece_bits == own_bits:
                return segment.piece_counts[:]
            return run_histogram(run, domain_bits, piece_bits)
        # Past a few hundred sub-ranges, one ``bincount`` of the keys
        # costs less than converting or bisecting.
        if local_keys is None:
            local_keys = np.frombuffer(run, dtype=np.uint64) & np.uint64(
                segment._mask
            )
        return count_pieces(local_keys, domain_bits, piece_bits)

    piece_bits = min(own_bits, max_bits)
    counts = histogram(piece_bits)

    # Step 1: refine until the target sub-range's utilization clears U_t.
    # Stop early once the target sub-range is small enough that a single
    # threshold-utilization bucket holds it: refining past that point
    # cannot sharpen the CDF further, it only fragments the allocation.
    min_target_keys = max(1.0, capacity * util_threshold)
    allocs = _apportion(counts, n_buckets)
    while piece_bits < max_bits:
        t = insert_local >> (domain_bits - piece_bits)
        target_keys = int(counts[t]) + 1
        if target_keys / (max(int(allocs[t]), 1) * capacity) > util_threshold:
            break
        if target_keys <= min_target_keys:
            break
        piece_bits += 1
        counts = histogram(piece_bits)
        allocs = _apportion(counts, n_buckets)

    # Steps 2-3: try the re-apportioned layout, growing B on overflow.
    while True:
        candidate = PiecewiseRemap(domain_bits, allocs)
        fit = fit_run(candidate, run, counts, capacity, insert_local)
        if fit is not None:
            return candidate, fit, counts
        if piece_bits < max_bits and _top(counts) + 1 > capacity:
            # Some sub-range (counting the pending insert) overfills even
            # a dedicated bucket: the CDF is too coarse there, and
            # refining is free (same B).
            piece_bits += 1
            counts = histogram(piece_bits)
        elif n_buckets >= cap:
            return None
        else:
            # Otherwise overflow means too few buckets: grow by the
            # target sub-range's share (the paper doubles the target's
            # allocation).
            t = insert_local >> (domain_bits - piece_bits)
            n_buckets = min(
                cap, n_buckets + max(int(allocs[t]), 1, n_buckets // 8)
            )
        allocs = _apportion(counts, n_buckets)


def run_histogram(run: array, domain_bits: int, piece_bits: int) -> List[int]:
    """:func:`count_pieces` of the sorted full keys ``run`` (all in one
    segment's span of ``domain_bits``), as a list: from each sub-range's
    first key, one ``bisect`` finds the next sub-range's first key."""
    out = [0] * (1 << piece_bits)
    n = len(run)
    if not n:
        return out
    shift = domain_bits - piece_bits
    base = run[0] >> domain_bits << domain_bits
    p = 0
    while p < n:
        i = (run[p] - base) >> shift
        e = bisect_left(run, base + ((i + 1) << shift), p + 1, n)
        out[i] = e - p
        p = e
    return out


def _top(counts) -> int:
    """The largest count of a list or an integer array."""
    return int(counts.max()) if isinstance(counts, np.ndarray) else max(counts)


def plan_split(
    segment: Segment, left_count: int, cap_child: int
) -> Tuple[PiecewiseRemap, PiecewiseRemap]:
    """Child remaps for splitting ``segment`` (paper §3.3 Split).

    Children keep the parent's per-sub-range slopes with doubled
    allocations ('compute the size that accommodates the keys of the
    sub-range, then double it'), clamped to the child-depth cap.  A
    single-sub-range parent sizes children directly from key counts:
    ``left_count`` keys fall below the domain midpoint.
    """
    remap = segment.remap
    cap_child = max(cap_child, 1)
    if remap.n_pieces > 1:
        left, right = remap.halves()
        return _clamp_total(left, cap_child), _clamp_total(right, cap_child)
    child_bits = segment.domain_bits - 1
    capacity = segment.bucket_capacity
    return tuple(
        PiecewiseRemap(child_bits, [line_split_size(count, capacity, cap_child)])
        for count in (left_count, segment.total_keys - left_count)
    )


def line_split_size(count: int, capacity: int, cap_child: int) -> int:
    """Buckets of a single-sub-range parent's split child holding
    ``count`` keys: 2 * ceil(count / capacity), within [1, cap_child]."""
    return min(max(1, 2 * -(-count // capacity)), max(cap_child, 1))


def _clamp_total(remap: PiecewiseRemap, cap: int) -> PiecewiseRemap:
    """Scale a remap's allocations down to at most ``cap`` buckets."""
    if remap.n_buckets <= cap:
        return remap
    return PiecewiseRemap(remap.domain_bits, _apportion(remap.allocs, cap))


def build_fitting(
    local_depth: int,
    initial_remap: PiecewiseRemap,
    bucket_capacity: int,
    keys: Sequence[int],
    values: Sequence[Any],
    cap: int,
    max_piece_bits: int,
    max_total_buckets: Optional[int] = None,
) -> Optional[Segment]:
    """Build a segment for the items, adjusting the layout until it fits.

    Tries ``initial_remap`` first, then refines sub-ranges and grows the
    bucket count (respecting ``cap`` while possible).  As a final safety
    valve the cap is ignored rather than losing keys -- an over-cap
    segment simply fails its next remap/expansion, pushing Algorithm 1
    toward a split, so the policy is preserved.

    ``max_total_buckets`` bounds the safety valve for best-effort
    callers (buddy merge): once the grown bucket count exceeds it the
    build gives up and returns ``None`` instead of chasing a layout
    that may not exist at any feasible size.  Dense keys in a widened
    domain are the degenerate case: every key falls in one piece whose
    intra-piece offsets are minuscule relative to the piece shift, so
    no allocation spreads them and unbounded growth diverges.  Mandatory
    callers (split, expansion, bulk load) leave it ``None`` and keep
    the always-succeeds contract.
    """
    domain_bits = initial_remap.domain_bits
    local_keys = np.asarray(keys, dtype=np.uint64) & np.uint64(
        (1 << domain_bits) - 1
    )
    max_bits = min(max_piece_bits, domain_bits)
    piece_bits = min(initial_remap.piece_bits, max_bits)
    n_buckets = initial_remap.n_buckets
    candidate, pieces = initial_remap, None
    while True:
        fit = fit_counts(candidate, local_keys, bucket_capacity)
        if fit is not None:
            return Segment.build(
                local_depth, candidate, bucket_capacity, keys, values,
                fit, pieces,
            )
        # The first miss re-apportions the initial size and granularity;
        # later ones refine a sub-range that overfills even a dedicated
        # bucket, else grow (past the cap: the safety valve, see above).
        if pieces is not None:
            if piece_bits < max_bits and int(pieces.max()) > bucket_capacity:
                piece_bits += 1
            else:
                n_buckets += max(1, n_buckets // 4)
                if (
                    max_total_buckets is not None
                    and n_buckets > max_total_buckets
                ):
                    return None
        pieces = count_pieces(local_keys, domain_bits, piece_bits)
        candidate = PiecewiseRemap(
            domain_bits, proportional_allocs(pieces, n_buckets)
        )
