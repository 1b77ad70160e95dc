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
segment layout actually holds its keys.  Planners and rebuilds are
vectorised with numpy: structure operations touch every key of a
segment, exactly the memory-copy cost the paper measures, so they are
the hot path.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.invariants import require
from repro.core.remap import PiecewiseRemap, proportional_allocs
from repro.core.storage import ColumnarStorage


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
    )

    def __init__(
        self,
        local_depth: int,
        remap: PiecewiseRemap,
        bucket_capacity: int,
    ):
        self.local_depth = local_depth
        self.remap = remap
        self.bucket_capacity = bucket_capacity
        self.store = ColumnarStorage(remap.n_buckets, bucket_capacity)
        self.piece_counts = [0] * remap.n_pieces
        self.total_keys = 0
        #: Next segment in key order within the same EH (paper §3.2).
        self.sibling: Optional["Segment"] = None
        #: After a failed merge, skip retries until ``total_keys`` drops
        #: to this value; any rebuild makes a new segment, resetting it.
        self.merge_backoff: Optional[int] = None
        #: Segment-level lock for the concurrent wrapper (paper §3.4).
        self.lock = threading.Lock()
        self._mask = (1 << remap.domain_bits) - 1

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

    def probe(self, key: int) -> Tuple[bool, Any]:
        """(found, value) for ``key``: one binary search over the padded
        key column, no routing."""
        return self.store.probe_key(key)

    def get(self, key: int) -> Optional[Any]:
        found, value = self.store.probe_key(key)
        return value if found else None

    def contains(self, key: int) -> bool:
        return self.probe(key)[0]

    def insert(self, key: int, value: Any) -> str:
        """Sorted insert-or-update; 'inserted', 'updated', or 'full'."""
        result = self.store.insert(
            self.remap.bucket_of(key & self._mask), key, value
        )
        if result == "inserted":
            self.total_keys += 1
            self.piece_counts[self.remap.piece_of(key & self._mask)] += 1
        return result

    def delete(self, key: int) -> bool:
        if self.store.delete(self.remap.bucket_of(key & self._mask), key):
            self.total_keys -= 1
            self.piece_counts[self.remap.piece_of(key & self._mask)] -= 1
            return True
        return False

    # -- batch operations --------------------------------------------------

    def insert_batch(
        self, keys: np.ndarray, values: Sequence[Any]
    ) -> Tuple[np.ndarray, List[int]]:
        """Batched insert-or-update of ascending unique full ``keys``.

        One vectorised ``bucket_indices`` pass routes the whole group;
        the storage applies it as per-bucket splices.  Returns
        ``(new_mask, overflow)``:
        ``new_mask[i]`` True where key ``i`` was newly inserted,
        ``overflow`` the positions whose bucket is full -- those keys
        are *not* applied and must go through the scalar
        insert/restructure path.  Metadata (``total_keys``,
        ``piece_counts``) is updated for the inserted keys only.
        """
        n = int(keys.size)
        if n <= 8:
            # Small group: a dispersed batch lands a handful of keys per
            # segment, where numpy's fixed per-call cost (bucket_indices,
            # masks, bincount) dwarfs the work.  Apply with the scalar
            # C-bisect store path -- the batch layer's routing cache is
            # already amortised by the caller.
            return self._insert_small(keys, values)
        lk = keys & np.uint64(self._mask)
        bidx = self.remap.bucket_indices(lk)
        new_mask, overflow = self.store.insert_batch_sorted(bidx, keys, values)
        n_new = int(new_mask.sum())
        if n_new:
            self.total_keys += n_new
            shift = np.uint64(self.remap.domain_bits - self.remap.piece_bits)
            pc = np.bincount(
                (lk[new_mask] >> shift).astype(np.int64),
                minlength=self.remap.n_pieces,
            )
            self.piece_counts = (
                np.asarray(self.piece_counts, dtype=np.int64) + pc
            ).tolist()
        return new_mask, overflow

    def _insert_small(
        self, keys: np.ndarray, values: Sequence[Any]
    ) -> Tuple[np.ndarray, List[int]]:
        """Scalar-apply path for small batch groups (same contract as
        :meth:`insert_batch`)."""
        remap = self.remap
        cum = remap._cum
        allocs = remap.allocs
        shift = remap._shift
        offmask = (1 << shift) - 1
        last_bucket = cum[-1] - 1
        mask = self._mask
        store = self.store
        pc = self.piece_counts
        n = int(keys.size)
        new_mask = np.zeros(n, dtype=bool)
        overflow: List[int] = []
        for idx in range(n):
            key = int(keys[idx])
            lk = key & mask
            i = lk >> shift
            b = cum[i] + ((allocs[i] * (lk & offmask)) >> shift)
            if b > last_bucket:
                b = last_bucket
            status = store.insert(b, key, values[idx])
            if status == "inserted":
                new_mask[idx] = True
                pc[i] += 1
                self.total_keys += 1
            elif status == "full":
                overflow.append(idx)
        return new_mask, overflow

    def delete_batch(self, keys: np.ndarray) -> np.ndarray:
        """Batched delete of ascending unique full ``keys``; hit mask."""
        n = int(keys.size)
        if n <= 8:
            remap = self.remap
            cum = remap._cum
            allocs = remap.allocs
            shift = remap._shift
            offmask = (1 << shift) - 1
            last_bucket = cum[-1] - 1
            mask = self._mask
            store = self.store
            pc = self.piece_counts
            hits = np.zeros(n, dtype=bool)
            for idx in range(n):
                key = int(keys[idx])
                lk = key & mask
                i = lk >> shift
                b = cum[i] + ((allocs[i] * (lk & offmask)) >> shift)
                if b > last_bucket:
                    b = last_bucket
                if store.delete(b, key):
                    hits[idx] = True
                    pc[i] -= 1
                    self.total_keys -= 1
            return hits
        lk = keys & np.uint64(self._mask)
        bidx = self.remap.bucket_indices(lk)
        hits = self.store.delete_batch_sorted(bidx, keys)
        n_gone = int(hits.sum())
        if n_gone:
            self.total_keys -= n_gone
            shift = np.uint64(self.remap.domain_bits - self.remap.piece_bits)
            pc = np.bincount(
                (lk[hits] >> shift).astype(np.int64),
                minlength=self.remap.n_pieces,
            )
            self.piece_counts = (
                np.asarray(self.piece_counts, dtype=np.int64) - pc
            ).tolist()
        return hits

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

    def snapshot(self) -> Tuple[np.ndarray, List[Any], np.ndarray]:
        """The one read a structure operation takes: ``(keys, values,
        local_keys)`` -- ascending ``uint64`` full keys, parallel values,
        and the keys masked to the segment-local domain (planner input)."""
        keys, values = self.store.collect()
        return keys, values, keys & np.uint64(self._mask)

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
        seg = cls(local_depth, remap, bucket_capacity)
        n = len(keys)
        if n == 0:
            return seg
        single = not remap.piece_bits  # one sub-range: its histogram is [n]
        if counts is None or (piece_counts is None and not single):
            lk = np.asarray(keys, dtype=np.uint64) & np.uint64(seg._mask)
            if counts is None:
                counts = np.bincount(
                    remap.bucket_indices(lk), minlength=remap.n_buckets
                )
            if piece_counts is None and not single:
                piece_counts = count_pieces(
                    lk, remap.domain_bits, remap.piece_bits
                )
        if int(counts.max()) > bucket_capacity:
            raise SegmentOverflow(int(counts.argmax()))
        seg.store.fill_sorted(counts, keys, values)
        seg.piece_counts = [n] if single else piece_counts.tolist()
        seg.total_keys = n
        return seg

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` on inconsistencies (test hook)."""
        self.remap.check_invariants()
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
    local_keys: np.ndarray,
    insert_key: int,
    cap: int,
    util_threshold: float,
    max_piece_bits: int,
) -> Optional[Tuple[PiecewiseRemap, np.ndarray, np.ndarray]]:
    """Compute the remapped layout for ``segment`` (paper §3.3 Remapping).

    Returns ``(remap, counts, piece_counts)`` -- a layout under which
    ``local_keys`` (the segment's :meth:`Segment.snapshot`) plus
    ``insert_key`` fit, with the per-bucket and per-sub-range counts
    that prove it, ready for :meth:`Segment.build` -- or None when no
    layout within the segment-size cap ``cap`` works (remapping *fails*
    and Algorithm 1 escalates).

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
    """
    insert_local = segment.local_key(insert_key)
    domain_bits = segment.domain_bits
    capacity = segment.bucket_capacity
    n_buckets = segment.n_buckets
    max_bits = min(max_piece_bits, domain_bits)

    piece_bits = min(segment.remap.piece_bits, max_bits)

    # Step 1: refine until the target sub-range's utilization clears U_t.
    # Stop early once the target sub-range is small enough that a single
    # threshold-utilization bucket holds it: refining past that point
    # cannot sharpen the CDF further, it only fragments the allocation.
    min_target_keys = max(1.0, capacity * util_threshold)
    while piece_bits < max_bits:
        counts = count_pieces(local_keys, domain_bits, piece_bits)
        allocs = proportional_allocs(counts, n_buckets)
        t = insert_local >> (domain_bits - piece_bits)
        target_keys = int(counts[t]) + 1
        if target_keys / (max(int(allocs[t]), 1) * capacity) > util_threshold:
            break
        if target_keys <= min_target_keys:
            break
        piece_bits += 1
    else:
        counts = count_pieces(local_keys, domain_bits, piece_bits)
        allocs = proportional_allocs(counts, n_buckets)

    # Steps 2-3: try the re-apportioned layout, growing B on overflow.
    while True:
        candidate = PiecewiseRemap(domain_bits, allocs)
        fit = fit_counts(candidate, local_keys, capacity, insert_local)
        if fit is not None:
            return candidate, fit, counts
        if piece_bits < max_bits and int(counts.max()) + 1 > capacity:
            # Some sub-range (counting the pending insert) overfills even
            # a dedicated bucket: the CDF is too coarse there, and
            # refining is free (same B).
            piece_bits += 1
            counts = count_pieces(local_keys, domain_bits, piece_bits)
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
        allocs = proportional_allocs(counts, n_buckets)


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
    # Single sub-range: size children to 2 * ceil(count / capacity).
    child_bits = segment.domain_bits - 1
    capacity = segment.bucket_capacity

    def child(count: int) -> PiecewiseRemap:
        size = max(1, 2 * -(-count // capacity))
        return PiecewiseRemap(child_bits, [min(size, cap_child)])

    return child(left_count), child(segment.total_keys - left_count)


def _clamp_total(remap: PiecewiseRemap, cap: int) -> PiecewiseRemap:
    """Scale a remap's allocations down to at most ``cap`` buckets."""
    if remap.n_buckets <= cap:
        return remap
    return PiecewiseRemap(
        remap.domain_bits, proportional_allocs(remap.allocs, cap)
    )


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
    if initial_remap.n_buckets == 1 and len(keys) <= bucket_capacity:
        # One bucket holds the whole run (every build below L_start):
        # nothing to route, the count is the fit.
        return Segment.build(
            local_depth, initial_remap, bucket_capacity, keys, values,
            np.array([len(keys)]),
        )
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
