"""Piecewise-linear remapping functions (paper §3.2, Figures 6-7).

A segment with local key domain [0, 2^domain_bits) divides that domain
into S = 2^piece_bits equal-width sub-ranges.  Sub-range i owns
``allocs[i]`` consecutive buckets; the remapping function over the
sub-range is the line from its first to its last bucket, so a segment
maps key ``k`` to bucket

    cum[i] + allocs[i] * (k - i*W) // W          (W = domain width / S)

which is exactly F(K) // 2^(n-R-LD) from the paper with F the scaled
piecewise-linear CDF: slope_i ∝ allocs[i], intercepts accumulated so F
is monotone and continuous.  All arithmetic is integer and exact.

Sub-ranges with allocation 0 are permitted (their keys fall into the
first bucket of the next allocated sub-range); the function stays
monotone, so natural key order is always preserved -- the invariant
scans rely on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import sub
from typing import List, Sequence, Union

import numpy as np

from repro.core.storage import SLICED_BUCKETS


class PiecewiseRemap:
    """Monotone piecewise-linear key→bucket mapping for one segment."""

    __slots__ = (
        "domain_bits",
        "piece_bits",
        "allocs",
        "_cum",
        "_shift",
        "_offmask",
        "n_buckets",
        "_alloc_bits",
        "_allocs_np",
        "_cum_np",
    )

    def __init__(self, domain_bits: int, allocs: Sequence[int]):
        if domain_bits < 0:
            raise ValueError("domain_bits must be >= 0")
        n_pieces = len(allocs)
        if n_pieces < 1 or n_pieces & (n_pieces - 1):
            raise ValueError("number of sub-ranges must be a power of two")
        piece_bits = n_pieces.bit_length() - 1
        if piece_bits > domain_bits:
            raise ValueError("more sub-ranges than distinct keys in domain")
        self.domain_bits = domain_bits
        self.piece_bits = piece_bits
        self._shift = domain_bits - piece_bits  # log2 of sub-range width
        #: Offset of a key within its sub-range: ``key & _offmask``.
        self._offmask = (1 << self._shift) - 1
        if n_pieces <= SLICED_BUCKETS:
            # Few sub-ranges (every segment below L_start, most split
            # children and remaps): plain lists, no NumPy call.  The
            # uint64 lookup arrays of ``bucket_indices`` are built the
            # first time it runs.
            if isinstance(allocs, np.ndarray):
                allocs = allocs.tolist()
            else:
                allocs = [*map(int, allocs)]
            self.allocs, self._cum = allocs, [0, *accumulate(allocs)]
            self._allocs_np = self._cum_np = None
            max_alloc = max(allocs)
            negative = min(allocs) < 0
            total = self._cum[-1]
        else:
            # The scalar path indexes the two lists, the vectorised
            # path uint64 views over the same two int64 buffers.  An
            # ndarray passed in is adopted, not copied (planners hand
            # over the fresh array the apportionment returned).
            arr = np.asarray(allocs, dtype=np.int64)
            self._allocs_np = arr.view(np.uint64)
            # Through the view a negative allocation reads >= 2^63:
            # one reduction is both the sign check and the maximum.
            max_alloc = int(self._allocs_np.max())
            negative = max_alloc >> 63
            cum = np.zeros(n_pieces + 1, dtype=np.int64)
            arr.cumsum(out=cum[1:])
            total = int(cum[-1])
            self.allocs, self._cum = arr.tolist(), cum.tolist()
            self._cum_np = cum[:-1].view(np.uint64)
        if negative:
            raise ValueError("bucket allocations must be non-negative")
        if total < 1:
            raise ValueError("segment must own at least one bucket")
        self.n_buckets = total
        #: Bit length of the largest allocation: picks the exact
        #: arithmetic ``bucket_indices`` can afford.
        self._alloc_bits = max_alloc.bit_length()

    @property
    def n_pieces(self) -> int:
        return len(self.allocs)

    def piece_of(self, key: int) -> int:
        """Sub-range index owning segment-local ``key``."""
        return key >> self._shift

    def bucket_of(self, key: int) -> int:
        """Bucket index for segment-local ``key``.

        For a zero-allocation sub-range this is the first bucket of the
        next allocated one (the flat step of the CDF); the final
        sub-ranges being zero-allocated would map past the end, so those
        keys clamp to the last bucket.
        """
        shift = self._shift
        i = key >> shift
        b = self._cum[i] + ((self.allocs[i] * (key & self._offmask)) >> shift)
        if b >= self.n_buckets:  # trailing zero-allocation sub-ranges
            return self.n_buckets - 1
        return b

    def bucket_indices(self, local_keys: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`bucket_of` over a uint64 key array.

        Uses exact uint64 arithmetic when the intermediate product
        ``alloc * offset`` provably fits in 64 bits, otherwise falls
        back to exact per-key Python integers, so the result always
        matches the scalar routing.
        """
        n = local_keys.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        shift = self._shift
        if self.piece_bits:
            cum_np = self._cum_np
            if cum_np is None:
                # A list-backed remap: build its lookup arrays once.
                self._allocs_np = np.array(self.allocs, dtype=np.uint64)
                cum_np = self._cum_np = np.array(
                    self._cum[:-1], dtype=np.uint64
                )
            # Sub-range and bucket numbers are far below 2^63: the
            # uint64 results are reinterpreted as int64, not converted.
            pieces = (local_keys >> np.uint64(shift)).view(np.int64)
            a, base = self._allocs_np[pieces], cum_np[pieces]
        else:
            a, base = np.uint64(self.allocs[0]), np.uint64(0)
        if self._alloc_bits + shift < 64:
            offsets = local_keys & np.uint64(self._offmask)
            b = (base + ((a * offsets) >> np.uint64(shift))).view(np.int64)
        elif shift >= 32 and self._alloc_bits <= 25:
            # 64-bit domains: ``alloc * offset`` would overflow uint64,
            # but splitting the offset into 32-bit halves keeps every
            # intermediate below 2**64 while staying exact:
            #   a*off = (a*hi)*2**32 + a*lo
            #         = (q*2**(s-32) + r)*2**32 + a*lo
            #   (a*off) >> s = q + ((r << 32) + a*lo) >> s
            # with a < 2**25, hi < 2**(s-32), lo < 2**32, r < 2**(s-32).
            offsets = local_keys & np.uint64(self._offmask)
            hi = offsets >> np.uint64(32)
            lo = offsets & np.uint64(0xFFFFFFFF)
            t1 = a * hi
            q = t1 >> np.uint64(shift - 32)
            r = t1 & np.uint64((1 << (shift - 32)) - 1)
            rem = (r << np.uint64(32)) + a * lo
            b = (base + q + (rem >> np.uint64(shift))).view(np.int64)
        else:
            return np.fromiter(
                (self.bucket_of(int(k)) for k in local_keys),
                dtype=np.int64,
                count=n,
            )
        # Only trailing zero-allocation sub-ranges can map past the end.
        return b if self.allocs[-1] else np.minimum(b, self.n_buckets - 1)

    def piece_span(self, i: int) -> range:
        """Bucket indices owned by sub-range ``i``."""
        return range(self._cum[i], self._cum[i + 1])

    def first_key_of_bucket(self, b: int) -> int:
        """Smallest segment-local key whose bucket is ``>= b``, or
        ``2^domain_bits`` when no key reaches ``b``.

        This is the lower bound of bucket ``b`` in a sorted run: the
        keys of buckets ``< b`` lie below it, every other key at or
        above it.  It is not always a key *of* bucket ``b``: an
        allocation wider than its sub-range skips buckets, and keys of
        a zero-allocation sub-range share the next allocated bucket.
        """
        if not 0 <= b < self.n_buckets:
            raise IndexError("bucket out of range")
        cum = self._cum
        # The allocated sub-range owning bucket b (cum[i] <= b < cum[i+1]).
        i = bisect_right(cum, b) - 1
        j = b - cum[i]
        if not j:
            # Its first bucket also takes the keys of any zero-allocation
            # sub-ranges right before it: start at the first of them.
            return bisect_left(cum, b) << self._shift
        return (i << self._shift) + self.bucket_offset(j, self.allocs[i])

    def bucket_offset(self, j: int, alloc: int) -> int:
        """Smallest offset into a sub-range of ``alloc >= 1`` buckets
        that maps to its ``j``-th bucket or a later one (the sub-range's
        width when none does): what :meth:`first_key_of_bucket` adds to
        the sub-range's start."""
        return -(-(j << self._shift) // alloc)

    def doubled(self) -> "PiecewiseRemap":
        """All slopes doubled -- the expansion operation (paper §3.3)."""
        return PiecewiseRemap(self.domain_bits, [a * 2 for a in self.allocs])

    def refined(self, piece_counts: Sequence[int]) -> "PiecewiseRemap":
        """Halve every sub-range, splitting allocations by key counts.

        ``piece_counts`` gives the key count of each *new* (refined)
        sub-range, length 2*S; each old allocation is divided between
        its two halves proportionally so the refined CDF tracks the
        real one more closely (paper Figure 7).
        """
        if len(piece_counts) != 2 * self.n_pieces:
            raise ValueError("need counts for 2*S refined sub-ranges")
        if self.piece_bits + 1 > self.domain_bits:
            raise ValueError("cannot refine below single-key sub-ranges")
        new_allocs: List[int] = []
        for i, a in enumerate(self.allocs):
            left, right = piece_counts[2 * i], piece_counts[2 * i + 1]
            total = left + right
            la = a * left // total if total else a // 2
            new_allocs.extend((la, a - la))
        return PiecewiseRemap(self.domain_bits, new_allocs)

    def halves(self) -> "tuple[PiecewiseRemap, PiecewiseRemap]":
        """Split into per-half remaps with doubled allocations.

        This is the paper's segment split: each child covers half the
        domain, keeps the slopes of its sub-ranges, and doubles its size
        ('one segment will have two buckets, while the other will have
        six').  A single-sub-range parent yields single-sub-range
        children.
        """
        if self.domain_bits < 1:
            raise ValueError("cannot halve a single-key domain")
        if self.n_pieces == 1:
            left_allocs = [max(1, self.allocs[0])]
            right_allocs = [max(1, self.allocs[0])]
        else:
            half = self.n_pieces // 2
            left_allocs = [a * 2 for a in self.allocs[:half]]
            right_allocs = [a * 2 for a in self.allocs[half:]]
        left = PiecewiseRemap(self.domain_bits - 1, _ensure_nonempty(left_allocs))
        right = PiecewiseRemap(self.domain_bits - 1, _ensure_nonempty(right_allocs))
        return left, right

    def check_invariants(self) -> None:
        assert self.n_buckets == self._cum[-1] == sum(self.allocs) >= 1
        assert self._cum == [sum(self.allocs[:i]) for i in range(self.n_pieces + 1)]
        if self._cum_np is not None:
            assert self._allocs_np.tolist() == self.allocs
            assert self._cum_np.tolist() == self._cum[:-1]
        # Monotonicity: spot-check sub-range boundaries.
        prev = 0
        for i in range(self.n_pieces):
            first = self.bucket_of(i << self._shift)
            assert first >= prev - 0
            prev = first


#: Shared one-sub-range remaps, keyed by ``(domain_bits, alloc)``.
#: A remap is immutable after construction (structure operations always
#: build fresh instances), so segments can share one: bulk loads and
#: the splits below L_start create thousands of one-bucket segments.
_LINES: dict = {}


def line_remap(domain_bits: int, alloc: int) -> PiecewiseRemap:
    """The shared one-sub-range remap of ``alloc`` buckets over
    ``domain_bits`` (callers keep ``alloc`` small: one entry each)."""
    remap = _LINES.get((domain_bits, alloc))
    if remap is None:
        remap = _LINES[domain_bits, alloc] = PiecewiseRemap(
            domain_bits, [alloc]
        )
    return remap


def _ensure_nonempty(allocs: List[int]) -> List[int]:
    """Guarantee at least one bucket in a child segment."""
    if sum(allocs) < 1:
        allocs = list(allocs)
        allocs[-1] = 1
    return allocs


#: Up to this many sub-ranges the apportionment runs on Python lists:
#: below it NumPy's cost is its fixed per-call toll, above it the
#: per-element Python steps cost more (break-even: ARCHITECTURE §3).
_LIST_APPORTION = 32


def proportional_allocs(
    piece_counts: Sequence[int], n_buckets: int
) -> np.ndarray:
    """Distribute ``n_buckets`` over sub-ranges proportionally to counts.

    Takes a sequence or an integer array and returns a fresh ``int64``
    array, which a :class:`PiecewiseRemap` of more than
    ``SLICED_BUCKETS`` sub-ranges adopts without a copy.

    Largest-remainder apportionment; sub-ranges holding keys get
    priority for the remainder buckets.  This realises the paper's
    remapping adjustment: low-utilization sub-ranges 'give' buckets to
    high-utilization ones until utilizations equalise (Figure 6).
    """
    if isinstance(piece_counts, np.ndarray) and (
        len(piece_counts) <= _LIST_APPORTION
    ):
        piece_counts = piece_counts.tolist()
    return np.asarray(_apportion(piece_counts, n_buckets), dtype=np.int64)


def _apportion(
    piece_counts: Sequence[int], n_buckets: int
) -> Union[List[int], np.ndarray]:
    """:func:`proportional_allocs` for the planners: a list up to
    ``_LIST_APPORTION`` sub-ranges (``piece_counts`` is then a list of
    ints), the array beyond.  Both paths give the same allocations."""
    if len(piece_counts) <= _LIST_APPORTION:
        return _apportion_list(piece_counts, n_buckets)
    return _apportion_array(piece_counts, n_buckets)


def _apportion_list(counts: List[int], n_buckets: int) -> List[int]:
    """The apportionment on lists of ints, step for step the float64
    arithmetic of :func:`_apportion_array`: one quota scale, ``int``
    truncation, the +1 for non-empty zero-allocation sub-ranges, and a
    stable ranking of the remainders (``sorted`` keeps ties in sub-range
    order under ``reverse``, as the stable ``argsort`` of their
    negation does)."""
    n = len(counts)
    total = sum(counts)
    if not total:
        base = [n_buckets // n] * n
        for i in range(n_buckets - base[0] * n):
            base[i] += 1
        return base
    scale = n_buckets / total
    quotas = [c * scale for c in counts]
    allocs = [*map(int, quotas)]
    remaining = n_buckets - sum(allocs)
    if remaining > 0:
        fractional = [*map(sub, quotas, allocs)]
        for i, a in enumerate(allocs):
            if not a and counts[i]:
                fractional[i] += 1.0
        ranked = sorted(range(n), key=fractional.__getitem__, reverse=True)
        for i in ranked[:remaining]:
            allocs[i] += 1
    return allocs


def _apportion_array(piece_counts, n_buckets: int) -> np.ndarray:
    """The apportionment vectorised: a fresh ``int64`` array."""
    counts = np.asarray(piece_counts, dtype=np.float64)
    n = counts.size
    total = counts.sum()
    if total == 0:
        base = np.full(n, n_buckets // n, dtype=np.int64)
        base[: n_buckets - int(base.sum())] += 1
        return base
    quotas = counts * (n_buckets / total)
    allocs = quotas.astype(np.int64)
    remaining = n_buckets - int(allocs.sum())
    if remaining > 0:
        # Rank by remainder, breaking ties toward non-empty zero-alloc
        # sub-ranges so they get their reserve bucket first, then toward
        # the lower sub-range: a stable sort orders ties the same on
        # every CPU, where the default kind's SIMD sorts do not.
        fractional = quotas - allocs
        fractional += (counts > 0) & (allocs == 0)
        allocs[(-fractional).argsort(kind="stable")[:remaining]] += 1
    return allocs
