"""Log-linear latency histogram (HdrHistogram-style).

Values are bucketed by their power-of-two magnitude, with each power of
two subdivided into ``2^SUB_BITS`` linear sub-buckets: relative
quantization error is bounded by ``2^-SUB_BITS`` (12.5% at the default
3), uniformly from 1 ns to ~17 minutes, while recording stays O(1) with
zero allocation beyond a pending sample buffer.

Recording is two-phase for hot-path cheapness: samples append to a
pending list at C speed and are folded into buckets in amortized
batches with vectorized NumPy (``log2`` + ``bincount``), the same
trick the batch-operation layer uses.  Every query flushes first, so
results are always exact.  :meth:`record` bounds the buffer with a
per-call length check; :meth:`fast_recorder` skips even that (the
buffer then grows until the next read -- any query, merge, or metrics
scrape folds it).

This replaces percentile-over-raw-samples for long-running processes: a
histogram is a few hundred ints regardless of operation count, and two
histograms merge exactly (bucket-wise addition), which is what the
concurrent wrapper's per-table shards and the bench harness's
cross-run aggregation both need.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Linear sub-buckets per power of two (2^SUB_BITS); bounds relative
#: quantization error by 2^-SUB_BITS.
SUB_BITS = 3
_SUB = 1 << SUB_BITS
#: Highest representable exponent: 2^40 ns ≈ 18 minutes per op, beyond
#: which everything lands in the final bucket.
_MAX_EXP = 40
_N_BUCKETS = (_MAX_EXP - SUB_BITS + 1) * _SUB

#: Pending samples folded into buckets once the buffer reaches this
#: size (bounds per-histogram memory to a few KB).
_FLUSH_AT = 2048
#: Below this many pending samples the scalar fold beats NumPy's
#: conversion overhead.
_VECTOR_MIN = 64


def _bucket_index(value: int) -> int:
    """Index of the log-linear bucket holding ``value`` (>= 0).

    Scalar reference implementation; the vectorized fold in
    ``LatencyHistogram._flush`` must agree with it exactly.
    """
    if value < _SUB:
        return value if value >= 0 else 0
    e = value.bit_length() - 1
    if e >= _MAX_EXP:
        # 2^_MAX_EXP is already past the last regular bucket row
        # ((_MAX_EXP - 1)'s sub-buckets end at index _N_BUCKETS - 1),
        # so exponent _MAX_EXP and up all land in the overflow bucket.
        return _N_BUCKETS - 1
    sub = (value >> (e - SUB_BITS)) & (_SUB - 1)
    return (e - SUB_BITS + 1) * _SUB + sub


def _bucket_low(index: int) -> int:
    """Inclusive lower bound of bucket ``index``."""
    if index < _SUB:
        return index
    e = index // _SUB + SUB_BITS - 1
    sub = index % _SUB
    return (_SUB + sub) << (e - SUB_BITS)


def _bucket_high(index: int) -> int:
    """Exclusive upper bound of bucket ``index``."""
    if index < _SUB:
        return index + 1
    e = index // _SUB + SUB_BITS - 1
    sub = index % _SUB
    return (_SUB + sub + 1) << (e - SUB_BITS)


class LatencyHistogram:
    """Mergeable log-linear histogram of nanosecond latencies."""

    __slots__ = ("_counts", "_count", "_sum_ns", "_min_ns", "_max_ns", "_pending")

    #: Sentinel above any representable latency; lets the fold update
    #: the minimum with one comparison instead of a None check.
    _MIN_SENTINEL = 1 << 62

    def __init__(self) -> None:
        self._counts: List[int] = [0] * _N_BUCKETS
        self._count = 0
        self._sum_ns = 0
        self._min_ns = self._MIN_SENTINEL
        self._max_ns = 0
        self._pending: List[int] = []

    # -- recording -------------------------------------------------------

    def record(self, ns: int) -> None:
        """Record one latency sample (negative values clamp to 0).

        Hot path: one append plus a length check; bucketing is deferred
        to the amortized fold.
        """
        pending = self._pending
        pending.append(ns)
        if len(pending) >= _FLUSH_AT:
            self._flush()

    def record_many(self, samples_ns: Sequence[int]) -> None:
        self._pending.extend(samples_ns)
        if len(self._pending) >= _FLUSH_AT:
            self._flush()

    def fast_recorder(self):
        """A minimal per-sample recording callable for hot paths.

        Returns the pending buffer's raw ``list.append`` -- a C call
        with no Python frame, which is what keeps instrumented-insert
        overhead in single digits.  Unlike :meth:`record` there is no
        per-call size check: the buffer grows until the next read
        (every query, merge, and exposition snapshot folds it), so a
        caller that records without ever reading should scrape
        periodically or call a checked recorder instead.
        """
        return self._pending.append

    def _flush(self) -> None:
        """Fold pending samples into the bucket array (exact).

        The buffer keeps its identity (copy + clear, not swap): fast
        recorders bind ``_pending.append`` once and must stay valid.
        Concurrent recording goes through per-shard locks (see
        ``Observability.histogram``), so copy-then-clear cannot race.
        """
        buf = self._pending
        if not buf:
            return
        pending = buf[:]
        del buf[:]
        if len(pending) < _VECTOR_MIN:
            counts = self._counts
            for ns in pending:
                if ns < 0:
                    ns = 0
                counts[_bucket_index(ns)] += 1
                self._sum_ns += ns
                if ns > self._max_ns:
                    self._max_ns = ns
                if ns < self._min_ns:
                    self._min_ns = ns
            self._count += len(pending)
            return
        arr = np.asarray(pending, dtype=np.int64)
        if arr.min() < 0:
            arr = np.maximum(arr, 0)
        self._count += arr.size
        self._sum_ns += int(arr.sum())
        mx = int(arr.max())
        if mx > self._max_ns:
            self._max_ns = mx
        mn = int(arr.min())
        if mn < self._min_ns:
            self._min_ns = mn
        # Vectorized _bucket_index: exponent via log2 (exact for int64
        # magnitudes below 2^53; everything above _MAX_EXP clamps to
        # the overflow bucket anyway), then the linear sub-bucket.
        small = arr < _SUB
        idx = np.where(small, arr, 0)
        big_vals = arr[~small]
        if big_vals.size:
            e = np.floor(np.log2(big_vals)).astype(np.int64)
            over = e >= _MAX_EXP
            e = np.minimum(e, _MAX_EXP - 1)
            sub = (big_vals >> (e - SUB_BITS)) & (_SUB - 1)
            big_idx = (e - SUB_BITS + 1) * _SUB + sub
            big_idx[over] = _N_BUCKETS - 1
            idx[~small] = big_idx
        fold = np.bincount(idx, minlength=_N_BUCKETS)
        counts = self._counts
        for i in np.nonzero(fold)[0]:
            counts[i] += int(fold[i])

    # -- flushed state accessors ------------------------------------------

    @property
    def counts(self) -> List[int]:
        self._flush()
        return self._counts

    @property
    def count(self) -> int:
        self._flush()
        return self._count

    @property
    def sum_ns(self) -> int:
        self._flush()
        return self._sum_ns

    @property
    def max_ns(self) -> int:
        self._flush()
        return self._max_ns

    @property
    def min_ns(self) -> Optional[int]:
        self._flush()
        return None if self._min_ns == self._MIN_SENTINEL else self._min_ns

    # -- merging ---------------------------------------------------------

    def merge_from(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Add ``other``'s samples into this histogram (exact); returns self."""
        self._flush()
        other._flush()
        oc = other._counts
        sc = self._counts
        for i in range(_N_BUCKETS):
            if oc[i]:
                sc[i] += oc[i]
        self._count += other._count
        self._sum_ns += other._sum_ns
        if other._max_ns > self._max_ns:
            self._max_ns = other._max_ns
        if other._min_ns < self._min_ns:
            self._min_ns = other._min_ns
        return self

    @classmethod
    def merged(cls, histograms: Sequence["LatencyHistogram"]) -> "LatencyHistogram":
        out = cls()
        for h in histograms:
            out.merge_from(h)
        return out

    # -- queries ---------------------------------------------------------

    def percentile(self, p: float) -> int:
        """Latency at percentile ``p`` in [0, 100].

        Returns the upper bound of the bucket containing the p-th sample
        (clamped to the exact observed max), so the answer never
        understates the true percentile by more than the bucket width:
        relative error <= 2^-SUB_BITS.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        self._flush()
        if self._count == 0:
            return 0
        # Rank of the target sample, 1-based, ceil like HdrHistogram.
        rank = max(1, int(self._count * p / 100.0 + 0.5))
        seen = 0
        for i, c in enumerate(self._counts):
            if not c:
                continue
            seen += c
            if seen >= rank:
                if i == _N_BUCKETS - 1:
                    # Overflow bucket: its nominal bound understates
                    # arbitrarily; the observed max is the only answer.
                    return self._max_ns
                return min(_bucket_high(i) - 1, self._max_ns)
        return self._max_ns

    @property
    def p50(self) -> int:
        return self.percentile(50.0)

    @property
    def p95(self) -> int:
        return self.percentile(95.0)

    @property
    def p99(self) -> int:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        self._flush()
        return self._sum_ns / self._count if self._count else 0.0

    def nonzero_buckets(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (low_ns inclusive, high_ns exclusive, count) per used bucket."""
        self._flush()
        for i, c in enumerate(self._counts):
            if c:
                yield _bucket_low(i), _bucket_high(i), c

    def to_dict(self) -> Dict:
        """JSON-ready snapshot with percentiles and sparse buckets."""
        return {
            "count": self.count,
            "sum_ns": self.sum_ns,
            "mean_ns": self.mean,
            "min_ns": self.min_ns or 0,
            "max_ns": self.max_ns,
            "p50_ns": self.p50,
            "p95_ns": self.p95,
            "p99_ns": self.p99,
            "buckets": [list(b) for b in self.nonzero_buckets()],
        }

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, p50={self.p50}ns, "
            f"p95={self.p95}ns, p99={self.p99}ns, max={self.max_ns}ns)"
        )
