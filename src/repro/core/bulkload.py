"""Bottom-up bulk loading for DyTIS (SOSD-style sorted builds).

DyTIS's loading story in the paper is incremental insertion (design
consideration 1), but replaying Algorithm 1 key by key over a sorted
batch repeatedly splits, remaps, and doubles directories that a sorted
build can lay out once.  Following FITing-Tree's observation that
piecewise-linear segments built bottom-up from sorted data are both
cheaper to construct and better fitted than incrementally grown ones,
this module plans a whole second-level EH table from its sorted keys:

1. **Depth assignment** (:func:`plan_depths`): recursively halve the
   table's local key domain -- the same binary prefix structure
   Extendible hashing converges to -- until each prefix group's key
   count fits a segment at that local depth (within the per-depth
   segment-size cap, filled to the utilization threshold so the loaded
   index has the same insert headroom an incrementally built one does).
2. **Model planning** (:func:`_plan_piece_bits`): run the greedy
   error-bounded PLR fitter over each group's sorted local keys (the
   paper's skewness machinery, §2.1) to count how many linear models
   the group's CDF needs, and size the segment's sub-range granularity
   to match.
3. **Segment build** (:func:`build_segment`): apportion buckets over
   sub-ranges by key count (:func:`proportional_allocs`, Figure 6) and
   construct the segment through :func:`build_fitting`, which fills
   sorted buckets by slice -- no per-key search, shift, split, or
   directory update ever runs.

The result passes exactly the invariants of an incrementally built
index (aligned directory spans, sorted buckets, sibling chains, piece
counts); :meth:`repro.core.DyTIS.bulk_load` wires the planned segments
into directories.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DyTISConfig
from repro.core.remap import PiecewiseRemap, line_remap, proportional_allocs
from repro.core.segment import Segment, build_fitting, count_pieces
from repro.core.storage import ColumnarStorage
from repro.plr import fit_plr

#: Cap on the number of points fed to the PLR fitter per segment; the
#: fit only has to *count models* to pick a granularity, so a uniform
#: subsample of the group's CDF is plenty.
PLR_SAMPLE_LIMIT = 512


def fill_target(config: DyTISConfig, local_depth: int, boosted: bool) -> int:
    """Keys a freshly loaded depth-``local_depth`` segment should hold.

    The per-depth segment-size cap times bucket capacity, derated by the
    utilization threshold U_t so the loaded segment sits just under the
    level at which Algorithm 1 would start restructuring -- the same
    headroom a segment has right after an incremental remap.
    """
    cap = config.segment_cap(local_depth, boosted)
    return max(1, int(cap * config.bucket_capacity * config.util_threshold))


def plan_depths(
    local_keys: np.ndarray, m: int, config: DyTISConfig, boosted: bool
) -> List[Tuple[int, int, int]]:
    """Partition sorted ``local_keys`` into per-segment prefix groups.

    Returns ``[(local_depth, lo, hi), ...]`` in key order, covering the
    whole ``m``-bit local domain (empty groups included -- every
    directory slot needs a segment).  A group is split in two (depth+1)
    while it exceeds :func:`fill_target` for its depth; the recursion
    terminates because the cap grows geometrically with depth while
    group sizes shrink, and at depth ``m`` a group holds at most one
    distinct key.
    """
    out: List[Tuple[int, int, int]] = []
    # Explicit DFS stack, left child popped first => output in key order.
    stack: List[Tuple[int, int, int, int]] = [(0, 0, 0, int(local_keys.size))]
    while stack:
        ld, prefix, lo, hi = stack.pop()
        n = hi - lo
        if ld >= m or n <= fill_target(config, ld, boosted):
            out.append((ld, lo, hi))
            continue
        span_bits = m - ld - 1
        mid_key = np.uint64(((prefix << 1) | 1) << span_bits)
        mid = lo + int(np.searchsorted(local_keys[lo:hi], mid_key))
        stack.append((ld + 1, (prefix << 1) | 1, mid, hi))
        stack.append((ld + 1, prefix << 1, lo, mid))
    return out


def _plan_piece_bits(
    local: np.ndarray, domain_bits: int, max_bits: int, bucket_capacity: int
) -> int:
    """Sub-range granularity for a group, from a PLR fit of its CDF.

    Fits the greedy error-bounded PLR (gamma = half a bucket, scaled
    for subsampling) over the group's sorted local keys and rounds the
    model count up to a power of two: a CDF that needs ``k`` linear
    models is approximated by ``2^ceil(log2 k)`` equal-width sub-ranges.
    """
    n = int(local.size)
    if max_bits <= 0 or n <= bucket_capacity:
        return 0
    step = max(1, n // PLR_SAMPLE_LIMIT)
    sample = local[::step].astype(np.float64).tolist()
    gamma = max(1.0, bucket_capacity / (2.0 * step))
    models = len(fit_plr(sample, gamma))
    bits = max(1, models - 1).bit_length() if models > 1 else 0
    return min(bits, max_bits)


def one_bucket_segment(
    local_depth: int, m: int, capacity: int, keys, values
) -> Segment:
    """A depth-``local_depth`` segment whose one sorted bucket holds
    ascending ``keys`` (at most ``capacity``): no model to plan, and the
    storage is laid out in one construction."""
    n = len(keys)
    return Segment(
        local_depth, line_remap(m - local_depth, 1), capacity,
        ColumnarStorage.from_sorted(capacity, (n,), keys, values), [n], n,
    )


def build_segment(
    local_depth: int,
    local: np.ndarray,
    keys: Sequence[int],
    values: List[Any],
    m: int,
    config: DyTISConfig,
    boosted: bool,
    max_total_buckets: Optional[int] = None,
) -> Optional[Segment]:
    """Build one segment bottom-up from its sorted key group.

    ``local`` holds the group's ``m``-bit local keys (high bits are the
    group's prefix); ``keys``/``values`` the full keys (an ascending
    ``uint64`` array the fill copies without boxing) and payloads.
    Small groups skip planning entirely (one sorted bucket *is* the
    segment); larger ones get a PLR-planned remap and are filled by
    slice, falling back to :func:`build_fitting`'s refine-and-grow loop
    only when the planned layout overflows a bucket.

    ``max_total_buckets`` bounds the fallback's grow loop; past it the
    build returns ``None`` (no layout at this depth within budget) so
    the caller can split the group deeper instead.  Unbounded builds
    diverge on dense runs in a wide domain -- see
    :func:`~repro.core.segment.build_fitting`.
    """
    domain_bits = m - local_depth
    capacity = config.bucket_capacity
    n = len(keys)
    if n == 0:
        return Segment(local_depth, line_remap(domain_bits, 1), capacity)
    if n <= capacity:
        return one_bucket_segment(local_depth, m, capacity, keys, values)
    cap = config.segment_cap(local_depth, boosted)
    per_bucket = max(1, int(capacity * config.util_threshold))
    n_buckets = min(cap, max(1, -(-n // per_bucket)))
    seg_local = local & np.uint64((1 << domain_bits) - 1)
    piece_bits = _plan_piece_bits(
        seg_local, domain_bits, min(config.max_piece_bits, domain_bits), capacity
    )
    counts = count_pieces(seg_local, domain_bits, piece_bits)
    remap = PiecewiseRemap(
        domain_bits, proportional_allocs(counts, n_buckets)
    )
    bidx = remap.bucket_indices(seg_local)
    per_bucket_counts = np.bincount(bidx, minlength=remap.n_buckets)
    if int(per_bucket_counts.max(initial=0)) > capacity:
        # Planned layout overflows somewhere: hand the group to the
        # incremental-path rebuild loop (refine sub-ranges, grow).
        return build_fitting(
            local_depth, remap, capacity, keys, values,
            cap, config.max_piece_bits,
            max_total_buckets=max_total_buckets,
        )
    return Segment.build(
        local_depth, remap, capacity, keys, values, per_bucket_counts, counts
    )


#: Bucket-growth headroom, in multiples of the per-depth segment cap,
#: a planned group may consume before it is declared unfittable at its
#: depth and split deeper instead (:func:`build_segment_tree`).
UNFITTABLE_GROWTH = 8


def build_segment_tree(
    local_depth: int,
    local: np.ndarray,
    keys: Sequence[int],
    values: Sequence[Any],
    m: int,
    config: DyTISConfig,
    boosted: bool,
    out: List[Segment],
) -> None:
    """Build a group's segments, splitting deeper when it won't fit.

    :func:`plan_depths` sizes groups by key *count*, but a group can be
    unfittable at its planned depth regardless of count: a dense
    sequential run in a wide local domain falls inside one sub-range of
    even the finest remapping, so no bucket allocation spreads it and
    :func:`build_fitting`'s grow loop diverges (the incremental path
    escapes by splitting -- each extra level of local depth halves the
    domain).  This mirrors that escape at plan time: try the group at
    its depth with bounded growth, and on failure halve it at the
    prefix midpoint and recurse.  Termination: once the domain is no
    wider than a bucket the group fits trivially (keys are unique).

    Appends the built segments to ``out`` in key order; their spans
    tile the group's prefix span.
    """
    bound = UNFITTABLE_GROWTH * config.segment_cap(local_depth, boosted)
    seg = build_segment(
        local_depth, local, keys, values, m, config, boosted,
        max_total_buckets=bound,
    )
    if seg is not None:
        out.append(seg)
        return
    # Only non-empty over-capacity groups can fail, so local[0] exists
    # and local_depth < m (a one-value domain holds at most one key).
    span_bits = m - local_depth - 1
    prefix = int(local[0]) >> (span_bits + 1)
    mid_key = np.uint64(((prefix << 1) | 1) << span_bits)
    mid = int(np.searchsorted(local, mid_key))
    build_segment_tree(
        local_depth + 1, local[:mid], keys[:mid], values[:mid],
        m, config, boosted, out,
    )
    build_segment_tree(
        local_depth + 1, local[mid:], keys[mid:], values[mid:],
        m, config, boosted, out,
    )


def build_table_segments(
    sorted_keys: np.ndarray,
    values: Sequence[Any],
    lo: int,
    hi: int,
    m: int,
    config: DyTISConfig,
    boosted: bool,
) -> List[Segment]:
    """Plan and build one EH table's segments from its sorted key slice.

    ``sorted_keys`` is the whole load's ascending uint64 key array;
    ``[lo, hi)`` is this table's slice.  Returns the segments in key
    order; the caller wires directory spans and sibling pointers.
    """
    local = sorted_keys[lo:hi] & np.uint64((1 << m) - 1)
    plan = plan_depths(local, m, config, boosted)
    segments: List[Segment] = []
    for ld, a, b in plan:
        build_segment_tree(
            ld,
            local[a:b],
            sorted_keys[lo + a : lo + b],
            values[lo + a : lo + b],
            m,
            config,
            boosted,
            segments,
        )
    return segments
