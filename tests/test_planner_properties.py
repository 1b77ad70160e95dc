"""Property-based tests for the Algorithm-1 planners (repro.core.segment).

The planners carry DyTIS's correctness: a returned remapping plan must
actually fit the keys (plus the pending insert) within the cap, split
plans must partition cleanly, and rebuilds must preserve the exact
key/value multiset.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import DyTISConfig
from repro.core.remap import PiecewiseRemap
from repro.core.segment import (
    Segment,
    SegmentOverflow,
    build_fitting,
    fit_counts,
    plan_remap,
    plan_split,
)

DOMAIN_BITS = 10
CAPACITY = 4

_keys = st.lists(
    st.integers(0, (1 << DOMAIN_BITS) - 1), min_size=1, max_size=80, unique=True
)


def _segment_holding(keys):
    """Build a segment that provably holds ``keys`` (generous layout)."""
    keys = sorted(keys)
    remap = PiecewiseRemap(DOMAIN_BITS, [max(1, len(keys))])
    return build_fitting(
        3, remap, CAPACITY, keys, keys, cap=1 << 16, max_piece_bits=DOMAIN_BITS
    )


@given(_keys, st.integers(0, (1 << DOMAIN_BITS) - 1), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_plan_remap_result_always_fits(keys, insert_key, cap):
    assume(insert_key not in set(keys))
    seg = _segment_holding(keys)
    lk = seg.collect()[0] & np.uint64((1 << DOMAIN_BITS) - 1)
    plan = plan_remap(
        seg, seg.run()[0], insert_key, cap=cap, util_threshold=0.6,
        max_piece_bits=8,
    )
    if plan is None:
        return  # failure is legal; Algorithm 1 escalates
    remap, counts, _ = plan
    assert remap.n_buckets <= max(cap, seg.n_buckets)
    fit = fit_counts(remap, lk, CAPACITY, extra_key=insert_key)
    assert fit is not None and fit.tolist() == list(counts)


@given(_keys)
@settings(max_examples=200, deadline=None)
def test_plan_split_partitions_all_keys(keys):
    seg = _segment_holding(keys)
    mid = 1 << (seg.domain_bits - 1)
    left, right = plan_split(
        seg, sum(1 for k in keys if k < mid), cap_child=1 << 12
    )
    assert left.domain_bits == right.domain_bits == seg.domain_bits - 1
    left_keys = [k for k in keys if k < mid]
    right_keys = [k for k in keys if k >= mid]
    built_left = build_fitting(
        4, left, CAPACITY, sorted(left_keys), sorted(left_keys),
        cap=1 << 16, max_piece_bits=8,
    )
    built_right = build_fitting(
        4, right, CAPACITY, sorted(right_keys), sorted(right_keys),
        cap=1 << 16, max_piece_bits=8,
    )
    assert built_left.total_keys == len(left_keys)
    assert built_right.total_keys == len(right_keys)


@given(_keys, st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_build_fitting_preserves_multiset(keys, piece_bits):
    keys = sorted(keys)
    values = [k * 3 for k in keys]
    remap = PiecewiseRemap(DOMAIN_BITS, [1] * (1 << min(piece_bits, DOMAIN_BITS)))
    seg = build_fitting(
        2, remap, CAPACITY, keys, values, cap=1 << 16, max_piece_bits=8
    )
    assert [k for k, _ in seg.items()] == keys
    assert [v for _, v in seg.items()] == values
    seg.check_invariants()


@given(_keys)
@settings(max_examples=100, deadline=None)
def test_segment_rebuild_roundtrip(keys):
    """collect() → build() reproduces the segment exactly."""
    seg = _segment_holding(sorted(keys))
    ks, vs = seg.collect()
    rebuilt = Segment.build(seg.local_depth, seg.remap, CAPACITY, ks, vs)
    assert list(rebuilt.items()) == list(seg.items())
    rebuilt.check_invariants()


def _padded_keys(seg):
    """A segment's whole key column, slack slots included."""
    return seg.store.keys.tolist()


@pytest.mark.parametrize("layout", [DyTISConfig.storage])
@given(_keys, st.integers(0, (1 << DOMAIN_BITS) - 1), st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_build_from_carried_counts_equals_build_from_scratch(
    layout, keys, insert_key, cap
):
    """The counts a planner proved its layout with cut the same
    segment -- keys, values, counts, piece counts, padding -- as the
    build routing every key itself; counts over capacity still raise."""
    assume(insert_key not in set(keys))
    seg = _segment_holding(keys)
    run, vs = seg.run()
    plan = plan_remap(
        seg, run, insert_key, cap=cap, util_threshold=0.6, max_piece_bits=8
    )
    if plan is None:
        return
    remap, counts, piece_counts = plan
    carried = Segment.cut(
        3, remap, CAPACITY, run, 0, len(run), vs, counts, piece_counts
    )
    routed = Segment.build(3, remap, CAPACITY, list(run), vs)
    carried.check_invariants()
    assert list(carried.items()) == list(routed.items()) == list(seg.items())
    assert carried.piece_counts == routed.piece_counts
    assert carried.total_keys == routed.total_keys == len(keys)
    assert [carried.store.bucket_len(b) for b in range(remap.n_buckets)] == [
        routed.store.bucket_len(b) for b in range(remap.n_buckets)
    ] == list(counts)
    assert _padded_keys(carried) == _padded_keys(routed)

    over = list(counts)
    over[over.index(max(over))] = CAPACITY + 1
    with pytest.raises(SegmentOverflow):
        Segment.cut(
            3, remap, CAPACITY, run, 0, len(run), vs, over, piece_counts
        )
