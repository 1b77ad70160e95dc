"""Tests for segments and the Algorithm-1 planners (repro.core.segment)."""

import numpy as np
import pytest

from repro.core.remap import PiecewiseRemap
from repro.core.segment import (
    Segment,
    SegmentOverflow,
    build_fitting,
    count_pieces,
    fit_counts,
    plan_remap,
    plan_split,
)


def make_segment(domain_bits=8, allocs=(2, 2), capacity=4, local_depth=3):
    return Segment(local_depth, PiecewiseRemap(domain_bits, list(allocs)), capacity)


def local_keys(seg):
    """A segment's keys masked to its local domain (routing input)."""
    return seg.collect()[0] & np.uint64((1 << seg.domain_bits) - 1)


class TestSegmentBasics:
    def test_insert_get_delete(self):
        s = make_segment()
        assert s.insert(10, "a") == "inserted"
        assert s.insert(10, "b") == "updated"
        assert s.get(10) == "b"
        assert s.total_keys == 1
        assert s.delete(10)
        assert not s.delete(10)
        assert s.total_keys == 0
        s.check_invariants()

    def test_full_bucket(self):
        s = make_segment(domain_bits=8, allocs=(1,), capacity=2)
        assert s.insert(1, 1) == "inserted"
        assert s.insert(2, 2) == "inserted"
        assert s.insert(3, 3) == "full"

    def test_piece_counts_maintained(self):
        s = make_segment(domain_bits=4, allocs=(1, 1), capacity=8)
        s.insert(0, 0)   # piece 0
        s.insert(1, 1)   # piece 0
        s.insert(8, 8)   # piece 1
        assert s.piece_counts == [2, 1]
        s.delete(1)
        assert s.piece_counts == [1, 1]
        s.check_invariants()

    def test_items_sorted_and_full_keys(self):
        # Keys share high bits beyond the 4-bit domain.
        base = 0xAB00
        s = make_segment(domain_bits=4, allocs=(1, 1), capacity=8)
        for low in (9, 1, 14, 3):
            s.insert(base | low, low)
        assert [k for k, _ in s.items()] == [base | 1, base | 3, base | 9, base | 14]
        s.check_invariants()

    def test_iter_from(self):
        s = make_segment(domain_bits=6, allocs=(2, 2), capacity=8)
        for k in range(0, 64, 5):
            s.insert(k, k)
        got = [k for k, _ in s.iter_from(23)]
        assert got == [k for k in range(0, 64, 5) if k >= 23]

    def test_utilization(self):
        s = make_segment(domain_bits=8, allocs=(2, 2), capacity=4)
        assert s.utilization() == 0.0
        s.insert(0, 0)
        assert s.utilization() == pytest.approx(1 / 16)

    def test_collect_parallel_lists(self):
        s = make_segment(domain_bits=6, allocs=(1, 1), capacity=8)
        for k in (40, 3, 17):
            s.insert(k, k * 2)
        keys, values = s.collect()
        assert keys.dtype == np.uint64 and keys.tolist() == [3, 17, 40]
        assert values == [6, 34, 80]


class TestBuild:
    def test_build_from_sorted(self):
        remap = PiecewiseRemap(6, [2, 2])
        keys = list(range(0, 64, 3))
        seg = Segment.build(2, remap, 16, keys, [k * 2 for k in keys])
        assert seg.total_keys == len(keys)
        assert [k for k, _ in seg.items()] == keys
        seg.check_invariants()

    def test_build_overflow_raises(self):
        remap = PiecewiseRemap(6, [1])
        with pytest.raises(SegmentOverflow):
            Segment.build(2, remap, 4, list(range(5)), list(range(5)))

    def test_build_rejects_counts_that_do_not_describe_the_keys(self):
        from repro.core.invariants import InvariantViolation

        remap = PiecewiseRemap(6, [2, 2])
        keys = list(range(0, 64, 8))
        with pytest.raises(InvariantViolation):
            Segment.build(
                2, remap, 16, keys, keys, counts=np.array([2, 2, 2, 1])
            )

    def test_build_empty(self):
        seg = Segment.build(2, PiecewiseRemap(6, [1]), 4, [], [])
        assert seg.total_keys == 0
        seg.check_invariants()


class TestLayoutFits:
    def test_fits(self):
        remap = PiecewiseRemap(6, [2, 2])
        keys = np.array([0, 20, 40, 60], dtype=np.uint64)
        assert fit_counts(remap, keys, bucket_capacity=2).tolist() == [1, 1, 1, 1]

    def test_overflow_detected(self):
        remap = PiecewiseRemap(6, [1])
        keys = np.arange(5, dtype=np.uint64)
        assert fit_counts(remap, keys, bucket_capacity=4) is None

    def test_extra_key_counted(self):
        remap = PiecewiseRemap(6, [1])
        keys = np.arange(4, dtype=np.uint64)
        # The returned counts leave the pending key out.
        assert fit_counts(remap, keys, 5, extra_key=10).tolist() == [4]
        assert fit_counts(remap, keys, 4) is not None
        assert fit_counts(remap, keys, 4, extra_key=10) is None


class TestCountPieces:
    def test_histogram(self):
        keys = np.array([0, 1, 8, 9, 15], dtype=np.uint64)
        assert count_pieces(keys, 4, 1).tolist() == [2, 3]
        assert count_pieces(keys, 4, 2).tolist() == [2, 0, 2, 1]


class TestPlanRemap:
    def test_skewed_segment_gets_finer_allocation(self):
        # All keys cluster in the first sixteenth of the domain.
        seg = make_segment(domain_bits=8, allocs=(4,), capacity=4)
        for k in range(10):
            seg.insert(k, k)
        # Bucket 0 is over capacity (can't be via insert; build directly).
        seg2 = make_segment(domain_bits=8, allocs=(4,), capacity=4)
        for k in [0, 1, 2, 3]:
            seg2.insert(k, k)
        run = seg2.run()[0]
        lk = local_keys(seg2)
        plan = plan_remap(seg2, run, insert_key=4, cap=8,
                          util_threshold=0.6, max_piece_bits=6)
        assert plan is not None
        remap, counts, piece_counts = plan
        assert fit_counts(remap, lk, 4, extra_key=4).tolist() == list(counts)
        assert sum(piece_counts) == 4

    def test_returns_none_when_cap_blocks(self):
        seg = make_segment(domain_bits=3, allocs=(1,), capacity=2, local_depth=3)
        seg.insert(0, 0)
        seg.insert(1, 1)
        # cap equal to current size and keys too clustered to re-spread.
        plan = plan_remap(seg, seg.run()[0], insert_key=2, cap=1,
                          util_threshold=0.6, max_piece_bits=1)
        assert plan is None

    def test_plan_respects_cap(self):
        # A tight cluster at the bottom of a 1024-key domain: the plan
        # must refine sub-ranges to isolate it rather than exhaust the cap.
        seg = make_segment(domain_bits=10, allocs=(2,), capacity=4)
        for k in range(0, 4):
            assert seg.insert(k, k) == "inserted"
        lk = local_keys(seg)
        plan = plan_remap(seg, seg.run()[0], insert_key=8, cap=16,
                          util_threshold=0.6, max_piece_bits=8)
        assert plan is not None
        assert plan[0].n_buckets <= 16
        assert fit_counts(plan[0], lk, 4, extra_key=8) is not None


class TestPlanSplit:
    def test_paper_sizing_multi_piece(self):
        seg = make_segment(domain_bits=8, allocs=(1, 3), capacity=4)
        left, right = plan_split(seg, 0, cap_child=64)
        # Children keep slopes with doubled allocations (paper example).
        assert left.n_buckets == 2
        assert right.n_buckets == 6
        assert left.domain_bits == 7

    def test_single_piece_sized_from_counts(self):
        seg = make_segment(domain_bits=8, allocs=(4,), capacity=4)
        # 8 keys spread over the left half: 4 per bucket-span so every
        # insert lands in a non-full bucket.
        for k in (0, 1, 2, 3, 64, 65, 66, 67):
            assert seg.insert(k, k) == "inserted"
        left, right = plan_split(seg, 8, cap_child=64)
        assert left.n_buckets == 4  # 2 * ceil(8/4)
        assert right.n_buckets == 1

    def test_cap_clamps_children(self):
        seg = make_segment(domain_bits=8, allocs=(8, 8), capacity=4)
        left, right = plan_split(seg, 0, cap_child=4)
        assert left.n_buckets <= 4 and right.n_buckets <= 4


class TestBuildFitting:
    def test_fits_immediately(self):
        remap = PiecewiseRemap(6, [4])
        keys = list(range(0, 64, 8))
        seg = build_fitting(2, remap, 4, keys, keys, cap=8, max_piece_bits=4)
        assert seg.total_keys == len(keys)
        seg.check_invariants()

    def test_adjusts_for_clustered_keys(self):
        # 12 keys in one sixteenth of the domain; initial layout [1].
        remap = PiecewiseRemap(8, [1])
        keys = list(range(12))
        seg = build_fitting(2, remap, 4, keys, keys, cap=16, max_piece_bits=8)
        assert seg.total_keys == 12
        seg.check_invariants()

    def test_safety_valve_exceeds_cap_rather_than_losing_keys(self):
        remap = PiecewiseRemap(8, [1])
        keys = list(range(32))
        seg = build_fitting(2, remap, 4, keys, keys, cap=2, max_piece_bits=2)
        assert seg.total_keys == 32  # all keys present despite cap 2
        seg.check_invariants()
