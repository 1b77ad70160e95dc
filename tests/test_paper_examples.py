"""The paper's own worked examples, reproduced literally.

These tests pin the implementation to the numbers printed in the paper:
the Figure 5 search walk-through (§3.3) and the Figure 6 remapping
adjustment (§3.3).  If a refactor changes the bit-slicing or the
remapping arithmetic, these fail first.
"""

import pytest

from repro.core import DyTIS, DyTISConfig
from repro.core.remap import PiecewiseRemap
from repro.core.segment import Segment


class TestFigure5WalkThrough:
    """n = 8, R = 2, key K = 01011101₂; EH[1], GD = 3, segment A with
    LD = 2 and two buckets; Remap(1101₂) = 11110₂ → bucket index 1."""

    KEY = 0b01011101

    def test_bit_slicing(self):
        cfg = DyTISConfig(key_bits=8, first_level_bits=2, bucket_capacity=4)
        index = DyTIS(cfg)
        # Two MSBs (01) select EH[1].
        assert index._table_index(self.KEY) == 0b01
        # The remaining six LSBs are the EH-local key.
        assert self.KEY & index._local_mask == 0b011101

    def test_directory_indexing(self):
        """With GD = 3, MSBs 011 of the local key pick dir[3]."""
        from repro.core.dytis import _EHTable

        table = _EHTable([Segment(0, PiecewiseRemap(6, [1]), 4)])
        table.global_depth = 3
        table.dir = table.dir * 8  # shape only; we check the index math
        assert table.dir_index(0b011101, 6) == 0b011

    def test_segment_remapping(self):
        """Segment A: LD = 2 → key range [0, 2^4); two buckets.

        The figure's remapped key is 11110₂ = 30 for segment-local key
        1101₂ = 13: a uniform two-bucket function over a 16-key domain
        maps F(k) = 2k, so F(13) = 26 .. hmm -- the figure's function is
        the *learned* one.  What the walk-through fixes is the final
        bucket index: Remap(1101) = 11110 lies in [10000, 100000) so the
        bucket index is 1.  Any monotone function with B = 2 that sends
        key 13 to the upper half satisfies it; the uniform one does.
        """
        remap = PiecewiseRemap(4, [2])
        # Function range [0, 2*16): remapped key // 16 = bucket.
        assert remap.bucket_of(0b1101) == 1
        # b[0] covers [0, 10000₂), b[1] covers [10000₂, 100000₂) of the
        # function range -- i.e. lower-half keys go to bucket 0.
        assert remap.bucket_of(0b0011) == 0

    def test_end_to_end_search(self):
        cfg = DyTISConfig(
            key_bits=8, first_level_bits=2, bucket_capacity=4, l_start=1
        )
        index = DyTIS(cfg)
        index.insert(self.KEY, "found")
        assert index.get(self.KEY) == "found"
        assert index.get(self.KEY ^ 1) is None  # sibling key absent


class TestFigure6Remapping:
    """A segment with 8 buckets and 4 sub-ranges; stealing turns the
    allocation [2,2,2,2] into [1,4,1,2] so sub-range 1's slope is 16
    (4 buckets over a quarter of the domain) and the functions connect
    at (0,0), (1/4,1), (1/2,5), (3/4,6) in bucket units."""

    def test_post_remapping_allocation(self):
        remap = PiecewiseRemap(8, [1, 4, 1, 2])  # domain [0, 256)
        assert remap.n_buckets == 8
        # Intercepts in bucket units: cumulative allocations 0, 1, 5, 6.
        assert remap._cum[:-1] == [0, 1, 5, 6]
        # Sub-range boundaries land exactly on those bucket indices.
        quarter = 256 // 4
        assert remap.bucket_of(0) == 0
        assert remap.bucket_of(quarter) == 1
        assert remap.bucket_of(2 * quarter) == 5
        assert remap.bucket_of(3 * quarter) == 6
        assert remap.bucket_of(255) == 7

    def test_utilization_equalised(self):
        """After stealing, sub-range 1's four buckets bring its
        utilization down to U_t = 0.5 like the others (paper's numbers:
        util 0.25 sub-ranges gave one bucket each to sub-range 1)."""
        capacity = 4
        seg = Segment(2, PiecewiseRemap(8, [1, 4, 1, 2]), capacity)
        # Populate to the paper's utilizations: sub-range 1 holds 8 keys
        # (util 0.5 over 4 buckets), the 1-bucket sub-ranges hold 2 each
        # (util 0.5), sub-range 3 holds 4 over 2 buckets (util 0.5).
        quarter = 256 // 4
        for i in range(2):
            seg.insert(0 * quarter + i * 7, None)
            seg.insert(2 * quarter + i * 7, None)
        for i in range(8):
            seg.insert(1 * quarter + i * 8, None)
        for i in range(4):
            seg.insert(3 * quarter + i * 16, None)
        seg.check_invariants()
        for piece in range(4):
            assert seg.piece_utilization(piece) == pytest.approx(0.5)
        assert seg.utilization() == pytest.approx(0.5)


class TestTraversalModelCounts:
    """§4.3: 'to query a key, DyTIS always uses a linear model once, but
    ALEX uses at least two ... with possibly more in internal nodes'."""

    def test_dytis_one_model_per_lookup(self, rng):
        cfg = DyTISConfig(
            key_bits=32, first_level_bits=4, bucket_capacity=16, l_start=2
        )
        index = DyTIS(cfg)
        keys = rng.sample(range(2**32), 5000)
        for k in keys:
            index.insert(k, k)
        # The search path is: table (bit slice), directory (bit slice),
        # then exactly ONE remapping-function evaluation -- segments are
        # a single piecewise model, never a hierarchy.
        for k in keys[:50]:
            table = index._tables[index._table_index(k)]
            seg = table.segment_for(k & index._local_mask, index._m)
            assert seg.get(k) == k  # one segment, one model application

    def test_alex_at_least_two_models(self, rng):
        from repro.learned import AlexIndex
        from repro.learned.alex import _InternalNode

        idx = AlexIndex()
        keys = rng.sample(range(2**40), 12000)
        idx.bulk_load(keys, keys)
        # Bulk loading past the data-node cap forces an internal level:
        # root model + data-node model = at least two per lookup.
        assert isinstance(idx._root, _InternalNode)
        assert idx.depth() >= 2


class TestAlgorithm1Dispatch:
    """Algorithm 1's branch structure, pinned line by line."""

    def test_low_util_prefers_remapping(self):
        cfg = DyTISConfig(
            key_bits=16, first_level_bits=2, bucket_capacity=4,
            l_start=0, util_threshold=0.6,
        )
        index = DyTIS(cfg)
        # A tight cluster fills one bucket while the segment stays
        # under-utilized -> remapping, not splitting (lines 8/15).
        for k in range(12):
            index.insert(k, k)
        assert index.stats.remappings >= 1

    def test_high_util_expands_at_gd(self):
        cfg = DyTISConfig(
            key_bits=16, first_level_bits=2, bucket_capacity=4,
            l_start=0, util_threshold=0.3,
        )
        index = DyTIS(cfg)
        # Near-uniform fill pushes utilization past U_t with LD == GD
        # -> expansion (line 13).
        step = (1 << 14) // 64
        for i in range(64):
            index.insert(i * step, i)
        assert index.stats.expansions >= 1
