"""Tests for the piecewise-linear remapping functions (repro.core.remap)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.remap import PiecewiseRemap, proportional_allocs


class TestConstruction:
    def test_rejects_non_power_of_two_pieces(self):
        with pytest.raises(ValueError):
            PiecewiseRemap(4, [1, 1, 1])

    def test_rejects_negative_alloc(self):
        with pytest.raises(ValueError):
            PiecewiseRemap(4, [1, -1])

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            PiecewiseRemap(4, [0, 0])

    def test_rejects_too_many_pieces(self):
        with pytest.raises(ValueError):
            PiecewiseRemap(1, [1, 1, 1, 1])

    def test_identity_single_piece(self):
        r = PiecewiseRemap(4, [1])
        assert r.n_buckets == 1
        assert all(r.bucket_of(k) == 0 for k in range(16))


class TestBucketOf:
    def test_even_split(self):
        r = PiecewiseRemap(4, [2, 2])  # 16-key domain, 4 buckets
        assert r.bucket_of(0) == 0
        assert r.bucket_of(7) == 1
        assert r.bucket_of(8) == 2
        assert r.bucket_of(15) == 3

    def test_paper_figure6_example(self):
        # 8 buckets, 4 sub-ranges with allocs 1, 4, 1, 2 after stealing.
        r = PiecewiseRemap(8, [1, 4, 1, 2])
        assert r.n_buckets == 8
        # Sub-range 0 covers keys [0, 64) in 1 bucket.
        assert r.bucket_of(0) == 0 and r.bucket_of(63) == 0
        # Sub-range 1 covers [64, 128) across buckets 1-4.
        assert r.bucket_of(64) == 1 and r.bucket_of(127) == 4
        # Sub-range 3 covers [192, 256) across buckets 6-7.
        assert r.bucket_of(192) == 6 and r.bucket_of(255) == 7

    def test_zero_alloc_piece_routes_to_next(self):
        r = PiecewiseRemap(4, [0, 2])
        assert r.bucket_of(0) == 0  # flat step lands on next piece's bucket
        assert r.bucket_of(7) == 0
        assert r.bucket_of(8) == 0
        assert r.bucket_of(15) == 1

    def test_trailing_zero_alloc_clamps(self):
        r = PiecewiseRemap(4, [2, 0])
        assert r.bucket_of(15) == 1  # clamped to last bucket

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_property(self, domain_bits_extra, piece_bits, seed):
        """bucket_of is monotone non-decreasing over the domain."""
        domain_bits = piece_bits + domain_bits_extra
        rng = np.random.default_rng(seed)
        n_pieces = 1 << piece_bits
        allocs = rng.integers(0, 5, size=n_pieces).tolist()
        if sum(allocs) == 0:
            allocs[0] = 1
        r = PiecewiseRemap(domain_bits, allocs)
        keys = sorted(
            rng.integers(0, 1 << domain_bits, size=50, dtype=np.uint64).tolist()
        )
        indices = [r.bucket_of(k) for k in keys]
        assert indices == sorted(indices)
        assert all(0 <= i < r.n_buckets for i in indices)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        allocs = rng.integers(0, 8, size=4).tolist()
        if sum(allocs) == 0:
            allocs[0] = 1
        r = PiecewiseRemap(10, allocs)
        keys = rng.integers(0, 1 << 10, size=64, dtype=np.uint64)
        vec = r.bucket_indices(keys)
        scalar = [r.bucket_of(int(k)) for k in keys]
        assert vec.tolist() == scalar

    def test_vectorized_big_domain_fallback(self):
        """Exact fallback path for products that would overflow uint64."""
        r = PiecewiseRemap(60, [2**10, 2**10])
        keys = np.array([0, 2**59 - 1, 2**59, 2**60 - 1], dtype=np.uint64)
        vec = r.bucket_indices(keys)
        assert vec.tolist() == [r.bucket_of(int(k)) for k in keys]


class TestFirstKeyOfBucket:
    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_inverse_property(self, seed):
        """first_key_of_bucket(b) maps to b and is minimal."""
        rng = np.random.default_rng(seed)
        allocs = rng.integers(1, 5, size=4).tolist()
        r = PiecewiseRemap(8, allocs)
        for b in range(r.n_buckets):
            k = r.first_key_of_bucket(b)
            assert r.bucket_of(k) == b
            if k > 0:
                assert r.bucket_of(k - 1) < b or r.bucket_of(k - 1) == b - 1

    def test_out_of_range(self):
        r = PiecewiseRemap(4, [2])
        with pytest.raises(IndexError):
            r.first_key_of_bucket(5)

    def test_zero_allocation_shares_the_next_bucket(self):
        # Sub-range 0 owns no bucket: its keys map to bucket 0.
        r = PiecewiseRemap(4, [0, 2])
        assert r.bucket_of(0) == 0
        assert r.first_key_of_bucket(0) == 0
        assert r.first_key_of_bucket(1) == 12

    def test_allocation_wider_than_its_sub_range_skips_buckets(self):
        # Four keys over eight buckets: key k maps to bucket 2k, so no
        # key maps to an odd bucket and none reaches bucket 7.
        r = PiecewiseRemap(2, [8])
        assert [r.bucket_of(k) for k in range(4)] == [0, 2, 4, 6]
        assert [r.first_key_of_bucket(b) for b in range(8)] == [
            0, 1, 1, 2, 2, 3, 3, 4,
        ]

    @given(st.integers(0, 7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, domain_bits, data):
        """The smallest key whose bucket is >= b, or 2^domain_bits when
        none is, over zero, trailing-zero and over-wide allocations."""
        piece_bits = data.draw(st.integers(0, domain_bits))
        width = 1 << (domain_bits - piece_bits)
        allocs = data.draw(
            st.lists(
                st.one_of(st.just(0), st.integers(1, 2 * width + 2)),
                min_size=1 << piece_bits,
                max_size=1 << piece_bits,
            )
        )
        if data.draw(st.booleans()):
            allocs[-1] = 0
        if not any(allocs):
            allocs[0] = 1
        r = PiecewiseRemap(domain_bits, allocs)
        buckets = [r.bucket_of(k) for k in range(1 << domain_bits)]
        for b in range(r.n_buckets):
            expected = next(
                (k for k, kb in enumerate(buckets) if kb >= b),
                1 << domain_bits,
            )
            assert r.first_key_of_bucket(b) == expected

    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 1 << 20)),
            min_size=8,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_60_bit_domain_bound(self, allocs):
        """In a 60-bit domain the bound is checked at its two sides: it
        reaches ``b`` and the key before it does not."""
        if not any(allocs):
            allocs[-1] = 1
        r = PiecewiseRemap(60, allocs)
        probes = {0, r.n_buckets - 1}
        for i in range(r.n_pieces):
            span = r.piece_span(i)
            if span:
                probes.update((span[0], span[1 % len(span)], span[-1]))
        for b in sorted(probes):
            k = r.first_key_of_bucket(b)
            if k < 1 << 60:
                assert r.bucket_of(k) >= b
            if k > 0:
                assert r.bucket_of(k - 1) < b


class TestTransforms:
    def test_doubled_scales_allocs(self):
        r = PiecewiseRemap(6, [1, 3]).doubled()
        assert r.allocs == [2, 6]
        assert r.n_buckets == 8

    @given(
        st.integers(0, 7),
        st.lists(st.integers(0, 20), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_doubled_only_splits_buckets(self, extra_bits, allocs):
        """An expansion needs no fit check: every key's bucket under
        the doubled remap is 2b or 2b + 1 for its old bucket b, zero,
        trailing-zero and over-wide allocations included."""
        if not any(allocs):
            allocs[-1] = 1
        r = PiecewiseRemap(2 + extra_bits, allocs)
        d = r.doubled()
        for k in range(1 << r.domain_bits):
            assert d.bucket_of(k) // 2 == r.bucket_of(k)

    def test_refined_splits_by_counts(self):
        r = PiecewiseRemap(6, [4, 4])
        refined = r.refined([3, 1, 0, 4])
        assert len(refined.allocs) == 4
        assert sum(refined.allocs) == 8
        assert refined.allocs[0] == 3  # 4 * 3/4
        assert refined.allocs[1] == 1

    def test_refined_zero_counts(self):
        r = PiecewiseRemap(6, [4])
        refined = r.refined([0, 0])
        assert sum(refined.allocs) == 4

    def test_refined_needs_room(self):
        r = PiecewiseRemap(1, [1, 1])
        with pytest.raises(ValueError):
            r.refined([1, 0, 0, 1])

    def test_halves_paper_example(self):
        # 'one segment will have two buckets, the other six' (§3.3).
        r = PiecewiseRemap(6, [1, 3])
        left, right = r.halves()
        assert left.n_buckets == 2
        assert right.n_buckets == 6
        assert left.domain_bits == right.domain_bits == 5

    def test_halves_single_piece(self):
        left, right = PiecewiseRemap(6, [4]).halves()
        assert left.n_buckets >= 1 and right.n_buckets >= 1

    def test_halves_single_key_domain_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseRemap(0, [1]).halves()


class TestProportionalAllocs:
    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=16),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_preserved(self, counts, n_buckets):
        allocs = proportional_allocs(counts, n_buckets)
        assert sum(allocs) == n_buckets
        assert all(a >= 0 for a in allocs)

    def test_proportionality(self):
        allocs = proportional_allocs([10, 30, 10, 30], 8)
        assert allocs.tolist() == [1, 3, 1, 3]

    def test_empty_pieces_get_nothing_when_scarce(self):
        allocs = proportional_allocs([100, 0, 0, 0], 2)
        assert allocs[0] == 2

    def test_all_zero_counts_spread_evenly(self):
        allocs = proportional_allocs([0, 0, 0, 0], 6)
        assert sum(allocs) == 6
