"""Differential check of the run-based rebuild (remaps, expansions,
splits) against the routing one.

:func:`fit_run` counts a sorted run's keys per bucket by bisecting
bucket bounds, and :meth:`ColumnarStorage.cut` lays the run out by
byte slices.  Both must agree exactly with what routing every key
gives: ``np.bincount(remap.bucket_indices(local))`` for the counts and
:meth:`ColumnarStorage.from_sorted` for the column.  Unlike
``test_structure_identity``, nothing here depends on how the host's
``argsort`` breaks ties, so this check runs everywhere.
"""

import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.remap import PiecewiseRemap
from repro.core.segment import fit_run
from repro.core.storage import SLICED_BUCKETS, ColumnarStorage

MAX_KEY = (1 << 64) - 1


@st.composite
def runs_and_remaps(draw):
    """A sorted run of full keys sharing one segment prefix, and a remap
    over that segment's local domain.  Allocations include zeros,
    trailing zeros and allocations wider than their sub-range; domains
    reach 64 bits, keys reach 0 and 2^64 - 1."""
    domain_bits = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 33, 60, 63, 64]))
    piece_bits = draw(st.integers(0, min(domain_bits, 4)))
    width = 1 << (domain_bits - piece_bits)
    alloc = st.one_of(
        st.just(0),
        st.integers(1, 4),
        st.integers(width, width + 6) if width <= 64 else st.integers(5, 40),
    )
    n_pieces = 1 << piece_bits
    allocs = draw(st.lists(alloc, min_size=n_pieces, max_size=n_pieces))
    if draw(st.booleans()):
        cut = draw(st.integers(1, len(allocs)))
        allocs[-cut:] = [0] * cut  # trailing zero-allocation sub-ranges
    if not any(allocs):
        allocs[draw(st.integers(0, len(allocs) - 1))] = 1
    top = (1 << domain_bits) - 1
    prefixes = (1 << (64 - domain_bits)) - 1
    base = draw(
        st.one_of(st.just(0), st.just(prefixes), st.integers(0, prefixes))
    ) << domain_bits
    local = draw(
        st.lists(
            st.one_of(st.sampled_from([0, 1, top - 1, top]), st.integers(0, top)),
            max_size=60,
            unique=True,
        )
    )
    return PiecewiseRemap(domain_bits, allocs), [base | k for k in sorted(local)]


def _routed_counts(remap, keys):
    local = np.array(keys, dtype=np.uint64) & np.uint64(
        (1 << remap.domain_bits) - 1
    )
    return np.bincount(
        remap.bucket_indices(local), minlength=remap.n_buckets
    ).tolist()


def _piece_counts(remap, keys):
    shift = remap.domain_bits - remap.piece_bits
    mask = (1 << remap.domain_bits) - 1
    counts = [0] * remap.n_pieces
    for k in keys:
        counts[(k & mask) >> shift] += 1
    return counts


@given(runs_and_remaps(), st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_run_counts_and_cut_equal_the_routed_build(layout, slack):
    remap, keys = layout
    run = array("Q", keys)
    routed = _routed_counts(remap, keys)
    capacity = max(max(routed), 1) + slack
    counts = fit_run(remap, run, _piece_counts(remap, keys), capacity)
    assert list(counts) == routed

    values = [("v", k) for k in keys]
    cut = ColumnarStorage.cut(capacity, run, 0, len(keys), routed, values)
    ref = ColumnarStorage.from_sorted(
        capacity, np.array(routed, dtype=np.int64),
        np.array(keys, dtype=np.uint64), values,
    )
    assert cut._karr.tobytes() == ref._karr.tobytes()
    assert cut.values == ref.values
    assert cut.counts == ref.counts
    assert cut.memory_bytes() == ref.memory_bytes()
    cut.check_invariants()


@given(runs_and_remaps())
@settings(max_examples=200, deadline=None)
def test_run_fit_refuses_what_routing_refuses(layout):
    """A bucket over capacity, or a full bucket that would receive the
    pending key, makes the fit fail exactly as :func:`fit_counts` does."""
    remap, keys = layout
    routed = _routed_counts(remap, keys)
    top = max(routed)
    pieces = _piece_counts(remap, keys)
    run = array("Q", keys)
    if top > 1:
        assert fit_run(remap, run, pieces, top - 1) is None
    for b in range(remap.n_buckets):
        extra = remap.first_key_of_bucket(b)
        if extra >> remap.domain_bits:
            continue  # no local key reaches bucket b
        fits = fit_run(remap, run, pieces, max(top, 1), extra)
        full = routed[remap.bucket_of(extra)] >= max(top, 1)
        assert (fits is None) == full


def test_cut_pads_with_the_next_live_key_and_max():
    # Buckets 1 and 2 empty: their slack repeats the next live key, and
    # the last bucket's slack is MAX -- equal to the live key 2^64 - 1.
    run = array("Q", [3, 9, MAX_KEY])
    store = ColumnarStorage.cut(2, run, 0, 3, [1, 0, 0, 2], ["a", "b", "c"])
    assert store._karr.tolist() == [3, 9, 9, 9, 9, 9, 9, MAX_KEY]
    assert store.values == [["a"], [], [], ["b", "c"]]
    assert store.probe_key(MAX_KEY) == (True, "c")
    assert store.probe_key(9) == (True, "b")


@pytest.mark.parametrize("n_buckets", [1, 7, SLICED_BUCKETS + 5])
def test_run_reads_every_live_key_once_in_order(n_buckets):
    """Both ways of reading a run -- a byte join per bucket and, past
    ``SLICED_BUCKETS``, one NumPy gather -- give the live keys and
    values in order, and a cut of the run rebuilds the column."""
    rng = random.Random(n_buckets)
    counts = [rng.choice([0, 1, 3, 4]) for _ in range(n_buckets)]
    keys = sorted(rng.sample(range(1 << 40), sum(counts)))
    values = [k * 3 for k in keys]
    store = ColumnarStorage.from_sorted(
        4, np.array(counts), np.array(keys, dtype=np.uint64), values
    )
    run, run_values = store.run()
    assert run.tolist() == keys and run_values == values
    again = ColumnarStorage.cut(4, run, 0, len(run), list(counts), run_values)
    assert again._karr == store._karr and again.values == store.values
