"""List paths of the restructures, the insert's route tuple, split chains.

A small segment's restructure runs on Python lists: ``plan_remap``
counts histograms by bisecting the sorted run (``run_histogram``),
apportions up to ``_LIST_APPORTION`` sub-ranges with
``_apportion_list`` and builds a list-backed ``PiecewiseRemap`` (up to
``SLICED_BUCKETS`` sub-ranges).  Each list path must give what its
NumPy counterpart gives, bit for bit, or a layout decision would
change; the hypothesis tests below hold them together for 1 to 2,048
sub-ranges.  ``NPY_DISABLE_CPU_FEATURES`` runs of this file check the
NumPy side on a second SIMD dispatch target.

``DyTIS.insert`` reads a segment through ``Segment._route``; the drive
below runs every kind of restructure and then ``check_invariants``,
which asserts the tuple still holds the live objects.  Below L_start a
full one-bucket segment whose keys and pending key share several bits
below its local depth splits once per shared level; a recorded
fingerprint pins the layout those repeated splits build.
"""

import random
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datasets
from repro.core import DyTIS, DyTISConfig, MaintenanceController
from repro.core import remap as remap_module
from repro.core.invariants import InvariantViolation
from repro.core.remap import (
    PiecewiseRemap,
    _apportion,
    _apportion_array,
    _apportion_list,
    proportional_allocs,
)
from repro.core.segment import count_pieces, run_histogram
from repro.core.storage import SLICED_BUCKETS
from repro.obs import Observability
from tests.test_structure_identity import (
    _MEM,
    _SIZEOF_RECORDED,
    _sizeof_probe,
    fingerprint,
)

SCALED = {"first_level_bits": 4, "bucket_capacity": 16, "l_start": 2}


def _counts(rng, n, kind):
    """``n`` sub-range counts: many ties, zeros, or a wide spread."""
    if kind == 0:
        return [0] * n
    if kind == 1:
        return [rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(n)]
    if kind == 2:
        return [rng.choice((0, rng.randrange(1, 500))) for _ in range(n)]
    return [rng.randrange(0, 1 << 20) for _ in range(n)]


@given(
    st.integers(1, 2048),
    st.integers(0, 3),
    st.integers(0, 2**32),
    st.sampled_from(("one", "few", "nonempty", "same", "more", "many")),
)
@settings(max_examples=300, deadline=None)
def test_apportion_list_matches_numpy(n, kind, seed, size):
    rng = random.Random(seed)
    counts = _counts(rng, n, kind)
    nonempty = sum(1 for c in counts if c)
    n_buckets = {
        "one": 1,
        "few": rng.randrange(1, 8),
        # Fewer buckets than non-empty sub-ranges: the reserve bucket
        # of a zero-allocation sub-range competes on the ranking.
        "nonempty": max(1, nonempty // 2),
        "same": n,
        "more": n + rng.randrange(1, 3 * n + 2),
        "many": rng.randrange(1, 1 << 16),
    }[size]
    want = _apportion_array(counts, n_buckets).tolist()
    assert _apportion_list(counts, n_buckets) == want
    assert sum(want) == n_buckets
    got = _apportion(counts, n_buckets)
    assert (got if isinstance(got, list) else got.tolist()) == want
    public = proportional_allocs(counts, n_buckets)
    assert public.dtype == np.int64 and public.tolist() == want
    assert proportional_allocs(np.array(counts), n_buckets).tolist() == want
    boxed = [np.int64(c) for c in counts]  # NumPy scalars in a list
    assert proportional_allocs(boxed, n_buckets).tolist() == want


@given(
    st.integers(0, 11),
    st.integers(11, 50),
    st.integers(0, 3000),
    st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_run_histogram_matches_count_pieces(piece_bits, domain_bits, n, seed):
    rng = random.Random(seed)
    high = rng.randrange(1 << 10) << domain_bits  # the segment's span
    if rng.random() < 0.5:
        # Clustered keys: most sub-ranges empty.
        lo = rng.randrange(1 << domain_bits)
        width = rng.randrange(1, (1 << domain_bits) - lo + 1)
        pool = range(lo, lo + width)
    else:
        pool = range(1 << domain_bits)
    local = sorted(set(rng.choice(pool) for _ in range(n)))
    run = array("Q", [high | k for k in local])
    want = count_pieces(
        np.array(local, dtype=np.uint64), domain_bits, piece_bits
    ).tolist()
    assert run_histogram(run, domain_bits, piece_bits) == want


@given(
    st.integers(0, 11),
    st.integers(0, 20),
    st.integers(0, 2**32),
    st.integers(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_list_backed_remap_matches_numpy_backed(piece_bits, extra_bits, seed, kind):
    rng = random.Random(seed)
    domain_bits = piece_bits + extra_bits
    n = 1 << piece_bits
    if kind == 0:
        allocs = [rng.randrange(0, 6) for _ in range(n)]
    elif kind == 1:  # trailing zero-allocation sub-ranges
        allocs = [rng.randrange(0, 4) for _ in range(n)]
        for i in range(rng.randrange(n) + 1):
            allocs[n - 1 - i] = 0
    else:
        allocs = [rng.choice((0, 1, rng.randrange(1, 300))) for _ in range(n)]
    if not sum(allocs):
        allocs[0] = 1
    listed = PiecewiseRemap(domain_bits, allocs)
    if n <= SLICED_BUCKETS:
        assert listed._cum_np is None  # no NumPy call until routed
    with mock.patch.object(remap_module, "SLICED_BUCKETS", 0):
        arrayed = PiecewiseRemap(domain_bits, np.array(allocs))
    assert arrayed._cum_np is not None
    for attr in ("allocs", "_cum", "n_buckets", "_alloc_bits", "_offmask"):
        assert getattr(listed, attr) == getattr(arrayed, attr)
    keys = sorted(
        {rng.randrange(1 << domain_bits) for _ in range(300)}
        | {(1 << domain_bits) - 1, 0}
    )
    scalar = [listed.bucket_of(k) for k in keys]
    assert scalar == [arrayed.bucket_of(k) for k in keys]
    col = np.array(keys, dtype=np.uint64)
    assert listed.bucket_indices(col).tolist() == scalar
    assert arrayed.bucket_indices(col).tolist() == scalar
    for b in sorted({rng.randrange(listed.n_buckets) for _ in range(64)}):
        assert listed.first_key_of_bucket(b) == arrayed.first_key_of_bucket(b)
    listed.check_invariants()
    assert listed.doubled().allocs == arrayed.doubled().allocs


def test_route_tuple_is_checked():
    index = DyTIS(DyTISConfig(**SCALED))
    for k in range(0, 4000, 3):
        index.insert(k, k)
    index.check_invariants()
    seg = next(index._tables[0].unique_segments())
    route = seg._route
    seg._route = route[:7] + (list(route[7]),) + route[8:]  # a stale copy
    with pytest.raises(InvariantViolation):
        index.check_invariants()
    seg._route = route
    index.check_invariants()


def test_every_restructure_keeps_the_route(monkeypatch):
    """Split cuts, planned splits, remaps, expansions, merge-downs,
    buddy merges, run cuts and a maintenance rebuild each build
    segments; ``check_invariants`` (the route tuple included) holds
    after each."""
    seen = dict.fromkeys(("cut", "planned", "merge_down", "buddy_merge"), 0)

    def counting(name, op):
        def wrapper(self, *args):
            merges = self.stats.merges
            out = op(self, *args)
            seen[name] += bool(out) or self.stats.merges > merges
            return out
        return wrapper

    for name, attr in [
        ("cut", "_cut"), ("planned", "_split_planned"),
        ("merge_down", "_merge_down"), ("buddy_merge", "_try_buddy_merge"),
    ]:
        monkeypatch.setattr(DyTIS, attr, counting(name, getattr(DyTIS, attr)))
    index = DyTIS(DyTISConfig(**SCALED))
    keys = datasets.generate("TX", 20_000, seed=0).tolist()
    for k in keys:
        index.insert(k, k)
    index.check_invariants()
    s = index.stats
    assert s.splits and s.remappings and s.expansions and s.remap_failures
    assert seen["cut"] and seen["planned"]
    for i, k in enumerate(keys):
        if i % 8:
            index.delete(k)
    index.check_invariants()
    assert seen["merge_down"] and seen["buddy_merge"]
    ref = sorted(set(keys))
    removed = index.delete_range(ref[len(ref) // 2], ref[-1])
    assert removed
    index.check_invariants()
    events = MaintenanceController(index).step()
    assert events
    index.check_invariants()
    deleted = {k for i, k in enumerate(keys) if i % 8}
    survivors = [
        k for k in ref
        if k not in deleted and not ref[len(ref) // 2] <= k < ref[-1]
    ]
    assert [k for k, _ in index.items()] == survivors


#: ``fingerprint`` of the row below, recorded on the commit before the
#: list-backed remap planner.
GOLDEN_SHARED_BITS = (
    19, 0, 0, 7, 0, 0, 2900, 20, 28, 58976,
    "c214089e0005cfe398ec26f1801c746282fa54b4",
)


def test_repeated_splits_below_l_start_keep_the_layout():
    """1,500 keys sharing four bits below LD 0, then 750 sharing two:
    the root's overflow splits it once per shared level, LD 0 to 4,
    before the keys part."""
    rng = random.Random(4)
    cfg = DyTISConfig()
    table = 5 << cfg.eh_key_bits
    m = cfg.eh_key_bits
    keys = [table | 0b1011 << (m - 4) | rng.randrange(1 << (m - 4))
            for _ in range(1500)]
    keys += [table | 0b01 << (m - 2) | rng.randrange(1 << (m - 2))
             for _ in range(750)]
    obs = Observability()
    split_depths = []
    obs.events.on_split(lambda e: split_depths.append(e.local_depth))
    index = DyTIS(cfg, obs=obs)
    for k in keys:
        index.insert(k, k)
    index.check_invariants()
    assert [k for k, _ in index.items()] == sorted(set(keys))
    assert split_depths[:5] == [0, 1, 2, 3, 4]
    got = fingerprint(index)
    if _sizeof_probe() != _SIZEOF_RECORDED:
        got = got[:_MEM] + (GOLDEN_SHARED_BITS[_MEM],) + got[_MEM + 1:]
    assert got == GOLDEN_SHARED_BITS
