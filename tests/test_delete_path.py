"""Range and batch deletes against a dict oracle.

``delete_range`` cuts one contiguous run per bucket
(``Segment.delete_run`` -> ``ColumnarStorage.delete_run``), last bucket
first, and only then lets the post-delete merge policy visit the
segments it touched; ``delete_many`` sends each key of a per-segment
group through the scalar ``Segment.delete`` splice.  After every case
the index must hold exactly the oracle's pairs and pass
``check_invariants()``.  The cases cover runs that start and end
mid-bucket, runs over full buckets (whose freed slots copy the next
bucket's first slot), ranges across segment and first-level-table
boundaries and over tables never created, out-of-domain and empty
bounds, a buddy merge that replaces a segment the same range touched,
and an index with a collector attached.
"""

import random
from bisect import bisect_right

import numpy as np
import pytest

from repro import datasets
from repro.core import DyTIS, DyTISConfig
from repro.obs import Observability
from tests.test_insert_path import _state

SMALL = DyTISConfig(
    key_bits=32, first_level_bits=4, bucket_capacity=8, l_start=2
)
#: Key span of one first-level table under ``SMALL``.
TABLE = 1 << SMALL.eh_key_bits


def _inserted(keys, config=SMALL):
    index = DyTIS(config)
    for k in keys:
        index.insert(k, -k)
    return index, {k: -k for k in keys}


def _bulk_loaded(keys, config=SMALL):
    keys = sorted(set(keys))
    index = DyTIS(config)
    index.bulk_load(keys, [-k for k in keys])
    return index, {k: -k for k in keys}


def _first_survivor_hits_first_probe(index, high):
    """``get`` of the first key >= ``high`` resolves on its first
    ``bisect_right`` probe: no padding at or after its live slot holds
    it, so the probe lands on the live slot itself."""
    if high >= index._key_limit:
        return
    nxt = index.scan(high, 1)
    if not nxt:
        return
    key = nxt[0][0]
    store = index._segment(key).store
    pos = bisect_right(store._karr, key) - 1
    b = pos // store.capacity
    assert store._karr[pos] == key
    assert pos - b * store.capacity < store.counts[b]


def _check(index, oracle):
    index.check_invariants()
    assert len(index) == len(oracle)
    assert list(index.items()) == sorted(oracle.items())


def _delete_range(index, oracle, low, high):
    want = [k for k in oracle if low <= k < high]
    assert index.delete_range(low, high) == len(want), (low, high)
    for k in want:
        del oracle[k]
    _check(index, oracle)
    _first_survivor_hits_first_probe(index, high)


@pytest.mark.parametrize("build", [_inserted, _bulk_loaded])
def test_ranges_starting_and_ending_mid_bucket(build):
    rng = random.Random(3)
    index, oracle = build(rng.sample(range(1 << 32), 6000))
    for _ in range(60):
        ref = sorted(oracle)
        a = rng.randrange(len(ref) - 40)
        # Bounds between two live keys: neither is a bucket edge.
        low = ref[a] + 1
        high = ref[a + rng.randrange(2, 40)] - 1
        _delete_range(index, oracle, low, high)
    assert len(oracle) > 3000


def test_wide_and_narrow_ranges_on_a_default_index():
    rng = random.Random(5)
    keys = datasets.generate("TX", 20_000, seed=0).tolist()
    index, oracle = _inserted(keys, DyTISConfig())
    ref = sorted(oracle)
    for width in (1, 7, 128, 1000, 5000):
        a = rng.randrange(len(ref) - width)
        _delete_range(index, oracle, ref[a], ref[a + width])
        ref = sorted(oracle)
    _delete_range(index, oracle, 0, 1 << 64)
    assert not oracle


def test_ranges_over_full_buckets_pad_with_the_next_live_key():
    index, oracle = _inserted(random.Random(9).sample(range(1 << 32), 4000))
    cap = SMALL.bucket_capacity
    full = [
        (seg, b)
        for table in index._tables
        if table is not None
        for seg in table.unique_segments()
        for b in range(seg.n_buckets - 1)
        if seg.store.counts[b] == cap and seg.store.counts[b + 1] >= 2
    ]
    assert len(full) >= 10
    for seg, b in full[:: len(full) // 10]:
        store = seg.store
        if store.counts[b] != cap or store.counts[b + 1] < 2:
            continue  # an earlier case merged this segment
        # From the middle of the full bucket into the next one, which
        # keeps a survivor: the full bucket's freed slots copy the next
        # bucket's slot 0, already cut to that survivor.
        low = store.bucket_keys(b)[cap // 2]
        high = store.bucket_keys(b + 1)[-1]
        _delete_range(index, oracle, low, high)
        if index._segment(low) is seg:  # no merge rebuilt it
            span = store._karr[b * cap : (b + 1) * cap]
            assert not [k for k in span if low <= k < high]
            assert span[-1] == high


def test_ranges_across_segments_and_tables_including_absent_ones():
    rng = random.Random(11)
    # Keys in tables 1, 2, 5 and 9 only; the others are never created.
    keys = [
        t * TABLE + rng.randrange(TABLE) for t in (1, 2, 5, 9) for _ in range(900)
    ]
    index, oracle = _inserted(keys)
    assert index._tables[0] is None and index._tables[3] is None
    cases = [
        (0, TABLE),  # one table never created
        (TABLE + TABLE // 2, 2 * TABLE + TABLE // 3),  # two live tables
        (2 * TABLE + TABLE // 2, 6 * TABLE),  # live, absent, live, absent
        (3 * TABLE, 5 * TABLE),  # absent tables only
        (9 * TABLE - 1, 9 * TABLE + TABLE // 4),  # a table's first key
        (9 * TABLE + TABLE // 2, 10 * TABLE),  # up to a table's end
    ]
    segments = sum(1 for _ in index._tables[1].unique_segments())
    assert segments > 4
    for low, high in cases:
        _delete_range(index, oracle, low, high)
    for t in (1, 2, 5, 9):
        assert index._tables[t] is not None


def test_out_of_domain_and_empty_bounds():
    index, oracle = _inserted(random.Random(13).sample(range(1 << 32), 2000))
    before = _state(index)
    for low, high in ((100, 100), (5000, 10), (1 << 31, 0), (7, -3)):
        assert index.delete_range(low, high) == 0
    assert _state(index) == before
    with pytest.raises(ValueError):
        index.delete_range(-1, 10)
    with pytest.raises(ValueError):
        index.delete_range(1 << 32, 1 << 40)
    top = sorted(oracle)[-300]
    _delete_range(index, oracle, top, 1 << 33)  # high past 2^key_bits
    _delete_range(index, oracle, top // 2, 1 << 70)
    _delete_range(index, oracle, 0, 1 << 32)
    assert len(index) == 0


def test_a_buddy_merge_replaces_a_segment_the_range_touched(monkeypatch):
    """Emptying one table merges its segments: a touched segment's
    merge swallows its buddy, which the range touched as well, and the
    walk of the merge policy skips the segment no longer wired in."""
    rng = random.Random(17)
    index, oracle = _inserted(rng.sample(range(TABLE), 3000))
    table = index._tables[0]
    ref = sorted(oracle)
    low, high = ref[10], ref[-10]
    touched = {id(index._segment(k)) for k in ref[10:-10]}
    assert len(touched) > 8
    visited = []
    merge_policy = index._maybe_merge_after_delete

    def counting(table, seg, local):
        visited.append(seg)
        merge_policy(table, seg, local)

    monkeypatch.setattr(index, "_maybe_merge_after_delete", counting)
    merges = index.stats.merges
    _delete_range(index, oracle, low, high)
    assert index.stats.merges > merges
    assert 0 < len(visited) < len(touched)
    assert all(id(seg) in touched for seg in visited)
    assert sum(1 for _ in table.unique_segments()) < len(touched)


def test_traced_and_untraced_range_deletes_build_the_same_index():
    rng = random.Random(19)
    keys = rng.sample(range(1 << 32), 4000)
    traced = DyTIS(SMALL, obs=Observability(enabled=True))
    plain = DyTIS(SMALL)
    for index in (traced, plain):
        for k in keys:
            index.insert(k, k)
    oracle = {k: k for k in keys}
    for _ in range(80):
        low = rng.randrange(1 << 32)
        high = low + rng.randrange(1 << 25)
        want = sum(1 for k in oracle if low <= k < high)
        assert traced.delete_range(low, high) == want
        assert plain.delete_range(low, high) == want
        oracle = {k: v for k, v in oracle.items() if not low <= k < high}
        assert _state(traced) == _state(plain)
    _check(traced, oracle)


def test_delete_range_drops_a_stale_read_snapshot():
    index, oracle = _bulk_loaded(random.Random(23).sample(range(1 << 32), 3000))
    ref = sorted(oracle)
    index.get_many(ref)
    assert index._snapshot is not None
    gen = index._gen
    assert index.delete_range(ref[5], ref[5]) == 0
    assert index._snapshot is not None and index._gen == gen
    _delete_range(index, oracle, ref[5], ref[50])
    assert index._gen == gen + 1 and index._snapshot is None
    assert index.get_many(ref[:60]) == [oracle.get(k) for k in ref[:60]]


@pytest.mark.parametrize("batch", [1, 16, 1024])
def test_delete_many_matches_the_oracle(batch):
    rng = random.Random(29)
    index, oracle = _inserted(rng.sample(range(1 << 32), 5000))
    absent = [rng.randrange(1 << 32) for _ in range(500)]
    doomed = rng.sample(sorted(oracle), 4000) + absent
    rng.shuffle(doomed)
    for i in range(0, len(doomed), batch):
        group = doomed[i : i + batch]
        want = len({k for k in group if k in oracle})
        assert index.delete_many(np.array(group, dtype=np.uint64)) == want
        for k in group:
            oracle.pop(k, None)
    _check(index, oracle)
    assert index.stats.merges
