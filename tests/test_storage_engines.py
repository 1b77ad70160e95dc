"""Differential tests for the segment storage layout.

A lockstep fuzz drives the index and a shadow dict through >= 10k mixed
operations across the whole DyTIS API and compares every result (the
removed list-of-buckets engine used to be a third party to it; same
seeds, same op counts); unit tests pin down the columnar layout's
sentinel-padding slack policy, its vectorised search paths (including
the 2^64-1 sentinel-as-real-key edge), the fused read column's epoch
invalidation, the one scan path's independence from writes and from
tracing, the retired engine switches, and the invariant checker's
failure modes.
"""

import random
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    ColumnarStorage,
    DyTIS,
    DyTISConfig,
    InvariantViolation,
    check_invariants,
)
from repro.core.storage import _MAX_KEY
from repro.obs import Observability

KEY_BITS = 32
KEY_SPACE = 1 << KEY_BITS


def _config():
    return DyTISConfig(
        key_bits=KEY_BITS, first_level_bits=4, bucket_capacity=8, l_start=2
    )


# ---------------------------------------------------------------------------
# Lockstep differential fuzz: the index vs a shadow dict
# ---------------------------------------------------------------------------


def test_lockstep_fuzz_10k_ops():
    """>= 10k random ops applied to the index and a dict, in lockstep.

    Every operation's result is compared; structural invariants are
    re-checked periodically (structure ops -- split, remap, expand,
    merge -- fire constantly at bucket_capacity=8).
    """
    rng = random.Random(0x5E9)
    ix = DyTIS(_config())
    shadow = {}
    live = []  # keys currently present (with duplicates pruned lazily)

    def random_key():
        if live and rng.random() < 0.6:
            return live[rng.randrange(len(live))]
        return rng.randrange(KEY_SPACE)

    n_ops = 10_000
    for step in range(n_ops):
        r = rng.random()
        if r < 0.35:  # insert / update
            k = random_key()
            v = rng.randrange(1 << 30)
            ix.insert(k, v)
            if k not in shadow:
                live.append(k)
            shadow[k] = v
        elif r < 0.45:  # insert_many: splice planner
            batch = [
                (random_key(), rng.randrange(1 << 30))
                for _ in range(rng.randrange(1, 96))
            ]
            ix.insert_many(batch)
            for k, v in batch:
                if k not in shadow:
                    live.append(k)
                shadow[k] = v
        elif r < 0.52:  # delete_many with hits and misses
            batch = [random_key() for _ in range(rng.randrange(1, 48))]
            expect = len({k for k in batch if k in shadow})
            assert ix.delete_many(batch) == expect, step
            for k in batch:
                shadow.pop(k, None)
        elif r < 0.62:  # get
            k = random_key()
            assert ix.get(k) == shadow.get(k), (step, k)
        elif r < 0.70:  # delete
            k = random_key()
            assert ix.delete(k) == (k in shadow), (step, k)
            shadow.pop(k, None)
        elif r < 0.78:  # get_many with hits and misses
            batch = [random_key() for _ in range(64)]
            assert ix.get_many(batch) == [shadow.get(k) for k in batch], step
        elif r < 0.86:  # scan
            start = rng.randrange(KEY_SPACE)
            count = rng.randrange(1, 200)
            expect = sorted((k, v) for k, v in shadow.items() if k >= start)
            assert ix.scan(start, count) == expect[:count], step
        elif r < 0.94:  # scan_range + count_range on the same bounds
            lo = rng.randrange(KEY_SPACE)
            hi = lo + rng.randrange(1, KEY_SPACE // 64)
            expect = sorted(
                (k, v) for k, v in shadow.items() if lo <= k < hi
            )
            assert ix.scan_range(lo, hi) == expect, step
            assert ix.count_range(lo, hi) == len(expect), step
        else:  # delete_range (small spans; exercises merge-down)
            lo = rng.randrange(KEY_SPACE)
            hi = lo + rng.randrange(1, KEY_SPACE // 256)
            victims = [k for k in shadow if lo <= k < hi]
            assert ix.delete_range(lo, hi) == len(victims), step
            for k in victims:
                del shadow[k]

        if step % 2000 == 1999:
            live = [k for k in set(live) if k in shadow]
            assert len(ix) == len(shadow), step
            check_invariants(ix)

    assert len(ix) == len(shadow)
    check_invariants(ix)
    assert sorted(shadow) == [k for k, _ in ix.scan_range(0, KEY_SPACE)]


def test_bulk_load_then_mutate_differential(rng):
    """A bulk-loaded index agrees with the dict after mutation."""
    keys = rng.sample(range(KEY_SPACE), 4000)
    ix = DyTIS(_config())
    ix.bulk_load(keys, [k * 2 for k in keys])
    shadow = {k: k * 2 for k in keys}
    for k in keys[:500]:
        ix.delete(k)
        del shadow[k]
    for k in range(0, 50_000, 7):
        ix.insert(k, k + 1)
        shadow[k] = k + 1
    expect = sorted(shadow.items())
    check_invariants(ix)
    assert ix.scan_range(0, KEY_SPACE) == expect
    probe = [k for k, _ in expect[::17]] + [1, 3, KEY_SPACE - 1]
    assert ix.get_many(probe) == [shadow.get(k) for k in probe]


# ---------------------------------------------------------------------------
# Columnar engine internals: sentinel padding, vectorised search
# ---------------------------------------------------------------------------


def test_columnar_key_column_stays_nondecreasing():
    """The whole key column is non-decreasing across bucket boundaries:
    slack slots are back-filled with the next live key (or the 2^64-1
    sentinel past the last), which is what lets one bisect over the raw
    padded column answer point lookups."""
    st = ColumnarStorage(n_buckets=4, capacity=4)
    # Route keys to buckets in sorted-region order, as DyTIS would.
    for b, key in [(0, 10), (0, 20), (1, 100), (2, 200), (3, 300)]:
        assert st.insert(b, key, key) == "inserted"
    col = st.keys.tolist()
    assert col == sorted(col)
    # Slack in bucket 0 holds the next live key (100), not garbage.
    assert col[2] == 100 and col[3] == 100
    # Trailing slack carries the sentinel.
    assert col[-1] == _MAX_KEY
    st.check_invariants()
    # Deleting refills the freed slot from the right neighbour.
    assert st.delete(1, 100)
    col = st.keys.tolist()
    assert col == sorted(col)
    st.check_invariants()


def test_columnar_probe_key_and_sentinel_edge():
    st = ColumnarStorage(n_buckets=1, capacity=8)
    st.insert(0, 5, "five")
    st.insert(0, 9, "nine")
    assert st.probe_key(5) == (True, "five")
    assert st.probe_key(9) == (True, "nine")
    assert st.probe_key(7) == (False, None)
    # 2^64-1 collides with the slack sentinel: a padded slot can equal
    # the query, so the probe must still resolve via the live prefix.
    assert st.probe_key(_MAX_KEY) == (False, None)
    st.insert(0, _MAX_KEY, "max")
    assert st.probe_key(_MAX_KEY) == (True, "max")
    st.check_invariants()


def test_columnar_find_many_sorted():
    st = ColumnarStorage(n_buckets=2, capacity=4)
    for b, key in [(0, 1), (0, 3), (1, 10), (1, 12)]:
        st.insert(b, key, key * 10)
    queries = np.array([0, 1, 2, 3, 10, 12, 13, _MAX_KEY], dtype=np.uint64)
    out = [None] * len(queries)
    st.find_many_sorted(queries, out, list(range(len(queries))))
    assert out == [None, 10, None, 30, 100, 120, None, None]
    # Large batches take the vectorised path (> 16 queries).
    big = np.array(sorted([1, 3, 10, 12] * 5 + [7] * 10), dtype=np.uint64)
    out = [None] * big.size
    st.find_many_sorted(big, out, list(range(big.size)))
    expect = [{1: 10, 3: 30, 10: 100, 12: 120}.get(int(k)) for k in big]
    assert out == expect


def test_columnar_gapped_slack_after_fill_sorted():
    """fill_sorted leaves per-bucket gaps (slack) and pads them so the
    column stays sorted; inserts then land in the slack without
    spilling into neighbouring buckets."""
    st = ColumnarStorage(n_buckets=2, capacity=4)
    st.fill_sorted([2, 2], [1, 2, 10, 11], ["a", "b", "c", "d"])
    assert st.bucket_len(0) == 2 and st.bucket_len(1) == 2
    assert st.keys.tolist() == [1, 2, 10, 10, 10, 11, _MAX_KEY, _MAX_KEY]
    assert st.insert(0, 5, "e") == "inserted"
    assert st.probe_key(5) == (True, "e")
    st.check_invariants()
    assert st.keys.tolist()[:3] == [1, 2, 5]


# ---------------------------------------------------------------------------
# Splice planner property tests
# ---------------------------------------------------------------------------


def test_splice_partition_covers_each_key_exactly_once(rng):
    """Every batch key is accounted for exactly once across segment
    boundaries: inserted, updated in place, or spilled to overflow --
    and the index afterwards holds exactly the shadow's content."""
    ix = DyTIS(_config())
    seed = rng.sample(range(KEY_SPACE), 3000)
    ix.bulk_load(seed, seed)
    shadow = dict(zip(seed, seed))
    for round_ in range(20):
        # Mix fresh keys with updates so groups straddle many segments.
        batch_keys = rng.sample(range(KEY_SPACE), 200) + rng.sample(seed, 100)
        batch = [(k, (round_, k)) for k in batch_keys]
        fresh = len(set(batch_keys) - shadow.keys())
        before = len(ix)
        ix.insert_many(batch)
        for k, v in batch:
            shadow[k] = v
        # Size moved by exactly the genuinely-new keys: nothing was
        # double-inserted at a segment boundary, nothing was dropped.
        assert len(ix) - before == fresh, round_
        assert len(ix) == len(shadow), round_
        probe = batch_keys + rng.sample(range(KEY_SPACE), 50)
        assert ix.get_many(probe) == [shadow.get(k) for k in probe], round_
    check_invariants(ix)
    assert sorted(shadow) == [k for k, _ in ix.scan_range(0, KEY_SPACE)]


def test_splice_padding_invariant_after_every_batch(rng):
    """The sentinel-padded key column stays non-decreasing after every
    splice: check_invariants (which asserts exactly that, per segment)
    runs after each batched insert and delete."""
    ix = DyTIS(_config())
    keys = rng.sample(range(KEY_SPACE), 1500)
    ix.bulk_load(keys, keys)
    pool = list(keys)
    for round_ in range(25):
        batch = [
            (k, k ^ round_)
            for k in rng.sample(range(KEY_SPACE), 120) + rng.sample(pool, 40)
        ]
        ix.insert_many(batch)
        pool.extend(k for k, _ in batch)
        check_invariants(ix)
        victims = rng.sample(pool, 60)
        ix.delete_many(victims)
        pool = [k for k in pool if k in ix]
        check_invariants(ix)


# ---------------------------------------------------------------------------
# Fused read column: incremental repair vs structural invalidation
# ---------------------------------------------------------------------------


def _rebuild_patch_counts(ix):
    bus = ix.obs.events
    return bus.counts["fused_rebuild"], bus.counts["fused_patch"]


def test_fused_column_patched_not_rebuilt_after_local_writes(rng):
    """A segment-local write batch must NOT trigger a fused-column
    rebuild: the affected slices are patched in place, counted via the
    structural event bus."""
    obs = Observability(enabled=True)
    ix = DyTIS(_config(), obs=obs)
    keys = rng.sample(range(KEY_SPACE), 4000)
    ix.bulk_load(keys, keys)
    vmap = {k: k for k in keys}
    big = keys[:2000]  # large batch: always worth patching for
    probe = keys[:200]
    assert ix.get_many(big) == big  # builds the fused column
    rebuilds0, patches0 = _rebuild_patch_counts(ix)
    assert rebuilds0 >= 1

    # Value-only upsert batch: no new keys, nothing structural.
    upd = [(k, -k) for k in probe[:50]]
    ix.insert_many(upd)
    vmap.update(dict(upd))
    # A small read while many segments are dirty takes the routed
    # probe path: fresh answers, but neither a patch nor a rebuild.
    assert ix.get_many(probe[:20]) == [vmap[k] for k in probe[:20]]
    assert _rebuild_patch_counts(ix) == (rebuilds0, patches0)
    # A large read repairs the dirty slices in place -- no rebuild.
    assert ix.get_many(big) == [vmap[k] for k in big]
    rebuilds1, patches1 = _rebuild_patch_counts(ix)
    assert rebuilds1 == rebuilds0, "value-only batch must not rebuild"
    assert patches1 == patches0 + 1

    # Small insert batch into existing segments, picking keys whose
    # target bucket has slack so no restructure (and thus no rebuild)
    # can fire.
    room: dict = {}

    def _absorbable(k):
        table = ix._tables[k >> ix._m]
        if table is None:
            return False  # would create a table: structural
        seg = table.segment_for(k & ix._local_mask, ix._m)
        lk = np.uint64(k) & np.uint64(seg._mask)
        b = int(seg.remap.bucket_indices(np.array([lk], dtype=np.uint64))[0])
        slot = (id(seg), b)
        left = room.setdefault(slot, seg.store.capacity - seg.store.counts[b])
        if left <= 0:
            return False
        room[slot] = left - 1
        return True

    fresh = [
        k
        for k in rng.sample(range(KEY_SPACE), 600)
        if k not in ix and _absorbable(k)
    ][:40]
    assert len(fresh) == 40
    ix.insert_many([(k, k + 1) for k in fresh])
    vmap.update((k, k + 1) for k in fresh)
    assert ix.get_many(big) == [vmap[k] for k in big]  # patches
    assert ix.get_many(fresh) == [k + 1 for k in fresh]  # now-clean fused
    rebuilds2, patches2 = _rebuild_patch_counts(ix)
    assert rebuilds2 == rebuilds0, "segment-local inserts must not rebuild"
    assert patches2 == patches1 + 1

    # Scalar delete: no rebuild either (no merge at this size).
    ix.delete(probe[0])
    assert ix.get_many(probe[:2]) == [None, vmap[probe[1]]]
    rebuilds3, _ = _rebuild_patch_counts(ix)
    assert rebuilds3 == rebuilds0
    check_invariants(ix)


def test_fused_cache_consistency_across_mutations(rng):
    """The patched fused column serves exactly the same answers as a
    cold rebuild across value updates, deletes, batches, and ranges."""
    ix = DyTIS(_config())
    keys = rng.sample(range(KEY_SPACE), 2000)
    ix.bulk_load(keys, keys)
    probe = keys[:100]
    assert ix.get_many(probe) == probe  # builds the fused column
    assert ix._fused is not None and ix._fused.epoch == ix._mut_epoch

    ix.insert(keys[0], -1)  # in-place value update: patched, not rebuilt
    assert ix._fused.epoch == ix._mut_epoch
    assert ix.get_many(probe) == [-1] + probe[1:]

    ix.delete(keys[1])
    assert ix.get_many(probe) == [-1, None] + probe[2:]

    ix.scan(0, 10)  # a scan between writes: reads no cache, leaves none
    ix.insert_many([(k, 0) for k in probe[2:4]])
    assert ix.get_many(probe) == [-1, None, 0, 0] + probe[4:]
    assert ix.scan(min(probe[2:4]), 1) == [(min(probe[2:4]), 0)]

    lo = sorted(keys)[500]
    hi = sorted(keys)[600]
    ix.delete_range(lo, hi)
    assert ix.count_range(lo, hi) == 0
    # A cold index over the same content answers identically.
    cold = DyTIS(_config())
    content = ix.scan_range(0, KEY_SPACE)
    cold.bulk_load([k for k, _ in content], [v for _, v in content])
    assert cold.get_many(probe) == ix.get_many(probe)


# ---------------------------------------------------------------------------
# One scan path: the segment walk, writes beside it or not, traced or not
# ---------------------------------------------------------------------------


def test_scans_beside_writes_never_touch_the_fused_column(rng):
    """Scan cost is write-independent: 200 alternating inserts, scans
    and range scans emit no fused rebuild or patch (the walk reads the
    live segments) and match a ``searchsorted`` oracle throughout; an
    untraced twin given the same ops never builds the column at all."""
    obs = Observability(enabled=True)
    ix, plain = DyTIS(_config(), obs=obs), DyTIS(_config())
    keys = rng.sample(range(KEY_SPACE), 3000)
    ix.bulk_load(keys, keys)
    plain.bulk_load(keys, keys)
    ix.get_many(keys[:500])  # a warm fused column must not tempt a scan
    before = _rebuild_patch_counts(ix)
    oracle = np.sort(np.array(keys, dtype=np.uint64))
    for step in range(200):
        k = rng.randrange(KEY_SPACE)
        ix.insert(k, k)
        plain.insert(k, k)
        at = int(oracle.searchsorted(np.uint64(k)))
        if at == oracle.size or int(oracle[at]) != k:
            oracle = np.insert(oracle, at, np.uint64(k))
        start = rng.randrange(KEY_SPACE)
        a = int(oracle.searchsorted(np.uint64(start)))
        want = oracle[a : a + 100].tolist()
        assert ix.scan(start, 100) == list(zip(want, want)), step
        assert plain.scan(start, 100) == list(zip(want, want)), step
        hi = start + rng.randrange(1, KEY_SPACE // 32)
        b = int(oracle.searchsorted(np.uint64(hi)))
        want = oracle[a:b].tolist()
        assert ix.scan_range(start, hi) == list(zip(want, want)), step
        assert plain.scan_range(start, hi) == list(zip(want, want)), step
    assert _rebuild_patch_counts(ix) == before
    assert ix.delete_range(0, KEY_SPACE) == oracle.size
    assert plain.delete_range(0, KEY_SPACE) == oracle.size
    assert _rebuild_patch_counts(ix) == before
    assert plain._fused is None
    check_invariants(ix)


def test_traced_and_untraced_scans_agree(rng):
    """The same op script through an index with a collector attached
    and one without returns identical results from ``scan``,
    ``scan_range`` and ``delete_range``, and the collector still counts
    every scan and its sibling hops."""
    obs = Observability(enabled=True)
    traced, plain = DyTIS(_config(), obs=obs), DyTIS(_config())
    keys = rng.sample(range(KEY_SPACE), 2000)
    for ix in (traced, plain):
        ix.bulk_load(keys, keys)
    scans = 0
    for step in range(150):
        r = rng.random()
        lo = rng.randrange(KEY_SPACE)
        hi = lo + rng.randrange(0, KEY_SPACE // 128)
        if r < 0.3:
            k = rng.randrange(KEY_SPACE)
            for ix in (traced, plain):
                ix.insert(k, step)
        elif r < 0.6:
            count = rng.randrange(0, 300)
            assert traced.scan(lo, count) == plain.scan(lo, count), step
            scans += count > 0
        elif r < 0.9:
            assert traced.scan_range(lo, hi) == plain.scan_range(lo, hi), step
            scans += hi > lo
        else:
            assert traced.delete_range(lo, hi) == plain.delete_range(lo, hi)
            scans += hi > lo  # the victims come from the same walk
    assert list(traced.items()) == list(plain.items())
    assert obs.probes.scans == scans
    assert obs.probes.scan_segment_hops > 0
    assert obs.snapshot()["latency"]["scan"]["count"] >= scans
    check_invariants(traced)


# ---------------------------------------------------------------------------
# Config plumbing, memory accounting, invariant failures
# ---------------------------------------------------------------------------


def test_storage_env_default(monkeypatch):
    """The three engine switches are gone: the env var is ignored, the
    config field is a constant, the server CLI has no flag."""
    for value in ("lists", "columnar", "nonsense"):
        monkeypatch.setenv("DYTIS_STORAGE", value)
        assert DyTISConfig().storage == "columnar"
    monkeypatch.delenv("DYTIS_STORAGE")
    assert DyTISConfig().storage == "columnar"
    for value in ("lists", "columnar"):
        with pytest.raises(TypeError):
            DyTISConfig(storage=value)
    help_text = subprocess.run(
        [sys.executable, "-m", "repro.server", "--help"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "--storage" not in help_text and "--shards" in help_text


def test_columnar_memory_smaller_for_int_payloads(rng):
    """Resident storage stays under the floor of what boxed keys in
    per-bucket list pairs cost (the removed list engine measured
    495,168 bytes on this load, the columnar layout 315,784): 8 bytes
    per key *slot*, slack included, plus one value pointer per key."""
    keys = rng.sample(range(KEY_SPACE), 5000)
    ix = DyTIS(_config())
    ix.bulk_load(keys, keys)
    assert "storage=columnar" in ix.describe()
    n, buckets = len(keys), ix.bucket_count()
    slots = buckets * ix.config.bucket_capacity
    # int object + key slot + value slot per key; bucket + two lists each.
    boxed_floor = (32 + 8 + 8) * n + (48 + 56 + 56) * buckets
    assert 8 * slots + 8 * n <= ix.memory_bytes() < boxed_floor


def test_invariant_violation_on_corruption():
    st = ColumnarStorage(n_buckets=2, capacity=4)
    for b, key in [(0, 1), (0, 3), (1, 10)]:
        st.insert(b, key, key)
    st.check_invariants()
    st.keys[0], st.keys[1] = st.keys[1].copy(), st.keys[0].copy()  # unsort
    with pytest.raises(InvariantViolation):
        st.check_invariants()


def test_index_level_invariants_catch_storage_corruption(rng):
    ix = DyTIS(_config())
    keys = rng.sample(range(KEY_SPACE), 1000)
    ix.bulk_load(keys, keys)
    check_invariants(ix)
    # Break one segment's count metadata.
    table = next(t for t in ix._tables if t is not None)
    seg = next(table.unique_segments())
    store = seg.store
    b = next(i for i in range(store.n_buckets) if store.counts[i])
    store.counts[b] += 1
    with pytest.raises(InvariantViolation):
        check_invariants(ix)
