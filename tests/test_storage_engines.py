"""Differential tests for the segment storage layout.

A lockstep fuzz drives the index and a shadow dict through >= 10k mixed
operations across the whole DyTIS API and compares every result (the
removed list-of-buckets engine used to be a third party to it; same
seeds, same op counts); unit tests pin down the columnar layout's
sentinel-padding slack policy, its search paths (including the 2^64-1
sentinel-as-real-key edge), the read-only fused column's rebuild rule,
the one scan path's independence from writes and from
tracing, the retired engine switches, and the invariant checker's
failure modes.
"""

import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    ColumnarStorage,
    DyTIS,
    DyTISConfig,
    InvariantViolation,
    MaintenanceController,
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
# Fused read column: a read-only snapshot, rebuilt only by read-only phases
# ---------------------------------------------------------------------------


def _rebuilds(ix):
    return ix.obs.events.counts["fused_rebuild"]


def test_get_many_between_writes_never_rebuilds(rng):
    """Small ``get_many`` batches with a write before each (YCSB-A
    shaped) read the live segments: every answer matches a dict, and
    no batch rebuilds the snapshot, whichever writer ran."""
    obs = Observability(enabled=True)
    ix = DyTIS(_config(), obs=obs)
    keys = rng.sample(range(KEY_SPACE), 4000)
    ix.bulk_load(keys, keys)
    shadow = dict(zip(keys, keys))
    assert ix.get_many(keys) == keys  # a read-only phase: one snapshot
    assert _rebuilds(ix) == 1
    for step in range(60):
        kind = step % 4
        if kind == 0:
            k = rng.choice(keys)
            ix.insert(k, -k)
            shadow[k] = -k
        elif kind == 1:
            batch = rng.sample(range(KEY_SPACE), 20)
            ix.insert_many(batch, batch)
            shadow.update(zip(batch, batch))
        elif kind == 2:
            k = rng.choice(keys)
            assert ix.delete(k) == (shadow.pop(k, None) is not None)
        else:
            batch = rng.sample(keys, 5)
            ix.delete_many(batch)
            for k in batch:
                shadow.pop(k, None)
        probe = rng.sample(keys, 64) + rng.sample(range(KEY_SPACE), 8)
        assert ix.get_many(probe) == [shadow.get(k) for k in probe], step
    assert _rebuilds(ix) == 1
    check_invariants(ix)


def test_read_only_phase_after_writes_rebuilds_once(rng):
    """After a write, ``get_many`` routes until the keys read reach
    ``len // 8``, then takes exactly one snapshot that serves the rest
    of the read-only phase."""
    obs = Observability(enabled=True)
    ix = DyTIS(_config(), obs=obs)
    keys = rng.sample(range(KEY_SPACE), 4000)
    ix.bulk_load(keys, keys)
    ix.insert(keys[0], -1)
    expect = {k: k for k in keys}
    expect[keys[0]] = -1
    threshold = len(ix) // 8
    read = 0
    for _ in range(40):
        probe = rng.sample(keys, 64)
        assert ix.get_many(probe) == [expect[k] for k in probe]
        read += len(probe)
        assert _rebuilds(ix) == (0 if read < threshold else 1), read
    assert ix._fused.gen == ix._gen


def test_fused_cache_consistency_across_mutations():
    """Every writer -- ``insert``, ``insert_many``, ``delete``,
    ``delete_range`` and a maintenance step, the one writer outside
    ``dytis.py`` -- makes the snapshot stale: afterwards a small batch
    is routed and a full read rebuilds exactly once, both matching a
    dict in lockstep."""
    obs = Observability(enabled=True)
    ix = DyTIS(_config(), obs=obs)
    shadow = {}
    probe = list(range(20_000))  # every stored key and every gap

    def check():
        built = _rebuilds(ix)
        assert ix.get_many(probe[:16]) == [shadow.get(k) for k in probe[:16]]
        assert _rebuilds(ix) == built
        assert ix.get_many(probe) == [shadow.get(k) for k in probe]
        assert _rebuilds(ix) == built + 1

    keys = list(range(0, 20_000, 2))
    ix.insert_many(keys, keys)
    shadow.update(zip(keys, keys))
    check()
    ix.insert(4, -4)
    shadow[4] = -4
    check()
    ix.insert_many([5, 7, 8], ["five", "seven", "eight"])
    shadow.update({5: "five", 7: "seven", 8: "eight"})
    check()
    assert ix.delete(6)
    del shadow[6]
    check()
    assert ix.delete_range(100, 2000) == 950
    for k in range(100, 2000, 2):
        del shadow[k]
    check()
    # Fragment the rest so a maintenance step has a span to rebuild.
    for k in [k for k in shadow if k % 40]:
        assert ix.delete(k)
        del shadow[k]
    check()
    assert MaintenanceController(ix).step(), "fragmented index must rebuild"
    check()
    check_invariants(ix)


def test_dense_get_many_after_an_upsert_copies_nothing():
    """One upsert, then a 64-key ``get_many``, 50 times on 20,000 dense
    keys: answers match a dict and the loop never allocates a copy of
    the index (each read used to re-copy a ~2M-slot segment)."""
    ix = DyTIS()
    keys = list(range(0, 40_000, 2))
    ix.insert_many(keys, keys)
    shadow = dict(zip(keys, keys))
    rng = random.Random(26)
    tracemalloc.start()
    try:
        for i in range(50):
            k = rng.choice(keys)
            ix.insert(k, -i)
            shadow[k] = -i
            probe = rng.sample(keys, 60) + [1, 3, 39_999, 40_000]
            assert ix.get_many(probe) == [shadow.get(p) for p in probe], i
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# One scan path: the segment walk, writes beside it or not, traced or not
# ---------------------------------------------------------------------------


def test_scans_beside_writes_never_touch_the_fused_column(rng):
    """Scan cost is write-independent: 200 alternating inserts, scans
    and range scans emit no fused rebuild (the walk reads the live
    segments) and match a ``searchsorted`` oracle throughout, traced
    or not."""
    obs = Observability(enabled=True)
    ix, plain = DyTIS(_config(), obs=obs), DyTIS(_config())
    keys = rng.sample(range(KEY_SPACE), 3000)
    ix.bulk_load(keys, keys)
    plain.bulk_load(keys, keys)
    ix.get_many(keys[:500])  # a warm fused column must not tempt a scan
    assert _rebuilds(ix) == 1
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
    assert _rebuilds(ix) == 1
    assert ix.delete_range(0, KEY_SPACE) == oracle.size
    assert plain.delete_range(0, KEY_SPACE) == oracle.size
    assert _rebuilds(ix) == 1
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
