"""The scalar insert path against its definition, and its accounting.

``DyTIS.insert`` runs the bucket splice inline; ``ConcurrentDyTIS``
inserts through ``Segment.insert`` -> ``ColumnarStorage.insert``, the
definition the inlined body copies.  Driven single-threaded with the
same key stream, the two must build byte-identical segments: the same
key column (live keys *and* sentinel padding), value lists, counts and
piece counts.  Restructures (splits, remaps, expansions) run in both,
so the comparison covers the layouts they build as well.

``insert_many`` runs the same splice once more, inside its per-segment
group loop, and must build what a scalar ``insert`` loop over the
sorted, deduplicated batch builds.

Each copy of the splice writes a key past its bucket's maximum (an
*append*, what a time-advancing stream mostly does) without a bisect;
the ``TX33`` rows drive that branch at every site and count how often
it ran, and an edge-case stream walks the cases around it.

``DyTIS.insert`` also appends through its *cursor*, the bucket interval
the last append armed, without routing.  A cursor hit leaves the
cursor tuple as it was, where a routed append arms a new one, so the
rows count hits by the tuple's identity across each insert.
"""

import random

import numpy as np
import pytest

from repro import datasets
from repro.core import ConcurrentDyTIS, DyTIS, DyTISConfig
from repro.core.dytis import _NO_CURSOR

KEY_MAX = (1 << 64) - 1

CONFIGS = {
    "default": {},
    "scaled": {"first_level_bits": 4, "bucket_capacity": 16, "l_start": 2},
}


def _segments(index):
    for ti, table in enumerate(index._tables):
        if table is None:
            continue
        for seg in table.unique_segments():
            yield ti, seg


def _state(index):
    """Everything a segment stores, byte for byte."""
    return [
        (
            ti,
            seg.local_depth,
            list(seg.remap.allocs),
            seg.store._karr.tobytes(),
            [list(v) for v in seg.store.values],
            list(seg.store.counts),
            list(seg.piece_counts),
            seg.total_keys,
        )
        for ti, seg in _segments(index)
    ]


def _tx33(n):
    """The ``embedded_ingest`` keys: TX pickup times in arrival order,
    each with a seeded 33-bit trip suffix."""
    low = np.uint64(33)
    times = datasets.generate("TX", n, seed=0)
    suffix = np.random.default_rng(11).integers(
        0, 1 << 33, size=n, dtype=np.uint64
    )
    return (((times >> low) << low) | suffix).tolist()


def _bucket(index, key):
    """The live keys of the bucket ``key`` routes to in ``index``."""
    seg = index._segment(key)
    if seg is None:
        return []
    return seg.store.bucket_keys(seg.bucket_index_for(key))


def _is_append(index, key):
    """Whether inserting ``key`` appends: it exceeds its bucket's max."""
    bucket = _bucket(index, key)
    return len(bucket) > 0 and bucket[-1] < key


def _insert_counting_hits(index, key, value):
    """``index.insert(key, value)``; whether the append cursor served
    it: an append that left the armed cursor tuple in place (a routed
    append arms a new tuple)."""
    before = index._cursor
    append = before is not _NO_CURSOR and _is_append(index, key)
    index.insert(key, value)
    return append and index._cursor is before


#: The share of the first 50,000 ``TX33`` keys the cursor must serve.
#: The scaled config's 16-key buckets fill after a few appends each, and
#: the first append into a bucket re-arms the cursor.
_CURSOR_SHARE = {"default": 0.95, "scaled": 0.70}


def _restructures(index):
    s = index.stats
    return s.splits + s.remappings + s.expansions + s.doublings


def _batches(seed):
    """Key batches that exercise every branch of the splice.

    Random keys spread over the domain, ascending and descending
    clustered runs (a descending run makes every insert a new bucket
    minimum, which walks the padding before the bucket back), updates
    of keys already present, and both ends of the key domain.
    """
    rng = random.Random(seed)
    tx = datasets.generate("TX", 6_000, seed=seed).tolist()
    present = []
    yield [0, KEY_MAX, 1, KEY_MAX - 1]
    for r in range(12):
        batch = tx[r * 500 : (r + 1) * 500]
        base = rng.randrange(1 << 63)
        run = sorted(base + rng.randrange(1 << 44) for _ in range(300))
        batch += run if r % 2 else run[::-1]
        batch += [rng.randrange(1 << 64) for _ in range(200)]
        batch += rng.sample(present, min(len(present), 150))
        present.extend(batch)
        yield batch
    yield [0, KEY_MAX] + rng.sample(present, 200)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_inlined_insert_matches_the_store_insert_in_lockstep(config):
    cfg = DyTISConfig(**CONFIGS[config])
    inline = DyTIS(cfg)
    layered = ConcurrentDyTIS(cfg)
    shadow = {}
    for round_no, batch in enumerate(_batches(7)):
        for k in batch:
            v = (k, round_no)
            inline.insert(k, v)
            layered.insert(k, v)
            shadow[k] = v
        assert _state(inline) == _state(layered._d)
        assert len(inline) == len(layered) == len(shadow)
    inline.check_invariants()
    assert inline.stats.splits and inline.stats.doublings
    if config == "scaled":
        assert inline.stats.remappings and inline.stats.expansions
    for k, v in shadow.items():
        assert inline.get(k) == v


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_time_advancing_stream_appends_in_lockstep(config):
    """The ``embedded_ingest`` stream through ``DyTIS.insert`` and
    through ``ColumnarStorage.insert``: nearly every key lands past its
    bucket's maximum, so the append branch of both runs -- in
    ``DyTIS.insert`` mostly through the cursor -- and the two build the
    same segments byte for byte."""
    cfg = DyTISConfig(**CONFIGS[config])
    inline = DyTIS(cfg)
    layered = ConcurrentDyTIS(cfg)
    keys = _tx33(50_000)
    appends = hits = 0
    for n, k in enumerate(keys, 1):
        appends += _is_append(inline, k)
        hits += _insert_counting_hits(inline, k, n)
        layered.insert(k, n)
        if n % 10_000 == 0:
            assert _state(inline) == _state(layered._d)
    assert appends >= 0.95 * len(keys)
    assert hits >= _CURSOR_SHARE[config] * len(keys)
    assert len(inline) == len(layered) == len(set(keys))
    inline.check_invariants()
    layered._d.check_invariants()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_batches_that_mostly_hit_the_cursor_in_lockstep(config):
    """``TX33`` batches through ``DyTIS.insert`` (cursor) and
    ``ColumnarStorage.insert``, with keys that fall inside the armed
    cursor's interval but may not take it: an update of the bucket
    maximum, a key just below it, and a delete that may empty the
    bucket.  Both build the same segments byte for byte after every
    batch, and most inserts are cursor hits."""
    cfg = DyTISConfig(**CONFIGS[config])
    inline = DyTIS(cfg)
    layered = ConcurrentDyTIS(cfg)
    shadow = {}
    keys = _tx33(20_000)
    rng = random.Random(3)
    hits = writes = 0
    for start in range(0, len(keys), 2_000):
        for n, k in enumerate(keys[start : start + 2_000], start):
            ops = [(k, n)]
            if n % 25 == 0:
                ops.append((k, -n))  # an update equal to the maximum
            elif n % 25 == 7:
                ops.append((k - 1 - rng.randrange(64), -n))  # below it
            for key, value in ops:
                writes += 1
                hits += _insert_counting_hits(inline, key, value)
                layered.insert(key, value)
                shadow[key] = value
            if n % 25 == 13:
                assert inline.delete(k) and layered.delete(k)
                del shadow[k]
        assert _state(inline) == _state(layered._d)
        assert len(inline) == len(layered) == len(shadow)
    inline.check_invariants()
    assert hits >= (_CURSOR_SHARE[config] - 0.1) * writes
    for k, v in shadow.items():
        assert inline.get(k) == v


def test_the_cases_around_an_append_in_lockstep():
    """The cases on either side of the append branch -- the first key
    of an empty bucket, an append, an update equal to the bucket
    maximum, an insert just below it, an append into a full bucket and
    ``2^64 - 1`` written over MAX padding -- through ``DyTIS.insert``,
    ``ColumnarStorage.insert`` and one-key ``insert_many`` calls.  Each
    step is classified against its pre-insert bucket, and the three
    indexes must agree after every step."""
    cfg = DyTISConfig(**CONFIGS["scaled"])
    cap = cfg.bucket_capacity
    inline, layered, batched = DyTIS(cfg), ConcurrentDyTIS(cfg), DyTIS(cfg)

    def put(key, kind):
        bucket = _bucket(inline, key)
        if not len(bucket):
            seen = "empty"
        elif key == bucket[-1]:
            seen = "update"
        elif key < bucket[-1]:
            seen = "below"
        else:
            seen = "full" if len(bucket) == cap else "append"
        assert seen == kind, (key, seen, kind)
        before = _restructures(inline)
        value = (key, kind)
        inline.insert(key, value)
        layered.insert(key, value)
        batched.insert_many([key], [value])
        assert (_restructures(inline) > before) == (kind == "full")
        assert _state(inline) == _state(layered._d) == _state(batched)
        assert inline.get(key) == value

    # Keys far apart: a split separates them without directory
    # doublings down to single-key spans.
    step = 1 << 52
    put(5 * step, "empty")  # the index's first key
    put(6 * step, "append")
    put(6 * step, "update")  # equal to the bucket maximum
    put(6 * step - 1, "below")  # just below it
    key = 6 * step
    while len(_bucket(inline, key + step)) < cap:
        key += step
        put(key, "append")
    put(key + step, "full")  # an append into a full bucket restructures
    put(1 << 59, "empty")  # table 0's upper half, empty since the split
    put(KEY_MAX - 1, "empty")
    seg = inline._segment(KEY_MAX)
    b = seg.bucket_index_for(KEY_MAX)
    assert seg.store._karr[b * cap + seg.store.counts[b]] == KEY_MAX
    put(KEY_MAX, "append")  # written over the MAX padding it equals
    for index in (inline, layered._d, batched):
        index.check_invariants()
        assert len(index) == 20


def test_a_failed_remap_is_charged_to_remap_time():
    """``plan_remap`` may grow a layout to the cap before it gives up;
    that work is remapping time even though no segment is replaced."""
    index = DyTIS(DyTISConfig(**CONFIGS["scaled"]))
    attempt = index._remap
    failed = []

    def remap(table, seg, local):
        before = index.stats.remap_time
        ok = attempt(table, seg, local)
        if not ok:
            failed.append(index.stats.remap_time - before)
        return ok

    index._remap = remap
    for k in datasets.generate("TX", 30_000, seed=0).tolist():
        index.insert(k, k)
    assert index.stats.remap_failures == len(failed) > 0
    assert all(dt > 0 for dt in failed)


def _insert_many_inputs(name):
    """``(preloaded keys, [batch, ...])`` for the batch-equivalence test."""
    if name == "RL-shifted":
        # A durable store's setup: 56-bit keys, one call into an empty index.
        keys = (datasets.generate("RL", 40_000, seed=0) >> 8).tolist()
        return [], [keys]
    if name == "MM-into-bulk":
        keys = datasets.generate("MM", 40_000, seed=0).tolist()
        half = keys[: len(keys) // 2]
        rest = keys[len(keys) // 2 :]
        return half, [rest[i : i + 1024] for i in range(0, len(rest), 1024)]
    if name == "TX33":
        # A time-advancing stream in arrival order: its chunks ascend,
        # so the group loop mostly appends.
        keys = _tx33(50_000)
        return [], [keys[i : i + 1024] for i in range(0, len(keys), 1024)]
    return [], list(_batches(7))


@pytest.mark.parametrize(
    "inputs", ["RL-shifted", "MM-into-bulk", "TX33", "batches"]
)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_insert_many_builds_what_the_sorted_scalar_loop_builds(config, inputs):
    """``insert_many`` is a scalar ``insert`` loop over the sorted,
    deduplicated batch: Algorithm 1 sees each full bucket with every
    earlier key of the batch in place and no later one, so both build
    the same segments byte for byte.  The loop also counts the keys
    that append, which the ``TX33`` row needs to be nearly all."""
    cfg = DyTISConfig(**CONFIGS[config])
    preload, batches = _insert_many_inputs(inputs)
    batched, looped = DyTIS(cfg), DyTIS(cfg)
    if preload:
        batched.bulk_load(preload, preload)
        looped.bulk_load(preload, preload)
    appends = 0
    for round_no, batch in enumerate(batches):
        values = [(k, round_no) for k in batch]
        batched.insert_many(batch, values)
        last = dict(zip(batch, values))
        for k in sorted(last):
            appends += _is_append(looped, k)
            looped.insert(k, last[k])
        assert _state(batched) == _state(looped)
        assert len(batched) == len(looped)
    batched.check_invariants()
    if inputs == "TX33":
        assert appends >= 0.95 * len(batched)
