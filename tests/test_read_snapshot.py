"""The ``get_many`` read snapshot: live keys only, probed in chunks.

A read-only phase answers ``get_many`` from a snapshot of two arrays,
the live keys in global key order and their values, so its size follows
the keys, not the slots.  This suite pins

- its size: 16 bytes per live key, ``len(index)`` keys, and a
  whole-index read on dense keys that stays a few MB under
  ``tracemalloc`` (the padded column it replaced peaked near 100 MB);
- the accounting: ``memory_bytes()`` counts whatever snapshot is
  resident, and the next batch write or restructure drops a stale one;
- results in lockstep with a dict across write and read-only phases,
  with batch sizes straddling ``_PROBE_CHUNK``, duplicates, unsorted
  and absent keys, and the keys 0, 2^63 and 2^64-1 stored and absent;
- NumPy-array batches under the same rules as lists.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.core import DyTIS, DyTISConfig, check_invariants
from repro.core.dytis import _PROBE_CHUNK
from repro.obs import Observability

TOP = (1 << 64) - 1
EDGES = [0, 1 << 63, TOP]
#: Tiny buckets: Algorithm 1 restructures after a few inserts.
TINY = DyTISConfig(key_bits=32, first_level_bits=4, bucket_capacity=8, l_start=2)


def _segment_bytes(ix):
    return sum(
        seg.memory_bytes()
        for t in ix._tables
        if t is not None
        for seg in t.unique_segments()
    )


def _current(ix):
    return ix._fused is not None and ix._fused.gen == ix._gen


def test_dense_whole_index_read_stays_small():
    """20,000 keys ``range(0, 40000, 2)`` sit in ~2M slots; reading them
    all takes one snapshot of exactly those keys, and the call's traced
    peak stays under 8 MB."""
    obs = Observability(enabled=True)
    ix = DyTIS(obs=obs)
    keys = list(range(0, 40_000, 2))
    ix.insert_many(keys, keys)
    tracemalloc.start()
    try:
        got = ix.get_many(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == keys
    assert peak < 8 << 20, peak
    snap = ix._fused
    assert snap.keys.size == snap.vals.size == len(ix)
    assert snap.keys.tolist() == keys
    assert obs.events.keys_moved["fused_rebuild"] == len(ix)


def test_memory_bytes_counts_a_stale_snapshot_while_it_is_resident(rng):
    """One upsert makes the snapshot stale but leaves it referenced, so
    ``memory_bytes()`` must not drop it (the index keeps those bytes
    until the next ``get_many`` or batch write frees them)."""
    ix = DyTIS(TINY)
    keys = rng.sample(range(1 << 32), 3000)
    ix.bulk_load(keys, keys)
    ix.get_many(keys)
    resident = ix.memory_bytes()
    assert resident > _segment_bytes(ix)
    ix.insert(keys[0], -1)  # an upsert: no restructure, nothing dropped
    assert not _current(ix) and ix._fused is not None
    assert ix.memory_bytes() == resident
    ix.insert_many([keys[1]], [-1])
    assert ix._fused is None
    assert ix.memory_bytes() == _segment_bytes(ix)


def test_a_stale_snapshot_goes_at_the_next_batch_write_or_restructure(rng):
    """``memory_bytes()`` counts the snapshot at 16 bytes per key it
    holds; ``delete_many`` and Algorithm 1 drop a stale one."""
    ix = DyTIS(TINY)
    keys = rng.sample(range(1 << 32), 3000)
    ix.bulk_load(keys, keys)
    ix.get_many(keys)
    assert _current(ix)
    assert ix.memory_bytes() == _segment_bytes(ix) + 16 * len(ix)
    ix.delete(keys[2])  # stale now; the next batch write drops it
    assert ix._fused is not None
    ix.delete_many([])
    ix.delete_many([keys[3]])
    assert ix._fused is None

    ix.get_many(keys)
    structural = ix.stats.structural_ops()
    fresh = iter(rng.sample(range(1 << 32), 3000))
    while ix.stats.structural_ops() == structural:
        assert ix._fused is not None
        k = next(fresh)
        ix.insert(k, k)
    assert ix._fused is None  # Algorithm 1 ran: dropped
    check_invariants(ix)


def test_a_current_snapshot_survives_a_delete_many_that_deletes_nothing(rng):
    ix = DyTIS(TINY)
    keys = rng.sample(range(1 << 32), 2000)
    ix.bulk_load(keys, keys)
    ix.get_many(keys)
    snap = ix._fused
    absent = next(k for k in range(1 << 32) if k not in set(keys))
    assert ix.delete_many([absent]) == 0
    assert ix._fused is snap and _current(ix)


def test_bulk_load_drops_a_stale_snapshot(rng):
    ix = DyTIS(TINY)
    keys = rng.sample(range(1 << 32), 2000)
    ix.bulk_load(keys, keys)
    ix.get_many(keys)
    assert ix.delete_range(0, 1 << 32) == len(keys)
    ix.bulk_load(keys[:10], keys[:10])
    assert ix._fused is None
    assert ix.get_many(keys[:40]) == keys[:10] + [None] * 30


def _distinct(rng, n, limit):
    """``n`` distinct keys below ``limit`` (``random.sample`` cannot
    take a range this long)."""
    out = set()
    while len(out) < n:
        out.add(rng.randrange(limit))
    return sorted(out)


def _batch(rng, stored, size):
    """``size`` keys: stored ones (some repeated), absent ones and the
    edge keys, in no particular order."""
    out = [rng.choice(stored) for _ in range(size // 2)]
    out += [rng.randrange(1 << 64) for _ in range(size // 4)]
    out += [rng.choice(out) for _ in range(size - len(out) - len(EDGES))]
    out += EDGES
    rng.shuffle(out)
    return out


def test_lockstep_with_a_dict_across_chunk_boundaries():
    """Write phases (routed reads) and read-only phases (snapshot reads)
    alternate; every ``get_many`` matches a dict, including batches of
    chunk-1, chunk, chunk+1 and 3*chunk+7 keys and the edge keys while
    stored and while absent."""
    rng = random.Random(29)
    obs = Observability(enabled=True)
    ix = DyTIS(obs=obs)
    shadow = {}
    stored = _distinct(rng, 12_000, 1 << 64)
    ix.insert_many(stored, stored)
    shadow.update(zip(stored, stored))
    sizes = [_PROBE_CHUNK - 1, _PROBE_CHUNK, _PROBE_CHUNK + 1, 3 * _PROBE_CHUNK + 7]
    for phase in range(4):
        # Write phase: the edge keys go in on even phases, out on odd.
        if phase % 2 == 0:
            ix.insert_many(EDGES, [f"edge{phase}"] * 3)
            shadow.update(dict.fromkeys(EDGES, f"edge{phase}"))
        else:
            assert ix.delete_many(EDGES) == 3
            for k in EDGES:
                del shadow[k]
        for _ in range(5):
            k = rng.randrange(1 << 64)
            ix.insert(k, phase)
            shadow[k] = phase
            stored.append(k)
            probe = _batch(rng, stored, 300)
            assert ix.get_many(probe) == [shadow.get(k) for k in probe]
            assert not _current(ix)  # routed: too few keys to rebuild
        victims = rng.sample(stored, 50)
        ix.delete_many(victims)
        for k in victims:
            shadow.pop(k, None)
        # Read-only phase: one rebuild, then every batch from it.
        built = obs.events.counts["fused_rebuild"]
        for size in sizes:
            probe = _batch(rng, stored, size)
            assert ix.get_many(probe) == [shadow.get(k) for k in probe], size
            assert _current(ix)
        assert obs.events.counts["fused_rebuild"] == built + 1
        assert ix._fused.keys.size == len(ix) == len(shadow)
    check_invariants(ix)


def test_numpy_batches(rng):
    """Unsigned, signed and bool arrays read like lists, past the chunk
    too; malformed arrays raise as they do for the other batch ops."""
    ix = DyTIS()
    keys = _distinct(rng, 5000, 1 << 63) + EDGES
    ix.bulk_load(keys, [str(k) for k in keys])
    probe = [rng.choice(keys) for _ in range(_PROBE_CHUNK + 500)]
    probe += [rng.randrange(1 << 63) for _ in range(100)] + EDGES
    rng.shuffle(probe)
    want = [ix.get(k) for k in probe]
    assert ix.get_many(np.array(probe, dtype=np.uint64)) == want
    signed = [k for k in probe if k < 1 << 63]
    assert ix.get_many(np.array(signed, dtype=np.int64)) == [
        ix.get(k) for k in signed
    ]
    assert ix.get_many(np.array([True, False, True])) == [
        ix.get(1), ix.get(0), ix.get(1)
    ]
    assert ix.get_many(np.array([], dtype=np.uint64)) == []
    with pytest.raises(TypeError):
        ix.get_many(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ix.get_many(np.array([1, -2], dtype=np.int64))
    with pytest.raises(ValueError):
        ix.get_many(np.zeros((2, 2), dtype=np.uint64))

    # The rent phase: a write just before each batch leaves the
    # snapshot stale, and a batch below ``len / 8`` keys does not buy a
    # rebuild, so the per-key probe answers it.
    small = probe[: len(ix) // 8 - 1]
    assert len(small) > 32

    def rented(arr):
        ix.insert(keys[0], str(keys[0]))
        got = ix.get_many(arr)
        assert ix._fused is None  # stale, dropped and not rebuilt
        return got

    assert rented(np.array(small, dtype=np.uint64)) == [
        ix.get(k) for k in small
    ]
    signed = [k for k in small if k < 1 << 63]
    assert rented(np.array(signed, dtype=np.int64)) == [
        ix.get(k) for k in signed
    ]
    flags = [bool(k & 1) for k in small]
    assert rented(np.array(flags)) == [ix.get(int(f)) for f in flags]
    assert rented(np.array([True, False, True])) == [
        ix.get(1), ix.get(0), ix.get(1)
    ]
    for bad, exc in (
        (np.array([1.0, 2.0] * 40), TypeError),
        (np.array([1, -2] * 40, dtype=np.int64), ValueError),
        (np.zeros((40, 2), dtype=np.uint64), ValueError),
    ):
        ix.insert(keys[0], str(keys[0]))
        with pytest.raises(exc):
            ix.get_many(bad)
