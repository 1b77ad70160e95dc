"""Lockstep differential fuzzing for the multi-process ShardedIndex.

The same shadow-dict harness as ``test_differential.py``, pointed at a
process fleet: every operation runs against a ShardedIndex (2 and 4
shards, both routing modes) and a plain dict oracle, and any
divergence is a routing/merge/consistency bug.  The trace extends the
single-process one with the range operations whose scatter-gather
merges are the novel surface here -- ``scan_range``, ``count_range``
and ``delete_range`` spans wide enough to cross shard boundaries, plus
deterministic spans straddling *exact* boundaries so boundary handling
is exercised every run, not just when the RNG cooperates.
"""

import random

import pytest

from repro.core import DyTISConfig
from repro.shard import ShardedIndex

CFG = DyTISConfig(key_bits=32, first_level_bits=3, bucket_capacity=8, l_start=1)
#: Keys are drawn below 2^31 (as in test_differential.py), so the top
#: key bit is constant: MSB routing skips it to split on live bits.
KEY_SPACE = 2**31
MSB_SKIP_BITS = 1


def _trace(seed: int, n_ops: int):
    rng = random.Random(seed)
    hot = [rng.randrange(KEY_SPACE) for _ in range(64)]
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        key = rng.choice(hot) if rng.random() < 0.5 else rng.randrange(KEY_SPACE)
        if roll < 0.40:
            ops.append(("insert", key, rng.randrange(1000)))
        elif roll < 0.55:
            ops.append(("get", key, None))
        elif roll < 0.65:
            ops.append(("delete", key, None))
        elif roll < 0.75:
            ops.append(("scan", key, rng.randrange(1, 30)))
        else:
            # Range ops: spans up to half the key space, so most cross
            # at least one shard boundary at 2 or 4 shards.
            low = rng.randrange(KEY_SPACE)
            span = rng.randrange(1, KEY_SPACE // 2)
            high = min(low + span, KEY_SPACE)
            if roll < 0.85:
                ops.append(("scan_range", low, high))
            elif roll < 0.95:
                ops.append(("count_range", low, high))
            else:
                ops.append(("delete_range", low, high))
    return ops


def _boundary_ops(n_shards: int):
    """Deterministic range ops straddling every exact shard boundary
    of the MSB split (also meaningful under hash routing: they are
    simply wide ranges)."""
    width = KEY_SPACE // n_shards
    ops = []
    for b in range(1, n_shards):
        edge = b * width
        ops.append(("scan_range", edge - 1000, edge + 1000))
        ops.append(("count_range", edge - 5000, edge + 5000))
        ops.append(("delete_range", edge - 300, edge + 300))
        ops.append(("scan_range", edge - 300, edge + 300))
    return ops


def _run_trace(idx: ShardedIndex, oracle: dict, ops) -> None:
    for op, a, b in ops:
        if op == "insert":
            idx.insert(a, b)
            oracle[a] = b
        elif op == "get":
            assert idx.get(a) == oracle.get(a), a
        elif op == "delete":
            assert idx.delete(a) == (a in oracle), a
            oracle.pop(a, None)
        elif op == "scan":
            got = idx.scan(a, b)
            ref_keys = sorted(k for k in oracle if k >= a)[:b]
            assert [k for k, _ in got] == ref_keys, (a, b)
            assert [v for _, v in got] == [oracle[k] for k in ref_keys]
        elif op == "scan_range":
            got = idx.scan_range(a, b)
            ref_keys = sorted(k for k in oracle if a <= k < b)
            assert [k for k, _ in got] == ref_keys, (a, b)
            assert [v for _, v in got] == [oracle[k] for k in ref_keys]
        elif op == "count_range":
            ref = sum(1 for k in oracle if a <= k < b)
            assert idx.count_range(a, b) == ref, (a, b)
        elif op == "delete_range":
            ref = sum(1 for k in oracle if a <= k < b)
            assert idx.delete_range(a, b) == ref, (a, b)
            for k in [k for k in oracle if a <= k < b]:
                del oracle[k]
    assert len(idx) == len(oracle)


@pytest.mark.parametrize("n_shards", [2, 4])
@pytest.mark.parametrize(
    "mode,skip_bits", [("msb", MSB_SKIP_BITS), ("hash", 0)]
)
def test_sharded_matches_oracle(n_shards, mode, skip_bits):
    with ShardedIndex(
        n_shards, config=CFG, mode=mode, skip_bits=skip_bits
    ) as idx:
        base = sorted(random.Random(99).sample(range(KEY_SPACE), 512))
        idx.bulk_load(base, base)
        oracle = {k: k for k in base}
        _run_trace(idx, oracle, _trace(seed=n_shards, n_ops=600))
        _run_trace(idx, oracle, _boundary_ops(n_shards))


def test_reads_after_writes_on_a_bulk_loaded_fleet_stay_exact():
    """Dense keys bulk-loaded, an upsert, then a long read-only run:
    every scalar and batch read reflects the upsert.  The workers serve
    the reads from their own indexes, whose ``get_many`` switches from
    routed reads to a fresh snapshot part-way through the run."""
    with ShardedIndex(2, config=CFG, mode="hash") as idx:
        keys = list(range(2000))
        idx.bulk_load(keys, keys)
        oracle = dict(zip(keys, keys))
        assert idx.get(123) == 123
        idx.insert(123, -1)
        oracle[123] = -1
        assert idx.get(123) == -1
        for i in range(300):
            assert idx.get(123) == -1
            probe = keys[(7 * i) % 1900 :][:64] + [123, 5000]
            assert idx.get_many(probe) == [oracle.get(k) for k in probe], i
        assert 123 in idx and 5000 not in idx


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_agrees_with_single_process(n_shards):
    """ShardedIndex and a plain DyTIS answer one trace identically."""
    from repro.core import DyTIS

    solo = DyTIS(CFG)
    with ShardedIndex(n_shards, config=CFG, mode="hash") as idx:
        for op, a, b in _trace(seed=17, n_ops=500):
            if op == "insert":
                idx.insert(a, b)
                solo.insert(a, b)
            elif op == "get":
                assert idx.get(a) == solo.get(a), a
            elif op == "delete":
                assert idx.delete(a) == solo.delete(a), a
            elif op == "scan":
                assert idx.scan(a, b) == solo.scan(a, b), (a, b)
            elif op == "scan_range":
                assert idx.scan_range(a, b) == solo.scan_range(a, b), (a, b)
            elif op == "count_range":
                assert idx.count_range(a, b) == solo.count_range(a, b)
            elif op == "delete_range":
                assert idx.delete_range(a, b) == solo.delete_range(a, b)
        assert len(idx) == len(solo)
        assert list(idx.items()) == list(solo.items())
