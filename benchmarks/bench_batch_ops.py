"""Batch-operation micro-benchmark: batch calls vs. the scalar loop.

``insert_many`` sorts each batch and caches per-segment routing state,
so larger batches amortise more directory/remap work per key: it
applies every segment group with one inline C-bisect splice loop that
reuses the group's routing, and builds what a scalar insert loop over
the sorted batch builds.  ``get_many`` answers a read-only phase from
its read snapshot and otherwise probes key by key, as ``get`` does.

16 and 32 are the sizes a 2-shard fleet epoch hands each worker; there
the batch calls take their NumPy-free list paths and must keep up with
the scalar loop (ARCHITECTURE §6).

Measured ceiling, worth stating up front: the *scalar* insert is
one Python frame around a C ``bisect`` plus an ``array`` slice copy,
and fresh-insert workloads spend roughly 40% of wall time in Algorithm
1 restructures that cost the same whether keys arrive one at a time or
batched (``core.structural_time_share`` on the ``embedded_ingest``
ledger workload: 0.41, and 0.39 once splits below L_start became
column cuts; the scalar splice around them got cheaper too).  Batching
therefore buys ~1.1-1.2x on 1,024- and 4,096-key write batches (routing
amortisation only; medians at 3,000 and 8,000 keys) -- the big batch
wins are on reads (get_many 2.5-3.7x at 1,024 keys) and on batched
index *builds* (see ``test_bulk_vs_batch_build``).  The asserts below
pin those measured levels so write-path regressions fail loudly.

The delete rows divide the scalar ``delete`` loop by ``delete_many``
(each key of a segment group takes that same splice, after a NumPy
sort: 0.61-0.91x at 16 keys, 1.12-1.45x at 1,024) and by
``delete_range`` over 64-key runs (one run cut per bucket: 7.1-15.9x),
over 10 runs each at 3,000 and 8,000 keys.  Their bars sit at half the
slowest of those runs or below; the batch-delete planner and
``scan_range`` victim lists they replaced read 0.28-0.39x, 0.42-0.76x
and 0.82-1.17x on the same runs.
"""

import os

import pytest

from repro.bench.experiments import batch_ops

BATCH_SIZES = (16, 32, 64, 256, 1024, 4096)

_BENCH_N = int(os.environ.get("REPRO_BENCH_N", "8000"))


def test_batch_ops(benchmark, bench_scale, record_table):
    rows = benchmark.pedantic(
        batch_ops.run,
        kwargs=dict(scale=bench_scale, batch_sizes=BATCH_SIZES),
        rounds=1,
        iterations=1,
    )
    record_table("batch_ops", batch_ops.format_table(rows))
    deletes = {
        (r.op, r.batch_size): r.speedup for r in rows if r.op.startswith("delete")
    }
    assert deletes["delete_many", 16] >= 0.3
    assert deletes["delete_many", 1024] >= 0.55
    assert deletes["delete_range", batch_ops.RANGE_KEYS] >= 3.5
    rows = [r for r in rows if not r.op.startswith("delete")]
    # Batching should never lose badly at any size (small sizes carry
    # sort/convert overhead; allow slack for timing noise at tiny scale).
    assert all(r.speedup > 0.5 for r in rows)
    at_1024 = {r.op: r for r in rows if r.batch_size == 1024}
    # CI smoke bar: the batched write path must not lose to the scalar
    # insert loop (pre-splice baseline was 0.33x here).  At tiny smoke
    # scales the cell doubles the index, so restructure cost --
    # identical either way -- dominates both sides; 0.7 keeps the
    # regression guard without chasing that noise.
    assert at_1024["insert_many"].speedup >= 0.7
    assert at_1024["get_many"].speedup >= 1.5
    # Fleet-epoch sizes: the list paths keep pace with the scalar loop
    # (the array paths they replaced ran at 0.5-0.8x there).
    for r in rows:
        if r.batch_size <= 32:
            assert r.speedup >= (0.8 if r.op == "get_many" else 0.7), r
    if _BENCH_N >= 8000:
        assert at_1024["get_many"].speedup >= 1.2
        assert at_1024["insert_many"].speedup >= 1.0


def test_bulk_vs_batch_build(benchmark, bench_scale, record_table):
    row = benchmark.pedantic(
        batch_ops.bulk_compare, kwargs=dict(scale=bench_scale),
        rounds=1, iterations=1,
    )
    record_table("bulk_vs_batch", batch_ops.format_bulk_compare([row]))
    assert row.batch_keys_per_s > 0
    if _BENCH_N >= 100_000:
        # Full-scale acceptance bar: batched online build within ~2x of
        # the offline bulk build.
        assert row.ratio <= 2.0
