"""Microbenchmarks for the hot-path primitives.

Not a paper figure: these isolate the per-operation building blocks
(bucket search/insert, remap routing, planner, gapped-array ops, hash
mixing) so a performance regression can be pinned to one primitive
rather than rediscovered through Figure 8.
"""

import random
import statistics
import time

import numpy as np
import pytest

from repro.core import ColumnarStorage, DyTIS, PiecewiseRemap
from repro.core import dytis as dytis_module
from repro.core.dytis import _EHTable
from repro.core.segment import ROUTED_PROBE_BUCKETS, Segment, plan_remap
from repro.hashing import pseudo_key
from repro.learned import GappedArray, LinearModel


@pytest.fixture
def filled_bucket():
    b = ColumnarStorage(n_buckets=1, capacity=128)
    for k in range(0, 128 * 4, 8):  # half full
        b.insert(0, k, k)
    return b


def test_bucket_find(benchmark, filled_bucket):
    keys = [random.Random(0).randrange(0, 512) for _ in range(256)]

    def target():
        find = filled_bucket.probe_key
        for k in keys:
            find(k)

    benchmark(target)


def test_bucket_sorted_insert(benchmark):
    def target():
        b = ColumnarStorage(n_buckets=1, capacity=128)
        for k in random.Random(1).sample(range(10**6), 128):
            b.insert(0, k, k)
        return b

    benchmark(target)


def test_remap_bucket_of_scalar(benchmark):
    remap = PiecewiseRemap(20, [1, 4, 1, 2])
    keys = random.Random(2).sample(range(1 << 20), 512)

    def target():
        bucket_of = remap.bucket_of
        for k in keys:
            bucket_of(k)

    benchmark(target)


def test_remap_bucket_indices_vectorised(benchmark):
    remap = PiecewiseRemap(20, [1, 4, 1, 2])
    keys = np.random.default_rng(3).integers(0, 1 << 20, size=4096, dtype=np.uint64)
    benchmark(lambda: remap.bucket_indices(keys))


def test_plan_remap_planner(benchmark):
    seg = Segment(4, PiecewiseRemap(20, [8]), 64)
    rng = random.Random(4)
    keys = sorted(rng.sample(range(1 << 15), 400))  # clustered low
    for k in keys:
        seg.insert(k, k)

    run = seg.run()[0]

    def target():
        return plan_remap(seg, run, insert_key=keys[0] + 1, cap=64,
                          util_threshold=0.6, max_piece_bits=10)

    plan = benchmark(target)
    assert plan is not None


def test_segment_build(benchmark):
    remap = PiecewiseRemap(20, [16])
    keys = sorted(random.Random(5).sample(range(1 << 20), 512))

    def target():
        return Segment.build(4, remap, 64, keys, keys)

    benchmark(target)


def test_pseudo_key_mixing(benchmark):
    keys = random.Random(6).sample(range(2**62), 512)

    def target():
        for k in keys:
            pseudo_key(k)

    benchmark(target)


def test_gapped_array_insert(benchmark):
    keys = random.Random(7).sample(range(10**9), 256)

    def target():
        ga = GappedArray(512)
        for k in keys:
            ga.insert(k, k)
        return ga

    benchmark(target)


def test_linear_model_fit(benchmark):
    keys = sorted(random.Random(8).sample(range(2**40), 1024))
    benchmark(lambda: LinearModel.fit_cdf(keys, 2048))


@pytest.mark.parametrize("n_buckets", [1 << p for p in range(11)])
def test_probe_break_even(benchmark, monkeypatch, n_buckets):
    """``DyTIS.get``'s two probes on one segment of ``n_buckets``
    buckets: the whole-column ``bisect_right`` against the remap route
    plus a bisect of one bucket.  Each bucket holds 80 of its 128 slots
    (the ~75 keys a Zipfian get finds in its bucket on bulk-loaded RL)
    and every get hits.  Both probes run the real ``get``, switched by
    patching ``ROUTED_PROBE_BUCKETS``, in fifteen back-to-back pairs of
    4,096 gets whose order alternates; the ratio is the median of the
    pairs' ratios, which the host's speed swings cancel out of.  The
    printed rows (``-s``) are the break-even table of
    docs/ARCHITECTURE.md §6, which the constant is read from."""
    index = DyTIS()
    m, cap, fill = index._m, index.config.bucket_capacity, 80
    rng = random.Random(9)
    width = (1 << m) // n_buckets
    keys = sorted(
        k for b in range(n_buckets)
        for k in rng.sample(range(b * width, (b + 1) * width), fill)
    )
    seg = Segment.build(0, PiecewiseRemap(m, [n_buckets]), cap, keys, keys)
    index._tables[0] = _EHTable([seg])
    probes = [rng.choice(keys) for _ in range(4096)]
    get = index.get
    column_path, routed_path = n_buckets, 0  # thresholds forcing each

    def timed(threshold):
        monkeypatch.setattr(dytis_module, "ROUTED_PROBE_BUCKETS", threshold)
        t0 = time.perf_counter_ns()
        for k in probes:
            get(k)
        return (time.perf_counter_ns() - t0) / len(probes)

    column, routed = [], []
    sides = ((column, column_path), (routed, routed_path))
    for rep in range(15):
        for times, threshold in sides if rep % 2 else sides[::-1]:
            times.append(timed(threshold))
    ratio = statistics.median(r / c for r, c in zip(routed, column))
    rule = "routed" if n_buckets > ROUTED_PROBE_BUCKETS else "column"
    print(
        f"\nprobe break-even: {n_buckets:5d} buckets  column {min(column):6.0f}"
        f" ns  routed {min(routed):6.0f} ns  routed/column {ratio:.2f}"
        f"  rule: {rule}"
    )
    for threshold in (column_path, routed_path, ROUTED_PROBE_BUCKETS):
        monkeypatch.setattr(dytis_module, "ROUTED_PROBE_BUCKETS", threshold)
        assert [get(k) for k in probes] == probes
    benchmark(lambda: [get(k) for k in probes])


def _tx33(n):
    """The ``embedded_ingest`` keys: TX pickup times in arrival order,
    each with a seeded 33-bit trip suffix."""
    from repro import datasets

    low = np.uint64(33)
    times = datasets.generate("TX", n, seed=0)
    suffix = np.random.default_rng(11).integers(
        0, 1 << 33, size=n, dtype=np.uint64
    )
    return (((times >> low) << low) | suffix).tolist()


def test_append_cursor(benchmark):
    """``DyTIS.insert``'s append cursor on three streams of the same
    100,000 ``embedded_ingest`` keys: in arrival order (cursor hits),
    shuffled into an empty index (misses, with a cursor armed by the
    few keys that append) and shuffled updates after an in-order
    ingest (misses, with the ingest's last cursor armed).  Prints µs
    per insert (best of three fresh indexes) and the share of inserts
    the cursor served: an append that leaves the armed tuple in place,
    where a routed append arms a new one.  The figures of
    docs/ARCHITECTURE.md §6; the timings are printed (``-s``), not
    gated, and the in-order stream must be served > 90 %."""
    keys = _tx33(100_000)
    shuffled = keys[:]
    random.Random(4).shuffle(shuffled)

    def ingest(index, stream):
        insert = index.insert
        t0 = time.perf_counter_ns()
        for k in stream:
            insert(k, k)
        return (time.perf_counter_ns() - t0) / len(stream) / 1e3

    def hit_share(index, stream):
        hits = 0
        for k in stream:
            cur = index._cursor
            served = False
            if cur[0] <= k < cur[1]:
                _, _, counts, b, off, cap, karr = cur[:7]
                cnt = counts[b]
                served = 0 < cnt < cap and karr[off + cnt - 1] < k
            index.insert(k, k)
            hits += served and index._cursor is cur
        return hits / len(stream)

    def loaded():
        index = DyTIS()
        ingest(index, keys)
        return index

    rows = [
        ("in order", lambda: DyTIS(), keys),
        ("shuffled", lambda: DyTIS(), shuffled),
        ("updates", loaded, shuffled),
    ]
    print(f"\nappend cursor: {len(keys):,} embedded_ingest keys")
    for name, fresh, stream in rows:
        us = min(ingest(fresh(), stream) for _ in range(3))
        index = fresh()
        share = hit_share(index, stream)
        index.check_invariants()
        assert len(index) == len(set(keys))
        print(f"  {name:9s} {us:5.2f} µs/insert   cursor hits {share:6.1%}")
        if name == "in order":
            assert share > 0.9
    benchmark(lambda: ingest(DyTIS(), keys[:10_000]))


@pytest.mark.parametrize("dataset", ["MM", "RL", "TX"])
def test_get_many_rent_and_buy(benchmark, dataset):
    """The two sides of ``get_many``'s ski-rental rule on a bulk-loaded
    100,000-key index: what a key costs while the read snapshot is
    stale (the per-key probe, "rent") against what rebuilding the
    snapshot costs per indexed key ("buy").  Rent is timed on batches
    of 33 and 1,024 random hits, each batch just after an upsert (so
    the snapshot is stale, its key count starts over and the batch
    stays below ``len / 8``), beside a scalar ``get`` loop over the
    same batches; seven rounds alternate the order of the three, and
    each figure is the best round.  The rebuild is the best of five
    ``_build_fused`` calls.  Prints µs per key and the rent/buy ratio
    of each batch size: the table of docs/ARCHITECTURE.md §6 that the
    rebuild threshold (``_size >> 3``) is read from.  The timings are
    printed (``-s``), not gated; every batch must equal its scalar
    loop."""
    from repro import datasets

    keys = np.unique(datasets.generate(dataset, 100_000, seed=0)).tolist()
    index = DyTIS()
    index.bulk_load(keys, keys)
    n = len(index)
    anchor = keys[0]
    rng = random.Random(10)
    sizes = (33, 1024)
    batches = {
        size: [[rng.choice(keys) for _ in range(size)]
               for _ in range(8192 // size)]
        for size in sizes
    }
    assert max(sizes) < n >> 3

    def rented(batch):
        index.insert(anchor, anchor)  # stale snapshot, rent count reset
        t0 = time.perf_counter_ns()
        got = index.get_many(batch)
        dt = time.perf_counter_ns() - t0
        assert index._fused is None  # rented: nothing was rebuilt
        return dt, got

    def rent(size):
        total = 0
        for batch in batches[size]:
            dt, got = rented(batch)
            total += dt
            assert got == batch
        return total / (len(batches[size]) * size) / 1e3

    def scalar():
        get = index.get
        total = 0
        for batch in batches[1024]:
            t0 = time.perf_counter_ns()
            got = [get(k) for k in batch]
            total += time.perf_counter_ns() - t0
            assert got == batch
        return total / (len(batches[1024]) * 1024) / 1e3

    sides = [lambda: rent(33), lambda: rent(1024), scalar]
    times = [[], [], []]
    for rep in range(7):
        for i in range(3) if rep % 2 else range(2, -1, -1):
            times[i].append(sides[i]())
    rent33, rent1024, loop = (min(t) for t in times)

    def rebuild():
        t0 = time.perf_counter_ns()
        index._build_fused()
        return (time.perf_counter_ns() - t0) / n / 1e3

    buy = min(rebuild() for _ in range(5))
    assert index.get_many(keys) == keys  # the snapshot answers alike
    print(
        f"\nrent/buy {dataset} {n:,} keys: rent 33 {rent33:.3f}"
        f"  rent 1024 {rent1024:.3f}  get loop {loop:.3f} µs/key"
        f"  rebuild {buy:.4f} µs/indexed key"
        f"  ratio {rent33 / buy:.0f} / {rent1024 / buy:.0f}"
    )
    benchmark(lambda: rented(batches[1024][0]))
