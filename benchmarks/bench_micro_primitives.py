"""Microbenchmarks for the hot-path primitives.

Not a paper figure: these isolate the per-operation building blocks
(bucket search/insert, remap routing, planner, gapped-array ops, hash
mixing) so a performance regression can be pinned to one primitive
rather than rediscovered through Figure 8.
"""

import random

import numpy as np
import pytest

from repro.core import ColumnarStorage, PiecewiseRemap
from repro.core.segment import Segment, plan_remap
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
