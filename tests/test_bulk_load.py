"""Bottom-up bulk loading: observational equivalence with Algorithm 1.

``DyTIS.bulk_load`` must produce an index indistinguishable from one
built by sequential insert-or-update over the same pairs: identical
``items()``, identical point lookups (hits and misses), identical
scans and range counts -- and it must still satisfy every structural
invariant (directory alignment, sibling chains, piece counts).
"""

import random

import pytest

from repro.core import DyTIS, DyTISConfig
from repro.datasets import map_like, review_like, taxi_like


def _reference(pairs, config=None):
    ref = DyTIS(config)
    for k, v in pairs:
        ref.insert(k, v)
    return ref


def _assert_equivalent(bulk, ref, probe_keys):
    bulk.check_invariants()
    assert len(bulk) == len(ref)
    assert list(bulk.items()) == list(ref.items())
    for k in probe_keys:
        assert bulk.get(k) == ref.get(k)
        assert (k in bulk) == (k in ref)
    if len(ref):
        ordered = [k for k, _ in ref.items()]
        lo, hi = ordered[len(ordered) // 4], ordered[3 * len(ordered) // 4]
        assert bulk.scan(lo, 64) == ref.scan(lo, 64)
        assert bulk.scan_range(lo, hi) == ref.scan_range(lo, hi)
        assert bulk.count_range(lo, hi) == ref.count_range(lo, hi)


@pytest.mark.parametrize("n", [0, 1, 7, 500, 5000])
def test_bulk_load_random_keys(small_config, rng, n):
    keys = rng.sample(range(2**32), n)
    pairs = [(k, k * 3) for k in keys]
    bulk = DyTIS(small_config)
    bulk.bulk_load([k for k, _ in pairs], [v for _, v in pairs])
    probes = keys[:200] + [rng.randrange(2**32) for _ in range(200)]
    _assert_equivalent(bulk, _reference(pairs, small_config), probes)


@pytest.mark.parametrize(
    "dataset", [map_like, review_like, taxi_like], ids=lambda f: f.__name__
)
def test_bulk_load_paper_datasets(dataset):
    keys = [int(k) for k in dataset(4000, seed=7)]
    bulk = DyTIS()
    bulk.bulk_load(keys, keys)
    rng = random.Random(7)
    probes = rng.sample(keys, 200) + [
        rng.randrange(2**64) for _ in range(200)
    ]
    _assert_equivalent(bulk, _reference([(k, k) for k in keys]), probes)


def test_bulk_load_duplicate_keys_last_wins(small_config, rng):
    base = rng.sample(range(2**32), 1000)
    keys = base + [base[i] for i in range(0, 1000, 3)]
    values = list(range(len(keys)))
    bulk = DyTIS(small_config)
    bulk.bulk_load(keys, values)
    ref = _reference(zip(keys, values), small_config)
    assert len(bulk) == 1000
    _assert_equivalent(bulk, ref, base[:200])


def test_bulk_load_dense_sequential_keys(small_config):
    keys = list(range(3000))
    bulk = DyTIS(small_config)
    bulk.bulk_load(keys, keys)
    _assert_equivalent(
        bulk, _reference([(k, k) for k in keys], small_config), keys[:256]
    )


def test_bulk_load_stored_none_values(small_config):
    keys = [5, 10, 15]
    bulk = DyTIS(small_config)
    bulk.bulk_load(keys, [None, "x", None])
    assert bulk.get(5) is None
    assert 5 in bulk
    assert bulk[5] is None  # stored None reachable through __getitem__
    assert bulk[10] == "x"
    with pytest.raises(KeyError):
        bulk[6]


def test_bulk_load_requires_empty_index(small_config):
    d = DyTIS(small_config)
    d.insert(1, "a")
    with pytest.raises(ValueError):
        d.bulk_load([2, 3], ["b", "c"])
    assert d.get(1) == "a"


def test_bulk_load_rejects_bad_input(small_config):
    d = DyTIS(small_config)
    with pytest.raises(ValueError):
        d.bulk_load([1, 2], ["a"])  # length mismatch
    with pytest.raises(ValueError):
        d.bulk_load([2**small_config.key_bits], ["too big"])
    with pytest.raises(ValueError):
        d.bulk_load([-1], ["negative"])
    with pytest.raises(TypeError):  # the scalar rule: not an integer
        d.bulk_load(["k"], ["non-integer"])
    assert len(d) == 0  # failed loads leave the index empty


def test_bulk_load_supports_further_inserts(small_config, rng):
    keys = rng.sample(range(2**32), 2000)
    bulk = DyTIS(small_config)
    bulk.bulk_load(keys[:1000], keys[:1000])
    ref = _reference([(k, k) for k in keys[:1000]], small_config)
    for k in keys[1000:]:
        bulk.insert(k, -k)
        ref.insert(k, -k)
    for k in rng.sample(keys[:1000], 100):
        bulk.delete(k)
        ref.delete(k)
    _assert_equivalent(bulk, ref, keys[:300])


def test_bulk_load_boosted_tables_still_remap(rng):
    """Loaded segments keep headroom: inserts after load must not wedge."""
    config = DyTISConfig(
        key_bits=32, first_level_bits=2, bucket_capacity=8, l_start=2
    )
    keys = sorted(rng.sample(range(2**32), 3000))
    d = DyTIS(config)
    d.bulk_load(keys, keys)
    for k in rng.sample(range(2**32), 2000):
        d.insert(k, k)
    d.check_invariants()


def test_bulk_load_stats_counters(small_config):
    d = DyTIS(small_config)
    d.bulk_load([1, 2, 3], "abc")
    assert d.stats.bulk_loads == 1
    assert d.stats.keys_bulk_loaded == 3
    assert d.stats.bulk_load_time >= 0.0
