"""The list paths for the batch sizes a fleet epoch produces.

``DyTIS.get_many``/``insert_many``/``delete_many`` take a NumPy-free path for batches
of at most ``_SMALL_BATCH`` keys, and ``ShardRouter.partition`` routes
at most ``_SMALL_PARTITION`` keys one at a time.  Neither may change a
result, an error or a structure, so this suite pins

- both core paths against each other and against the scalar loop over
  batch sizes 0..40: values (duplicates, stored ``None`` vs missing,
  absent first-level tables), and the structure Algorithm 1 builds,
  with tiny buckets restructuring mid-batch;
- the key rule at the boundary: each bad key raises the same exception
  type on both paths, with the same sequential prefix applied (none
  for ``delete_many``, which refuses a batch before deleting);
- a fleet in lockstep with a dict over epochs straddling the router's
  cutoff;
- that the small paths make no NumPy call (a stand-in that raises), and
- that a reply which cannot pickle comes back as an error.
"""

import pickle
import random

import numpy as np
import pytest

import repro.core.dytis as dytis
from repro.core import DyTIS, DyTISConfig
from repro.shard import ShardedIndex
from repro.shard import routing
from repro.shard.routing import ShardRouter
from tests.test_structure_identity import _MEM, fingerprint

#: Tiny buckets: splits, remaps and expansions fire inside one batch.
TINY = DyTISConfig(key_bits=32, first_level_bits=2, bucket_capacity=4, l_start=1)
#: Sixteen first-level tables, most of them never materialised.
SPARSE = DyTISConfig(key_bits=32, first_level_bits=4, bucket_capacity=8, l_start=2)
SIZES = range(41)


def _layout(index):
    """Everything :func:`fingerprint` pins except ``memory_bytes``,
    which also counts a fused snapshot only the array path builds."""
    fp = fingerprint(index)
    return fp[:_MEM] + fp[_MEM + 1 :]


def _pool(rng, config):
    """Keys of a few first-level tables only, with a hot subset so
    batches repeat keys."""
    m = config.key_bits - config.first_level_bits
    tables = rng.sample(range(1 << config.first_level_bits), 3)
    return [(rng.choice(tables) << m) | rng.getrandbits(m) for _ in range(600)]


def _batches(rng, pool, hot):
    for n in SIZES:
        keys = [rng.choice(hot) if rng.random() < 0.3 else rng.choice(pool) for _ in range(n)]
        values = [None if rng.random() < 0.1 else (n, i) for i in range(n)]
        yield keys, values


def _read(rng, pool, config):
    """A stored key, a key of any table, or one near a table's start
    (most tables are never materialised)."""
    roll = rng.random()
    if roll < 0.6:
        return rng.choice(pool)
    if roll < 0.8:
        return rng.getrandbits(config.key_bits)
    table = rng.getrandbits(config.first_level_bits)
    return (table << (config.key_bits - config.first_level_bits)) + rng.getrandbits(8)


@pytest.mark.parametrize("config", [TINY, SPARSE], ids=["tiny", "sparse"])
def test_small_and_array_paths_agree_with_the_scalar_loop(config, monkeypatch):
    rng = random.Random(28)
    pool = _pool(rng, config)
    hot = pool[:8]
    small, array, scalar, oracle = DyTIS(config), DyTIS(config), DyTIS(config), {}
    for keys, values in _batches(rng, pool, hot):
        small.insert_many(keys, values)
        with monkeypatch.context() as m:
            m.setattr(dytis, "_SMALL_BATCH", -1)
            array.insert_many(keys, values)
        for k, v in zip(keys, values):
            scalar.insert(k, v)
        oracle.update(zip(keys, values))
        assert _layout(small) == _layout(array)
        reads = [_read(rng, pool, config) for _ in keys]
        # A write just happened: the array path routes or rebuilds, the
        # small path probes, and all of them answer like the dict.
        want = [oracle.get(k) for k in reads]
        assert small.get_many(reads) == want
        with monkeypatch.context() as m:
            m.setattr(dytis, "_SMALL_BATCH", -1)
            assert array.get_many(reads) == want
            assert array.get_many(tuple(reads)) == want
        assert small.get_many(tuple(reads)) == want
    for index in (small, array, scalar):
        index.check_invariants()
        assert dict(index.items()) == oracle
    if config is TINY:
        assert small.stats.structural_ops() > 0
    # Stored None is a value, not a miss.
    assert any(v is None for v in oracle.values())
    assert all(k in small for k, v in oracle.items() if v is None)


def test_duplicates_in_a_small_batch_last_wins():
    d = DyTIS(TINY)
    d.insert_many([7, 8, 7, 9, 7], ["a", "x", "b", None, "c"])
    assert len(d) == 3
    assert d.get_many([7, 8, 9, 10, 7]) == ["c", "x", None, None, "c"]
    assert 9 in d and 10 not in d


#: The keys the scalar rule refuses, by kind.
_BAD = {
    "float": 1.5,
    "numpy-float": np.float64(3.0),
    "negative": -1,
    "too-big": 2**32,
    "uint64-overflow": 2**64,
}


def _outcome(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)
    return None


@pytest.mark.parametrize("n", [1, 5, dytis._SMALL_BATCH, dytis._SMALL_BATCH + 3])
@pytest.mark.parametrize("kind", sorted(_BAD))
def test_a_bad_key_fails_the_same_way_on_both_paths(kind, n, monkeypatch):
    rng = random.Random(n)
    keys = rng.sample(range(1, 2**32), n)
    at = n // 2
    keys[at] = _BAD[kind]
    values = list(range(n))
    small, array, scalar = DyTIS(TINY), DyTIS(TINY), DyTIS(TINY)
    got_small = _outcome(lambda: small.insert_many(keys, values))
    read_small = _outcome(lambda: small.get_many(keys))
    with monkeypatch.context() as m:
        m.setattr(dytis, "_SMALL_BATCH", -1)
        got_array = _outcome(lambda: array.insert_many(keys, values))
        read_array = _outcome(lambda: array.get_many(keys))

    def loop():
        for k, v in zip(keys, values):
            scalar.insert(k, v)

    got_scalar = _outcome(loop)
    assert got_small is got_array is got_scalar is not None
    assert read_small is read_array is got_scalar
    # Sequential semantics: the pairs before the bad key are applied.
    want = dict(zip(keys[:at], values[:at]))
    for index in (small, array, scalar):
        assert dict(index.items()) == want


@pytest.mark.parametrize("n", [1, 5, dytis._SMALL_BATCH, dytis._SMALL_BATCH + 3])
@pytest.mark.parametrize("kind", sorted(_BAD))
def test_a_bad_key_in_delete_many_deletes_nothing(kind, n, monkeypatch):
    rng = random.Random(n)
    keys = rng.sample(range(1, 2**32), n)
    small, array = DyTIS(TINY), DyTIS(TINY)
    for index in (small, array):
        index.insert_many(keys, keys)
    want = dict(small.items())
    doomed = keys[:]
    doomed[n // 2] = _BAD[kind]
    got_small = _outcome(lambda: small.delete_many(doomed))
    with monkeypatch.context() as m:
        m.setattr(dytis, "_SMALL_BATCH", -1)
        got_array = _outcome(lambda: array.delete_many(doomed))
    got_scalar = _outcome(lambda: DyTIS(TINY).delete(_BAD[kind]))
    assert got_small is got_array is got_scalar is not None
    assert dict(small.items()) == dict(array.items()) == want


@pytest.mark.parametrize("config", [TINY, SPARSE], ids=["tiny", "sparse"])
def test_small_and_array_deletes_agree(config, monkeypatch):
    """Both ``delete_many`` paths delete the same keys and leave the
    same structure, merges included, for batches of 0..40 keys with
    duplicates and misses."""
    rng = random.Random(31)
    pool = _pool(rng, config)
    small, array = DyTIS(config), DyTIS(config)
    for index in (small, array):
        index.insert_many(pool, pool)
    live = set(pool)
    for n in SIZES:
        batch = [rng.choice(pool) for _ in range(n)]
        batch += [_read(rng, pool, config) for _ in range(n // 4)]
        want = len(live & set(batch))
        assert small.delete_many(batch) == want
        with monkeypatch.context() as m:
            m.setattr(dytis, "_SMALL_BATCH", -1)
            assert array.delete_many(batch) == want
        live -= set(batch)
        assert _layout(small) == _layout(array)
    for index in (small, array):
        index.check_invariants()
        assert sorted(k for k, _ in index.items()) == sorted(live)
    assert small.stats.merges


def test_integer_like_keys_pass_on_both_paths(monkeypatch):
    keys = [np.uint64(9), np.int64(3), True, 2**32 - 1, np.uint32(5)]
    plain = [9, 3, 1, 2**32 - 1, 5]
    small, array = DyTIS(TINY), DyTIS(TINY)
    small.insert_many(keys, plain)
    with monkeypatch.context() as m:
        m.setattr(dytis, "_SMALL_BATCH", -1)
        array.insert_many(keys, plain)
        assert array.get_many(keys) == plain
    assert small.get_many(keys) == plain
    assert list(small.items()) == list(array.items()) == sorted(zip(plain, plain))
    assert all(type(k) is int for k, _ in small.items())


# -- the router ------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["hash", "msb"])
def test_partition_is_route_array_below_and_above_the_cutoff(mode, monkeypatch):
    router = ShardRouter(4, mode=mode, skip_bits=8 if mode == "msb" else 0)
    rng = random.Random(5)
    for n in (0, 1, 2, routing._SMALL_PARTITION, routing._SMALL_PARTITION + 1, 300):
        keys = [rng.getrandbits(64) for _ in range(n)]
        got = router.partition(keys)
        with monkeypatch.context() as m:
            m.setattr(routing, "_SMALL_PARTITION", -1)
            assert router.partition(keys) == got
        shards = router.route_array(np.array(keys, dtype=np.uint64)).tolist()
        assert got == [
            (s, [i for i, t in enumerate(shards) if t == s])
            for s in range(4)
            if s in shards
        ]
        assert all(router.shard_of(keys[i]) == s for s, pos in got for i in pos)


def test_check_keys_holds_the_scalar_rule():
    router = ShardRouter(2, key_bits=32)
    assert router.check_keys([np.uint64(3), True, 7]) == [3, 1, 7]
    assert all(type(k) is int for k in router.check_keys([np.int64(4), False]))
    for bad, exc in ((1.5, TypeError), (np.float64(2.0), TypeError),
                     (-1, ValueError), (2**32, ValueError)):
        with pytest.raises(exc):
            router.check_keys([1, bad, 2])
        with pytest.raises(exc):
            router.shard_of(bad)


@pytest.fixture(scope="module", params=["hash", "msb"])
def fleet(request):
    with ShardedIndex(2, config=SPARSE, mode=request.param) as idx:
        yield idx


def test_fleet_epochs_straddling_the_cutoff_match_a_dict(fleet):
    fleet.delete_range(0, 2**32)
    rng = random.Random(6)
    pool = [rng.getrandbits(32) for _ in range(300)]
    oracle = {}
    cut = routing._SMALL_PARTITION
    for total in (0, 1, 2, 17, cut - 1, cut, cut + 1, 2 * cut + 7):
        n_reads = total // 2
        reads = [rng.choice(pool) for _ in range(n_reads)]
        keys = [rng.choice(pool) for _ in range(total - n_reads)]
        values = [rng.random() for _ in keys]
        assert fleet.read_write_many(reads, keys, values) == [
            oracle.get(k) for k in reads
        ]
        oracle.update(zip(keys, values))
    assert dict(fleet.items()) == oracle
    probe = pool[:40]
    assert fleet.get_many(probe) == [oracle.get(k) for k in probe]


# -- no NumPy below the cutoffs ---------------------------------------------------


class _NoArrayCalls:
    """Stands in for ``numpy`` inside ``repro.core.dytis``: the calls
    every array path starts with raise, everything else passes."""

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        if name in ("argsort", "fromiter", "asarray", "unique"):
            raise AssertionError(f"np.{name} on a small batch")
        return getattr(self._real, name)


def _no_route_array(self, keys):
    raise AssertionError("route_array on a small batch")


def test_small_batches_make_no_numpy_call(monkeypatch):
    monkeypatch.setattr(dytis, "np", _NoArrayCalls(np))
    monkeypatch.setattr(ShardRouter, "route_array", _no_route_array)
    rng = random.Random(7)
    d, oracle = DyTIS(TINY), {}
    for n in range(dytis._SMALL_BATCH + 1):
        keys = [rng.getrandbits(32) for _ in range(n)]
        d.insert_many(keys, keys)
        oracle.update(zip(keys, keys))
        assert d.get_many(keys) == keys
        assert d.get_many(tuple(keys)) == keys
    assert dict(d.items()) == oracle
    for n in range(dytis._SMALL_BATCH):
        keys = rng.sample(sorted(oracle), min(n, len(oracle))) + [1]  # a miss
        assert d.delete_many(keys) == sum(k in oracle for k in set(keys))
        for k in keys:
            oracle.pop(k, None)
    assert dict(d.items()) == oracle
    with pytest.raises(AssertionError, match="on a small batch"):
        d.get_many(list(range(dytis._SMALL_BATCH + 1)))  # the stand-in bites
    # Under the fork start method the workers inherit the stand-in.
    oracle = {}
    with ShardedIndex(2, config=SPARSE, mode="hash") as idx:
        for _ in range(20):
            reads = [rng.getrandbits(32) for _ in range(20)]
            keys = [rng.getrandbits(32) for _ in range(20)]
            want = [oracle.get(k) for k in reads]
            assert idx.read_write_many(reads, keys, keys) == want
            oracle.update(zip(keys, keys))
        assert idx.get_many(keys) == keys
        assert len(idx) == len(oracle)


# -- the pipe --------------------------------------------------------------------


class _OneWay:
    """Pickles on the way to a worker, refuses to pickle on the way
    back."""

    def __init__(self):
        self.arrived = False

    def __getstate__(self):
        if self.arrived:
            raise TypeError("cannot travel back")
        return {}

    def __setstate__(self, state):
        self.arrived = True


def test_a_reply_that_cannot_pickle_is_an_error_not_a_dead_worker():
    with ShardedIndex(2, config=SPARSE, mode="hash") as idx:
        idx.insert(5, _OneWay())
        with pytest.raises(TypeError, match="cannot travel back"):
            idx.get(5)
        with pytest.raises(TypeError, match="cannot travel back"):
            idx.get_many([5, 6])
        idx.insert(5, "plain")
        assert idx.get_many([5, 6]) == ["plain", None]
        assert all(p.is_alive() for p in idx._procs)


def test_a_request_that_cannot_pickle_sends_nothing():
    with ShardedIndex(2, config=SPARSE, mode="hash") as idx:
        # Shard 0's request comes first and pickles; shard 1's cannot.
        keys = [k for k in range(200) if idx.router.shard_of(k) == 0][:1]
        keys += [k for k in range(200) if idx.router.shard_of(k) == 1][:1]
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            idx.insert_many(keys, ["fine", lambda: None])
        # No reply was left queued on the shard whose request pickled.
        assert idx.get_many(keys) == [None, None]
        idx.insert_many(keys, ["a", "b"])
        assert idx.get_many(keys) == ["a", "b"]
