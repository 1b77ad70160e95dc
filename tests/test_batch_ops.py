"""Vectorized batch operations: get_many / insert_many.

Batch calls sort their input and reuse per-segment routing state; these
tests pin down the contract that makes that safe: results positionally
aligned with the input, last-wins duplicate semantics, scalar fallback
when a group triggers structural changes, and sequential error
semantics on invalid keys.
"""

import random

import pytest

from repro.core import DyTIS, DyTISConfig
from tests.conftest import exported


@pytest.fixture(params=["columnar"])
def one_config(request):
    """The small test config, run once: ``DYTIS_STORAGE`` is dead, so
    the retired ``[lists]`` run repeated this one.  The parameter keeps
    the test id the suite is recorded under."""
    with exported(request.param):
        yield DyTISConfig(
            key_bits=32, first_level_bits=4, bucket_capacity=8, l_start=2
        )


@pytest.fixture
def loaded(one_config, rng):
    keys = rng.sample(range(2**32), 3000)
    d = DyTIS(one_config)
    for k in keys:
        d.insert(k, k * 2)
    return d, keys


class TestGetMany:
    def test_matches_scalar_gets(self, loaded, rng):
        d, keys = loaded
        batch = rng.sample(keys, 500) + [
            rng.randrange(2**32) for _ in range(500)
        ]
        rng.shuffle(batch)
        assert d.get_many(batch) == [d.get(k) for k in batch]

    def test_preserves_input_order_and_duplicates(self, loaded):
        d, keys = loaded
        batch = [keys[0], keys[1], keys[0], keys[0], keys[2]]
        out = d.get_many(batch)
        assert out == [k * 2 for k in batch]

    def test_empty_batch(self, loaded):
        d, _ = loaded
        assert d.get_many([]) == []

    def test_stored_none_vs_missing(self, one_config):
        d = DyTIS(one_config)
        d.insert(1, None)
        assert d.get_many([1, 2]) == [None, None]
        assert 1 in d and 2 not in d

    def test_empty_index_and_empty_tables(self, one_config, rng):
        d = DyTIS(one_config)
        assert d.get_many([1, 2**31]) == [None, None]
        d.insert(5, "v")  # only one first-level table materialised
        batch = [5] + [rng.randrange(2**32) for _ in range(100)]
        assert d.get_many(batch) == [d.get(k) for k in batch]

    def test_rejects_invalid_keys(self, loaded):
        d, keys = loaded
        with pytest.raises(ValueError):
            d.get_many([keys[0], 2**32])
        with pytest.raises(ValueError):
            d.get_many([-1])


class TestInsertMany:
    def test_matches_scalar_inserts(self, one_config, rng):
        keys = rng.sample(range(2**32), 4000)
        batch_ix, scalar_ix = DyTIS(one_config), DyTIS(one_config)
        for lo in range(0, len(keys), 512):
            chunk = keys[lo : lo + 512]
            batch_ix.insert_many([(k, k) for k in chunk])
            for k in chunk:
                scalar_ix.insert(k, k)
        batch_ix.check_invariants()
        assert list(batch_ix.items()) == list(scalar_ix.items())

    def test_duplicates_in_batch_last_wins(self, one_config):
        d = DyTIS(one_config)
        d.insert_many([(7, "a"), (8, "x"), (7, "b"), (7, "c")])
        assert len(d) == 2
        assert d.get(7) == "c"

    def test_updates_existing_keys(self, loaded):
        d, keys = loaded
        n = len(d)
        d.insert_many([(k, "new") for k in keys[:100]])
        assert len(d) == n
        assert d.get_many(keys[:100]) == ["new"] * 100

    def test_structural_fallback_tiny_buckets(self, rng):
        """Full buckets force the scalar Algorithm-1 path mid-batch."""
        config = DyTISConfig(
            key_bits=32, first_level_bits=2, bucket_capacity=4, l_start=1
        )
        keys = rng.sample(range(2**32), 2000)
        d = DyTIS(config)
        d.insert_many([(k, k) for k in keys])
        d.check_invariants()
        assert len(d) == 2000
        assert d.get_many(keys) == [k for k in keys]
        assert d.stats.structural_ops() > 0

    def test_empty_batch(self, one_config):
        d = DyTIS(one_config)
        d.insert_many([])
        assert len(d) == 0

    def test_invalid_key_falls_back_to_sequential_semantics(
        self, one_config
    ):
        d = DyTIS(one_config)
        with pytest.raises(ValueError):
            d.insert_many([(1, "a"), (2**32, "too big"), (3, "c")])
        # Sequential semantics: pairs before the bad key are applied.
        assert d.get(1) == "a"
        assert d.get(3) is None

    def test_interleaves_with_scalar_ops(self, one_config, rng):
        d, ref = DyTIS(one_config), {}
        for _ in range(20):
            chunk = [
                (rng.randrange(2**32), rng.random()) for _ in range(200)
            ]
            d.insert_many(chunk)
            ref.update(chunk)
            k, v = rng.randrange(2**32), "scalar"
            d.insert(k, v)
            ref[k] = v
        d.check_invariants()
        assert dict(d.items()) == ref


def test_batch_roundtrip_on_paper_dataset():
    from repro.datasets import taxi_like

    keys = [int(k) for k in taxi_like(5000, seed=3)]
    d = DyTIS()
    d.insert_many([(k, i) for i, k in enumerate(keys)])
    expect = {k: i for i, k in enumerate(keys)}
    probe = random.Random(3).sample(keys, 1000)
    assert d.get_many(probe) == [expect[k] for k in probe]
