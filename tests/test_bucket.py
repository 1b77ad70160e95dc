"""The sorted fixed-capacity bucket contract (paper §3.2).

A bucket used to be its own class (``repro.core.bucket.Bucket``, two
Python lists); it is now one slot span of a segment's
:class:`~repro.core.storage.ColumnarStorage`.  These cases pin the
contract the span keeps -- sorted insert, update in place, ``"full"``
only for new keys, delete, lookup misses -- on a one-bucket store, where
a bucket is all there is.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColumnarStorage


def _bucket(capacity):
    return ColumnarStorage(n_buckets=1, capacity=capacity)


def _get(bucket, key):
    found, value = bucket.probe_key(key)
    return value if found else None


class TestBucketBasics:
    def test_insert_sorted_order(self):
        b = _bucket(8)
        for k in [5, 1, 9, 3]:
            assert b.insert(0, k, k * 10) == "inserted"
        assert list(b.bucket_keys(0)) == [1, 3, 5, 9]
        assert b.values[0] == [10, 30, 50, 90]
        b.check_invariants()

    def test_update_in_place(self):
        b = _bucket(4)
        b.insert(0, 7, "a")
        assert b.insert(0, 7, "b") == "updated"
        assert b.bucket_len(0) == 1
        assert _get(b, 7) == "b"

    def test_full(self):
        b = _bucket(2)
        b.insert(0, 1, 1)
        b.insert(0, 2, 2)
        assert b.insert(0, 3, 3) == "full"
        assert b.insert(0, 1, "update-ok") == "updated"  # updates bypass full

    def test_get_missing(self):
        b = _bucket(4)
        b.insert(0, 5, 5)
        assert _get(b, 4) is None
        assert _get(b, 6) is None

    def test_delete(self):
        b = _bucket(4)
        for k in (1, 2, 3):
            b.insert(0, k, k)
        assert b.delete(0, 2)
        assert not b.delete(0, 2)
        assert list(b.bucket_keys(0)) == [1, 3]
        b.check_invariants()


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "get"]),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_bucket_matches_dict_model(ops):
    """Property: a bucket behaves like a size-capped sorted dict."""
    b = _bucket(16)
    model = {}
    for op, key in ops:
        if op == "insert":
            result = b.insert(0, key, key * 2)
            if key in model:
                assert result == "updated"
                model[key] = key * 2
            elif len(model) < 16:
                assert result == "inserted"
                model[key] = key * 2
            else:
                assert result == "full"
        elif op == "delete":
            assert b.delete(0, key) == (key in model)
            model.pop(key, None)
        else:
            assert _get(b, key) == model.get(key)
    b.check_invariants()
    assert list(b.bucket_keys(0)) == sorted(model)
