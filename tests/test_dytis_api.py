"""Tests for DyTIS's extended public API (scan_range, dict-style, bulk)."""

import numpy as np
import pytest

from repro.core import DyTIS


@pytest.fixture
def index(small_config, sample_keys):
    idx = DyTIS(small_config)
    idx.insert_many((k, k * 2) for k in sample_keys)
    return idx


class TestScanRange:
    def test_matches_sorted_slice(self, index, sample_keys):
        ref = sorted(sample_keys)
        lo, hi = ref[500], ref[700]
        got = index.scan_range(lo, hi)
        assert [k for k, _ in got] == ref[500:700]

    def test_half_open_semantics(self, index, sample_keys):
        ref = sorted(sample_keys)
        got = index.scan_range(ref[10], ref[11])
        assert [k for k, _ in got] == [ref[10]]

    def test_empty_and_inverted_ranges(self, index):
        assert index.scan_range(5, 5) == []
        assert index.scan_range(10, 5) == []

    def test_spans_eh_tables(self, small_config):
        idx = DyTIS(small_config)
        keys = [t << 28 for t in range(1, 9)]
        idx.insert_many((k, k) for k in keys)
        got = idx.scan_range(0, 1 << 32)
        assert [k for k, _ in got] == keys


class TestDictStyle:
    def test_getitem_setitem(self, index, sample_keys):
        k = sample_keys[0]
        assert index[k] == k * 2
        index[k] = "new"
        assert index[k] == "new"

    def test_getitem_missing_raises(self, index):
        missing = 1
        while missing in index:
            missing += 1
        with pytest.raises(KeyError):
            index[missing]

    def test_getitem_none_value(self, small_config):
        idx = DyTIS(small_config)
        idx[7] = None
        assert idx[7] is None  # stored None is distinguishable from missing

    def test_delitem(self, index, sample_keys):
        k = sample_keys[3]
        del index[k]
        assert k not in index
        with pytest.raises(KeyError):
            del index[k]

    def test_iteration_yields_sorted_keys(self, small_config):
        idx = DyTIS(small_config)
        for k in (9, 1, 5):
            idx[k] = k
        assert list(idx) == [1, 5, 9]
        assert list(idx.keys()) == [1, 5, 9]


class TestInsertMany:
    def test_bulk_and_single_agree(self, small_config, sample_keys):
        a = DyTIS(small_config)
        b = DyTIS(small_config)
        a.insert_many((k, k) for k in sample_keys)
        for k in sample_keys:
            b.insert(k, k)
        assert len(a) == len(b)
        assert list(a.items()) == list(b.items())


class TestScalarKeyTypes:
    """The scalar API takes anything with ``__index__`` and stores ``int``.

    Iterating a NumPy key array yields NumPy scalars; before the keys
    were normalised at the boundary one of them raised ``IndexError``
    half-way through a columnar insert (key slot written, value list
    not), after which ``get`` returned a neighbour's value and
    ``check_invariants`` still passed, and on the since-removed list
    engine the NumPy object itself was stored as the key.
    """

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.uint32])
    def test_numpy_scalars_match_dict_oracle(self, small_config, dtype):
        idx = DyTIS(small_config)
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 1 << 31, size=400).astype(dtype)
        oracle = {}
        for i, k in enumerate(keys):  # NumPy scalars, not ints
            idx.insert(k, i)
            oracle[int(k)] = i
            idx[k] = i  # __setitem__ is the same path
        idx.check_invariants()
        assert len(idx) == len(oracle)
        assert list(idx.items()) == sorted(oracle.items())
        assert all(type(k) is int for k in idx.keys())
        ref = sorted(oracle)
        lo, hi = dtype(ref[50]), dtype(ref[90])
        for k in keys[:50]:
            assert idx.get(k) == oracle[int(k)]
            assert k in idx and idx[k] == oracle[int(k)]
        assert [k for k, _ in idx.scan(lo, 5)] == ref[50:55]
        assert [k for k, _ in idx.scan_range(lo, hi)] == ref[50:90]
        assert idx.count_range(lo, hi) == 40
        assert idx.delete_range(lo, hi) == 40
        assert idx.delete(dtype(ref[0])) and not idx.delete(dtype(ref[0]))
        idx.check_invariants()
        assert [k for k, _ in idx.items()] == ref[1:50] + ref[90:]

    def test_issue_reproducer(self, small_config):
        idx = DyTIS(small_config)
        for k in (10, 20, 30):
            idx.insert(k, k)
        idx.insert(np.uint64(5), 1)
        idx.check_invariants()
        assert idx.get(20) == 20
        assert idx.scan(np.uint64(20), 2) == [(20, 20), (30, 30)]
        assert list(idx.items()) == [(5, 1), (10, 10), (20, 20), (30, 30)]

    def test_bool_is_zero_or_one_and_floats_are_rejected(self, small_config):
        idx = DyTIS(small_config)
        idx.insert(True, "one")  # bool is an int subclass: True == 1
        assert idx.get(1) == "one" and list(idx.keys()) == [1]
        assert type(next(iter(idx))) is int
        for call in (
            lambda: idx.insert(2.0, "x"),
            lambda: idx.get(1.0),
            lambda: idx.delete(np.float64(1.0)),
            lambda: idx.scan(1.5, 3),
            lambda: 1.0 in idx,
        ):
            with pytest.raises(TypeError):
                call()
        with pytest.raises(ValueError):
            idx.insert(np.int64(-1), "x")
        assert len(idx) == 1


class TestBatchKeyTypes:
    """The batch API holds the scalar rule for whole key columns.

    ``np.asarray(keys, dtype=np.uint64)`` truncates floats and wraps
    signed arrays; before the batch boundary got its own check,
    ``get_many([1.5])`` served key 1, ``delete_many([1.2])`` deleted it
    and ``delete_many(np.array([-1]))`` deleted key ``2**64 - 1``.
    """

    MAX = 2**64 - 1
    CONTENT = [(1, "one"), (2, "two"), (3, "three"), (4, "four"),
               (5, "five"), (MAX, "max")]

    def _index(self):
        idx = DyTIS()  # 64-bit keys: a wrapped -1 would land on MAX
        for k, v in self.CONTENT:
            idx.insert(k, v)
        return idx

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda d: d.get_many([1.5]), TypeError),
            (lambda d: d.get_many(np.array([5.9])), TypeError),
            (lambda d: d.get_many(np.array([-1])), ValueError),
            (lambda d: d.get_many([1, "2"]), TypeError),
            (lambda d: d.get_many([[1, 2]]), TypeError),
            (lambda d: d.get_many(np.array([[1, 2]])), ValueError),
            (lambda d: d.get_many([-1]), ValueError),
            (lambda d: d.get_many([2**64]), ValueError),
            (lambda d: d.insert_many([2.7], ["v"]), TypeError),
            (lambda d: d.insert_many([(np.float64(2.0), "v")]), TypeError),
            (lambda d: d.insert_many(np.array([-3]), ["v"]), ValueError),
            (lambda d: d.delete_many([1.2]), TypeError),
            (lambda d: d.delete_many(np.array([1.0, 2.0])), TypeError),
            (lambda d: d.delete_many(np.array([-1])), ValueError),
            (lambda d: d.delete_many(np.array([-1], dtype=np.int8)), ValueError),
        ],
    )
    def test_rejected_keys_leave_the_index_unchanged(self, call, error):
        idx = self._index()
        with pytest.raises(error):
            call(idx)
        assert list(idx.items()) == self.CONTENT
        idx.check_invariants()

    def test_bulk_load_rejects_what_insert_rejects(self):
        for keys, error in [
            ([3.9, 4.2], TypeError),
            (np.array([3.9, 4.2]), TypeError),
            (np.array([3, -4]), ValueError),
            ([3, 2**64], ValueError),
        ]:
            idx = DyTIS()
            with pytest.raises(error):
                idx.bulk_load(keys, ["a", "b"])
            assert len(idx) == 0 and list(idx.items()) == []

    def test_insert_many_applies_the_pairs_before_the_bad_key(self):
        idx = self._index()
        with pytest.raises(TypeError):
            idx.insert_many([7, 8.5, 9], ["seven", "x", "nine"])
        assert idx.get(7) == "seven" and idx.get(8) is None and idx.get(9) is None
        idx.check_invariants()

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([1, 5], dtype=np.int32),
            np.array([1, 5], dtype=np.uint64),
            np.array([1, 5], dtype=np.uint8),
            [np.int32(1), np.uint64(5)],
            (1, 5),
            iter([1, 5]),
        ],
    )
    def test_integer_columns_of_any_width_are_accepted(self, keys):
        idx = self._index()
        assert idx.get_many(keys) == ["one", "five"]

    def test_bool_keys_are_zero_and_one(self):
        idx = self._index()
        assert idx.get_many([True, False]) == ["one", None]
        assert idx.get_many(np.array([True, False])) == ["one", None]
        idx.insert_many(np.array([6, 7], dtype=np.int16), ["six", "seven"])
        idx.insert_many([False], ["zero"])
        assert idx.delete_many(np.array([True, False])) == 2
        assert idx.delete_many(np.array([self.MAX], dtype=np.uint64)) == 1
        assert [k for k, _ in idx.items()] == [2, 3, 4, 5, 6, 7]
        assert idx.get_many(np.array([])) == []  # empty: nothing to misread
        idx.check_invariants()
