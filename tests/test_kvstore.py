"""Tests for the embedded KV store and key codecs (repro.kvstore)."""

import threading

import pytest

from repro.api import BatchOpsMixin, RangeOpsMixin
from repro.core import DyTISConfig
from repro.kvstore import (
    CodecError,
    CompositeCodec,
    KVStore,
    StringCodec,
    UintCodec,
)

CFG = DyTISConfig(key_bits=40, first_level_bits=2, bucket_capacity=8, l_start=1)


class TestUintCodec:
    def test_identity(self):
        c = UintCodec(16)
        assert c.encode(1234) == 1234
        assert c.decode(1234) == 1234

    def test_range_checks(self):
        c = UintCodec(8)
        with pytest.raises(CodecError):
            c.encode(256)
        with pytest.raises(CodecError):
            c.encode(-1)
        with pytest.raises(CodecError):
            c.encode("5")
        with pytest.raises(CodecError):
            c.encode(True)

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            UintCodec(0)
        with pytest.raises(ValueError):
            UintCodec(65)


class TestStringCodec:
    def test_roundtrip(self):
        c = StringCodec(max_length=6)
        for s in ("", "a", "hello", "zzzzzz"):
            assert c.decode(c.encode(s)) == s

    def test_order_preserved(self):
        c = StringCodec(max_length=6)
        words = ["", "a", "ab", "abc", "b", "ba", "zz"]
        encoded = [c.encode(w) for w in words]
        assert encoded == sorted(encoded)

    def test_length_limit(self):
        c = StringCodec(max_length=4)
        with pytest.raises(CodecError):
            c.encode("toolong")

    def test_nul_reserved(self):
        with pytest.raises(CodecError):
            StringCodec().encode("a\x00b")

    def test_bytes_input(self):
        c = StringCodec(max_length=4)
        assert c.decode(c.encode(b"ok")) == "ok"


class TestCompositeCodec:
    def test_review_style_key(self):
        c = CompositeCodec(UintCodec(10), UintCodec(10), UintCodec(10))
        value = c.encode((3, 7, 11))
        assert c.decode(value) == (3, 7, 11)

    def test_lexicographic_order(self):
        c = CompositeCodec(UintCodec(8), UintCodec(8))
        tuples = [(0, 5), (1, 0), (1, 200), (2, 0)]
        encoded = [c.encode(t) for t in tuples]
        assert encoded == sorted(encoded)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            CompositeCodec(UintCodec(40), UintCodec(40))
        with pytest.raises(ValueError):
            CompositeCodec()

    def test_arity_check(self):
        c = CompositeCodec(UintCodec(8), UintCodec(8))
        with pytest.raises(CodecError):
            c.encode((1,))

    def test_mixed_string_and_int(self):
        c = CompositeCodec(StringCodec(max_length=3), UintCodec(16))
        v = c.encode(("abc", 99))
        assert c.decode(v) == ("abc", 99)


class TestKVStore:
    def test_basic_put_get_delete(self):
        store = KVStore(CFG)
        users = store.namespace("users")
        users.insert(5, {"name": "ada"})
        assert users.get(5) == {"name": "ada"}
        assert users.get(6, default="missing") == "missing"
        assert 5 in users and 6 not in users
        assert len(users) == 1
        assert users.delete(5)
        assert not users.delete(5)
        assert len(users) == 0

    def test_overwrite_does_not_double_count(self):
        store = KVStore(CFG)
        ns = store.namespace("n")
        ns.insert(1, "a")
        ns.insert(1, "b")
        assert len(ns) == 1
        assert ns.get(1) == "b"

    def test_namespaces_are_disjoint(self):
        store = KVStore(CFG)
        a = store.namespace("a")
        b = store.namespace("b")
        for k in range(100):
            a.insert(k, f"a{k}")
            b.insert(k, f"b{k}")
        assert a.get(7) == "a7"
        assert b.get(7) == "b7"
        assert len(store) == 200
        # Scans never leak across namespaces.
        assert all(v.startswith("a") for _, v in a.scan(0, 1000))
        assert [k for k, _ in a.items()] == list(range(100))

    def test_len_is_counted_from_the_index(self):
        """``len(namespace)`` is the live-key count of its span, exact
        through every kind of write and whoever made it."""
        store = KVStore(CFG)
        a, b = store.namespace("a"), store.namespace("b")
        oracle = {}
        for k in range(20):
            a.insert(k, k)
            oracle[k] = k
        a.insert(3, "again")
        a.insert_many([(5, "x"), (40, 1), (40, 2), (41, 3)])
        oracle.update({5: "x", 40: 2, 41: 3})
        assert len(a) == len(oracle) == 22
        assert a.delete(0) and not a.delete(0)
        assert a.delete_range(10, 15) == 5
        assert len(a) == 16 and len(b) == 0
        b.insert_many(list(range(7)), list(range(7)))
        assert (len(a), len(b), len(store)) == (16, 7, 23)
        # A write that bypasses the view (WAL replay, snapshot load,
        # another process's view of a shared index) is counted too.
        store.index.insert(a._encode(1000), "direct")
        assert len(a) == 17

    def test_namespace_reopen_same_object(self):
        store = KVStore(CFG)
        a1 = store.namespace("a")
        a2 = store.namespace("a")
        assert a1 is a2
        with pytest.raises(ValueError):
            store.namespace("a", codec=UintCodec(8))

    def test_string_keyed_namespace_scans_in_order(self):
        store = KVStore(CFG)
        words = store.namespace("words", codec=StringCodec(max_length=4))
        for w in ("pear", "fig", "apex", "plum", "kiwi"):
            words.insert(w, w.upper())
        got = words.scan("f", 10)
        assert [k for k, _ in got] == ["fig", "kiwi", "pear", "plum"]
        assert words.get("fig") == "FIG"

    def test_composite_keyed_namespace(self):
        store = KVStore(CFG)
        codec = CompositeCodec(UintCodec(12), UintCodec(12))
        reviews = store.namespace("reviews", codec=codec)
        for item in (3, 5):
            for user in range(4):
                reviews.insert((item, user), item * 100 + user)
        # Prefix scan: everything for item 3 comes out before item 5.
        got = reviews.scan((3, 0), 4)
        assert [k for k, _ in got] == [(3, 0), (3, 1), (3, 2), (3, 3)]

    def test_codec_too_wide_rejected(self):
        store = KVStore(CFG)  # 40-bit keys, 32-bit payload
        with pytest.raises(ValueError):
            store.namespace("wide", codec=UintCodec(40))

    def test_thread_safe_store(self):
        store = KVStore(CFG, thread_safe=True)
        ns = store.namespace("shared")
        errors = []

        def worker(base):
            try:
                for i in range(1500):
                    ns.insert(base + i, i)
                    assert ns.get(base + i) == i
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t * 10_000,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == 6000
        store.index.check_invariants()

    def test_custom_index_injection(self):
        from repro.btree import BPlusTree

        class BTreeFacade:
            def __init__(self):
                self._t = BPlusTree(fanout=16)

            def insert(self, k, v):
                self._t.insert(k, v)

            def get(self, k):
                return self._t.get(k)

            def delete(self, k):
                return self._t.delete(k)

            def scan(self, k, n):
                return self._t.scan(k, n)

            def __contains__(self, k):
                return k in self._t

            def __len__(self):
                return len(self._t)

        # The store checks the batch contract once, at construction.
        with pytest.raises(TypeError, match="BatchOpsProtocol"):
            KVStore(index=BTreeFacade())

        # The two repro.api mixins bring the five core methods up to it.
        class MixedFacade(BatchOpsMixin, RangeOpsMixin, BTreeFacade):
            def items(self):
                return iter(self.scan_range(0, 1 << 64))

            def bulk_load(self, keys, values):
                self.insert_many(keys, values)

        store = KVStore(index=MixedFacade())
        ns = store.namespace("n")
        ns.insert(1, "x")
        assert ns.get(1) == "x"
        ns.insert(1, "y")
        store.namespace("m").insert(1, "other")
        ns.insert_many([2, 3, 4, 5], ["b", "c", "d", "e"])
        assert ns.get_many([1, 3, 9]) == ["y", "c", None]
        assert len(ns) == 5
        assert [k for k, _ in ns.items()] == [1, 2, 3, 4, 5]
        assert ns.scan(2, 2) == [(2, "b"), (3, "c")]
        assert ns.scan_range(2, 4) == [(2, "b"), (3, "c")]
        assert ns.count_range(2, 5) == 3
        assert 4 in ns and ns.delete(4) and 4 not in ns
        assert ns.delete_range(2, 4) == 2
        assert [k for k, _ in ns.items()] == [1, 5]
        assert store.namespace("m").get(1) == "other"


class TestNamespaceProtocolAPI:
    """The protocol-era Namespace surface: insert, batches, range ops."""

    def test_put_alias_is_gone(self):
        ns = KVStore(config=CFG).namespace("n")
        assert not hasattr(ns, "put")
        ns.insert(1, "a")
        ns.insert(1, "b")  # insert is the upsert
        assert ns.get(1) == "b"
        assert len(ns) == 1

    def test_get_many_insert_many(self):
        store = KVStore(config=CFG)
        ns = store.namespace("n")
        ns.insert_many([(k, k * 2) for k in range(10)])
        assert len(ns) == 10
        assert ns.get_many([3, 99, 7]) == [6, None, 14]
        # Re-inserting existing keys (plus one duplicate new key twice)
        # must not inflate the counter.
        ns.insert_many([(3, 30), (100, 1), (100, 2)])
        assert len(ns) == 11
        assert ns.get(3) == 30
        assert ns.get(100) == 2

    def test_scan_range_and_count_range(self):
        store = KVStore(config=CFG)
        a = store.namespace("a")
        b = store.namespace("b")
        for k in range(0, 100, 2):
            a.insert(k, k)
            b.insert(k, -k)
        assert a.scan_range(10, 20) == [(k, k) for k in range(10, 20, 2)]
        assert a.count_range(10, 20) == 5
        assert a.count_range(20, 10) == 0
        assert a.scan_range(5, 5) == []
        # Namespaces stay disjoint even for spanning ranges.
        assert a.scan_range(90, 10**9) == [(k, k) for k in range(90, 100, 2)]
        assert b.count_range(0, 10**9) == 50

    def test_range_ops_on_string_codec(self):
        store = KVStore(config=CFG)
        words = store.namespace("w", codec=StringCodec(max_length=4))
        for w in ["ant", "bee", "cat", "dog", "eel"]:
            words.insert(w, w.upper())
        assert words.scan_range("bee", "dog") == [
            ("bee", "BEE"),
            ("cat", "CAT"),
        ]
        assert words.count_range("a", "z") == 5


class TestDeleteRange:
    def test_deletes_half_open_range(self):
        store = KVStore(config=CFG)
        ns = store.namespace("n")
        for i in range(20):
            ns.insert(i, i)
        assert ns.delete_range(5, 15) == 10
        assert len(ns) == 10
        assert sorted(k for k, _ in ns.items()) == list(range(5)) + list(
            range(15, 20)
        )
        assert 5 not in ns and 14 not in ns and 4 in ns and 15 in ns

    def test_empty_and_inverted_ranges(self):
        store = KVStore(config=CFG)
        ns = store.namespace("n")
        ns.insert(1, 1)
        assert ns.delete_range(5, 5) == 0
        assert ns.delete_range(9, 2) == 0
        assert len(ns) == 1

    def test_range_clipped_to_namespace(self):
        store = KVStore(config=CFG)
        a = store.namespace("a")
        b = store.namespace("b")
        for i in range(10):
            a.insert(i, "a")
            b.insert(i, "b")
        # An over-wide bound saturates at the namespace span: the
        # neighbour's records are untouchable.
        assert a.delete_range(0, 2**CFG.key_bits - 1) == 10
        assert len(a) == 0
        assert len(b) == 10

    def test_string_codec_range(self):
        store = KVStore(config=CFG)
        ns = store.namespace("words", codec=StringCodec(max_length=4))
        for word in ("ant", "bee", "cat", "dog", "eel"):
            ns.insert(word, word)
        assert ns.delete_range("bee", "dog") == 2  # bee, cat; dog excluded
        assert [k for k, _ in ns.items()] == ["ant", "dog", "eel"]
