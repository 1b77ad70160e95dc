"""Tests for the concurrent DyTIS wrapper (repro.core.concurrent)."""

import random
import sys
import threading
import time

import pytest

from repro.core import ConcurrentDyTIS, DyTISConfig
from repro.core.concurrent import RWLock


class TestRWLock:
    def test_multiple_readers(self):
        lock = RWLock()
        acquired = []

        def reader():
            with lock.read():
                acquired.append(1)
                time.sleep(0.02)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Readers overlap: total well under 4 * 20ms.
        assert time.perf_counter() - t0 < 0.06
        assert len(acquired) == 4

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []

        def writer():
            with lock.write():
                order.append("w-in")
                time.sleep(0.03)
                order.append("w-out")

        def reader():
            time.sleep(0.01)  # let the writer in first
            with lock.read():
                order.append("r")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        tw.join()
        tr.join()
        assert order == ["w-in", "w-out", "r"]

    def test_writer_preference(self):
        lock = RWLock()
        lock.acquire_read()
        done = []

        def writer():
            with lock.write():
                done.append("w")

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.01)
        assert not done  # writer blocked by the reader
        lock.release_read()
        t.join()
        assert done == ["w"]


@pytest.fixture
def cindex():
    return ConcurrentDyTIS(
        DyTISConfig(key_bits=32, first_level_bits=4, bucket_capacity=8, l_start=2)
    )


class TestConcurrentOperations:
    def test_single_thread_semantics(self, cindex):
        cindex.insert(5, "a")
        assert cindex.get(5) == "a"
        assert 5 in cindex
        cindex.insert(5, "b")
        assert cindex.get(5) == "b"
        assert len(cindex) == 1
        assert cindex.delete(5)
        assert not cindex.delete(5)

    def test_numpy_scalar_keys_are_stored_as_ints(self, cindex):
        import numpy as np

        for k in np.arange(0, 700, 7, dtype=np.uint64):
            cindex.insert(k, int(k))
        cindex.check_invariants()
        assert cindex.get(np.uint64(35)) == 35
        assert cindex.delete(np.int64(42)) and not cindex.delete(42)
        got = cindex.scan(np.uint32(35), 3)
        assert got == [(35, 35), (49, 49), (56, 56)]
        assert all(type(k) is int for k, _ in cindex.items())

    def test_scan_single_thread(self, cindex):
        for k in range(100):
            cindex.insert(k * 7, k)
        got = cindex.scan(35, 5)
        assert [k for k, _ in got] == [35, 42, 49, 56, 63]

    def test_parallel_inserts_all_present(self, cindex, rng):
        keys = rng.sample(range(2**32), 8000)
        shards = [keys[i::4] for i in range(4)]
        errors = []

        def worker(shard):
            try:
                for k in shard:
                    cindex.insert(k, k + 1)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in shards]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cindex) == len(keys)
        cindex.check_invariants()
        for k in rng.sample(keys, 500):
            assert cindex.get(k) == k + 1

    def test_mixed_readers_and_writers(self, cindex, rng):
        base = rng.sample(range(2**32), 2000)
        for k in base:
            cindex.insert(k, k)
        extra = rng.sample(range(2**32), 2000)
        extra = [k for k in extra if k not in set(base)]
        errors = []

        def writer():
            try:
                for k in extra:
                    cindex.insert(k, k)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for k in base * 2:
                    v = cindex.get(k)
                    assert v == k
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def scanner():
            try:
                for k in base[:100]:
                    out = cindex.scan(k, 10)
                    got = [kk for kk, _ in out]
                    assert got == sorted(got)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
            threading.Thread(target=scanner),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cindex) == len(base) + len(extra)
        cindex.check_invariants()

    def test_parallel_deletes(self, cindex, rng):
        keys = rng.sample(range(2**32), 4000)
        for k in keys:
            cindex.insert(k, k)
        victims = keys[:2000]
        shards = [victims[i::4] for i in range(4)]
        results = []

        def worker(shard):
            ok = all(cindex.delete(k) for k in shard)
            results.append(ok)

        threads = [threading.Thread(target=worker, args=(s,)) for s in shards]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results)
        assert len(cindex) == len(keys) - len(victims)
        cindex.check_invariants()

    def test_parallel_deletes_in_two_tables_merge(self, cindex, rng):
        """Two threads thin two EH tables to a tenth of their keys: each
        delete that leaves its segment sparse runs the merge policy
        under its table's write lock, and the index ends equal to a
        dict with its invariants intact."""
        tables = (3, 9)  # key >> 28 with 32-bit keys and R = 4
        keys = {t: rng.sample(range(t << 28, (t + 1) << 28), 3000)
                for t in tables}
        shadow = {}
        for t in tables:
            for k in keys[t]:
                cindex.insert(k, -k)
                shadow[k] = -k
        errors = []

        def worker(victims):
            try:
                for k in victims:
                    assert cindex.delete(k)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        for t in tables:
            for k in keys[t][300:]:
                del shadow[k]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(keys[t][300:],))
                       for t in tables]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        cindex.check_invariants()
        assert len(cindex) == len(shadow)
        assert dict(cindex.items()) == shadow
        assert cindex.stats.merges  # the merge policy ran

    def test_scan_range_parity(self, cindex, rng):
        keys = rng.sample(range(2**32), 2000)
        for k in keys:
            cindex.insert(k, k)
        ref = sorted(keys)
        lo, hi = ref[200], ref[900]
        got = cindex.scan_range(lo, hi)
        assert [k for k, _ in got] == ref[200:900]
        assert cindex.scan_range(5, 5) == []

    def test_scan_range_under_concurrent_writes(self, cindex, rng):
        base = rng.sample(range(2**31), 3000)
        for k in base:
            cindex.insert(k, k)
        extra = [k + 2**31 for k in base]  # disjoint upper half
        errors = []

        def writer():
            try:
                for k in extra:
                    cindex.insert(k, k)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def scanner():
            try:
                for _ in range(40):
                    out = cindex.scan_range(0, 2**31)
                    keys_only = [k for k, _ in out]
                    assert keys_only == sorted(keys_only)
                    # The lower half is stable: always fully present.
                    assert len(out) == len(base)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        ts = [threading.Thread(target=writer), threading.Thread(target=scanner)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert not errors

    def test_stats_delegation(self, cindex):
        for k in range(2000):
            cindex.insert(k, k)
        assert cindex.stats.structural_ops() > 0
        assert cindex.config.bucket_capacity == 8


class TestBatchOperations:
    def test_bulk_load_then_concurrent_reads(self, cindex, rng):
        keys = rng.sample(range(2**32), 3000)
        cindex.bulk_load(keys, keys)
        cindex.check_invariants()
        assert len(cindex) == 3000
        errors = []

        def reader(sample):
            try:
                assert cindex.get_many(sample) == [k for k in sample]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        ts = [
            threading.Thread(target=reader, args=(rng.sample(keys, 500),))
            for _ in range(4)
        ]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert not errors

    def test_bulk_load_requires_empty(self, cindex):
        cindex.insert(1, "a")
        with pytest.raises(ValueError):
            cindex.bulk_load([2], ["b"])

    def test_insert_many_races_with_inserts(self, cindex, rng):
        chunks = [
            [(rng.randrange(2**32), i) for _ in range(300)]
            for i in range(4)
        ]
        errors = []

        def batch_writer(chunk):
            try:
                cindex.insert_many(chunk)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        ts = [
            threading.Thread(target=batch_writer, args=(c,)) for c in chunks
        ]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert not errors
        cindex.check_invariants()
        expect = {k for c in chunks for k, _ in c}
        assert len(cindex) == len(expect)


class TestDeleteRange:
    """``delete_range`` cuts each table's runs under its write lock and
    must leave what ``DyTIS.delete_range`` leaves, merges included,
    while readers scan the index."""

    CONFIG = DyTISConfig(
        key_bits=32, first_level_bits=4, bucket_capacity=8, l_start=2
    )

    def test_matches_dytis_with_scanners_running(self):
        from repro.core import DyTIS
        from tests.test_structure_identity import fingerprint

        rng = random.Random(5)
        keys = rng.sample(range(2**32), 6000)
        keep_low = 2**31  # the ranges below stay under it
        cindex, plain = ConcurrentDyTIS(self.CONFIG), DyTIS(self.CONFIG)
        for k in keys:
            cindex.insert(k, k)
            plain.insert(k, k)
        ranges = []
        for _ in range(40):
            lo = rng.randrange(keep_low)
            ranges.append((lo, min(keep_low, lo + rng.randrange(1, 2**26))))
        ranges.append((2**29, 2**30 + 12345))  # spans several tables
        kept = sorted(k for k in keys if k >= keep_low)
        stop = threading.Event()
        errors = []

        def scanner():
            try:
                while not stop.is_set():
                    got = [k for k, _ in cindex.scan_range(0, 2**32)]
                    assert got == sorted(set(got))
                    assert [k for k in got if k >= keep_low] == kept
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=scanner) for _ in range(2)]
        for t in readers:
            t.start()
        try:
            for lo, hi in ranges:
                assert cindex.delete_range(lo, hi) == plain.delete_range(lo, hi)
        finally:
            stop.set()
            for t in readers:
                t.join()
        assert not errors
        cindex.check_invariants()
        assert len(cindex) == len(plain)
        assert list(cindex.items()) == list(plain.items())
        assert fingerprint(cindex._d) == fingerprint(plain)
        assert plain.stats.merges  # the merge policy ran on both sides
