"""DurableKVStore end-to-end behaviour on the real filesystem.

The crash matrix lives in ``test_wal_recovery.py``; this file covers
the API surface: close/reopen round-trips, checkpoints, custom codecs
handed back at recovery, metrics, and the read passthrough.
"""

import pytest

from repro.kvstore import StringCodec, UintCodec
from repro.wal import DurableKVStore, RecoveryError, WalMetrics
from repro.wal.checkpoint import checkpoint_lsns
from repro.wal.faultfs import OsFS, segment_files


def _reopen(path, **kw):
    return DurableKVStore(str(path), **kw)


def test_roundtrip_after_clean_close(tmp_path):
    with _reopen(tmp_path) as store:
        ns = store.namespace("users")
        for i in range(100):
            ns.insert(i, {"id": i})
        ns.delete(7)
        ns.delete_range(90, 200)
    with _reopen(tmp_path) as store:
        ns = store.namespace("users")
        assert len(ns) == 89
        assert ns.get(3) == {"id": 3}
        assert ns.get(7) is None
        assert 95 not in ns
        assert [k for k, _ in ns.scan(0, 5)] == [0, 1, 2, 3, 4]


def test_len_is_exact_across_recovery(tmp_path):
    """Two namespaces on one index, duplicates, overwrites and both
    kinds of delete: ``len`` agrees with a dict before and after WAL
    replay and after a checkpoint + replay."""
    oracle = {"a": {}, "b": {}}

    def check(store):
        for name, want in oracle.items():
            assert len(store.namespace(name)) == len(want)
        assert len(store) == sum(len(want) for want in oracle.values())

    with _reopen(tmp_path) as store:
        a, b = store.namespace("a"), store.namespace("b")
        a.insert_many([(k, k) for k in range(50)] + [(1, "dup"), (1, "dup2")])
        oracle["a"].update({k: k for k in range(50)})
        b.insert(1, "b1")
        b.insert(1, "b1 again")
        oracle["b"][1] = "b1 again"
        assert a.delete(2) and a.delete_range(40, 45) == 5
        for k in (2, 40, 41, 42, 43, 44):
            del oracle["a"][k]
        check(store)
    with _reopen(tmp_path) as store:
        check(store)
        store.checkpoint()
        store.namespace("b").insert_many([5, 6, 5], ["x", "y", "z"])
        oracle["b"].update({5: "z", 6: "y"})
        check(store)
    with _reopen(tmp_path) as store:
        check(store)


def test_insert_many_is_one_wal_record(tmp_path):
    """A whole batch costs one LSN (one columnar OP_BATCH2 record) and
    replays identically, updates included."""
    from repro.wal import OP_BATCH2

    with _reopen(tmp_path) as store:
        ns = store.namespace("t")
        before = store.last_lsn
        ns.insert_many([(i, i * 3) for i in range(500)] + [(0, "new")])
        assert store.last_lsn == before + 1
        ops = [r.op for r in store.wal.replay(before)]
        assert ops == [OP_BATCH2]
    with _reopen(tmp_path) as store:
        ns = store.namespace("t")
        assert len(ns) == 500
        assert ns.get(0) == "new"
        assert ns.get(499) == 499 * 3


def test_recovery_without_close_replays_synced_writes(tmp_path):
    store = _reopen(tmp_path, fsync="always")
    ns = store.namespace("t")
    ns.insert_many([(i, i) for i in range(50)])
    # No close: simulate an abrupt exit by dropping the handle.
    store2 = _reopen(tmp_path)
    assert len(store2.namespace("t")) == 50
    assert store2.last_lsn == store.last_lsn
    store2.close()
    store.close()


def test_checkpoint_truncates_and_recovery_uses_it(tmp_path):
    fs = OsFS()
    store = _reopen(tmp_path, segment_size=1 << 12)
    ns = store.namespace("t")
    for i in range(2000):
        ns.insert(i, i)
    assert len(segment_files(fs, str(tmp_path))) > 1
    lsn = store.checkpoint()
    assert checkpoint_lsns(fs, str(tmp_path)) == [lsn]
    assert len(segment_files(fs, str(tmp_path))) <= 2
    for i in range(2000, 2100):
        ns.insert(i, i)
    store.close()

    recovered = _reopen(tmp_path)
    assert len(recovered.namespace("t")) == 2100
    # Only the post-checkpoint tail replayed, not the whole history.
    assert recovered.metrics.records_replayed_total <= 101
    recovered.close()


def test_custom_codec_round_trip_via_codecs_arg(tmp_path):
    codec = StringCodec(max_length=6)
    with _reopen(tmp_path) as store:
        ns = store.namespace("words", codec)
        ns.insert("apple", 1)
        ns.insert("banana", 2)
    with _reopen(tmp_path, codecs={"words": codec}) as store:
        ns = store.namespace("words")
        assert ns.codec is codec
        assert ns.get("banana") == 2
        assert [k for k, _ in ns.items()] == ["apple", "banana"]


def test_namespace_creation_order_survives_recovery(tmp_path):
    with _reopen(tmp_path) as store:
        store.namespace("b").insert(1, "b1")
        store.namespace("a").insert(1, "a1")
    with _reopen(tmp_path) as store:
        assert store.namespaces() == ["b", "a"]  # id order preserved
        assert store.namespace("b").get(1) == "b1"
        assert store.namespace("a").get(1) == "a1"


def test_durable_lsn_tracks_policy(tmp_path):
    store = _reopen(tmp_path, fsync="never")
    ns = store.namespace("t")
    ns.insert(1, 1)
    assert store.last_lsn > store.durable_lsn
    store.flush()
    assert store.last_lsn == store.durable_lsn
    store.close()


def test_reads_pass_through(tmp_path):
    with _reopen(tmp_path) as store:
        ns = store.namespace("t", UintCodec(16))
        ns.insert_many([(i, i * 2) for i in range(10)])
        assert ns.get_many([1, 3, 99]) == [2, 6, None]
        assert ns.scan_range(2, 5) == [(2, 4), (3, 6), (4, 8)]
        assert ns.count_range(0, 10) == 10
        assert 4 in ns and 40 not in ns
        assert len(ns) == 10
        assert len(store) == 10
        assert ns.name == "t"
        assert store.index is store.kv.index


def test_shared_metrics_accumulate_across_reopens(tmp_path):
    metrics = WalMetrics()
    with _reopen(tmp_path, metrics=metrics) as store:
        store.namespace("t").insert(1, 1)
    appends_first = metrics.appends_total
    with _reopen(tmp_path, metrics=metrics) as store:
        store.namespace("t").insert(2, 2)
    assert metrics.replays_total == 2
    assert metrics.appends_total > appends_first


def test_recovery_fails_loudly_when_history_is_gone(tmp_path):
    store = _reopen(tmp_path, segment_size=1 << 10)
    ns = store.namespace("t")
    for i in range(500):
        ns.insert(i, i)
    store.close()
    # Destroy all durable state except the last segment: no checkpoint
    # covers the removed history, so recovery must refuse to guess.
    segs = segment_files(OsFS(), str(tmp_path))
    assert len(segs) > 2
    for name in segs[:-1]:
        (tmp_path / name).unlink()
    with pytest.raises(RecoveryError):
        _reopen(tmp_path)


def test_corrupt_checkpoint_falls_back_to_wal(tmp_path):
    store = _reopen(tmp_path)
    ns = store.namespace("t")
    for i in range(50):
        ns.insert(i, i)
    lsn = store.checkpoint()
    ns.insert(50, 50)
    store.close()
    ckpt_path = tmp_path / f"ckpt-{lsn:020d}.snap"
    ckpt_path.write_bytes(ckpt_path.read_bytes()[:-20] + b"corruptcorruptcorrup")
    # The WAL was truncated at the checkpoint, so the corrupt snapshot
    # is unrecoverable history -- and the error says so.
    with pytest.raises(RecoveryError, match="no checkpoint verified"):
        _reopen(tmp_path)


def test_close_is_idempotent_and_final(tmp_path):
    store = _reopen(tmp_path)
    store.namespace("t").insert(1, 1)
    store.close()
    store.close()
    with pytest.raises(ValueError):
        store.namespace("t").insert(2, 2)
