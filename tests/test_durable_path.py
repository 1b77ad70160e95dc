"""The flat durable path: ``ns.insert`` -> segment file, ``ns.get``, checkpoint.

The scalar durable write is two frames deep (``DurableNamespace.
insert`` -> ``WriteAheadLog.append``, whose ``handle.append`` is the
buffered file's C ``write`` on the real disk) beside a one-frame index
insert, a scalar ``get`` is ``Namespace.get`` -> ``DyTIS.get`` (the
identity codec's key check is inline), and a checkpoint streams its
lines from ``scan_range``.  None of that may change a byte on disk, a
sync decision, a reply or a counter a reader sees, so the suite pins

- golden bytes: WAL segments and the checkpoint of a fixed script hash
  to constants recorded from the commit before the path was flattened,
- the fsync schedule against the replaced ``should_sync`` methods
  (kept here as the reference) under a fake clock,
- the work count, so a re-layering fails a test, not a benchmark,
- scalar ``get`` against a dict, including the
  padding-duplicate cases the inline hit check hands to ``probe_key``,
- the codec's rejections, through every scalar op of both namespace
  kinds, and that a failed encode logs nothing,
- the derived ``WalMetrics`` append counters against an eager count.
"""

import hashlib
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DyTIS, DyTISConfig
from repro.core.segment import ROUTED_PROBE_BUCKETS
from repro.core.storage import ColumnarStorage
from repro.kvstore import CodecError, KVStore, StringCodec, UintCodec
from repro.kvstore.codec import dump_value
from repro.wal import DurableKVStore, SimFS, WalMetrics, WriteAheadLog
from repro.wal import log as wal_log
from repro.wal import record as rec

# -- (a) golden bytes --------------------------------------------------------

#: SHA-256 of what the script below leaves on disk, recorded from the
#: parent commit (7b84270).  Never re-record these to make the test
#: pass: a mismatch means the change altered a byte of the WAL or the
#: checkpoint format.
GOLDEN = {
    "wal_before_checkpoint":
        "91bcb3471eb5081f02f8b776406db6e34b8e190ee935d8f9a93f850323cc64ea",
    "wal_at_close":
        "d192ab87699954b56fbf1e8b5da2daea5be942e83e22588e057076084d97b2f5",
    "checkpoint":
        "75b7593dc669988e4a96160a12a88db13d4176bfe7d40c1a7ddc5e5c0e70c4a0",
}


def _digest(directory: Path, prefix: str) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name.startswith(prefix):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _golden_script(directory: Path) -> dict:
    """300 operations: inserts and updates over two namespaces, a
    batch, a delete, a range delete and one checkpoint, with values of
    every JSON kind and segments small enough to rotate."""
    rng = random.Random(19)
    store = DurableKVStore(directory, fsync="batch(16,1000)", segment_size=1024)
    nums = store.namespace("default")
    names = store.namespace("names", StringCodec(7))
    pool = [rng.randrange(1 << 40) for _ in range(48)]  # re-drawn: updates
    digests = {}
    for i in range(300):
        value = [i, f"v{i}", {"n": i, "tags": ["a", "é"]}, i % 2 == 0, None][i % 5]
        if i == 60:
            nums.insert_many([(k, k % 1000) for k in pool[:20]])
        elif i == 110:
            assert nums.delete(pool[3])
        elif i == 150:
            store.flush()
            digests["wal_before_checkpoint"] = _digest(directory, "wal-")
            store.checkpoint()
        elif i == 200:
            nums.delete_range(min(pool), sorted(pool)[10])
        elif i % 4 == 3:
            names.insert(f"k{rng.randrange(30)}", value)
        else:
            nums.insert(rng.choice(pool), value)
    store.close()
    digests["wal_at_close"] = _digest(directory, "wal-")
    digests["checkpoint"] = _digest(directory, "ckpt-")
    return digests


def test_golden_bytes(tmp_path):
    assert _golden_script(tmp_path) == GOLDEN


def test_log_record_is_encode_record():
    """``append`` inlines the framing ``rec.encode_record`` defines, and
    an insert whose key rides as ``key=`` is ``rec.encode_insert``'s."""
    fs = SimFS()
    log = WriteAheadLog("w", fs=fs, policy="never")
    log.append(rec.OP_INSERT, b"payload")
    log.append(rec.OP_DELETE, b"")
    log.append(rec.OP_INSERT, b'{"a":1}', 1, (1 << 64) - 2)
    log.close()
    assert fs.read_bytes("w/wal-00000001.log")[rec.SEGMENT_HEADER_SIZE:] == (
        rec.encode_record(1, rec.OP_INSERT, b"payload")
        + rec.encode_record(2, rec.OP_DELETE, b"")
        + rec.encode_record(
            3, rec.OP_INSERT, rec.encode_insert((1 << 64) - 2, {"a": 1})
        )
    )


# -- (b) fsync schedule ------------------------------------------------------


def _parent_should_sync(policy, pending, now, last_sync):
    """The parent commit's three ``should_sync`` bodies, verbatim."""
    kind = policy[0]
    if kind == "always":
        return True
    if kind == "never":
        return False
    _, max_records, max_interval = policy
    if pending >= max_records:
        return True
    return (now - last_sync) >= max_interval


_POLICIES = st.one_of(
    st.just(("always",)),
    st.just(("never",)),
    st.tuples(
        st.just("batch"),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    policy=_POLICIES,
    schedule=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]), max_size=40),
)
def test_fsync_schedule_matches_parent(policy, schedule):
    spec = policy[0] if len(policy) == 1 else f"batch({policy[1]},{policy[2]})"
    now = [100.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wal_log, "_clock", lambda: now[0])
        log = WriteAheadLog("w", fs=SimFS(), policy=spec, segment_size=1 << 20)
        timed = policy[0] == "batch"
        pending, last_sync = 0, now[0]
        for dt in schedule:
            now[0] += dt
            before = log.metrics.fsyncs_total
            log.append(rec.OP_DELETE, b"12345678")
            pending += 1
            expect = _parent_should_sync(
                policy, pending, now[0] if timed else 0.0, last_sync
            )
            assert log.metrics.fsyncs_total - before == int(expect)
            if expect:
                pending, last_sync = 0, now[0]
            assert log.durable_lsn == (
                log.last_lsn if pending == 0 else log.last_lsn - pending
            )
            assert log.metrics.last_lsn == log.last_lsn
            assert log.metrics.durable_lsn == log.durable_lsn


# -- (c) work count ----------------------------------------------------------


def _python_calls(fn) -> int:
    """Python-level function calls made while ``fn`` runs."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0] - 1  # ``fn`` itself


def test_scalar_durable_ops_stay_flat(tmp_path):
    """<= 3 Python calls per durable update (``DurableNamespace.insert``,
    ``WriteAheadLog.append``, ``DyTIS.insert``; the layered path made
    13) and <= 2 per get (``Namespace.get``, ``DyTIS.get``; it made 8),
    on the production engine and the real disk, where the log's
    ``handle.append`` is the buffered file's C ``write``."""
    index = DyTIS()
    store = DurableKVStore(tmp_path, index=index, fsync="batch(4096,1000)")
    ns = store.namespace("default")
    rng = random.Random(5)
    keys = sorted({rng.randrange(1 << 50) for _ in range(2000)})
    ns.insert_many(keys, keys)
    hot = keys[::2]
    ns_insert, ns_get = ns.insert, ns.get

    def updates():
        for j, k in enumerate(hot):
            ns_insert(k, j)

    def gets():
        for k in hot:
            ns_get(k)

    assert _python_calls(updates) / len(hot) <= 3
    assert _python_calls(gets) / len(hot) <= 2
    assert [ns.get(k) for k in hot] == list(range(len(hot)))
    store.close()


# -- (d) scalar get against a dict -------------------------------------------

_MAX = (1 << 64) - 1
_RNG = random.Random(23)
_POOL = sorted({_RNG.randrange(1 << 64) for _ in range(40)} | {0, 1, _MAX - 1, _MAX})


def _small_index() -> DyTIS:
    return DyTIS(DyTISConfig(first_level_bits=2, bucket_capacity=4, l_start=1))


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "delete", "get"]),
            st.sampled_from(_POOL),
        ),
        max_size=120,
    )
)
def test_scalar_get_matches_dict(ops):
    index, shadow = _small_index(), {}
    for step, (op, key) in enumerate(ops):
        if op == "insert":
            index.insert(key, step)
            shadow[key] = step
        elif op == "delete":
            assert index.delete(key) == (shadow.pop(key, None) is not None)
        assert index.get(key) == shadow.get(key)
    for key in _POOL:
        assert index.get(key) == shadow.get(key)
        assert index.get(np.uint64(key)) == shadow.get(key)
    index.check_invariants()


def test_get_hands_padding_duplicates_to_probe_key(monkeypatch):
    """The slots the inline hit check cannot decide: a deleted key whose
    stale padding copy still equals it, a live key below padding equal
    to it (the max key under ``2^64 - 1`` padding), and a key equal to
    a neighbour bucket's padding."""
    walked = []
    probe_key = ColumnarStorage.probe_key

    def spy(self, key):
        walked.append(key)
        return probe_key(self, key)

    monkeypatch.setattr(ColumnarStorage, "probe_key", spy)
    index = _small_index()
    keys = [k << 56 for k in range(1, 41)]  # one table, many buckets
    for k in keys:
        index.insert(k, k)
    # Gets here bisect the whole column: no segment is long enough for
    # the routed probe (tests/test_point_probe.py covers that one).
    assert all(
        seg.n_buckets <= ROUTED_PROBE_BUCKETS
        for table in index._tables if table is not None
        for seg in table.unique_segments()
    )
    # Padding copies a *following* key: each bucket minimum that has
    # slack before it is duplicated there, and still found directly.
    assert [index.get(k) for k in keys] == keys
    assert walked == []
    # Deleting a key leaves such copies stale: the probe lands on
    # padding equal to the key and the walk-back must say 'absent'.
    stale = [
        k for k in keys
        if index.delete(k) and index.get(k) is None and walked and walked[-1] == k
    ]
    assert stale, "no delete left a padding copy of its key behind"
    assert all(index.get(k) is None for k in keys)
    assert index.get_many(stale) == [None] * len(stale)  # the same probe
    # The largest key is live *below* its own padding value.
    walked.clear()
    index.insert(_MAX, "top")
    assert index.get(_MAX) == "top" and walked == [_MAX]
    assert index.get_many([_MAX, keys[0]]) == ["top", None]
    assert index.delete(_MAX) and index.get(_MAX) is None
    index.check_invariants()


# -- (e) encoding failures ---------------------------------------------------


@pytest.mark.parametrize(
    "bad", [True, np.int64(5), np.uint64(5), -1, 1 << 56, 5.0, "5", None]
)
def test_uint_codec_rejects(bad):
    codec = UintCodec(56)
    assert codec.encode(5) == 5 and codec.encode((1 << 56) - 1) == (1 << 56) - 1
    with pytest.raises(CodecError):
        codec.encode(bad)


def test_failed_encode_logs_nothing():
    store = DurableKVStore("db", fs=SimFS(), fsync="never")
    ns = store.namespace("default")
    ns.insert(1, "one")
    lsn, appends = store.last_lsn, store.metrics.appends_total
    for key, value, exc in [
        (True, 1, CodecError),
        (np.int64(2), 1, CodecError),
        (-3, 1, CodecError),
        (1 << 56, 1, CodecError),
        (4, object(), TypeError),
        (5, {1, 2}, TypeError),
    ]:
        with pytest.raises(exc):
            ns.insert(key, value)
    assert (store.last_lsn, store.metrics.appends_total) == (lsn, appends)
    assert len(ns) == 1 and ns.get(4) is None and ns.get(5) is None
    # The plain namespace's scalar read shares the codec path.
    with pytest.raises(CodecError):
        KVStore().namespace("default").get(True)
    store.close()


class _Int(int):
    """An int subclass: the codec accepts it, the inline check does not
    claim it."""


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
def test_scalar_ops_raise_the_codecs_rejections(durable):
    """Every key ``test_uint_codec_rejects`` names raises the codec's own
    ``CodecError`` (same message) through ``get``, ``insert`` and
    ``delete``, whether the inline identity check or ``codec.encode``
    answers, and the durable namespace logs nothing for it."""
    store = (
        DurableKVStore("db", fs=SimFS(), fsync="never") if durable else KVStore()
    )
    ns = store.namespace("default")
    codec = ns.codec
    assert type(codec) is UintCodec and codec.bits == 56
    ns.insert(5, "five")
    lsn = store.last_lsn if durable else None
    for bad in [True, np.int64(5), np.uint64(5), -1, 1 << 56, 5.0, "5", None]:
        with pytest.raises(CodecError) as want:
            codec.encode(bad)
        for call in (ns.get, lambda k: ns.insert(k, 1), ns.delete):
            with pytest.raises(CodecError) as got:
                call(bad)
            assert str(got.value) == str(want.value)
    # An in-range int subclass is the codec's to accept, as before.
    assert ns.get(_Int(5)) == "five"
    if durable:
        assert store.last_lsn == lsn
        ns.insert(_Int(6), "six")
        assert ns.delete(_Int(6)) and store.last_lsn == lsn + 2
        store.close()
    assert len(ns) == 1 and ns.get(5) == "five"


# -- (f) derived WAL metrics -------------------------------------------------

_EXACT = ("appends_total", "ops_logged_total", "bytes_written_total", "last_lsn")


@pytest.mark.parametrize("policy", ["always", "batch(3,1000)", "never"])
def test_wal_metrics_are_exact_on_every_read(policy):
    """The log derives its append counters instead of writing them per
    append; every read through ``log.metrics`` or ``store.metrics``
    must still equal an eager count of what was appended, across
    rotation (512-byte segments), ``BATCH2`` records of many ops, a
    checkpoint's rotation and truncation, and close/reopen cycles that
    share one ``WalMetrics``."""
    fs, shared = SimFS(), WalMetrics()
    want = dict.fromkeys(_EXACT, 0)
    rotations = [0]

    def logged(store, size, ops=1):
        # One record of ``size`` payload bytes, plus a segment header
        # for every rotation since the last look (rotations_total is
        # still counted where it happens).
        want["appends_total"] += 1
        want["last_lsn"] += 1
        want["ops_logged_total"] += ops
        want["bytes_written_total"] += rec.RECORD_HEADER_SIZE + size
        check(store)

    def check(store):
        turned = shared.rotations_total - rotations[0]
        rotations[0] += turned
        want["bytes_written_total"] += turned * rec.SEGMENT_HEADER_SIZE
        for m in (store.wal.metrics, store.metrics):
            assert m is shared
            assert {k: getattr(m, k) for k in _EXACT} == want
        assert store.last_lsn == want["last_lsn"]

    def reopen():
        store = DurableKVStore(
            "db", fs=fs, fsync=policy, segment_size=512, metrics=shared
        )
        want["bytes_written_total"] += rec.SEGMENT_HEADER_SIZE
        check(store)
        return store

    store = reopen()
    ns = store.namespace("t")
    logged(store, len(rec.encode_ns_open("t")))
    rng = random.Random(3)
    for i in range(150):
        if i % 10 == 9:
            keys = sorted(rng.sample(range(1 << 30), 5))
            ns.insert_many(keys, keys)
            logged(store, len(rec.encode_batch2(keys, keys)), ops=5)
        elif i % 17 == 16:
            ns.delete(rng.randrange(1 << 30))
            logged(store, 8)
        elif i % 29 == 28:
            ns.delete_range(0, rng.randrange(1 << 20))
            logged(store, 16)
        elif i == 60:
            store.checkpoint()  # a rotation, then truncation: no bytes
            check(store)
            assert shared.segments_truncated_total > 0
        elif i in (90, 120):
            closed = store
            closed.close()
            check(closed)
            store = reopen()
            ns = store.namespace("t")  # known: no NS_OPEN record
            check(store)
            # A closed log publishes nothing over its successor's counts.
            ns.insert(1, 1)
            logged(store, 8 + 1)
            assert closed.metrics is shared
            check(store)
        else:
            value = [i, f"v{i}", {"n": i}][i % 3]
            ns.insert(rng.randrange(1 << 30), value)
            logged(store, 8 + len(dump_value(value)))
    assert shared.rotations_total > 10
    store.close()
    check(store)
