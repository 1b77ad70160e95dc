"""The ``batch`` group commit runs behind the acknowledgement.

On the real disk the append that crosses a ``batch`` threshold hands
flush + fsync to the log's syncer thread and returns; the sync then
publishes ``durable_lsn`` as the LSN it read before its flush.  Every
barrier -- the ``always`` fsync, ``sync``, the rotation seal, the
checkpoint's step 0 and ``close`` -- still waits for the disk.  These
tests pin that contract with ``os.fsync`` patched to a slow disk (or a
failing one), race rotation against in-flight syncs, and SIGKILL a
``batch`` writer to check recovery yields a prefix that covers
everything the writer saw published as durable.  A ``never`` writer is
killed too: its acknowledged records sit in the log's 64 KiB user-space
buffer until it fills or a flush, checkpoint, rotation or close hands
them to the kernel, so a kill loses at most that buffered tail.
"""

import errno
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.wal import OP_INSERT, DurableKVStore, WriteAheadLog
from repro.wal import record as rec

FSYNC_S = 0.02


@pytest.fixture
def slow_disk(monkeypatch):
    """``os.fsync`` sleeps 20 ms (GIL released, like a real disk);
    returns the list of completion times."""
    real = os.fsync
    done = []

    def fsync(fd):
        time.sleep(FSYNC_S)
        real(fd)
        done.append(time.monotonic())

    monkeypatch.setattr(os, "fsync", fsync)
    return done


def _append(log, i):
    return log.append(OP_INSERT, rec.encode_insert(i, i))


def _settle(log, timeout=5.0):
    """Wait until no group commit is in flight."""
    deadline = time.monotonic() + timeout
    while log._syncing.locked():
        assert time.monotonic() < deadline, "group commit never finished"
        time.sleep(0.001)


def test_batch_append_does_not_wait_for_fsync(tmp_path, slow_disk):
    log = WriteAheadLog(tmp_path, policy="batch(4,100)")
    worst = 0.0
    for i in range(40):
        t0 = time.perf_counter()
        _append(log, i)
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 0.005, f"an append waited {worst * 1e3:.1f} ms"
    log.close()
    assert slow_disk, "no fsync ran"


def _await_publish(log, before, deadline):
    """Wait, until ``deadline`` at most, for the group commit in flight
    (if any) to publish a ``durable_lsn`` past ``before``."""
    while (
        log._syncing.locked() and log.durable_lsn == before
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)


def test_durable_lsn_is_monotone_and_bounded(tmp_path, slow_disk):
    log = WriteAheadLog(tmp_path, policy="batch(4,100)")
    seen = [log.durable_lsn]
    # Every 20 appends, let the sync in flight land: a loaded host may
    # not run the syncer thread within any fixed sleep.
    deadline = time.monotonic() + 5.0
    for i in range(200):
        _append(log, i)
        assert log.durable_lsn <= log.last_lsn
        seen.append(log.durable_lsn)
        if i % 20 == 19:
            _await_publish(log, seen[-1], deadline)
    assert seen == sorted(seen)
    assert 0 < seen[-1] < log.last_lsn  # some syncs finished, not all
    log.sync()
    assert log.durable_lsn == log.last_lsn == 200
    assert log.metrics.durable_lsn == log.durable_lsn
    log.close()


def _with_sync_in_flight(log, n=4):
    for i in range(n):
        _append(log, i)
    assert log.durable_lsn < log.last_lsn  # the 20 ms sync is running


def test_durable_lsn_is_the_lsn_read_before_the_flush(tmp_path, slow_disk):
    log = WriteAheadLog(tmp_path, policy="batch(4,100)")
    _with_sync_in_flight(log, n=6)  # the sync started at LSN 4
    _settle(log)
    assert log.durable_lsn == 4  # 5 and 6 came after its LSN read
    log.close()


def test_sync_waits_for_the_in_flight_sync(tmp_path, slow_disk):
    log = WriteAheadLog(tmp_path, policy="batch(4,100)")
    _with_sync_in_flight(log, n=6)
    log.sync()
    assert log.durable_lsn == 6
    time.sleep(2 * FSYNC_S)  # a sync left running would now publish 4
    assert log.durable_lsn == 6
    log.close()


def test_rotate_while_a_sync_is_in_flight(tmp_path, slow_disk):
    log = WriteAheadLog(tmp_path, policy="batch(4,100)")
    _with_sync_in_flight(log)
    log.rotate()
    assert log.durable_lsn == log.last_lsn == 4
    _with_sync_in_flight(log)
    log.close()
    assert log.durable_lsn == log.last_lsn == 8
    reopened = WriteAheadLog(tmp_path)
    assert [r.lsn for r in reopened.replay()] == list(range(1, 9))
    reopened.close()


def test_checkpoint_while_a_sync_is_in_flight(tmp_path, slow_disk):
    store = DurableKVStore(tmp_path, fsync="batch(4,100)")
    ns = store.namespace("t")
    for i in range(7):  # the namespace's record makes 8
        ns.insert(i, i)
    assert store.durable_lsn < store.last_lsn
    lsn = store.checkpoint()
    assert lsn == store.durable_lsn == store.last_lsn == 8
    store.close()
    with DurableKVStore(tmp_path) as reopened:
        assert [reopened.namespace("t").get(i) for i in range(7)] == list(range(7))


def test_close_while_a_sync_is_in_flight(tmp_path, slow_disk):
    log = WriteAheadLog(tmp_path, policy="batch(4,100)")
    _with_sync_in_flight(log, n=6)
    log.close()
    assert log.durable_lsn == log.last_lsn == 6
    with pytest.raises(ValueError):
        _append(log, 7)


def test_always_acknowledges_after_the_fsync(tmp_path, slow_disk):
    log = WriteAheadLog(tmp_path, policy="always")
    for i in range(5):
        _append(log, i)
        assert len(slow_disk) == i + 1
        assert log.durable_lsn == log.last_lsn == i + 1
    log.close()


@pytest.mark.parametrize("surface", ["append", "sync", "close"])
def test_failed_group_commit_is_sticky(tmp_path, monkeypatch, surface):
    def fsync(fd):
        raise OSError(errno.EIO, "injected fsync failure")

    log = WriteAheadLog(tmp_path, policy="batch(4,100)")
    for i in range(3):
        _append(log, i)
    monkeypatch.setattr(os, "fsync", fsync)
    _append(log, 3)  # crosses the threshold; acknowledged all the same
    _settle(log)
    assert log.durable_lsn == 0
    with pytest.raises(OSError, match="injected"):
        if surface == "append":
            _append(log, 4)
        elif surface == "sync":
            log.sync()
        else:
            log.close()
    # Sticky: it raises again, and nothing became durable meanwhile.
    with pytest.raises(OSError, match="injected"):
        log.sync()
    assert log.durable_lsn == 0
    if surface != "close":
        with pytest.raises(OSError, match="injected"):
            log.close()


def test_rotation_races_in_flight_syncs(tmp_path):
    """4 KiB segments under ``batch(2,0)``: every append past the first
    wants a sync, so nearly every seal meets one in flight.  A short
    switch interval interleaves the syncer with the writer finely."""
    log = WriteAheadLog(tmp_path, policy="batch(2,0)", segment_size=4096)
    durable = [0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(5000):
            _append(log, i)
            durable.append(log.durable_lsn)
        log.close()
    finally:
        sys.setswitchinterval(interval)
    assert durable == sorted(durable) and durable[-1] <= 5000
    assert log.metrics.rotations_total > 20
    reopened = WriteAheadLog(tmp_path)
    records = list(reopened.replay())
    assert [r.lsn for r in records] == list(range(1, 5001))
    assert [rec.decode_insert(r.payload) for r in records] == [
        (i, i) for i in range(5000)
    ]
    assert reopened.metrics.crc_failures_total == 0
    assert reopened.metrics.torn_tails_total == 0
    reopened.close()


def test_metrics_readers_race_the_writer_and_the_syncer(tmp_path):
    """Two threads read ``log.metrics`` (each read publishes the derived
    append counters) while the writer appends under ``batch(2,0)`` on
    4 KiB segments, so rotations and the syncer thread run throughout:
    every reader sees each counter grow monotonically, and the read
    after ``close`` is exact."""
    log = WriteAheadLog(tmp_path, policy="batch(2,0)", segment_size=4096)
    stop = threading.Event()
    seen = ([], [])

    def read(out):
        while not stop.is_set():
            m = log.metrics
            out.append((m.appends_total, m.ops_logged_total, m.bytes_written_total))

    readers = [threading.Thread(target=read, args=(out,)) for out in seen]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    size = ops = 0
    try:
        for t in readers:
            t.start()
        for i in range(3000):
            if i % 50 == 49:
                payload = rec.encode_batch2([i, i + 1, i + 2], [0, 0, 0])
                log.append(rec.OP_BATCH2, payload, ops=3)
                ops += 3
            else:
                payload = rec.encode_insert(i, i)
                _append(log, i)
                ops += 1
            size += rec.RECORD_HEADER_SIZE + len(payload)
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    log.close()
    for out in seen:
        assert out, "a reader never ran"
        for column in zip(*out):
            assert list(column) == sorted(column)
    m = log.metrics
    assert m.rotations_total > 20
    headers = (1 + m.rotations_total) * rec.SEGMENT_HEADER_SIZE
    assert (m.appends_total, m.ops_logged_total, m.bytes_written_total) == (
        3000, ops, size + headers
    )
    assert m.last_lsn == log.last_lsn == 3000


# -- SIGKILL a ``batch`` writer ----------------------------------------------

#: Prints ``<key> <lsn>`` per acknowledged insert and, every 100 keys,
#: ``durable <durable_lsn>``, until killed.
WRITER = """
import sys
from repro.wal import DurableKVStore

store = DurableKVStore(sys.argv[1], fsync="batch(64,0.01)", segment_size=1 << 14)
ns = store.namespace("events")
for i in range(1_000_000):
    ns.insert(i, {"seq": i})
    print(i, store.last_lsn, flush=True)
    if i % 100 == 99:
        print("durable", store.durable_lsn, flush=True)
"""


def _child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def test_sigkill_under_batch_recovers_a_durable_prefix(tmp_path):
    child = subprocess.Popen(
        [sys.executable, "-c", WRITER, str(tmp_path)],
        stdout=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    lsn_of, durable = {}, 0
    try:
        for line in child.stdout:
            a, b = line.split()
            if a == "durable":
                durable = int(b)
            else:
                lsn_of[int(a)] = int(b)
            if len(lsn_of) >= 3000:
                break
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()
    assert durable > 0, "the writer never published a durable LSN"

    with DurableKVStore(tmp_path) as store:
        events = store.namespace("events")
        got = list(events.items())
    m = len(got)
    assert got == [(k, {"seq": k}) for k in range(m)], "not a prefix"
    last_durable_key = max(k for k, lsn in lsn_of.items() if lsn <= durable)
    assert m > last_durable_key, (
        f"recovered {m} keys, but key {last_durable_key} was durable"
    )


# -- SIGKILL a ``never`` writer ----------------------------------------------

#: Inserts ``argv[2]`` keys, flushes if ``argv[3]`` says so, reports, and
#: waits to be killed.
NEVER_WRITER = """
import sys
from repro.wal import DurableKVStore

store = DurableKVStore(sys.argv[1], fsync="never")
ns = store.namespace("events")
for i in range(int(sys.argv[2])):
    ns.insert(i, {"seq": i})
if sys.argv[3] == "flush":
    store.flush()
print("acknowledged", store.last_lsn, flush=True)
sys.stdin.read()
"""


@pytest.mark.parametrize("flush", [False, True], ids=["no-flush", "flush"])
def test_sigkill_under_never_loses_at_most_the_buffered_tail(tmp_path, flush):
    """``never`` acknowledges records still in user-space memory: a kill
    recovers a prefix short of them by at most one buffer (64 KiB), and
    nothing once a ``flush`` has handed them to the kernel."""
    n = 5000  # ~180 KiB of records: the buffer fills, and spills, twice
    child = subprocess.Popen(
        [sys.executable, "-c", NEVER_WRITER, str(tmp_path), str(n),
         "flush" if flush else "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    try:
        line = child.stdout.readline()
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
        child.stdin.close()
        child.stdout.close()
    assert line.split() == ["acknowledged", str(n + 1)]  # + the NS_OPEN

    with DurableKVStore(tmp_path) as store:
        got = list(store.namespace("events").items())
    m = len(got)
    assert got == [(k, {"seq": k}) for k in range(m)], "not a prefix"
    if flush:
        assert m == n
    else:
        lost = sum(
            rec.RECORD_HEADER_SIZE + len(rec.encode_insert(k, {"seq": k}))
            for k in range(m, n)
        )
        assert 0 < m and lost < 1 << 16, f"lost {n - m} keys, {lost} bytes"
