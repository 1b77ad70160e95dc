"""Crash-consistency property: every acknowledged write survives recovery.

The sweep runs one mixed workload (inserts, a batch, deletes, a range
delete, a mid-stream checkpoint, two namespaces) on :class:`SimFS`,
crashes it at *every* syscall of the fault-free execution under each
tail-settle mode, reboots, recovers, and checks the recovered store
against a differential shadow dict:

- the recovered state must equal some prefix of the acknowledged
  operation sequence (operations are atomic records -- no partial op
  is ever visible), and
- under ``fsync='always'`` that prefix must include *every*
  acknowledged operation (the durability contract), while ``batch`` /
  ``never`` permit bounded, prefix-ordered loss.

A dedicated test also sweeps the checkpoint window itself under every
policy and tail mode, covering the crash-between-checkpoint-and-truncate
interleaving and a second restart after post-recovery writes.
"""

import copy

import pytest

from repro.wal import (
    DurableKVStore,
    FaultSpec,
    RecoveryError,
    SimFS,
    SimulatedCrash,
    WriteAheadLog,
)
from repro.wal import checkpoint as ckpt
from repro.wal import record as rec

SEGMENT_SIZE = 384  # small: the workload spans several segments

#: The workload script: every entry is one acknowledged operation.
OPS = (
    [("insert", "alpha", i, i * 10) for i in range(6)]
    + [
        ("insert_many", "beta", [(j, j + 100) for j in range(4)]),
        ("delete", "alpha", 2),
        ("checkpoint",),
    ]
    + [("insert", "alpha", i, i * 10) for i in range(6, 10)]
    + [
        ("delete_range", "alpha", 3, 8),
        ("insert", "beta", 50, 5),
        ("insert", "alpha", 11, 110),
    ]
)


def _apply_shadow(state, op):
    kind = op[0]
    if kind == "insert":
        _, ns, key, value = op
        state[(ns, key)] = value
    elif kind == "insert_many":
        _, ns, pairs = op
        for key, value in pairs:
            state[(ns, key)] = value
    elif kind == "delete":
        _, ns, key = op
        state.pop((ns, key), None)
    elif kind == "delete_range":
        _, ns, low, high = op
        for key in [k for n, k in state if n == ns and low <= k < high]:
            del state[(ns, key)]
    elif kind != "checkpoint":
        raise AssertionError(f"unknown op {kind}")


def _apply_store(store, op):
    kind = op[0]
    if kind == "checkpoint":
        store.checkpoint()
        return
    ns = store.namespace(op[1])
    if kind == "insert":
        ns.insert(op[2], op[3])
    elif kind == "insert_many":
        ns.insert_many(op[2])
    elif kind == "delete":
        ns.delete(op[2])
    elif kind == "delete_range":
        ns.delete_range(op[2], op[3])


def _run_until_crash(fs, policy):
    """Execute OPS until done or the armed crash fires.

    Returns (shadow states after 0..k acknowledged ops, acked count).
    """
    shadow = {}
    states = [dict(shadow)]
    acked = 0
    try:
        store = DurableKVStore(
            "db", fs=fs, fsync=policy, segment_size=SEGMENT_SIZE
        )
        for op in OPS:
            _apply_store(store, op)
            _apply_shadow(shadow, op)
            states.append(dict(shadow))
            acked += 1
        store.close()
    except SimulatedCrash:
        pass
    return states, acked


def _read_state(store):
    out = {}
    for name in store.namespaces():
        for key, value in store.namespace(name).items():
            out[(name, key)] = value
    return out


def _baseline_syscalls(policy):
    fs = SimFS()
    states, acked = _run_until_crash(fs, policy)
    assert acked == len(OPS), "fault-free run must complete"
    return fs.syscalls


def _allowed_states(states, acked):
    """Prefix states a crash at this point may legally recover to.

    Every state after 0..acked acknowledged ops, plus the state with
    the one in-flight (unacknowledged) op applied -- a record can reach
    disk in the same syscall that crashes.
    """
    allowed = list(states)
    if acked < len(OPS):
        nxt = dict(states[-1])
        _apply_shadow(nxt, OPS[acked])
        allowed.append(nxt)
    return allowed


def _sweep(policy, tail_mode, require_all_acked):
    total = _baseline_syscalls(policy)
    assert total > 15  # the sweep is meaningfully wide
    for crash_at in range(1, total + 1):
        fs = SimFS(FaultSpec(crash_at, tail_mode=tail_mode, seed=crash_at))
        states, acked = _run_until_crash(fs, policy)
        assert acked < len(OPS) or crash_at == total
        fs.reboot()
        recovered = DurableKVStore("db", fs=fs, segment_size=SEGMENT_SIZE)
        got = _read_state(recovered)
        allowed = _allowed_states(states, acked)
        assert got in allowed, (
            f"{policy}/{tail_mode} crash@{crash_at}: recovered state is "
            f"not a prefix of the acknowledged history ({got})"
        )
        if require_all_acked:
            # 'always': the prefix must contain every acknowledged op.
            matches = [i for i, s in enumerate(allowed) if s == got]
            assert max(matches) >= acked, (
                f"always/{tail_mode} crash@{crash_at}: acknowledged "
                f"write lost (recovered {max(matches)} of {acked} ops)"
            )
        # Recovery leaves a writable store: the log tail is usable.
        recovered.namespace("alpha").insert(999, 1)
        assert recovered.namespace("alpha").get(999) == 1
        recovered.close()


@pytest.mark.parametrize("tail_mode", ["drop", "torn", "flip"])
def test_crash_sweep_fsync_always(tail_mode):
    """Acknowledged == durable at every crash point, every tail mode."""
    _sweep("always", tail_mode, require_all_acked=True)


@pytest.mark.parametrize("tail_mode", ["drop", "torn", "flip"])
def test_crash_sweep_fsync_batch(tail_mode):
    """Group commit: bounded loss, always a prefix, never corruption."""
    _sweep("batch(4,1000)", tail_mode, require_all_acked=False)


@pytest.mark.parametrize("tail_mode", ["drop", "torn"])
def test_crash_sweep_fsync_never(tail_mode):
    _sweep("never", tail_mode, require_all_acked=False)


#: Writes acknowledged after the last policy sync: what the checkpoint
#: finds pending under ``batch``/``never`` (fewer than a batch of 4).
_PENDING = [("insert", "alpha", 20 + i, i) for i in range(3)]


def _open_with_pending(fs, policy, states=None):
    store = DurableKVStore("db", fs=fs, fsync=policy, segment_size=SEGMENT_SIZE)
    for op in _PENDING:
        _apply_store(store, op)
        if states is not None:
            shadow = dict(states[-1])
            _apply_shadow(shadow, op)
            states.append(shadow)
    return store


def test_crash_between_checkpoint_and_truncate():
    """Sweep every syscall of the checkpoint itself, twice restarted,
    under every fsync policy and tail mode.

    The checkpoint syncs the log, writes the snapshot atomically,
    rotates, then truncates dead segments.  A crash anywhere in that
    window (the sync, snapshot tmp write, rename, old-checkpoint
    removal, rotation, each segment unlink) must recover a prefix of
    the acknowledged history -- all of it under ``always`` -- and the
    recovered store's own writes must survive the *next* restart: a
    checkpoint stamped above the log's durable tail would leave them
    under LSNs replay skips.
    """
    fs0 = SimFS()
    states, acked = _run_until_crash(fs0, "always")
    assert acked == len(OPS)
    for policy in ("always", "batch(4,1000)", "never"):
        for tail_mode in ("drop", "torn", "flip"):
            _sweep_checkpoint_window(fs0, states[-1], policy, tail_mode)


def _sweep_checkpoint_window(fs0, state0, policy, tail_mode):
    allowed = [state0]
    # Measure the checkpoint window on a throwaway copy.
    probe = copy.deepcopy(fs0)
    store = _open_with_pending(probe, policy, allowed)
    before = probe.syscalls
    store.checkpoint()
    window = probe.syscalls - before
    assert window >= 4  # write_atomic(2) + rotate + at least one unlink

    for k in range(1, window + 1):
        fs = copy.deepcopy(fs0)
        store = _open_with_pending(fs, policy)
        assert _read_state(store) == allowed[-1]
        fs.fault = FaultSpec(fs.syscalls + k, tail_mode=tail_mode, seed=k)
        with pytest.raises(SimulatedCrash):
            store.checkpoint()
        fs.reboot()
        recovered = DurableKVStore("db", fs=fs, segment_size=SEGMENT_SIZE)
        expected = _read_state(recovered)
        where = f"{policy}/{tail_mode} checkpoint crash@{k}"
        assert expected in (allowed[-1:] if policy == "always" else allowed), where
        # Acknowledged under 'always', so durable across a second restart.
        for key in range(100, 105):
            recovered.namespace("alpha").insert(key, key)
            expected[("alpha", key)] = key
        recovered.close()
        again = DurableKVStore("db", fs=fs, segment_size=SEGMENT_SIZE)
        assert _read_state(again) == expected, f"{where}: lost after restart"
        # And the half-finished checkpoint must not wedge the next one.
        again.checkpoint()
        again.close()
        reopened = DurableKVStore("db", fs=fs, segment_size=SEGMENT_SIZE)
        assert _read_state(reopened) == expected
        reopened.close()


def _checkpoint_above_the_durable_tail(fs):
    """The directory a parent-commit checkpoint crash left behind: a
    checkpoint at LSN 11 over a log whose durable tail never got there."""
    store = DurableKVStore("db", fs=fs, fsync="never")
    ns = store.namespace("alpha")
    for key in range(10):
        ns.insert(key, key)
    ckpt.write_checkpoint(store.kv, store.last_lsn, fs, "db")  # no sync first
    fs.reboot()  # power cut: the unsynced log is gone
    return {("alpha", key): key for key in range(10)}


@pytest.mark.parametrize("restarts_below", [False, True])
def test_checkpoint_above_the_durable_tail_heals(restarts_below):
    """Such a directory opens at the checkpoint LSN, not below it --
    also when an earlier recovery already restarted the log low and
    wrote (lost) records there -- and a gap the checkpoint covers
    replays cleanly."""
    fs = SimFS()
    expected = _checkpoint_above_the_durable_tail(fs)
    if restarts_below:
        low = WriteAheadLog("db", fs=fs)  # as the parent commit reopened it
        assert low.last_lsn == 0
        for key in range(3):
            low.append(rec.OP_INSERT, rec.encode_insert(key, "skipped"))
        low.close()
    store = DurableKVStore("db", fs=fs)
    assert store.last_lsn == 11 and _read_state(store) == expected
    for key in range(100, 105):
        store.namespace("alpha").insert(key, key)
        expected[("alpha", key)] = key
    store.close()
    again = DurableKVStore("db", fs=fs)
    assert _read_state(again) == expected and again.last_lsn == 16
    again.close()


def test_gap_above_the_checkpoint_still_raises():
    fs = SimFS()
    _checkpoint_above_the_durable_tail(fs)
    low = WriteAheadLog("db", fs=fs)
    low.append(rec.OP_INSERT, rec.encode_insert(1, "x"))
    low.close()  # segments: ..., [1]
    WriteAheadLog("db", fs=fs, checkpoint_lsn=13).close()  # next base: 14
    with pytest.raises(RecoveryError, match="does not continue"):
        DurableKVStore("db", fs=fs)  # checkpoint covers 11; 12-13 are missing


def test_recovered_store_metrics_report_replay():
    fs = SimFS()
    _run_until_crash(fs, "always")
    fs.reboot()
    store = DurableKVStore("db", fs=fs, segment_size=SEGMENT_SIZE)
    m = store.metrics
    assert m.replays_total == 1
    assert m.records_replayed_total > 0
    assert m.replay_ns_total > 0
    store.close()
