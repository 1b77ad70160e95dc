"""``DurableShardIndex`` under crashes: the shard side of the recovery contract.

The store's crash matrix lives in ``test_wal_recovery.py``; this file
drives the per-shard wrapper through the same durability core:

- a power cut right after a checkpoint must not reopen the log below
  the checkpoint LSN (writes acknowledged afterwards would sit under
  LSNs replay skips and vanish on the *second* restart),
- every syscall of the checkpoint window, under every fsync policy and
  tail mode, twice restarted with writes in between,
- a corrupt newest checkpoint: skipped when the WAL still holds the
  history, a :class:`RecoveryError` naming it when it does not,
- golden bytes: the WAL segments and the ``DSK1`` checkpoint of a fixed
  script hash to constants recorded from the commit before the two
  wrappers were put on one core.
"""

import copy
import hashlib
import random
from pathlib import Path

import pytest

from repro.shard.durable import DurableShardIndex
from repro.wal import FaultSpec, RecoveryError, SimFS, SimulatedCrash
from repro.wal.faultfs import segment_files

POLICIES = ("always", "batch(4,1000)", "never")


def _state(shard):
    return dict(shard.items())


# -- (a) power cut after a checkpoint ----------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_power_cut_after_checkpoint_keeps_later_writes(policy):
    fs = SimFS()
    shard = DurableShardIndex("s0", fs=fs, fsync=policy)
    for key in range(20):
        shard.insert(key, key)
    assert shard.checkpoint() == 20
    # Power cut: the rotated-to segment's header was never synced and
    # the segments below the checkpoint are gone, so the log's own
    # durable tail says nothing about LSN 20.
    fs.reboot()
    shard = DurableShardIndex("s0", fs=fs)
    assert shard.wal.last_lsn == shard.checkpoint_lsn == 20
    expected = {key: key for key in range(20)}
    assert _state(shard) == expected
    for key in range(100, 105):
        shard.insert(key, key)  # acknowledged under 'always'
        expected[key] = key
    shard.close()
    again = DurableShardIndex("s0", fs=fs)
    assert _state(again) == expected
    assert again.wal.last_lsn == 25
    again.close()


# -- (b) the checkpoint window, swept ----------------------------------------

#: History before the swept checkpoint: every logged op kind, and an
#: earlier checkpoint for the swept one to drop.
_HISTORY = (
    [("insert", key, key * 10) for key in range(6)]
    + [
        ("insert_many", [50, 51, 52, 53], [0, 1, 2, 3]),
        ("delete", 2),
        ("checkpoint",),
    ]
    + [("insert", key, key * 10) for key in range(6, 10)]
    + [("delete_range", 3, 8), ("insert", 11, 110)]
)

#: Writes acknowledged after the last policy sync: what the checkpoint
#: finds pending under ``batch``/``never`` (fewer than a batch of 4).
_PENDING = [("insert", 20 + i, i) for i in range(3)]


def _apply(shard, shadow, op):
    kind = op[0]
    if kind == "checkpoint":
        shard.checkpoint()
    elif kind == "insert":
        shard.insert(op[1], op[2])
        shadow[op[1]] = op[2]
    elif kind == "insert_many":
        shard.insert_many(op[1], op[2])
        shadow.update(zip(op[1], op[2]))
    elif kind == "delete":
        shard.delete(op[1])
        shadow.pop(op[1], None)
    elif kind == "delete_range":
        shard.delete_range(op[1], op[2])
        for key in [k for k in shadow if op[1] <= k < op[2]]:
            del shadow[key]


def _open_with_pending(fs, policy, states=None):
    shard = DurableShardIndex("s0", fs=fs, fsync=policy)
    shadow = dict(states[-1]) if states else {}
    for op in _PENDING:
        _apply(shard, shadow, op)
        if states is not None:
            states.append(dict(shadow))
    return shard


def test_crash_between_checkpoint_and_truncate():
    """The shard twin of ``test_wal_recovery``'s checkpoint-window
    sweep: a crash at any syscall of the checkpoint, or at the first
    one after it, recovers a prefix of the acknowledged history (all of
    it under ``always``), the recovered shard's own writes survive the
    next restart, and the half-finished checkpoint does not wedge the
    next one."""
    fs0 = SimFS()
    shard, shadow = DurableShardIndex("s0", fs=fs0), {}
    for op in _HISTORY:
        _apply(shard, shadow, op)
    shard.close()
    for policy in POLICIES:
        for tail_mode in ("drop", "torn", "flip"):
            _sweep_checkpoint_window(fs0, shadow, policy, tail_mode)


def _sweep_checkpoint_window(fs0, state0, policy, tail_mode):
    allowed = [state0]
    probe = copy.deepcopy(fs0)
    shard = _open_with_pending(probe, policy, allowed)
    before = probe.syscalls
    shard.checkpoint()
    window = probe.syscalls - before
    assert window >= 4  # write_atomic(2) + rotate + at least one unlink

    # One past the window: the checkpoint returns and the crash takes
    # the next append, over a log whose only segment was never synced.
    for k in range(1, window + 2):
        fs = copy.deepcopy(fs0)
        shard = _open_with_pending(fs, policy)
        assert _state(shard) == allowed[-1]
        fs.fault = FaultSpec(fs.syscalls + k, tail_mode=tail_mode, seed=k)
        with pytest.raises(SimulatedCrash):
            shard.checkpoint()
            shard.insert(99, 99)  # dies before its record is written
        fs.reboot()
        recovered = DurableShardIndex("s0", fs=fs)
        expected = _state(recovered)
        where = f"{policy}/{tail_mode} checkpoint crash@{k}"
        assert expected in (allowed[-1:] if policy == "always" else allowed), where
        assert recovered.wal.last_lsn >= recovered.checkpoint_lsn, where
        for key in range(100, 105):
            recovered.insert(key, key)
            expected[key] = key
        recovered.close()
        again = DurableShardIndex("s0", fs=fs)
        assert _state(again) == expected, f"{where}: lost after restart"
        again.checkpoint()
        again.close()
        reopened = DurableShardIndex("s0", fs=fs)
        assert _state(reopened) == expected
        reopened.close()


# -- (c) a corrupt newest checkpoint -----------------------------------------


def _flip_checkpoint(fs, directory):
    (name,) = [n for n in fs.listdir(directory) if n.startswith("shard-ckpt-")]
    fs._files[f"{directory}/{name}"].durable[-1] ^= 0x01
    return name


def test_corrupt_checkpoint_falls_back_to_untruncated_wal():
    fs = SimFS()
    shard = DurableShardIndex("s0", fs=fs)
    for key in range(20):
        shard.insert(key, key)
    segments = segment_files(fs, "s0/wal")
    # Crash on the first syscall past ``write_atomic`` (two syscalls,
    # nothing to sync under 'always'): checkpoint published, log whole.
    fs.fault = FaultSpec(fs.syscalls + 3)
    with pytest.raises(SimulatedCrash):
        shard.checkpoint()
    fs.reboot()
    assert segment_files(fs, "s0/wal")[: len(segments)] == segments
    _flip_checkpoint(fs, "s0")
    reopened = DurableShardIndex("s0", fs=fs)
    assert reopened.checkpoint_lsn == 0 and reopened.wal.last_lsn == 20
    assert _state(reopened) == {key: key for key in range(20)}
    reopened.close()


def test_corrupt_checkpoint_over_truncated_wal_names_it():
    fs = SimFS()
    shard = DurableShardIndex("s0", fs=fs)
    for key in range(20):
        shard.insert(key, key)
    shard.checkpoint()
    shard.insert(20, 20)
    shard.close()
    name = _flip_checkpoint(fs, "s0")
    with pytest.raises(RecoveryError, match="no checkpoint verified") as err:
        DurableShardIndex("s0", fs=fs)
    assert name in str(err.value)


# -- (d) golden bytes --------------------------------------------------------

#: SHA-256 of what the script below leaves on disk, recorded from the
#: parent commit (add10b8).  Never re-record these to make the test
#: pass: a mismatch means the change altered a byte of the shard's WAL
#: or of the ``DSK1`` checkpoint.
GOLDEN = {
    "wal_before_checkpoint":
        "3454580f3ad9edf1595dad645cf25058aa0d580967844375ada1e12480860b46",
    "wal_at_close":
        "7e5c0708dd8ad8c4ec0955cde45edde717ad4ff9603eaf9d8b5c765701eab1c3",
    "checkpoint":
        "1f4a861b30a5cdda0dffa6c5a44f4b6cd4cb36a7890e2b8bebcd8313a1589d31",
}


def _digest(directory: Path, prefix: str) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name.startswith(prefix):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _golden_script(directory: Path) -> dict:
    """300 operations: a bulk load, inserts and updates, two batches
    (columns and pairs), a delete, a range delete and one checkpoint,
    with values of every JSON kind."""
    rng = random.Random(29)
    shard = DurableShardIndex(str(directory), fsync="batch(16,1000)")
    pool = [rng.randrange(1 << 62) for _ in range(64)]  # re-drawn: updates
    shadow, digests = {}, {}
    for i in range(300):
        value = [i, f"v{i}", {"n": i, "tags": ["a", "é"]}, i % 2 == 0, None][i % 5]
        if i == 0:
            shard.bulk_load(pool[:16], list(range(16)))
            shadow.update(zip(pool[:16], range(16)))
        elif i == 60:
            batch = pool[16:36]
            _apply(shard, shadow, ("insert_many", batch, [k % 1000 for k in batch]))
        elif i == 90:
            shard.insert_many([(k, [k % 7]) for k in pool[30:40]])
            shadow.update((k, [k % 7]) for k in pool[30:40])
        elif i == 110:
            assert shard.delete(pool[3])
            del shadow[pool[3]]
        elif i == 150:
            shard.flush()
            digests["wal_before_checkpoint"] = _digest(directory / "wal", "wal-")
            shard.checkpoint()
        elif i == 200:
            _apply(shard, shadow, ("delete_range", min(pool), sorted(pool)[10]))
        else:
            _apply(shard, shadow, ("insert", rng.choice(pool), value))
    shard.close()
    digests["wal_at_close"] = _digest(directory / "wal", "wal-")
    digests["checkpoint"] = _digest(directory, "shard-ckpt-")
    reopened = DurableShardIndex(str(directory))
    assert _state(reopened) == shadow and reopened.wal.last_lsn == 299
    reopened.close()
    return digests


def test_golden_bytes(tmp_path):
    assert _golden_script(tmp_path) == GOLDEN
