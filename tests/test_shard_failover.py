"""Single-shard failover from remote, and bounded shard RPC waits.

The failover contract: each shard ships to its own remote prefix, so
when one worker's local directory is destroyed, ``restart_shard``
brings its replacement up from the remote copy -- while the sibling
shards keep serving untouched.  The rpc-timeout satellite: a worker
that is alive but wedged (here: SIGSTOPped) must surface as a
:class:`ShardError` naming the shard instead of hanging the router
forever.
"""

import os
import shutil
import signal
import time

import pytest

from repro.core import DyTISConfig
from repro.remote import LocalFsStorage, RetryPolicy
from repro.shard import ShardedIndex, ShardError

CFG = DyTISConfig(key_bits=32, first_level_bits=3, bucket_capacity=8, l_start=1)

#: Hash routing so every shard owns a slice of the small test keys.
N = 600


def _fleet(tmp_path, **kw):
    return ShardedIndex(
        2,
        config=CFG,
        mode="hash",
        durable_dir=str(tmp_path / "data"),
        remote=LocalFsStorage(str(tmp_path / "remote")),
        remote_policy=RetryPolicy(base_delay=0.001),
        **kw,
    )


def test_shard_failover_from_remote_while_sibling_serves(tmp_path):
    with _fleet(tmp_path) as idx:
        idx.insert_many(list(range(N)), [i * 3 for i in range(N)])
        idx.checkpoint()  # ships each shard's snapshot to its prefix
        idx.insert_many(
            list(range(N, N + 100)), [i * 3 for i in range(N, N + 100)]
        )
        idx.flush()
        victim = idx.router.shard_of(0)
        # The victim's machine dies and its disk is gone.
        shutil.rmtree(tmp_path / "data" / f"shard-{victim:03d}")
        idx.restart_shard(victim)
        # Every checkpointed key the victim owns comes back from remote.
        mine = [k for k in range(N) if idx.router.shard_of(k) == victim]
        assert mine, "hash routing should give the victim keys"
        assert all(idx.get(k) == k * 3 for k in mine)
        # Sibling shards never lost anything, including the tail past
        # the checkpoint (their local WALs are intact).
        others = [
            k for k in range(N + 100) if idx.router.shard_of(k) != victim
        ]
        assert all(idx.get(k) == k * 3 for k in others)
        # The recovered worker reports its attach in its metrics reply.
        counters = idx.shard_metrics()[victim].counters
        assert counters["remote_attaches_total"] == 1
        assert counters["remote_generation"] >= 1


def test_shard_remote_prefixes_are_disjoint(tmp_path):
    with _fleet(tmp_path) as idx:
        idx.insert_many(list(range(N)), list(range(N)))
        idx.checkpoint()
    remote = LocalFsStorage(str(tmp_path / "remote"))
    prefixes = {key.split("/", 1)[0] for key in remote.list()}
    assert prefixes == {"shard-000", "shard-001"}


def test_remote_requires_durable_dir(tmp_path):
    with pytest.raises(ValueError, match="durable_dir"):
        ShardedIndex(
            2, config=CFG,
            remote=LocalFsStorage(str(tmp_path / "remote")),
        )


def test_restart_without_remote_still_replays_local_wal(tmp_path):
    """Remote shipping must not regress plain local-WAL restarts."""
    with ShardedIndex(
        2, config=CFG, mode="hash", durable_dir=str(tmp_path / "data")
    ) as idx:
        idx.insert_many(list(range(200)), list(range(200)))
        idx.flush()
        idx.restart_shard(0)
        assert all(idx.get(k) == k for k in range(200))


# -- rpc timeout (satellite) ------------------------------------------------


def test_stalled_worker_times_out_with_shard_name(tmp_path):
    with ShardedIndex(
        2, config=CFG, mode="hash",
        durable_dir=str(tmp_path / "data"),
        rpc_timeout=0.3,
    ) as idx:
        idx.insert_many(list(range(100)), list(range(100)))
        victim = idx.router.shard_of(5)
        pid = idx._procs[victim].pid
        os.kill(pid, signal.SIGSTOP)
        try:
            with pytest.raises(
                ShardError, match=rf"shard {victim} timed out after 0.3"
            ):
                idx.get(5)
        finally:
            os.kill(pid, signal.SIGCONT)
        # The timeout poisoned the pipe: the worker's late reply is
        # owed to the call that gave up, so consuming it later would
        # answer the wrong request.  The shard therefore reads as down
        # -- enforced, not just documented -- until restart_shard.
        with pytest.raises(
            ShardError, match=rf"shard {victim} is not running"
        ):
            idx.get(5)
        # The wedged worker is replaced and the fleet serves again.
        idx.restart_shard(victim)
        idx.flush()
        assert all(idx.get(k) == k for k in range(100))


def test_scatter_timeout_poisons_victim_and_drains_siblings(tmp_path):
    with ShardedIndex(
        2, config=CFG, mode="hash",
        durable_dir=str(tmp_path / "data"),
        rpc_timeout=0.3,
    ) as idx:
        idx.insert_many(list(range(100)), list(range(100)))
        victim = idx.router.shard_of(5)
        sibling = 1 - victim
        pid = idx._procs[victim].pid
        os.kill(pid, signal.SIGSTOP)
        try:
            with pytest.raises(
                ShardError, match=rf"shard {victim} timed out"
            ):
                len(idx)  # scatters to every shard
        finally:
            os.kill(pid, signal.SIGCONT)
        # The sibling's reply was drained inside the failed scatter,
        # so its pipe stays in sync: the next call must get its own
        # fresh answer, not the abandoned len reply.
        sib_key = next(
            k for k in range(100) if idx.router.shard_of(k) == sibling
        )
        assert idx.get(sib_key) == sib_key
        # The victim stays down until explicitly restarted.
        with pytest.raises(
            ShardError, match=rf"shard {victim} is not running"
        ):
            idx.get(5)
        idx.restart_shard(victim)
        idx.flush()
        assert all(idx.get(k) == k for k in range(100))


def test_rpc_timeout_disabled_by_default(tmp_path):
    with ShardedIndex(2, config=CFG, mode="hash") as idx:
        assert idx._rpc_timeout is None
        idx.insert(1, "a")
        assert idx.get(1) == "a"
