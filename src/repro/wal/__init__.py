"""Durability subsystem: write-ahead log, checkpoints, crash recovery.

DyTIS and its learned/dynamic siblings are evaluated purely in-memory;
a store serving real traffic has to survive a process crash.  This
sub-package closes that gap for :mod:`repro.kvstore`:

- :class:`~repro.wal.log.WriteAheadLog` -- segmented append-only log,
  binary records with per-record CRC32 and gapless monotonic LSNs,
  segment rotation, truncation, and damage-aware replay.
- :mod:`~repro.wal.policy` -- fsync policies: ``always`` (durable on
  ack), ``batch(n, interval)`` (group commit, prefix-ordered loss),
  ``never`` (OS writeback).
- :class:`~repro.wal.store.DurableKVStore` -- the ``KVStore`` wrapper
  that logs every mutation before applying it and recovers on open
  from the newest verifiable checkpoint plus the WAL tail.
- :mod:`~repro.wal.checkpoint` -- the durability core under both
  ``DurableKVStore`` and the shards' ``DurableShardIndex``: recovery on
  open, the checkpoint protocol (LSN-tagged, checksummed checkpoints
  that let the log truncate dead segments), remote shipping.
- :mod:`~repro.wal.faultfs` -- the deterministic fault-injection
  filesystem (:class:`SimFS`) used to sweep every crash point of a
  workload and prove the acknowledged-writes-survive property; the
  real :class:`OsFS` backs production use.
- :class:`~repro.wal.metrics.WalMetrics` -- throughput/fsync/replay
  counters exposed as ``wal_*`` series via :mod:`repro.obs`.
"""

from repro.wal.faultfs import FaultSpec, OsFS, SimFS, SimulatedCrash
from repro.wal.log import RecoveryError, WriteAheadLog
from repro.wal.metrics import WalMetrics
from repro.wal.policy import (
    AlwaysFsync,
    BatchFsync,
    FsyncPolicy,
    NeverFsync,
    parse_policy,
)
from repro.wal.record import (
    OP_BATCH,
    OP_BATCH2,
    OP_DELETE,
    OP_DELETE_RANGE,
    OP_INSERT,
    OP_NS_OPEN,
    WalFormatError,
    WalRecord,
)
from repro.wal.store import DurableKVStore, DurableNamespace

__all__ = [
    "DurableKVStore",
    "DurableNamespace",
    "WriteAheadLog",
    "RecoveryError",
    "WalMetrics",
    "WalRecord",
    "WalFormatError",
    "FsyncPolicy",
    "AlwaysFsync",
    "BatchFsync",
    "NeverFsync",
    "parse_policy",
    "OsFS",
    "SimFS",
    "FaultSpec",
    "SimulatedCrash",
    "OP_INSERT",
    "OP_DELETE",
    "OP_DELETE_RANGE",
    "OP_BATCH",
    "OP_BATCH2",
    "OP_NS_OPEN",
]
