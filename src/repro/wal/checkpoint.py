"""Checkpoints: LSN-tagged snapshots that let the WAL forget.

A checkpoint is one atomically-written file, ``ckpt-<lsn>.snap``,
holding a v2 store snapshot (:mod:`repro.kvstore.snapshot`: versioned
header + whole-body CRC32) whose header is stamped with
``checkpoint_lsn`` -- the last LSN the snapshot's state includes.
Recovery loads the *newest verifiable* checkpoint and replays only the
WAL past its LSN; checkpoints that fail their checksum are skipped, so
a crash mid-checkpoint (the atomic write never surfaces a half file)
or a corrupted one degrades to the previous checkpoint plus a longer
replay, never to wrong data.

The protocol, in crash-safe order:

0. sync the WAL, then take its last LSN (a checkpoint stamped above the
   log's durable tail would outlive records the log then re-issues),
1. serialise the store with that LSN in the header,
2. ``write_atomic`` the new checkpoint file,
3. drop older checkpoint files,
4. rotate the WAL and truncate segments wholly at or below the LSN.

Every step is idempotent and any crash point between steps recovers:
before 2 the old checkpoint rules; after 2 the new one does, and the
not-yet-truncated WAL tail replays as a no-op overlap (records at or
below the checkpoint LSN are skipped by LSN, not re-applied).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.kvstore import KVStore, dump_snapshot_bytes
from repro.wal.faultfs import join

_CKPT_RE = re.compile(r"^ckpt-(\d{20})\.snap$")


def checkpoint_name(lsn: int) -> str:
    return f"ckpt-{lsn:020d}.snap"


def checkpoint_lsns(fs, directory: str) -> List[int]:
    """LSNs of checkpoint files present, ascending."""
    if not fs.exists(directory):
        return []
    out = []
    for name in fs.listdir(directory):
        m = _CKPT_RE.match(name)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def write_checkpoint(store: KVStore, lsn: int, fs, directory: str) -> str:
    """Steps 1-3: serialise, atomically publish, drop older checkpoints."""
    data = dump_snapshot_bytes(store, extra_header={"checkpoint_lsn": lsn})
    path = join(directory, checkpoint_name(lsn))
    fs.write_atomic(path, data)
    for old in checkpoint_lsns(fs, directory):
        if old < lsn:
            fs.remove(join(directory, checkpoint_name(old)))
    return path


def read_checkpoint(fs, directory: str, lsn: int) -> bytes:
    return fs.read_bytes(join(directory, checkpoint_name(lsn)))


def newest_checkpoint(fs, directory: str) -> Optional[Tuple[int, bytes]]:
    """(lsn, bytes) of the newest checkpoint file, unverified, or None."""
    lsns = checkpoint_lsns(fs, directory)
    if not lsns:
        return None
    lsn = lsns[-1]
    return lsn, read_checkpoint(fs, directory, lsn)
