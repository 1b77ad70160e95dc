"""Fsync (group-commit) policies for the WAL.

A policy is *data*: the number of pending records and the number of
seconds since the last sync after which the log must sync again
(``None`` = no such threshold).  :class:`~repro.wal.log.WriteAheadLog`
reads both once at construction and compares them inline on every
append.  The three shipped settings span the durability/throughput
trade-off the bench quantifies (``benchmarks/bench_wal_overhead.py``):

- :class:`AlwaysFsync` -- every acknowledged write is durable; one
  fsync per append (``max_records = 1``).
- :class:`BatchFsync` -- group commit: start a sync once
  ``max_records`` appends or ``max_interval`` seconds have passed since
  the last sync, whichever comes first.  The append that
  crosses the threshold does not wait for that sync (on the real disk
  it runs on the log's syncer thread).  A crash can lose the writes
  after the last *completed* sync -- at most ``max_records`` records
  plus those appended during one fsync, or ``max_interval`` seconds
  plus one fsync -- but recovery always yields a clean *prefix* of the
  acknowledged history (bounded, ordered loss -- the classic
  ``everysec``-style contract).  Both thresholds are checked at append
  time: an idle log's tail waits for the next write, ``flush``,
  checkpoint or ``close``.
- :class:`NeverFsync` -- leave durability to the OS writeback (no
  threshold).  Appends collect in the log's 64 KiB user-space buffer
  (:class:`~repro.wal.faultfs.OsAppendHandle`) and reach the kernel
  when it fills, or at ``flush``, checkpoint, rotation or ``close``.
  A process kill loses at most that buffered tail, a power cut
  everything since the last sync; recovery lands on a prefix either
  way.

``parse_policy`` accepts the config-friendly spellings ``"always"``,
``"never"``, ``"batch"``, and ``"batch(n,interval)"``.
"""

from __future__ import annotations

import re
from typing import Optional


class FsyncPolicy:
    """When the log must fsync: after ``max_records`` pending appends
    and/or ``max_interval`` seconds since the last sync."""

    name = "abstract"
    max_records: Optional[int] = None
    max_interval: Optional[float] = None

    def describe(self) -> str:
        return self.name


class AlwaysFsync(FsyncPolicy):
    """Fsync on every append: acknowledged means durable."""

    name = "always"
    max_records = 1


class NeverFsync(FsyncPolicy):
    """Never fsync from the hot path: durability rides OS writeback."""

    name = "never"


class BatchFsync(FsyncPolicy):
    """Group commit: fsync per ``max_records`` appends or ``max_interval``
    s, behind the acknowledgement (the threshold append does not wait)."""

    name = "batch"

    def __init__(self, max_records: int = 64, max_interval: float = 0.01):
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        if max_interval < 0:
            raise ValueError("max_interval must be >= 0")
        self.max_records = max_records
        self.max_interval = max_interval

    def describe(self) -> str:
        return f"batch({self.max_records},{self.max_interval:g}s)"


_BATCH_RE = re.compile(r"^batch\((\d+)\s*,\s*([0-9.]+)\)$")


def parse_policy(spec) -> FsyncPolicy:
    """Accept an :class:`FsyncPolicy` or a string spelling of one."""
    if isinstance(spec, FsyncPolicy):
        return spec
    if not isinstance(spec, str):
        raise ValueError(f"not an fsync policy: {spec!r}")
    text = spec.strip().lower()
    if text == "always":
        return AlwaysFsync()
    if text == "never":
        return NeverFsync()
    if text == "batch":
        return BatchFsync()
    m = _BATCH_RE.match(text)
    if m:
        return BatchFsync(int(m.group(1)), float(m.group(2)))
    raise ValueError(
        f"unknown fsync policy {spec!r}; expected 'always', 'never', "
        f"'batch', or 'batch(n,interval)'"
    )
