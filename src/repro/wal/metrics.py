"""WAL metrics: throughput, fsync, checkpoint, and replay counters.

One :class:`WalMetrics` travels with one live :class:`~repro.wal.log.
WriteAheadLog` (and is shared with the wrapping ``DurableKVStore``).
The log does not write ``appends_total``, ``ops_logged_total``,
``bytes_written_total`` or ``last_lsn`` per append: it derives them and
publishes them into this object whenever ``log.metrics`` or
``store.metrics`` is read, and at rotation and close.  A caller that
keeps the object of a live log between reads sees those four fields as
of its last read.
The counters feed the observability exposition: a snapshot carrying a
``"wal"`` block renders one ``<prefix>_wal_<field>`` family per field
through :func:`repro.obs.exposition.family`, which types a ``*_total``
field as a counter and any other as a gauge -- name new fields by that
rule.  The CI metrics smoke parses the series back.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class WalMetrics:
    #: Appended WAL records / logical operations inside them (a batch
    #: record counts once in ``appends_total`` and N times here).
    appends_total: int = 0
    ops_logged_total: int = 0
    bytes_written_total: int = 0
    #: fsync calls issued and wall time spent inside them.
    fsyncs_total: int = 0
    fsync_ns_total: int = 0
    #: Segment lifecycle.
    rotations_total: int = 0
    segments_truncated_total: int = 0
    #: Checkpoints taken (snapshot written + dead segments dropped).
    checkpoints_total: int = 0
    checkpoint_ns_total: int = 0
    #: Recovery: replays run, records applied, time spent, and how the
    #: log tail looked (a torn tail after a crash is *expected*; a CRC
    #: failure in the middle of a synced region is not).
    replays_total: int = 0
    records_replayed_total: int = 0
    replay_ns_total: int = 0
    torn_tails_total: int = 0
    crc_failures_total: int = 0
    #: Point-in-time state (gauges).
    last_lsn: int = 0
    durable_lsn: int = 0
    live_segments: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
