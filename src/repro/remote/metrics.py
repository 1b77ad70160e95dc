"""Remote-shipping metrics: uploads, retries, backoff, attach timing.

One :class:`RemoteMetrics` travels with one
:class:`~repro.remote.uploader.Uploader` (and is shared with the
attach path when a store recovers from remote).  The dict form plugs
into :func:`repro.obs.exposition.snapshot_to_prometheus` as the
``"remote"`` block: one ``<prefix>_remote_<field>`` family per field on
the WAL counters' page, typed by :func:`repro.obs.exposition.family`'s
rule (``*_total`` a counter, the rest gauges).  A shard worker reports
them as ``remote_*`` counters in its metrics reply.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class RemoteMetrics:
    #: Objects shipped (checkpoints, segments, manifests) and their bytes.
    uploads_total: int = 0
    upload_bytes_total: int = 0
    #: Ship operations abandoned after the retry policy gave up.
    upload_failures_total: int = 0
    #: Retry machinery: transient errors seen, of which timeouts, and
    #: wall time spent backing off between attempts.
    retries_total: int = 0
    timeouts_total: int = 0
    backoff_ns_total: int = 0
    #: Manifest generations published and remote objects GC'd.
    manifests_published_total: int = 0
    deletes_total: int = 0
    #: Attach (restore-from-remote): runs, objects and bytes pulled,
    #: wall time.
    attaches_total: int = 0
    attach_objects_total: int = 0
    attach_bytes_total: int = 0
    attach_ns_total: int = 0
    #: Point-in-time state (gauges): newest published generation, the
    #: highest LSN restorable from remote, and sealed segments still
    #: waiting to ship (these pin local WAL truncation).
    generation: int = 0
    shipped_lsn: int = 0
    pending_segments: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
