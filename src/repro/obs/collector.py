"""The per-index observability collector.

One :class:`Observability` instance travels with one index: it owns a
:class:`~repro.obs.histogram.LatencyHistogram` per operation kind, the
structural :class:`~repro.obs.events.EventBus` (with a ring-buffer trace
recorder attached), and probe-depth counters.  The index records into it
behind a single ``is not None`` branch, so a disabled collector costs
the hot path nothing but that branch.

Concurrent writers (the per-EH-table paths of ``ConcurrentDyTIS``) use
:meth:`Observability.new_shard`: each shard is written by its own table
without any locking, and :meth:`histogram` / :meth:`probe_totals` merge
primary + shards on *read*, which is the rare operation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.obs.events import EVENT_KINDS, EventBus, RingBufferRecorder
from repro.obs.histogram import LatencyHistogram

#: Operation kinds with a dedicated latency histogram.
OP_KINDS = ("get", "insert", "delete", "scan", "bulk_load")


#: Soft cap on distinct key spans tracked per counter instance.  Span
#: starts are segment span boundaries, so the population is bounded by
#: the segment count in practice; the cap only guards degenerate
#: workloads from growing the dict without limit (established spans
#: keep counting past it, new ones are dropped).
SEGMENT_ATTR_CAP = 1 << 16


@dataclass
class ProbeCounters:
    """Probe-depth counters: how much structure each operation touches.

    Complements :class:`repro.core.stats.OperationStats` (which counts
    structure *changes*) with read-path depth: DyTIS's headline claim is
    O(1) probes per get, and these counters make that checkable on any
    workload.

    Besides the global totals, gets are *attributed per segment key
    span* in :attr:`segments`: the span-start key of the probed segment
    maps to ``[gets, plr_misses, probe_depth_sum]``.  Span starts are
    stable identifiers for key regions (a rebuilt segment covering the
    same span accumulates into the same entry) and per-span merge is
    element-wise addition, so the shards of a concurrent collector
    merge on read exactly like the scalar counters.  The maintenance
    controller consumes these deltas to find degraded segments.
    """

    #: Point lookups observed and the buckets they probed (DyTIS routes
    #: each get to exactly one bucket; a ratio above 1.0 would falsify
    #: the O(1)-probe claim on the spot).
    gets: int = 0
    buckets_probed: int = 0
    #: Gets whose PLR sub-range routing landed on the key (hit) vs.
    #: probed a bucket that did not hold it (absent key or model miss).
    plr_hits: int = 0
    plr_misses: int = 0
    #: Scans observed and the sibling-chain hops (segment-to-segment
    #: transitions) they needed beyond the start segment.
    scans: int = 0
    scan_segment_hops: int = 0
    #: Live keys in the probed bucket, summed over gets: the binary
    #: search space each probe faced.  ``probe_depth_sum / gets`` is the
    #: mean probe depth -- the degradation signal maintenance watches.
    probe_depth_sum: int = 0
    #: Per-segment attribution: span-start key -> [gets, misses,
    #: depth_sum].
    segments: Dict[int, List[int]] = field(default_factory=dict)

    def note_get(self, span: int, depth: int, hit: bool) -> None:
        """Record one routed get: global totals + span attribution."""
        self.gets += 1
        self.buckets_probed += 1
        self.probe_depth_sum += depth
        miss = 0 if hit else 1
        if hit:
            self.plr_hits += 1
        else:
            self.plr_misses += 1
        ent = self.segments.get(span)
        if ent is None:
            if len(self.segments) >= SEGMENT_ATTR_CAP:
                return
            self.segments[span] = [1, miss, depth]
        else:
            ent[0] += 1
            ent[1] += miss
            ent[2] += depth

    def merge_from(self, other: "ProbeCounters") -> "ProbeCounters":
        for name in _SCALAR_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        mine = self.segments
        for span, ent in other.segments.items():
            cur = mine.get(span)
            if cur is None:
                mine[span] = list(ent)
            else:
                cur[0] += ent[0]
                cur[1] += ent[1]
                cur[2] += ent[2]
        return self

    def to_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            name: getattr(self, name) for name in _SCALAR_FIELDS
        }
        out["buckets_per_get"] = (
            self.buckets_probed / self.gets if self.gets else 0.0
        )
        out["hops_per_scan"] = (
            self.scan_segment_hops / self.scans if self.scans else 0.0
        )
        out["mean_probe_depth"] = (
            self.probe_depth_sum / self.gets if self.gets else 0.0
        )
        out["attributed_segments"] = len(self.segments)
        return out

    def segment_deltas(
        self, since: Optional[Dict[int, List[int]]] = None
    ) -> Dict[int, List[int]]:
        """Per-span attribution accumulated since ``since`` (a snapshot
        of :attr:`segments` from an earlier read).  Entries whose counts
        did not advance are omitted, so a maintenance scan only sees
        spans with fresh traffic."""
        out: Dict[int, List[int]] = {}
        for span, ent in self.segments.items():
            if since is not None:
                prev = since.get(span)
                if prev is not None:
                    delta = [ent[0] - prev[0], ent[1] - prev[1], ent[2] - prev[2]]
                    if delta[0] > 0:
                        out[span] = delta
                    continue
            if ent[0] > 0:
                out[span] = list(ent)
        return out


#: Scalar fields of ProbeCounters, in declaration order.
_SCALAR_FIELDS = tuple(
    f.name for f in fields(ProbeCounters) if f.name != "segments"
)


class ObsShard:
    """One writer domain's histogram set + probe counters.

    ``lock`` is a leaf mutex for writers that share a shard (e.g. two
    threads reading the same EH table): scoped to the shard, it bounds
    contention to one table instead of the whole collector.  A shard
    with exactly one writer can skip it and call :meth:`record`.
    """

    __slots__ = ("latency", "probes", "lock")

    def __init__(self) -> None:
        self.latency: Dict[str, LatencyHistogram] = {
            op: LatencyHistogram() for op in OP_KINDS
        }
        self.probes = ProbeCounters()
        self.lock = threading.Lock()

    def record(self, op: str, ns: int) -> None:
        self.latency[op].record(ns)

    def record_locked(self, op: str, ns: int) -> None:
        with self.lock:
            self.latency[op].record(ns)


class Observability:
    """Collector for one index: histograms, events, probes, shards.

    ``enabled=False`` builds a collector the index will treat as absent
    (see ``DyTIS.__init__``), so a config flag can gate instrumentation
    without branching at every call site.
    """

    def __init__(self, enabled: bool = True, trace_capacity: int = 1024):
        self.enabled = enabled
        self.events = EventBus()
        self.trace = RingBufferRecorder(trace_capacity)
        self.trace.attach(self.events)
        self._primary = ObsShard()
        self._shards: List[ObsShard] = []
        self._shard_lock = threading.Lock()

    # -- recording (primary shard) ----------------------------------------

    @property
    def probes(self) -> ProbeCounters:
        return self._primary.probes

    def record(self, op: str, ns: int) -> None:
        """Record one operation latency into the primary shard."""
        self._primary.latency[op].record(ns)

    def recorder(self, op: str):
        """Bound fast-path recorder for ``op``'s primary histogram.

        Indexes bind this once at construction; the per-operation cost
        is one C-level append into the histogram's pending buffer --
        no dict lookup, no wrapper frames.  The buffer folds on every
        read (queries, merges, exposition snapshots); see
        :meth:`LatencyHistogram.fast_recorder` for the bound.
        """
        return self._primary.latency[op].fast_recorder()

    # -- sharding ---------------------------------------------------------

    def new_shard(self) -> ObsShard:
        """A private shard for one concurrent writer, merged on read."""
        shard = ObsShard()
        with self._shard_lock:
            self._shards.append(shard)
        return shard

    def structural_view(self) -> "_StructuralView":
        """A view sharing this collector's event bus and probe counters
        but discarding latency records -- for an inner index whose
        operations are already timed by a wrapping layer."""
        return _StructuralView(self)

    # -- reading (merge on read) --------------------------------------------

    def histogram(self, op: str) -> LatencyHistogram:
        """Merged histogram for ``op`` across the primary and all shards.

        Each shard is merged under its leaf lock: merging flushes the
        shard's pending sample buffer, which must not race a writer
        recording into the same shard.
        """
        with self._shard_lock:
            shards = list(self._shards)
        merged = LatencyHistogram()
        for shard in [self._primary] + shards:
            with shard.lock:
                merged.merge_from(shard.latency[op])
        return merged

    def probe_totals(self) -> ProbeCounters:
        with self._shard_lock:
            shards = list(self._shards)
        total = ProbeCounters()
        for shard in [self._primary] + shards:
            with shard.lock:
                total.merge_from(shard.probes)
        return total

    def snapshot(self, op_stats=None, extra: Optional[Dict] = None) -> Dict:
        """One JSON-ready metrics snapshot of everything collected.

        ``op_stats`` (a :class:`repro.core.stats.OperationStats`) is
        included verbatim when given so exposition consumers can
        reconcile event counts against the index's own counters.
        """
        snap: Dict = {
            "latency": {
                op: self.histogram(op).to_dict() for op in OP_KINDS
            },
            "events": {
                "counts": dict(self.events.counts),
                "keys_moved": dict(self.events.keys_moved),
                "duration_ns": dict(self.events.duration_ns),
            },
            "probes": self.probe_totals().to_dict(),
        }
        if op_stats is not None:
            snap["op_stats"] = {
                "splits": op_stats.splits,
                "expansions": op_stats.expansions,
                "remappings": op_stats.remappings,
                "doublings": op_stats.doublings,
                "merges": op_stats.merges,
                "remap_failures": op_stats.remap_failures,
                "expansion_failures": op_stats.expansion_failures,
                "keys_moved": op_stats.keys_moved,
                "bulk_loads": op_stats.bulk_loads,
                "keys_bulk_loaded": op_stats.keys_bulk_loaded,
            }
        if extra:
            snap["extra"] = dict(extra)
        return snap


class _StructuralView:
    """Observability facade that keeps events/probes, drops latencies."""

    __slots__ = ("events", "_parent")

    def __init__(self, parent: Observability):
        self.events = parent.events
        self._parent = parent

    @property
    def enabled(self) -> bool:
        return self._parent.enabled

    @property
    def probes(self) -> ProbeCounters:
        return self._parent.probes

    def record(self, op: str, ns: int) -> None:
        """Latency already timed by the wrapping layer; discard."""

    def recorder(self, op: str):
        """No-op recorder: the wrapping layer owns latency timing."""
        return _discard_latency


def _discard_latency(ns: int) -> None:
    """Module-level no-op so bound recorders stay allocation-free."""


# Re-exported for exposition typing convenience.
__all__ = [
    "OP_KINDS",
    "EVENT_KINDS",
    "Observability",
    "ObsShard",
    "ProbeCounters",
]
