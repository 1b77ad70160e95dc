"""Online re-bulkload under drift: probe-depth-driven segment re-learning.

DyTIS's incremental structure operations (paper §3.3) react to the
segment that is full *right now*; they never revisit regions the
workload has drifted away from.  Under a shifting hotspot the index
accumulates structural debt: split-churned segments whose remapping
functions concentrate keys into a few deep buckets, and fragmented
low-utilization segments a scan still has to hop through.  Probe depth
(live keys in the routed bucket -- the binary-search space every get
pays for) degrades even though no operation is "failing".

:class:`MaintenanceController` closes that loop.  It consumes the
per-segment probe attribution collected by
:class:`repro.obs.ProbeCounters` (span-start key -> gets, PLR misses,
probe-depth sum), scores every live segment against the degradation
policy in :class:`~repro.core.config.DyTISConfig` (``maint_*`` knobs),
and re-bulkloads degraded regions in place with the same bottom-up
planner :meth:`DyTIS.bulk_load` uses:

- **segment scope** -- one degraded segment is re-learned at its
  current local depth via :func:`repro.core.bulkload.build_segment`
  (fresh PLR-planned remap, buckets refilled by slice to the
  utilization target) and swapped through :meth:`DyTIS._wire`, the
  same directory/sibling choke point every split and merge goes
  through.
- **table scope** -- when degradation is table-wide (degraded segments
  hold at least ``maint_table_fraction`` of the table's keys or
  population), the whole EH table is re-planned bottom-up with
  :func:`repro.core.bulkload.build_table_segments` -- the only scope
  that can *merge* fragmented sibling runs back into fewer, denser
  segments -- and swapped by a single directory assignment.

Both swaps are atomic under the index's single-writer model: the
replacement structure is built completely off to the side from
collected key/value runs, then wired in by directory writes plus a
write-generation bump, so a concurrent reader (server event loop,
shard worker turn) never observes partial state.  Each rebuild emits a
:class:`repro.obs.MaintenanceEvent` on the index's event bus and
advances the all-integer :class:`MaintMetrics` counters, which merge
by summation and ride a shard worker's metrics reply as ``maint_*``
counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import bulkload
from repro.core.dytis import _NO_CURSOR
from repro.core.remap import line_remap
from repro.core.segment import Segment
from repro.obs.events import MaintenanceEvent


@dataclass
class MaintMetrics:
    """All-integer maintenance counters (merge = field-wise sum).

    ``*_total`` fields are monotone counters; the ``last_*`` fields are
    gauges describing the most recent :meth:`MaintenanceController.step`.
    Integer-only so a shard worker can report them verbatim among its
    named ``maint_*`` counters (see :mod:`repro.shard.metrics`).
    """

    steps_total: int = 0
    segments_scanned_total: int = 0
    degraded_found_total: int = 0
    segment_rebuilds_total: int = 0
    table_rebuilds_total: int = 0
    keys_moved_total: int = 0
    deferred_total: int = 0
    duration_ns_total: int = 0
    last_scanned: int = 0
    last_degraded: int = 0

    def merge_from(self, other: "MaintMetrics") -> "MaintMetrics":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SegmentReport:
    """One live segment's degradation verdict from a policy scan."""

    table_index: int
    #: Span-start key (the segment's lowest storable key) -- matches the
    #: attribution key :class:`repro.obs.ProbeCounters` records.
    span: int
    local_depth: int
    n_buckets: int
    total_keys: int
    utilization: float
    #: Std of per-bucket fill normalized by bucket capacity.
    occupancy_cv: float
    gets: int = 0
    plr_misses: int = 0
    mean_probe_depth: float = 0.0
    #: Why the segment is degraded; empty tuple = healthy.
    reasons: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.reasons)


@dataclass
class _TableTally:
    segments: int = 0
    keys: int = 0
    buckets: int = 0
    degraded_segments: int = 0
    degraded_keys: int = 0
    reports: List[SegmentReport] = field(default_factory=list)


class MaintenanceController:
    """Scores segments against the ``maint_*`` policy and re-bulkloads.

    Owns no thread: :meth:`step` is called from whatever loop already
    owns the index (server event loop, shard worker turn, a test), so
    it composes with the codebase's single-writer model instead of
    adding locking.  A controller without observability still works --
    the traffic-gated reasons simply never fire and only structural
    degradation (``sparse``) is repaired.
    """

    def __init__(self, index: Any, obs: Optional[Any] = None):
        self.index = index
        self.obs = obs if obs is not None else getattr(index, "_obs", None)
        self.metrics = MaintMetrics()
        # Attribution snapshot consumed by the previous step; deltas
        # against it give only the traffic since then.
        self._baseline: Dict[int, List[int]] = {}
        # No-gain memory: spans / tables whose last rebuild attempt
        # could not improve the layout (dense runs are the canonical
        # case -- at their depth the packed-full structure is already
        # minimal).  Keyed by a structural signature; any insert,
        # delete, or split that changes it makes the region eligible
        # again.  Without this, an unfixable segment stays "degraded"
        # every scan and eats the whole rebuild budget every step.
        self._futile: Dict[int, Tuple[int, int]] = {}
        self._futile_tables: Dict[int, Tuple[int, int]] = {}

    # -- traffic -----------------------------------------------------------

    def _traffic_deltas(self) -> Dict[int, List[int]]:
        if self.obs is None:
            return {}
        totals = self.obs.probe_totals()
        return totals.segment_deltas(self._baseline)

    def _snapshot_baseline(self) -> None:
        if self.obs is None:
            return
        totals = self.obs.probe_totals()
        self._baseline = {s: list(e) for s, e in totals.segments.items()}

    # -- policy scan -------------------------------------------------------

    def scan(self) -> List[SegmentReport]:
        """Score every live segment; returns one report per segment."""
        index = self.index
        cfg = index.config
        m = index._m
        cap = cfg.bucket_capacity
        traffic = self._traffic_deltas()
        min_gets = cfg.maint_min_segment_gets
        deep_at = cfg.maint_depth_ratio * cap
        reports: List[SegmentReport] = []
        for ti, table in enumerate(index._tables):
            if table is None:
                continue
            gd = table.global_depth
            dir_ = table.dir
            i, n_dir = 0, len(dir_)
            while i < n_dir:
                seg = dir_[i]
                ld = seg.local_depth
                span = (ti << m) | (i << (m - gd))
                n_buckets = seg.n_buckets
                util = seg.utilization()
                # Skip the per-bucket pass for mega-bucket segments
                # (dense runs): the walk would dominate the scan, and
                # their skew is not repairable at this depth anyway.
                cv = _occupancy_cv(seg, cap) if n_buckets <= _CV_SCAN_LIMIT else 0.0
                reasons: List[str] = []
                gets = misses = 0
                mean_depth = 0.0
                t = traffic.get(span)
                if t is not None:
                    gets, misses, depth_sum = t
                    if gets >= min_gets:
                        mean_depth = depth_sum / gets
                        if mean_depth > deep_at:
                            reasons.append("deep_probes")
                        if n_buckets > 1 and cv > cfg.maint_skew:
                            reasons.append("occupancy_skew")
                        # PLR misses never trigger alone (absent-key
                        # lookups are legitimate misses); they only
                        # corroborate a structural anomaly.
                        if (
                            misses / gets > cfg.maint_miss_ratio
                            and cv > cfg.maint_skew / 2
                            and "occupancy_skew" not in reasons
                        ):
                            reasons.append("plr_miss")
                # Fragmentation is traffic-independent: a region the
                # hotspot abandoned gets no gets, yet scans still hop
                # through its near-empty buckets.
                if n_buckets > 1 and util < cfg.maint_util_floor:
                    reasons.append("sparse")
                reports.append(
                    SegmentReport(
                        table_index=ti,
                        span=span,
                        local_depth=ld,
                        n_buckets=n_buckets,
                        total_keys=seg.total_keys,
                        utilization=util,
                        occupancy_cv=cv,
                        gets=gets,
                        plr_misses=misses,
                        mean_probe_depth=mean_depth,
                        reasons=tuple(reasons),
                    )
                )
                i += 1 << (gd - ld)
        return reports

    # -- rebuilds ----------------------------------------------------------

    def step(self, max_rebuilds: Optional[int] = None) -> List[MaintenanceEvent]:
        """One maintenance pass: scan, pick scopes, rebuild within budget.

        Returns the :class:`MaintenanceEvent` per rebuild applied (also
        emitted on the index's event bus when observability is on).
        """
        t0 = time.perf_counter()
        index = self.index
        cfg = index.config
        budget = max_rebuilds if max_rebuilds is not None else cfg.maint_max_rebuilds
        reports = self.scan()
        tallies: Dict[int, _TableTally] = {}
        degraded_total = 0
        for r in reports:
            tally = tallies.setdefault(r.table_index, _TableTally())
            tally.segments += 1
            tally.keys += r.total_keys
            tally.buckets += r.n_buckets
            if r.degraded:
                # A span whose last rebuild was a no-gain stays out of
                # the tallies until its structure changes.
                if self._futile.get(r.span) == (r.total_keys, r.n_buckets):
                    continue
                degraded_total += 1
                tally.degraded_segments += 1
                tally.degraded_keys += r.total_keys
                tally.reports.append(r)
        events: List[MaintenanceEvent] = []
        deferred = 0
        # Worst tables first: most degraded keys get the budget.
        order = sorted(
            (t for t in tallies.values() if t.degraded_segments),
            key=lambda t: t.degraded_keys,
            reverse=True,
        )
        frac = cfg.maint_table_fraction
        for tally in order:
            # Collect-and-replan over a mega-bucket table costs far
            # more than any achievable gain (dense runs legitimately
            # inflate bucket counts; see _MEGA_SEGMENT_BUCKETS).
            table_wide = (
                tally.segments > 1
                and tally.buckets <= _MAX_TABLE_REBUILD_BUCKETS
                and (
                    tally.degraded_segments >= frac * tally.segments
                    or tally.degraded_keys >= frac * max(1, tally.keys)
                )
            )
            ti = tally.reports[0].table_index
            if table_wide and self._futile_tables.get(ti) == (
                tally.keys,
                tally.segments,
            ):
                table_wide = False  # last table rebuild gained nothing
            if table_wide:
                if budget < 1:
                    deferred += 1
                    continue
                budget -= 1
                # Depth/skew-driven rebuilds flatten fills by *adding*
                # buckets, so bucket growth is not a no-gain for them.
                allow_growth = any(
                    "deep_probes" in r.reasons or "occupancy_skew" in r.reasons
                    for r in tally.reports
                )
                ev = self._rebuild_table(ti, allow_growth=allow_growth)
                if ev is not None:
                    events.append(ev)
            else:
                # Deepest traffic first within the table.
                for r in sorted(
                    tally.reports, key=lambda r: r.mean_probe_depth, reverse=True
                ):
                    if budget < 1:
                        deferred += 1
                        continue
                    budget -= 1
                    ev = self._rebuild_segment(ti, r.span)
                    if ev is not None:
                        events.append(ev)
        # Consume the traffic window whether or not anything rebuilt:
        # the next verdicts must come from fresh observations of the
        # (possibly new) structure.
        self._snapshot_baseline()
        mx = self.metrics
        mx.steps_total += 1
        mx.segments_scanned_total += len(reports)
        mx.degraded_found_total += degraded_total
        mx.deferred_total += deferred
        mx.duration_ns_total += int((time.perf_counter() - t0) * 1e9)
        mx.last_scanned = len(reports)
        mx.last_degraded = degraded_total
        return events

    def _emit(self, event: MaintenanceEvent) -> MaintenanceEvent:
        if self.obs is not None:
            self.obs.events.emit(event)
        return event

    def _rebuild_segment(self, ti: int, span: int) -> Optional[MaintenanceEvent]:
        """Re-learn one segment at its current depth and swap it in."""
        t0 = time.perf_counter()
        index = self.index
        m = index._m
        table = index._tables[ti]
        if table is None:
            return None
        gd = table.global_depth
        local_span = span & index._local_mask
        start = local_span >> (m - gd) if gd else 0
        old = table.dir[start]
        ld = old.local_depth
        signature = (old.total_keys, old.n_buckets)
        if old.n_buckets > _MEGA_SEGMENT_BUCKETS:
            # A same-depth re-learn of a mega-bucket segment cannot
            # shrink it (the bucket count is forced by key density at
            # this domain width, not by a stale layout): skip the
            # collect/build entirely.
            self._futile[span] = signature
            self.metrics.deferred_total += 1
            return None
        keys, values = old.collect()
        local = keys & np.uint64(index._local_mask)
        # Sparse repairs shrink the bucket count; deep/skew repairs may
        # grow it toward the utilization target (at most ~1/U_t x), so
        # 2x the status quo is a generous ceiling -- anything past it
        # means no layout at this depth beats the one we have.
        fresh = bulkload.build_segment(
            ld, local, keys, values, m, index.config, index._boosted,
            max_total_buckets=max(64, 2 * old.n_buckets),
        )
        if fresh is not None and fresh.n_buckets >= old.n_buckets:
            # Only worth swapping if the re-learned layout is flatter;
            # for mega-bucket segments skip the per-bucket comparison
            # (they are never depth-repairable at this depth).
            if old.n_buckets > _CV_SCAN_LIMIT or _max_fill(fresh) >= _max_fill(old):
                fresh = None
        if fresh is None:
            self._futile[span] = signature
            self.metrics.deferred_total += 1
            return None
        index._wire(table, old, local_span, [fresh])
        index._gen += 1
        index._fused = None
        self.metrics.segment_rebuilds_total += 1
        self.metrics.keys_moved_total += len(keys)
        return self._emit(
            MaintenanceEvent(
                local_depth=ld,
                global_depth=gd,
                keys_moved=len(keys),
                duration_ns=int((time.perf_counter() - t0) * 1e9),
                scope="segment",
                span=span,
                segments_before=1,
                segments_after=1,
            )
        )

    def _rebuild_table(
        self, ti: int, allow_growth: bool = False
    ) -> Optional[MaintenanceEvent]:
        """Re-plan a whole EH table bottom-up and swap the directory."""
        t0 = time.perf_counter()
        index = self.index
        m = index._m
        cfg = index.config
        table = index._tables[ti]
        before = 0
        buckets_before = 0
        for seg in table.unique_segments():
            before += 1
            buckets_before += seg.n_buckets
        key_runs: List[Any] = []
        values: List[Any] = []
        for seg in table.unique_segments():
            ks, vs = seg.collect()
            if len(ks):
                key_runs.append(ks)
                values.extend(vs)
        sk = (
            np.concatenate(key_runs)
            if key_runs
            else np.empty(0, dtype=np.uint64)
        )
        n = int(sk.size)
        if n:
            segments = bulkload.build_table_segments(
                sk, values, 0, n, m, cfg, index._boosted
            )
        else:
            # All keys deleted since the scan: a fresh empty root
            # segment is the rebuilt table.
            segments = [Segment(0, line_remap(m, 1), cfg.bucket_capacity)]
        new_table = type(table)(segments)
        buckets_after = sum(s.n_buckets for s in segments)
        # With growth allowed (depth/skew repair) a moderate bucket
        # increase is the point -- packing toward the utilization
        # target flattens fills -- but reproducing the structure or
        # more than doubling it is not a repair.
        no_gain = len(segments) >= before and (
            (buckets_after == buckets_before or buckets_after > 2 * buckets_before)
            if allow_growth
            else buckets_after >= buckets_before
        )
        if no_gain:
            # The re-plan reproduced (or worsened) the structure it was
            # meant to repair: keep the live table and remember the
            # signature so the next steps skip this scope.
            self._futile_tables[ti] = (n, before)
            self.metrics.deferred_total += 1
            return None
        # Single reference assignment + generation bump = atomic swap
        # under the single-writer model; in-flight readers finish on the
        # old table object, which stays internally consistent.
        index._tables[ti] = new_table
        index._cursor = _NO_CURSOR  # it may point into the old table
        index._gen += 1
        index._fused = None
        self.metrics.table_rebuilds_total += 1
        self.metrics.keys_moved_total += n
        return self._emit(
            MaintenanceEvent(
                local_depth=0,
                global_depth=new_table.global_depth,
                keys_moved=n,
                duration_ns=int((time.perf_counter() - t0) * 1e9),
                scope="table",
                span=ti << m,
                segments_before=before,
                segments_after=len(segments),
            )
        )

    # -- exposition --------------------------------------------------------

    def snapshot_block(self) -> Dict[str, int]:
        """The ``snapshot["maint"]`` dict for metrics exposition."""
        return self.metrics.to_dict()

    def augment_snapshot(self, snapshot: Dict) -> Dict:
        """Attach the maintenance block to an obs snapshot in place."""
        snapshot["maint"] = self.snapshot_block()
        return snapshot


#: Per-bucket walks (occupancy cv, max-fill comparisons) are skipped
#: above this bucket count: dense sequential runs legitimately grow
#: segments to millions of near-full buckets, and walking them every
#: scan would cost more than the repair they can never receive.
_CV_SCAN_LIMIT = 4096

#: Segments past this bucket count are never re-learned in place.  A
#: bucket count this far above any utilization target means the layout
#: is forced by key density relative to the domain width (a dense
#: sequential run under a wide prefix); only inserts/deletes that
#: change the population can help, and the futility memory retries
#: exactly then.
_MEGA_SEGMENT_BUCKETS = 1 << 16

#: Tables whose live bucket count exceeds this are excluded from
#: table-wide collect-and-replan (segment-scope repairs still apply).
_MAX_TABLE_REBUILD_BUCKETS = 1 << 20


def _max_fill(seg: Any) -> int:
    """Deepest live bucket in the segment (probe-depth worst case)."""
    return max(seg.store.counts, default=0)


def _occupancy_cv(seg: Any, capacity: int) -> float:
    """Std of per-bucket live counts, normalized by bucket capacity.

    A freshly planned segment fills buckets near-evenly (low cv); a
    split-churned one concentrates keys into a few deep buckets with
    empty neighbours (high cv).
    """
    if seg.n_buckets <= 1:
        return 0.0
    arr = np.asarray(seg.store.counts, dtype=np.float64)
    return float(arr.std() / capacity)
