"""Cross-process metrics plumbing for the sharded front-end.

Each shard worker owns a private :class:`repro.obs.Observability`; the
router scrapes it over the control channel.  The worker's ``"metrics"``
reply is a :class:`WorkerMetrics`, pickled like every other message on
the pipe (``repro.shard.worker.dumps``): its histograms are the merged,
flushed copies :meth:`~repro.obs.Observability.histogram` returns, so
no pending raw samples ride along.

On scrape the router renders one Prometheus page: per-shard series
(``..._ops_total{shard="2",op="get"}``) for capacity balance, plus the
shard-merged latency block (histograms merge exactly, bucket-wise) so
dashboards built against a single-process index keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.obs.exposition import family, snapshot_to_prometheus
from repro.obs.histogram import LatencyHistogram


@dataclass
class WorkerMetrics:
    """One worker's latency histograms and named counters."""

    latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)


def shards_to_prometheus(
    per_shard: Sequence[WorkerMetrics], prefix: str = "dytis_shard"
) -> str:
    """Prometheus page: per-shard balance series + merged histograms."""
    shards = list(enumerate(per_shard))
    page = [
        family(
            f"{prefix}_ops_total",
            "Operations served, by shard and op kind.",
            [
                ("", {"shard": sid, "op": op}, wm.latency[op].count)
                for sid, wm in shards
                for op in sorted(wm.latency)
            ],
        ),
        family(
            f"{prefix}_keys",
            "Live keys held, by shard.",
            [("", {"shard": s}, wm.counters.get("size", 0)) for s, wm in shards],
        ),
    ]
    # Maintenance counters (workers that ran a maintenance step attach
    # them as ``maint_*`` named counters; see repro.core.maintenance).
    maint_names = sorted(
        {c for _, wm in shards for c in wm.counters if c.startswith("maint_")}
    )
    for cname in maint_names:
        page.append(
            family(
                f"{prefix}_{cname}",
                f"Online maintenance: "
                f"{cname[len('maint_'):].replace('_', ' ')}, by shard.",
                [
                    ("", {"shard": sid}, wm.counters[cname])
                    for sid, wm in shards
                    if cname in wm.counters
                ],
            )
        )
    merged: Dict[str, LatencyHistogram] = {}
    for wm in per_shard:
        for op, hist in wm.latency.items():
            merged.setdefault(op, LatencyHistogram()).merge_from(hist)
    snap = {"latency": {op: h.to_dict() for op, h in merged.items()}}
    page.append(snapshot_to_prometheus(snap, prefix))
    return "".join(page)
