"""§4.3 insertion-time breakdown for DyTIS.

The paper reports, per dataset, the share of structure-maintenance time
spent in split / remapping / expansion / doubling: remapping dominates
for the high-skewness RM/RL, while TX (high KDD) spends large shares on
both remapping and expansion.  The paper also notes remapping cost is
~58% memory copy; we report keys moved as that proxy.  A second table
gives each operation's count and mean cost (failed remap attempts
included), the figure a restructure optimisation is judged by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.bench.adapters import DyTISAdapter
from repro.bench.experiments.scale import ExperimentScale, default_scale
from repro.bench.harness import run_load
from repro.datasets import GROUP1, generate


@dataclass(frozen=True)
class BreakdownRow:
    dataset: str
    split_share: float
    expansion_share: float
    remap_share: float
    doubling_share: float
    keys_moved: int
    counts: dict
    #: ``{op: (count, mean µs)}`` from :meth:`OperationStats.op_costs`.
    op_costs: dict


def run(
    scale: ExperimentScale = None, datasets: Sequence[str] = GROUP1
) -> List[BreakdownRow]:
    scale = scale or default_scale()
    rows: List[BreakdownRow] = []
    for ds in datasets:
        adapter = DyTISAdapter(scale.dytis_config())
        run_load(adapter, generate(ds, scale.n_keys, scale.seed))
        stats = adapter.index.stats
        shares = stats.breakdown()
        rows.append(
            BreakdownRow(
                dataset=ds,
                split_share=shares["split"],
                expansion_share=shares["expansion"],
                remap_share=shares["remapping"],
                doubling_share=shares["doubling"],
                keys_moved=stats.keys_moved,
                counts={
                    "splits": stats.splits,
                    "expansions": stats.expansions,
                    "remappings": stats.remappings,
                    "doublings": stats.doublings,
                },
                op_costs=stats.op_costs(),
            )
        )
    return rows


def format_table(rows: List[BreakdownRow]) -> str:
    lines = ["Insertion breakdown: share of structure-maintenance time",
             f"{'dataset':<8} {'split':>8} {'expand':>8} {'remap':>8} "
             f"{'double':>8} {'keys moved':>12}"]
    for r in rows:
        lines.append(
            f"{r.dataset:<8} {r.split_share:>8.2f} {r.expansion_share:>8.2f} "
            f"{r.remap_share:>8.2f} {r.doubling_share:>8.2f} {r.keys_moved:>12,d}"
        )
    ops = ("split", "remap", "expansion", "doubling")
    lines += ["", "Per-operation cost: count / mean µs (remap counts failed attempts)",
              f"{'dataset':<8} " + " ".join(f"{op:>17}" for op in ops)]
    for r in rows:
        cells = (f"{r.op_costs[op][0]:>8,d} {r.op_costs[op][1]:>8.1f}" for op in ops)
        lines.append(f"{r.dataset:<8} " + " ".join(cells))
    return "\n".join(lines)
