"""§4.3 memory-usage analysis.

Deep-sizes each index after loading a dataset.  Expected shape (paper):
DyTIS uses the most memory of the non-XIndex structures (partially
filled fixed buckets); ALEX/B+-tree use ~20-30% less; XIndex far more
(delta structures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.bench.adapters import make_adapter
from repro.bench.experiments.scale import ExperimentScale, default_scale
from repro.bench.harness import run_load
from repro.bench.memory import deep_size_bytes
from repro.datasets import generate

INDEXES = (
    "DyTIS",
    "ALEX-10",
    "ALEX-70",
    "XIndex",
    "B+-tree",
)


@dataclass(frozen=True)
class MemoryRow:
    dataset: str
    index: str
    bytes_used: int
    relative_to_dytis: float


def run(
    scale: ExperimentScale = None,
    datasets: Sequence[str] = ("MM", "RM", "TX"),
    indexes: Sequence[str] = INDEXES,
) -> List[MemoryRow]:
    scale = scale or default_scale()
    rows: List[MemoryRow] = []
    for ds in datasets:
        keys = generate(ds, scale.n_keys, scale.seed)
        sizes = {}
        for ix in indexes:
            adapter = make_adapter(ix, scale.dytis_config())
            run_load(adapter, keys)
            sizes[ix] = deep_size_bytes(adapter.index)
        base = sizes.get("DyTIS", 1)
        for ix in indexes:
            rows.append(MemoryRow(ds, ix, sizes[ix], sizes[ix] / base))
    return rows


def format_table(rows: List[MemoryRow]) -> str:
    lines = ["Memory usage after load (deep size)",
             f"{'dataset':<8} {'index':<15} {'MiB':>10} {'vs DyTIS':>9}"]
    for r in rows:
        lines.append(
            f"{r.dataset:<8} {r.index:<15} {r.bytes_used / 2**20:>10.2f} "
            f"{r.relative_to_dytis:>9.2f}"
        )
    return "\n".join(lines)
