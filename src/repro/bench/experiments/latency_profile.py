"""Latency-distribution profile: the shape behind Table 2's tails.

The paper attributes DyTIS's p99.99 to remapping large segments and
ALEX's (3x larger) to model retraining: both should show as a second
latency mode decades above the fast path during Load, while the B+-tree
stays (near-)unimodal.  This experiment captures per-insert latencies into
:class:`repro.obs.LatencyHistogram` and renders them over power-of-two
rows, a terminal view in which that slow mode stands apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bench.adapters import make_adapter
from repro.bench.experiments.scale import ExperimentScale, default_scale
from repro.bench.harness import run_load
from repro.datasets import generate
from repro.obs import LatencyHistogram

INDEXES = ("DyTIS", "ALEX-10", "B+-tree")

_BAR = "█"


@dataclass(frozen=True)
class LatencyProfileRow:
    dataset: str
    index: str
    histogram: LatencyHistogram
    modes: int


def run(
    scale: ExperimentScale = None, datasets: Sequence[str] = ("RM",)
) -> List[LatencyProfileRow]:
    scale = scale or default_scale()
    rows: List[LatencyProfileRow] = []
    for ds in datasets:
        keys = generate(ds, scale.n_keys, scale.seed)
        for ix in INDEXES:
            adapter = make_adapter(ix, scale.dytis_config())
            result = run_load(adapter, keys, capture_latency=True)
            hist = LatencyHistogram()
            hist.record_many(result.extra["samples_ns"])
            # Structural ops are rare by design (one remapping covers
            # thousands of fast inserts), so the slow mode carries well
            # under 1% of samples; 0.2% keeps it visible without noise.
            rows.append(
                LatencyProfileRow(ds, ix, hist, mode_count(hist, min_share=0.002))
            )
    return rows


def format_table(rows: List[LatencyProfileRow]) -> str:
    parts = ["Load latency profiles (log2 ns buckets)"]
    for r in rows:
        parts.append(
            render(
                r.histogram,
                title=f"-- {r.dataset} / {r.index} "
                      f"({r.modes} mode{'s' if r.modes != 1 else ''})",
            )
        )
    return "\n\n".join(parts)


def log2_buckets(hist: LatencyHistogram) -> List[Tuple[int, int, int]]:
    """``(low_ns, high_ns, count)`` per used power-of-two row.

    Groups ``hist``'s log-linear buckets by power of two.  Each bucket
    lies inside one, so the rows are exact; the ``[0, 1)`` bucket joins
    ``[1, 2)``, and the overflow bucket (2^40 ns and up) the last row.
    """
    counts: Dict[int, int] = {}
    for low, _high, count in hist.nonzero_buckets():
        b = max(low, 1).bit_length() - 1
        counts[b] = counts.get(b, 0) + count
    return [(1 << b, 1 << (b + 1), counts[b]) for b in sorted(counts)]


def render(hist: LatencyHistogram, width: int = 40, title: str = "") -> str:
    """Proportional terminal rendering, one line per power of two."""
    lines = [title] if title else []
    rows = log2_buckets(hist)
    if not rows:
        return "\n".join(lines + ["(no samples)"])
    peak = max(count for _, _, count in rows)
    for low, high, count in rows:
        share = count / hist.count
        bar = _BAR * max(1, round(count / peak * width))
        lines.append(
            f"{_fmt_ns(low):>8}-{_fmt_ns(high):<8} "
            f"{bar:<{width}} {count:>8,d} ({share:6.2%})"
        )
    return "\n".join(lines)


def mode_count(
    hist: LatencyHistogram, min_share: float = 0.01, gap_buckets: int = 2
) -> int:
    """Number of separated modes carrying at least ``min_share``.

    A second mode far above the first is the structural-operation
    tail (remapping/retraining); uni- vs bi-modality is therefore a
    checkable property of an index's latency profile.
    """
    n = max(hist.count, 1)
    lows = [low for low, _, count in log2_buckets(hist) if count / n >= min_share]
    if not lows:
        return 0
    modes = 1
    prev_exp = lows[0].bit_length()
    for low in lows[1:]:
        exp = low.bit_length()
        if exp - prev_exp > gap_buckets:
            modes += 1
        prev_exp = exp
    return modes


def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.0f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.0f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.0f}µs"
    return f"{ns}ns"
