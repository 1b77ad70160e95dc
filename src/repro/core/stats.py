"""Operation statistics for DyTIS (paper §4.3 insertion breakdown).

Counts and wall-clock time of each structure-maintaining operation, plus
the number of keys moved (the paper's memory-copy overhead proxy: 58% of
remapping cost is memory copy).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OperationStats:
    """Mutable counters attached to one DyTIS instance."""

    splits: int = 0
    expansions: int = 0
    remappings: int = 0
    doublings: int = 0
    merges: int = 0
    remap_failures: int = 0
    expansion_failures: int = 0
    #: Keys copied into fresh segments by splits/expansions/remappings.
    keys_moved: int = 0
    #: Bottom-up bulk loads run and the keys they laid out directly.
    bulk_loads: int = 0
    keys_bulk_loaded: int = 0
    bulk_load_time: float = 0.0
    split_time: float = 0.0
    expansion_time: float = 0.0
    remap_time: float = 0.0
    doubling_time: float = 0.0

    def structural_ops(self) -> int:
        return self.splits + self.expansions + self.remappings + self.doublings

    def structural_time(self) -> float:
        return (
            self.split_time
            + self.expansion_time
            + self.remap_time
            + self.doubling_time
        )

    def op_costs(self) -> dict:
        """``{op: (count, mean µs)}`` per structure operation.  A remap's
        count includes its failed attempts, whose time ``remap_time``
        also holds; a refused expansion costs a size check and is not
        counted."""
        ops = {
            "split": (self.splits, self.split_time),
            "remap": (self.remappings + self.remap_failures, self.remap_time),
            "expansion": (self.expansions, self.expansion_time),
            "doubling": (self.doublings, self.doubling_time),
        }
        return {
            op: (n, t / n * 1e6 if n else 0.0) for op, (n, t) in ops.items()
        }

    def breakdown(self) -> dict:
        """Per-operation share of structural time (paper's breakdown)."""
        total = self.structural_time()
        if total == 0.0:
            return {"split": 0.0, "expansion": 0.0, "remapping": 0.0, "doubling": 0.0}
        return {
            "split": self.split_time / total,
            "expansion": self.expansion_time / total,
            "remapping": self.remap_time / total,
            "doubling": self.doubling_time / total,
        }
