"""DyTIS -- the paper's primary contribution.

A two-level index over fixed-width integer keys: the first level
statically partitions the key space by the R most significant bits into
2^R Extendible-Hashing tables; each EH table routes the remaining bits
through a directory to variable-size *segments* whose piecewise-linear
*remapping functions* (incrementally learned CDFs) spread skewed keys
uniformly over sorted buckets.  Because the remapping functions are
monotone in the raw key, buckets preserve natural key order and range
scans work inside what is otherwise a hash table -- the paper's key
novelty.

Public API:

- :class:`DyTIS` -- single-threaded index (paper §3.2-3.3).
- :class:`ConcurrentDyTIS` -- two-level-locking wrapper (paper §3.4).
- :class:`DyTISConfig` -- the tuning knobs studied in paper §4.3.
"""

from repro.core.config import DyTISConfig
from repro.core.invariants import InvariantViolation, check_invariants
from repro.core.remap import PiecewiseRemap
from repro.core.segment import Segment
from repro.core.storage import ColumnarStorage
from repro.core.dytis import DyTIS
from repro.core.concurrent import ConcurrentDyTIS
from repro.core.maintenance import (
    MaintenanceController,
    MaintMetrics,
    SegmentReport,
)
from repro.core.stats import OperationStats

__all__ = [
    "DyTIS",
    "ConcurrentDyTIS",
    "MaintenanceController",
    "MaintMetrics",
    "SegmentReport",
    "DyTISConfig",
    "PiecewiseRemap",
    "Segment",
    "ColumnarStorage",
    "InvariantViolation",
    "check_invariants",
    "OperationStats",
]
