"""DyTIS configuration (the parameters studied in paper §4.1 and §4.3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class DyTISConfig:
    """Tuning knobs for :class:`repro.core.DyTIS`.

    Paper defaults: 64-bit keys, R = 9 first-level bits, 2 KB buckets
    (128 key/value pairs at 8+8 bytes), U_t = 0.6, L_start = 6, segment
    size limit factor 2 (boosted to 128 for expansion-heavy datasets).
    Scaled-down tests typically shrink ``first_level_bits``,
    ``bucket_capacity``, and ``l_start``.
    """

    #: Key width n in bits; keys must lie in [0, 2^n).
    key_bits: int = 64
    #: R -- MSBs selecting the first-level EH table (array size 2^R).
    first_level_bits: int = 9
    #: Key/value pairs per bucket (paper: 2 KB bucket = 128 pairs).
    bucket_capacity: int = 128
    #: U_t -- utilization threshold steering Algorithm 1.
    util_threshold: float = 0.6
    #: L_start -- local depth at which remapping/expansion begin;
    #: below it only basic Extendible-hashing split/doubling run.
    l_start: int = 6
    #: Limit_seg -- base segment-size limit factor: a depth-LD segment
    #: may hold at most ``seg_limit_factor * 2^(LD - l_start)`` buckets.
    seg_limit_factor: int = 2
    #: Boosted factor applied when the dataset proves expansion-heavy.
    seg_limit_boost: int = 128
    #: L' = l_start + this offset: depth at which the boost decision is
    #: taken from observed expansion/split proportions.
    boost_check_offset: int = 2
    #: Boost when expansions exceed this fraction of the split+expansion
    #: operations observed between L_start and L'.  Skewed datasets are
    #: remapping/split-heavy (fractions near 0); near-uniform datasets
    #: expand repeatedly (fractions well above this).
    boost_portion_threshold: float = 0.2
    #: Cap on remapping-function granularity: at most 2^max_piece_bits
    #: sub-ranges per segment.
    max_piece_bits: int = 12
    #: Name of the one segment layout (structure-of-arrays: a contiguous
    #: uint64 key array per segment with gapped slack).  A class
    #: constant kept for provenance records, not an init field.
    storage: ClassVar[str] = "columnar"

    # -- online-maintenance degradation policy ------------------------
    # Thresholds the MaintenanceController (repro.core.maintenance)
    # scores segments against.  They only matter when a controller is
    # attached; a bare index never reads them on the hot path.

    #: Minimum observed gets attributed to a segment's span before its
    #: probe statistics are trusted for a degradation verdict.
    maint_min_segment_gets: int = 64
    #: Deep-probe threshold: a segment whose traffic-weighted mean
    #: probe depth (live keys in the probed bucket) exceeds this
    #: fraction of ``bucket_capacity`` is running out of insert
    #: headroom where its traffic lands.
    maint_depth_ratio: float = 0.85
    #: PLR-miss threshold: fraction of a segment's gets that probed a
    #: bucket not holding the key.  Misses alone never trigger a
    #: rebuild (absent-key lookups are legitimate misses); the ratio
    #: corroborates a structural signal.
    maint_miss_ratio: float = 0.5
    #: Occupancy-skew threshold: standard deviation of per-bucket fill
    #: levels, normalized by ``bucket_capacity``.  A freshly planned
    #: segment sits well under this; split-churned segments whose
    #: remapping concentrates keys into a few near-full buckets
    #: (empty ones beside them) sit above it.
    maint_skew: float = 0.35
    #: Fragmentation floor: a multi-bucket segment whose utilization
    #: fell below this (drifted-away hotspot, delete churn) is degraded
    #: regardless of traffic -- scans crossing it pay per-segment hops
    #: for almost no keys.
    maint_util_floor: float = 0.25
    #: Rebuild a whole EH table bottom-up (instead of per-segment
    #: re-learning) when degraded segments hold at least this fraction
    #: of the table's keys or of its segment population.
    maint_table_fraction: float = 0.25
    #: Budget per maintenance step: at most this many rebuild
    #: operations (segment or table) are applied per call, keeping a
    #: background step's stop-the-world slice bounded.
    maint_max_rebuilds: int = 8

    def __post_init__(self):
        if not 1 <= self.key_bits <= 64:
            raise ValueError("key_bits must be in [1, 64]")
        if not 0 <= self.first_level_bits < self.key_bits:
            raise ValueError("first_level_bits must be in [0, key_bits)")
        if self.bucket_capacity < 2:
            raise ValueError("bucket_capacity must be >= 2")
        if not 0.0 < self.util_threshold <= 1.0:
            raise ValueError("util_threshold must be in (0, 1]")
        if self.l_start < 0:
            raise ValueError("l_start must be >= 0")
        if self.seg_limit_factor < 1 or self.seg_limit_boost < 1:
            raise ValueError("segment limit factors must be >= 1")
        if self.max_piece_bits < 0:
            raise ValueError("max_piece_bits must be >= 0")
        if self.maint_min_segment_gets < 1:
            raise ValueError("maint_min_segment_gets must be >= 1")
        for name in ("maint_depth_ratio", "maint_miss_ratio"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.maint_skew <= 0.0:
            raise ValueError("maint_skew must be > 0")
        if not 0.0 <= self.maint_util_floor < 1.0:
            raise ValueError("maint_util_floor must be in [0, 1)")
        if not 0.0 < self.maint_table_fraction <= 1.0:
            raise ValueError("maint_table_fraction must be in (0, 1]")
        if self.maint_max_rebuilds < 1:
            raise ValueError("maint_max_rebuilds must be >= 1")

    @property
    def eh_key_bits(self) -> int:
        """m = n - R: bits handled inside each second-level EH table."""
        return self.key_bits - self.first_level_bits

    def segment_cap(self, local_depth: int, boosted: bool) -> int:
        """Maximum buckets for a segment at ``local_depth``.

        Below L_start segments are single buckets (basic Extendible
        hashing); from L_start the cap doubles per extra level of local
        depth (paper §3.3 'Selecting a segment size').
        """
        if local_depth < self.l_start:
            return 1
        factor = self.seg_limit_boost if boosted else self.seg_limit_factor
        return factor << (local_depth - self.l_start)
