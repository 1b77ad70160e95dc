"""Uniform adapters over every index in the evaluation (paper §4.1).

Every index conforms to :class:`repro.api.IndexProtocol`, so the
adapter layer is one delegating base plus per-index construction: a
subclass builds ``self.index`` and sets capability flags, and the base
forwards the five driver operations (insert, get, update, scan,
delete) plus bulk loading straight to the protocol.  Hash indexes
report ``supports_scan = False`` and raise on scan, mirroring the
capability gap the paper highlights.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.api import BatchOpsProtocol, batch_pairs
from repro.btree import BPlusTree
from repro.core import ConcurrentDyTIS, DyTIS, DyTISConfig
from repro.hashing import CCEH, ExtendibleHashing
from repro.learned import AlexIndex, LippIndex, PGMIndex, RMIndex, XIndex


class IndexAdapter:
    """Common driver interface: delegates to ``self.index`` (IndexProtocol).

    Subclasses construct ``self.index`` and set the class flags; the
    operation methods below are shared.  ``update`` routes through
    ``insert`` because the protocol defines insert as insert-or-update
    -- an adapter whose index cannot update (RMI) overrides it to
    raise rather than silently corrupt the trace.
    """

    name = "abstract"
    supports_scan = True
    #: Whether the underlying index has a native sorted-build path (the
    #: SOSD-style canonical entry point); False means :meth:`bulk_load`
    #: degrades to per-key inserts.
    supports_bulk_load = False
    #: Fraction of the dataset consumed by bulk loading during Load.
    bulk_fraction = 0.0

    index: Any

    def bulk_load(self, keys: Sequence[int], values: Sequence[Any]) -> None:
        """Native sorted build when the index has one, else plain inserts."""
        if self.supports_bulk_load:
            self.index.bulk_load(keys, values)
        else:
            for k, v in zip(keys, values):
                self.insert(k, v)

    def insert(self, key: int, value: Any) -> None:
        self.index.insert(key, value)

    def get(self, key: int) -> Optional[Any]:
        return self.index.get(key)

    def update(self, key: int, value: Any) -> None:
        """In-place update: protocol insert-or-update semantics."""
        self.index.insert(key, value)

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]:
        if not self.supports_scan:
            raise NotImplementedError(f"{self.name} does not support scans")
        return self.index.scan(start_key, count)

    def delete(self, key: int) -> bool:
        return self.index.delete(key)

    # -- batch forms: dispatched through the typed contract -------------
    #
    # Every ordered index satisfies BatchOpsProtocol (natively or via
    # BatchOpsMixin), so the adapter delegates unconditionally instead
    # of hasattr-probing for a vectorised path.  The hash baselines
    # predate the ordered contract; they fall back to scalar loops.

    def get_many(self, keys: Sequence[int]) -> List[Optional[Any]]:
        index = self.index
        if isinstance(index, BatchOpsProtocol):
            return index.get_many(keys)
        return [index.get(k) for k in keys]

    def insert_many(
        self, keys: Sequence[int], values: Optional[Sequence[Any]] = None
    ) -> None:
        index = self.index
        if isinstance(index, BatchOpsProtocol):
            index.insert_many(keys, values)
            return
        for key, value in batch_pairs(keys, values):
            index.insert(key, value)

    def delete_range(self, low: int, high: int) -> int:
        index = self.index
        if isinstance(index, BatchOpsProtocol):
            return index.delete_range(low, high)
        raise NotImplementedError(
            f"{self.name} does not support range deletes"
        )

    def __len__(self) -> int:
        return len(self.index)


class DyTISAdapter(IndexAdapter):
    """DyTIS with the paper's defaults (scaled by ``config``).

    ``obs`` threads a :class:`repro.obs.Observability` collector into
    the index so harness runs can export latency/event snapshots.
    """

    name = "DyTIS"
    supports_bulk_load = True

    def __init__(self, config: Optional[DyTISConfig] = None, obs=None):
        self.index = DyTIS(config, obs=obs)

    def bulk_load(self, keys, values):
        """Bottom-up sorted build when empty; per-key inserts otherwise."""
        if len(self.index) == 0:
            self.index.bulk_load(keys, values)
        else:
            for k, v in zip(keys, values):
                self.insert(k, v)


class ConcurrentDyTISAdapter(DyTISAdapter):
    name = "DyTIS-MT"

    def __init__(self, config: Optional[DyTISConfig] = None, obs=None):
        self.index = ConcurrentDyTIS(config, obs=obs)


class BTreeAdapter(IndexAdapter):
    """STX-style B+-tree, fanout 128 (paper §4.1)."""

    name = "B+-tree"
    supports_bulk_load = True

    def __init__(self, fanout: int = 128):
        self.index = BPlusTree(fanout=fanout)


class AlexAdapter(IndexAdapter):
    """ALEX with a bulk-loading fraction (ALEX-10 ... ALEX-90)."""

    supports_bulk_load = True

    def __init__(self, bulk_fraction: float = 0.7):
        if not 0.0 <= bulk_fraction <= 1.0:
            raise ValueError("bulk_fraction must be in [0, 1]")
        self.index = AlexIndex()
        self.bulk_fraction = bulk_fraction
        self.name = f"ALEX-{int(bulk_fraction * 100)}"


class XIndexAdapter(IndexAdapter):
    """XIndex with 70% bulk loading (the paper's working setting)."""

    name = "XIndex"
    supports_bulk_load = True
    bulk_fraction = 0.7

    def __init__(self, bulk_fraction: float = 0.7):
        self.index = XIndex()
        self.bulk_fraction = bulk_fraction


class EHAdapter(IndexAdapter):
    """Plain Extendible Hashing; no ordered scans (Figure 9 baseline)."""

    name = "EH"
    supports_scan = False

    def __init__(self, bucket_capacity: int = 128):
        self.index = ExtendibleHashing(bucket_capacity=bucket_capacity)


class CCEHAdapter(IndexAdapter):
    """CCEH; no ordered scans (Figure 9 baseline)."""

    name = "CCEH"
    supports_scan = False

    def __init__(self, bucket_capacity: int = 16, segment_bits: int = 6):
        self.index = CCEH(
            bucket_capacity=bucket_capacity, segment_bits=segment_bits
        )


class LippAdapter(IndexAdapter):
    """LIPP-like learned index with precise positions (§5 baseline)."""

    name = "LIPP"
    supports_bulk_load = True

    def __init__(self):
        self.index = LippIndex()


class PGMAdapter(IndexAdapter):
    """PGM-like learned index (logarithmic-method dynamisation, §5)."""

    name = "PGM"
    supports_bulk_load = True

    def __init__(self):
        self.index = PGMIndex()


class RMIAdapter(IndexAdapter):
    """Static recursive model index: read/scan only, 100% bulk loaded."""

    name = "RMI"
    supports_bulk_load = True
    bulk_fraction = 1.0  # the whole preload must come through bulk_load

    def __init__(self):
        self.index = RMIndex()

    def update(self, key, value):
        raise NotImplementedError("RMI is static")


ADAPTER_NAMES = (
    "DyTIS",
    "ALEX-10",
    "ALEX-30",
    "ALEX-50",
    "ALEX-70",
    "ALEX-90",
    "XIndex",
    "B+-tree",
    "EH",
    "CCEH",
    "LIPP",
    "PGM",
)


def make_adapter(
    name: str, dytis_config: Optional[DyTISConfig] = None, obs=None
) -> IndexAdapter:
    """Fresh adapter by paper name (e.g. 'DyTIS', 'ALEX-10', 'B+-tree').

    ``obs`` is honoured by the DyTIS adapters (the instrumented
    engines) and ignored by the baselines.
    """
    if name == "DyTIS":
        return DyTISAdapter(dytis_config, obs=obs)
    if name == "DyTIS-MT":
        return ConcurrentDyTISAdapter(dytis_config, obs=obs)
    if name.startswith("ALEX-"):
        return AlexAdapter(bulk_fraction=int(name[5:]) / 100.0)
    if name == "XIndex":
        return XIndexAdapter()
    if name == "B+-tree":
        return BTreeAdapter()
    if name == "EH":
        return EHAdapter()
    if name == "CCEH":
        return CCEHAdapter()
    if name == "LIPP":
        return LippAdapter()
    if name == "PGM":
        return PGMAdapter()
    if name == "RMI":
        return RMIAdapter()
    raise ValueError(f"unknown index {name!r}; choose from {ADAPTER_NAMES}")
