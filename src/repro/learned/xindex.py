"""An XIndex-like two-level learned index (Tang et al., PPoPP '20).

Structure: a *root* holding sorted group pivots (with a learned model
accelerating pivot lookup) over *groups*, each holding a sorted learned
array plus a *delta index* absorbing inserts.  Lookups try the learned
array (model prediction, then a bounded binary search within the model's
max error) and fall back to the delta.  A compaction pass merges a
group's delta into a fresh learned array -- the paper runs it on a
background thread; here it runs either synchronously when a delta
overflows or from an explicit/background driver (see
:meth:`compact_all` and ``auto_compact``).

The extra delta / temporary-delta structures are what give XIndex its
memory overhead and its merge costs in the paper's evaluation (§4.3).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import BatchOpsMixin, RangeOpsMixin
from repro.learned.linear import LinearModel

_TARGET_GROUP_SIZE = 2048
_DELTA_COMPACT_FRACTION = 0.25  # compact when delta exceeds this × group size


class _Group:
    """One learned group: sorted arrays + linear model + delta buffer."""

    __slots__ = ("keys", "values", "model", "max_error", "delta", "lock")

    def __init__(self, keys: List[int], values: List[Any]):
        self.keys = keys
        self.values = values
        self.delta: Dict[int, Any] = {}
        self.lock = threading.RLock()
        self._train()

    def _train(self) -> None:
        n = len(self.keys)
        self.model = LinearModel.fit(self.keys, range(n)) if n else LinearModel()
        err = 0
        for i, k in enumerate(self.keys):
            err = max(err, abs(self.model.predict_clamped(k, n) - i))
        self.max_error = err

    def _array_pos(self, key: int) -> int:
        """Exact position of ``key`` in the learned array, or -1."""
        n = len(self.keys)
        if n == 0:
            return -1
        pred = self.model.predict_clamped(key, n)
        lo = max(0, pred - self.max_error)
        hi = min(n, pred + self.max_error + 1)
        i = bisect_left(self.keys, key, lo, hi)
        if i < n and self.keys[i] == key:
            return i
        return -1

    def get(self, key: int) -> Tuple[bool, Optional[Any]]:
        if key in self.delta:
            value = self.delta[key]
            return value is not _TOMBSTONE, (None if value is _TOMBSTONE else value)
        i = self._array_pos(key)
        if i >= 0:
            return True, self.values[i]
        return False, None

    def put(self, key: int, value: Any) -> bool:
        """Insert/update; returns True when this was a brand-new key."""
        i = self._array_pos(key)
        if i >= 0:
            if key in self.delta:  # previously deleted then re-inserted
                was_tombstone = self.delta[key] is _TOMBSTONE
                del self.delta[key]
                self.values[i] = value
                return was_tombstone
            self.values[i] = value
            return False
        prior = self.delta.get(key, _TOMBSTONE)
        self.delta[key] = value
        return prior is _TOMBSTONE

    def remove(self, key: int) -> bool:
        i = self._array_pos(key)
        if i >= 0:
            if self.delta.get(key) is _TOMBSTONE:
                return False
            self.delta[key] = _TOMBSTONE
            return True
        if key in self.delta and self.delta[key] is not _TOMBSTONE:
            del self.delta[key]
            return True
        return False

    def needs_compaction(self) -> bool:
        limit = max(32, int(_DELTA_COMPACT_FRACTION * max(len(self.keys), 1)))
        return len(self.delta) > limit

    def merged_items(self) -> List[Tuple[int, Any]]:
        """Array ∪ delta with tombstones applied, sorted by key."""
        extra = sorted(
            (k, v)
            for k, v in self.delta.items()
            if v is not _TOMBSTONE and self._array_pos(k) < 0
        )
        out: List[Tuple[int, Any]] = []
        ai = 0
        ei = 0
        while ai < len(self.keys) or ei < len(extra):
            if ei >= len(extra) or (
                ai < len(self.keys) and self.keys[ai] <= extra[ei][0]
            ):
                k = self.keys[ai]
                if self.delta.get(k, None) is not _TOMBSTONE:
                    v = self.delta.get(k, self.values[ai])
                    out.append((k, v))
                ai += 1
            else:
                out.append(extra[ei])
                ei += 1
        return out

    def compact(self) -> None:
        merged = self.merged_items()
        self.keys = [k for k, _ in merged]
        self.values = [v for _, v in merged]
        self.delta = {}
        self._train()


class _Tombstone:
    __slots__ = ()

    def __repr__(self):
        return "<tombstone>"


_TOMBSTONE = _Tombstone()


class XIndex(BatchOpsMixin, RangeOpsMixin):
    """Two-level learned index with per-group delta buffers.

    Must be bulk loaded before use (paper: 70% of each dataset); inserts
    then flow into deltas that compaction merges back.  ``auto_compact``
    (default True) compacts a group synchronously when its delta
    overflows, standing in for the paper's background compaction thread;
    :meth:`start_background_compaction` runs the same pass from a real
    thread for the concurrency experiments (Figure 12).
    """

    def __init__(self, auto_compact: bool = True):
        self._groups: List[_Group] = []
        self._pivots: List[int] = []
        self._root_model = LinearModel()
        self._size = 0
        self._root_lock = threading.RLock()
        self.auto_compact = auto_compact
        self.compaction_count = 0
        self._compactor: Optional[threading.Thread] = None
        self._stop_compactor = threading.Event()

    def __len__(self) -> int:
        return self._size

    # -- bulk loading -------------------------------------------------------

    def bulk_load(self, keys: Sequence[int], values: Sequence[Any]) -> None:
        """Build groups and the root model from the given records."""
        pairs = sorted(zip(keys, values))
        self._groups = []
        self._pivots = []
        n = len(pairs)
        if n == 0:
            self._groups = [_Group([], [])]
            self._pivots = [0]
            self._root_model = LinearModel()
            self._size = 0
            return
        for start in range(0, n, _TARGET_GROUP_SIZE):
            chunk = pairs[start : start + _TARGET_GROUP_SIZE]
            self._groups.append(
                _Group([k for k, _ in chunk], [v for _, v in chunk])
            )
            self._pivots.append(chunk[0][0])
        self._root_model = LinearModel.fit(
            self._pivots, range(len(self._pivots))
        )
        self._size = n

    def _group_index(self, key: int) -> int:
        if not self._groups:
            raise RuntimeError("XIndex must be bulk loaded before use")
        n = len(self._pivots)
        pred = self._root_model.predict_clamped(key, n)
        # The learned prediction is a hint; fix up with a local search.
        i = pred
        if self._pivots[i] <= key:
            while i + 1 < n and self._pivots[i + 1] <= key:
                i += 1
        else:
            while i > 0 and self._pivots[i] > key:
                i -= 1
        return i

    def _group_for(self, key: int) -> _Group:
        return self._groups[self._group_index(key)]

    # -- operations ------------------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        """Value stored under ``key``, or None."""
        group = self._group_for(key)
        with group.lock:
            found, value = group.get(key)
        return value if found else None

    def __contains__(self, key: int) -> bool:
        group = self._group_for(key)
        with group.lock:
            found, _ = group.get(key)
        return found

    def insert(self, key: int, value: Any) -> None:
        """Insert ``key`` or update its value in place."""
        group = self._group_for(key)
        with group.lock:
            if group.put(key, value):
                self._size += 1
            if self.auto_compact and group.needs_compaction():
                group.compact()
                self.compaction_count += 1

    def delete(self, key: int) -> bool:
        """Remove ``key``; return whether it was present."""
        group = self._group_for(key)
        with group.lock:
            if group.remove(key):
                self._size -= 1
                return True
        return False

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]:
        """Up to ``count`` pairs with key >= start_key, in key order."""
        if not self._groups:
            return []
        gi = self._group_index(start_key)
        out: List[Tuple[int, Any]] = []
        while gi < len(self._groups) and len(out) < count:
            group = self._groups[gi]
            with group.lock:
                merged = group.merged_items()
            lo = bisect_left([k for k, _ in merged], start_key)
            for k, v in merged[lo:]:
                out.append((k, v))
                if len(out) >= count:
                    break
            start_key = 0  # subsequent groups scan from their beginning
            gi += 1
        return out

    def items(self) -> Iterator[Tuple[int, Any]]:
        """All pairs in ascending key order."""
        for group in self._groups:
            with group.lock:
                merged = group.merged_items()
            yield from merged

    # -- compaction -------------------------------------------------------------

    def compact_all(self) -> int:
        """Compact every group with a pending delta; returns count merged."""
        done = 0
        for group in self._groups:
            with group.lock:
                if group.delta:
                    group.compact()
                    done += 1
        self.compaction_count += done
        return done

    def start_background_compaction(self, interval: float = 0.01) -> None:
        """Run compaction from a daemon thread (paper's design)."""
        if self._compactor is not None:
            return
        self._stop_compactor.clear()

        def loop():
            while not self._stop_compactor.wait(interval):
                for group in self._groups:
                    with group.lock:
                        if group.needs_compaction():
                            group.compact()
                            self.compaction_count += 1

        self._compactor = threading.Thread(target=loop, daemon=True)
        self._compactor.start()

    def stop_background_compaction(self) -> None:
        if self._compactor is None:
            return
        self._stop_compactor.set()
        self._compactor.join()
        self._compactor = None

    # -- introspection ------------------------------------------------------------

    def group_count(self) -> int:
        return len(self._groups)

    def delta_sizes(self) -> List[int]:
        return [len(g.delta) for g in self._groups]
