"""``IndexProtocol``: the single contract every ordered index satisfies.

The batch forms (``get_many``/``insert_many``/``delete_range``) are part
of the typed contract too -- :class:`BatchOpsProtocol` -- because the
network layer maps wire opcodes 1:1 onto protocol methods: a server can
only coalesce pipelined requests into one batch call if every backing
index is guaranteed to have the batch call.  :class:`BatchOpsMixin`
supplies loop-based defaults so conforming costs nothing for indexes
without a vectorised path.
"""

from __future__ import annotations

from typing import (
    Any,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)


@runtime_checkable
class IndexProtocol(Protocol):
    """Structural contract for an ordered key-value index.

    Keys are non-negative integers, values arbitrary objects.  The
    semantics every implementation agrees on:

    - ``insert`` is insert-or-update: an existing key's value is
      replaced in place (so a separate ``update`` is just ``insert``).
    - ``get`` returns None for absent keys ('not exist');
      ``__contains__`` distinguishes a stored None from absence.
    - ``scan`` returns up to ``count`` pairs with key >= start_key in
      ascending key order; ``scan_range``/``count_range`` are the
      closed-open [low, high) variants.
    - ``bulk_load`` builds from a batch (indexes without a native
      sorted build degrade to per-key inserts); duplicate keys resolve
      to the last occurrence, matching sequential insert-or-update.
    - ``items`` yields every pair ascending; ``__len__`` is the exact
      live-key count.

    The protocol is ``runtime_checkable``, so conformance is asserted
    structurally in tests: ``isinstance(index, IndexProtocol)``.
    """

    def get(self, key: int) -> Optional[Any]: ...

    def insert(self, key: int, value: Any) -> None: ...

    def delete(self, key: int) -> bool: ...

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]: ...

    def scan_range(self, low: int, high: int) -> List[Tuple[int, Any]]: ...

    def count_range(self, low: int, high: int) -> int: ...

    def items(self) -> Iterator[Tuple[int, Any]]: ...

    def bulk_load(
        self, keys: Sequence[int], values: Sequence[Any]
    ) -> None: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: int) -> bool: ...


def is_index(obj: Any) -> bool:
    """Structural conformance check (``isinstance`` with a clearer name)."""
    return isinstance(obj, IndexProtocol)


@runtime_checkable
class BatchOpsProtocol(IndexProtocol, Protocol):
    """``IndexProtocol`` plus the batch forms, as a typed contract.

    The canonical batch-insert shape is two parallel sequences,
    ``insert_many(keys, values)``, matching ``bulk_load``; the
    pre-protocol single-iterable-of-pairs form ``insert_many(pairs)``
    is still accepted everywhere (see :func:`batch_pairs`).

    Semantics:

    - ``get_many(keys)`` returns values aligned with ``keys`` (None for
      absent), exactly equal to ``[self.get(k) for k in keys]``.
    - ``insert_many`` is order-equivalent to sequential
      insert-or-update; duplicate keys resolve to the last occurrence.
    - ``delete_range(low, high)`` removes every key in [low, high) and
      returns how many were removed.
    """

    def get_many(self, keys: Sequence[int]) -> List[Optional[Any]]: ...

    def insert_many(
        self, keys: Sequence[int], values: Optional[Sequence[Any]] = None
    ) -> None: ...

    def delete_range(self, low: int, high: int) -> int: ...


def is_batch_index(obj: Any) -> bool:
    """Does ``obj`` satisfy the full batch-first contract?"""
    return isinstance(obj, BatchOpsProtocol)


def batch_columns(keys, values=None) -> Tuple[List[int], List[Any]]:
    """Normalise the two accepted ``insert_many`` shapes to two columns.

    ``insert_many(keys, values)`` (two parallel sequences, the typed
    contract) passes through -- lists are handed on, not copied -- and
    ``insert_many(pairs)`` (one iterable of ``(key, value)`` tuples,
    the pre-protocol form) is unzipped.  Implementations that forward
    a batch as columns (WAL ``BATCH2`` record, shard pipes, columnar
    engine) use this, so a batch is not re-zipped at every layer.
    """
    if values is None:
        pairs = list(keys)
        return [k for k, _ in pairs], [v for _, v in pairs]
    if type(keys) is not list:
        keys = list(keys)
    if type(values) is not list:
        values = list(values)
    if len(keys) != len(values):
        raise ValueError(
            f"insert_many: {len(keys)} keys but {len(values)} values"
        )
    return keys, values


def batch_pairs(keys, values=None) -> List[Tuple[int, Any]]:
    """:func:`batch_columns` for implementations that loop over pairs."""
    if values is None:
        return list(keys)
    return list(zip(*batch_columns(keys, values)))


class BatchOpsMixin:
    """Loop-based defaults for the :class:`BatchOpsProtocol` methods.

    Indexes with vectorised batch paths (DyTIS) override these; for
    everything else the mixin makes the batch contract free, so the
    server's coalescer can call ``get_many`` on any backing index
    without probing.  ``delete_range`` collects the doomed keys first
    (``scan_range`` then delete), so implementations whose scans would
    be confused by concurrent structural changes stay correct.
    """

    def get_many(self, keys: Sequence[int]) -> List[Optional[Any]]:
        return [self.get(k) for k in keys]

    def insert_many(
        self, keys: Sequence[int], values: Optional[Sequence[Any]] = None
    ) -> None:
        for key, value in batch_pairs(keys, values):
            self.insert(key, value)

    def delete_range(self, low: int, high: int) -> int:
        doomed = [key for key, _ in self.scan_range(low, high)]
        return sum(1 for key in doomed if self.delete(key))


class RangeOpsMixin:
    """Default ``scan_range``/``count_range`` built on ``scan``.

    For indexes whose native range primitive is ``scan(start, count)``
    (the learned baselines): one shared cursor loop (:meth:`_iter_range`)
    pages through bounded batches so a huge range never materialises
    more than ``_RANGE_BATCH`` extra pairs past the high bound, and so
    the scan/count variants cannot drift apart.
    """

    _RANGE_BATCH = 1024

    def _iter_range(self, low: int, high: int) -> Iterator[Tuple[int, Any]]:
        """Yield pairs with low <= key < high by paging ``scan``."""
        if high <= low:
            return
        batch_size = self._RANGE_BATCH
        cursor = low
        while True:
            batch = self.scan(cursor, batch_size)
            if not batch:
                return
            for key, value in batch:
                if key >= high:
                    return
                yield key, value
            if len(batch) < batch_size:
                return
            cursor = batch[-1][0] + 1

    def scan_range(self, low: int, high: int) -> List[Tuple[int, Any]]:
        """All pairs with low <= key < high, in ascending key order."""
        return list(self._iter_range(low, high))

    def count_range(self, low: int, high: int) -> int:
        """Number of keys with low <= key < high."""
        return sum(1 for _ in self._iter_range(low, high))
