"""Key-to-shard routing: MSB ranges or a mixing hash.

Two modes, both O(1) per key and vectorizable over a uint64 column:

``msb``
    The shard is the key's top ``shard_bits`` bits (after skipping
    ``skip_bits`` -- e.g. the namespace byte the kvstore codec packs
    into bits 63..56).  This is the paper's top-level extendible-hash
    split promoted to a process boundary: with ``skip_bits=0`` the
    shards partition the key space into contiguous ranges, so shard
    *order* is key order -- range operations touch one contiguous run
    of shards and their per-shard results concatenate into globally
    sorted output with no merge.

``hash``
    A Fibonacci-multiplicative mix of the whole key picks the shard.
    Load stays balanced whatever the key distribution (small dense
    keys, namespace-prefixed keys), at the cost of range locality:
    every range operation fans out to all shards and the router
    re-merges by key.

:meth:`ShardRouter.range_plan` captures the difference in one place:
it returns both the shards a ``[low, high)`` range intersects and
whether visiting them in the returned order yields globally sorted
results (so the caller knows concatenate vs. heap-merge).
"""

from __future__ import annotations

from operator import index as _as_int
from typing import List, Sequence, Tuple

import numpy as np

#: 64-bit Fibonacci multiplier (2^64 / phi), the standard multiplicative
#: mixing constant: consecutive keys land on well-spread shards.
_HASH_MULT = 0x9E3779B97F4A7C15
_U64_MASK = (1 << 64) - 1

#: :meth:`ShardRouter.partition` routes batches of at most this many
#: keys one key at a time and larger ones with :meth:`route_array`,
#: whose NumPy calls cost a fixed ~8 µs.  Per key, ``hash``'s multiply
#: catches up with that at about 64 keys (``msb`` near 160): measured
#: in ARCHITECTURE §14.
_SMALL_PARTITION = 64


class ShardRouter:
    """Maps keys (and key ranges) to shard ids.

    ``n_shards`` must be a power of two so the shard id is a bit field
    of the key (``msb``) or of its hash (``hash``) -- the same
    prefix-addressing discipline as the index's top-level EH split.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        key_bits: int = 64,
        mode: str = "msb",
        skip_bits: int = 0,
    ):
        if n_shards < 1 or n_shards & (n_shards - 1):
            raise ValueError(f"n_shards must be a power of two, got {n_shards}")
        if mode not in ("msb", "hash"):
            raise ValueError(f"unknown routing mode {mode!r}")
        self.n_shards = n_shards
        self.mode = mode
        self.key_bits = key_bits
        self.skip_bits = skip_bits
        self.shard_bits = n_shards.bit_length() - 1
        if mode == "msb":
            shift = key_bits - skip_bits - self.shard_bits
            if shift < 0:
                raise ValueError(
                    f"key_bits={key_bits} too small for {n_shards} shards "
                    f"after skipping {skip_bits} bits"
                )
            self._shift = shift
        else:
            self._shift = 64 - self.shard_bits
        self._mask = n_shards - 1
        self._key_limit = 1 << key_bits

    @property
    def ordered(self) -> bool:
        """True when shard order is key order (concatenation merges)."""
        return self.mode == "msb" and self.skip_bits == 0

    # -- point routing --------------------------------------------------

    def shard_of(self, key: int) -> int:
        """Owning shard of ``key``.

        Validates the key here, at the router boundary, so every point
        operation raises the ``TypeError`` (a float) or ``ValueError``
        (outside the key space) a local index would, before a worker
        round trip.
        """
        if type(key) is not int:
            key = _as_int(key)
        if not 0 <= key < self._key_limit:
            raise ValueError(f"key {key} outside [0, 2^{self.key_bits})")
        if self.n_shards == 1:
            return 0
        if self.mode == "msb":
            return (key >> self._shift) & self._mask
        return ((key * _HASH_MULT) & _U64_MASK) >> self._shift

    def route_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of` over a uint64 key column."""
        arr = np.asarray(keys, dtype=np.uint64)
        if self.n_shards == 1:
            return np.zeros(arr.shape, dtype=np.int64)
        if self.mode == "msb":
            out = (arr >> np.uint64(self._shift)) & np.uint64(self._mask)
        else:
            out = (arr * np.uint64(_HASH_MULT)) >> np.uint64(self._shift)
        return out.astype(np.int64)

    # -- batch routing --------------------------------------------------

    def check_keys(self, keys: Sequence[int]) -> List[int]:
        """``keys`` as a list of plain ints, raising what
        :meth:`shard_of` raises for the first bad one.

        A batch's boundary: a float is a ``TypeError`` here, never
        truncated to an integer key by a ``uint64`` cast.
        """
        ks = [k if type(k) is int else _as_int(k) for k in keys]
        if ks and (min(ks) < 0 or max(ks) >= self._key_limit):
            for key in ks:
                self.shard_of(key)  # raises ValueError
        return ks

    def partition(self, keys: List[int]) -> List[Tuple[int, List[int]]]:
        """``[(shard, positions)]`` for the shards owning some of the
        checked ``keys`` (see :meth:`check_keys`), positions ascending.

        Up to ``_SMALL_PARTITION`` keys route one at a time by
        :meth:`shard_of`'s formula; larger batches take one
        :meth:`route_array` pass.
        """
        if self.n_shards == 1:
            return [(0, list(range(len(keys))))] if keys else []
        if len(keys) > _SMALL_PARTITION:
            shards = self.route_array(np.array(keys, dtype=np.uint64))
            out = []
            for s in range(self.n_shards):
                pos = np.flatnonzero(shards == s)
                if pos.size:
                    out.append((s, pos.tolist()))
            return out
        parts: List[List[int]] = [[] for _ in range(self.n_shards)]
        shift = self._shift
        if self.mode == "msb":
            mask = self._mask
            for i, key in enumerate(keys):
                parts[(key >> shift) & mask].append(i)
        else:
            for i, key in enumerate(keys):
                parts[((key * _HASH_MULT) & _U64_MASK) >> shift].append(i)
        return [(s, pos) for s, pos in enumerate(parts) if pos]

    # -- range routing --------------------------------------------------

    def range_plan(self, low: int, high: int) -> Tuple[List[int], bool]:
        """Shards intersecting ``[low, high)`` and whether their order
        is key order.

        ``msb`` with ``skip_bits=0``: the contiguous shard run from
        ``shard_of(low)`` to ``shard_of(high - 1)``, ordered.  ``msb``
        with skipped prefix bits: still a contiguous ordered run *if*
        the whole range shares one skipped prefix (the common case --
        e.g. a range inside one namespace); otherwise all shards,
        unordered.  ``hash``: all shards, unordered.
        """
        if high <= low:
            return [], True
        if self.n_shards == 1:
            return [0], True
        if self.mode == "msb":
            prefix_shift = self.key_bits - self.skip_bits
            if self.skip_bits == 0 or (
                low >> prefix_shift == (high - 1) >> prefix_shift
            ):
                first = self.shard_of(low)
                last = self.shard_of(high - 1)
                return list(range(first, last + 1)), True
        return list(range(self.n_shards)), False

    def __repr__(self) -> str:
        return (
            f"ShardRouter(n_shards={self.n_shards}, mode={self.mode!r}, "
            f"key_bits={self.key_bits}, skip_bits={self.skip_bits})"
        )
