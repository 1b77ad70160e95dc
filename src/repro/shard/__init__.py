"""Multi-process sharded front-end for the DyTIS index.

The paper's top-level 2^R extendible-hash split partitions the key
space; this package promotes that split across *process* boundaries --
the only concurrency boundary CPython actually scales past.  See
:class:`ShardedIndex` for the router, :mod:`repro.shard.worker` for
the per-shard process, and :mod:`repro.shard.durable` for per-shard
WAL + checkpoint recovery.
"""

from repro.shard.routing import ShardRouter
from repro.shard.sharded import ShardedIndex, ShardError

__all__ = ["ShardRouter", "ShardedIndex", "ShardError"]
