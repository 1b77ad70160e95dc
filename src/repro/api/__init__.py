"""The unified index contract.

Every ordered index in this repository -- DyTIS, its concurrent
wrapper, the B+-tree, and the learned baselines -- conforms to
:class:`IndexProtocol`: one structural type the kvstore, the bench
adapters, the network server, and the observability layer all program
against.  SOSD's lesson is that cross-index comparisons live or die on
uniform instrumentation through one interface; this module is that
interface.

:class:`BatchOpsProtocol` extends it with the batch forms
(``get_many``/``insert_many``/``delete_range``) as first-class typed
methods -- the contract the network layer's request coalescer and the
wire opcodes map onto 1:1.  :class:`BatchOpsMixin` gives loop-based
defaults and :class:`RangeOpsMixin` supplies ``scan_range``/
``count_range`` for indexes that natively offer only ``scan(start,
count)``, so bringing a new index up to the full batch-first protocol
costs two mixins plus the five core methods it already has.
"""

from repro.api.protocol import (
    BatchOpsMixin,
    BatchOpsProtocol,
    IndexProtocol,
    RangeOpsMixin,
    batch_columns,
    batch_pairs,
    is_batch_index,
    is_index,
)

__all__ = [
    "BatchOpsMixin",
    "BatchOpsProtocol",
    "IndexProtocol",
    "RangeOpsMixin",
    "batch_columns",
    "batch_pairs",
    "is_batch_index",
    "is_index",
]
