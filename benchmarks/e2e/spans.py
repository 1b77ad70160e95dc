"""Spans recorded from outside the program, at its injection seams.

A span is ``(name, start_ns, end_ns, parent, request-or-burst id,
n_keys)``.  The proxies below wrap objects the public API already lets
a caller inject -- the index handed to ``KVStore(index=...)`` /
``DurableKVStore(index=...)`` and the store handed to
``IndexServer(store)`` -- so no file under ``src/`` knows it is being
traced.  Spans live in one flat ``array('q')`` until the run ends.

A layer's self time is its span minus the part its children cover, so
the self times under one root add up to the root span exactly.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns as _now
from typing import Any, Dict, List, Optional

import numpy as np

_FIELDS = 6  # name id, start, end, parent, rid, n_keys


class Tracer:
    """In-memory span recorder for one (single-threaded) process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.rec = array("q")
        self.stack: List[int] = []
        self.count = 0
        self.rid = 0  # current request-or-burst id, set by the driver
        #: Proxies record only while this is set (the window's traced
        #: slices); set-up and the other slices pass straight through.
        self.on = False

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, n_keys: int) -> int:
        sid = self.count
        self.count = sid + 1
        stack = self.stack
        parent = stack[-1] if stack else -1
        stack.append(sid)
        self.rec.extend((nid, _now(), 0, parent, self.rid, n_keys))
        return sid

    def end(self, sid: int) -> None:
        self.rec[sid * _FIELDS + 2] = _now()
        self.stack.pop()

    def add(self, nid: int, start: int, end: int, parent: int, rid: int,
            n_keys: int) -> int:
        """Record a finished span with an explicit parent: for callers
        whose spans interleave (two connections on one event loop), where
        the begin/end stack cannot tell whose child is whose."""
        sid = self.count
        self.count = sid + 1
        self.rec.extend((nid, start, end, parent, rid, n_keys))
        return sid

    # -- reading --------------------------------------------------------

    def table(self) -> np.ndarray:
        """All spans as an ``(n, 6)`` int64 array."""
        return np.frombuffer(self.rec, dtype=np.int64).reshape(-1, _FIELDS).copy()

    def dump(self, path, proc: str, extra: Optional[Dict] = None) -> None:
        """One JSON line per span (plus a header line), for offline use."""
        write_spans(path, proc, self.names, self.table(), extra)


def write_spans(path, proc, names, table, extra=None, append=False) -> None:
    header = {"proc": proc, "fields": [
        "name", "start_ns", "end_ns", "parent", "rid", "n_keys"
    ], "spans": int(table.shape[0])}
    if extra:
        header.update(extra)
    with open(path, "a" if append else "w") as fh:
        fh.write(json.dumps(header) + "\n")
        rows = table.tolist()
        fh.write("".join(
            f'["{names[r[0]]}",{r[1]},{r[2]},{r[3]},{r[4]},{r[5]}]\n'
            for r in rows
        ))


def read_spans(path):
    """Inverse of :func:`write_spans` for a single-process file:
    ``(header, names, table)``."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        names: List[str] = []
        ids: Dict[str, int] = {}
        rows = []
        for line in fh:
            r = json.loads(line)
            nid = ids.get(r[0])
            if nid is None:
                nid = ids[r[0]] = len(names)
                names.append(r[0])
            r[0] = nid
            rows.append(r)
    table = np.asarray(rows, dtype=np.int64).reshape(-1, _FIELDS)
    return header, names, table


def self_times(names: List[str], table: np.ndarray) -> Dict[str, Dict[str, float]]:
    """Per span name: count, keys, total and self time (ns).

    Also returns, under ``"_check"``, the largest relative gap between a
    root span and the self times of its subtree (zero by construction
    when spans nest; reported so a reader need not take that on trust).
    """
    if table.shape[0] == 0:
        return {"_check": {"max_rel_gap": 0.0, "roots": 0}}
    nid, start, end, parent, _, n_keys = table.T
    dur = end - start
    has_parent = parent >= 0
    child_sum = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_ns = dur - child_sum
    out: Dict[str, Dict[str, float]] = {}
    for i, name in enumerate(names):
        mask = nid == i
        if mask.any():
            out[name] = {
                "count": int(mask.sum()),
                "keys": int(n_keys[mask].sum()),
                "total_ns": float(dur[mask].sum()),
                "self_ns": float(self_ns[mask].sum()),
            }
    # Root of every span: follow parents until none is left.
    root = np.arange(len(dur))
    up = parent.copy()
    while (up >= 0).any():
        climb = up >= 0
        root[climb] = up[climb]
        up[climb] = parent[up[climb]]
    subtree_self = np.bincount(root, weights=self_ns, minlength=len(dur))
    roots = ~has_parent
    gap = np.abs(subtree_self[roots] - dur[roots]) / np.maximum(dur[roots], 1)
    out["_check"] = {"max_rel_gap": float(gap.max()), "roots": int(roots.sum())}
    return out


# ---------------------------------------------------------------------------
# Proxies
# ---------------------------------------------------------------------------


def _one(*_args) -> int:
    return 1


def _len_first(keys, *_rest) -> int:
    try:
        return len(keys)
    except TypeError:
        return 1


#: Protocol method -> how many keys a call carries.
_INDEX_METHODS = {
    "get": _one,
    "insert": _one,
    "delete": _one,
    "scan": _one,
    "scan_range": _one,
    "count_range": _one,
    "delete_range": _one,
    "get_many": _len_first,
    "insert_many": _len_first,
    "bulk_load": _len_first,
}


class _SpanProxy:
    """Base: every listed method runs inside a ``<layer>.<method>`` span;
    everything else is the wrapped object's own attribute."""

    def __init__(self, inner: Any, tracer: Tracer, layer: str, methods):
        self._inner = inner
        self._tracer = tracer
        for method, n_keys in methods.items():
            if hasattr(inner, method):
                setattr(self, method, self._spanned(
                    getattr(inner, method), tracer.intern(f"{layer}.{method}"),
                    n_keys,
                ))

    def _spanned(self, fn, nid: int, n_keys):
        tracer = self._tracer
        begin, end = tracer.begin, tracer.end

        def call(*args):
            if not tracer.on:
                return fn(*args)
            sid = begin(nid, n_keys(*args))
            try:
                return fn(*args)
            finally:
                end(sid)

        return call

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class SpanIndex(_SpanProxy):
    """An index (``DyTIS`` or ``ShardedIndex``) whose protocol calls are
    spans.  Satisfies ``BatchOpsProtocol`` structurally, so ``KVStore``
    keeps its batch paths."""

    def __init__(self, inner: Any, tracer: Tracer, layer: str = "core"):
        super().__init__(inner, tracer, layer, _INDEX_METHODS)
        self._contains_id = tracer.intern(f"{layer}.contains")

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, key) -> bool:
        # KVStore probes membership before every insert to keep its
        # namespace counters exact; on a sharded index that is an RPC.
        if not self._tracer.on:
            return key in self._inner
        sid = self._tracer.begin(self._contains_id, 1)
        try:
            return key in self._inner
        finally:
            self._tracer.end(sid)


#: A namespace view has the index's protocol, bulk load apart.
_NAMESPACE_METHODS = {
    name: n_keys for name, n_keys in _INDEX_METHODS.items() if name != "bulk_load"
}


class SpanNamespace(_SpanProxy):
    def __init__(self, inner: Any, tracer: Tracer):
        super().__init__(inner, tracer, "kvstore", _NAMESPACE_METHODS)

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, key) -> bool:
        return key in self._inner


class SpanStore:
    """A ``KVStore``/``DurableKVStore`` whose namespaces are traced:
    the seam ``IndexServer(store)`` offers."""

    def __init__(self, inner: Any, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._views: Dict[str, SpanNamespace] = {}

    def namespace(self, name: str, codec=None) -> SpanNamespace:
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = SpanNamespace(
                self._inner.namespace(name, codec), self._tracer
            )
        return view

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
