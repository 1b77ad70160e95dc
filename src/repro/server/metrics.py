"""Server-side metrics: per-opcode latency, connections, coalescing.

One :class:`ServerMetrics` travels with one :class:`~repro.server.
server.IndexServer`.  Latency histograms reuse :class:`repro.obs.
LatencyHistogram` (the same mergeable log-linear histogram the index
layer records into), so server-side and index-side latencies are
directly comparable; exposition reuses :func:`repro.obs.
snapshot_to_prometheus` for the histogram block and writes the
server-specific series with the same :func:`repro.obs.exposition.
family`, all scrapeable from the admin endpoint as one page.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.obs.exposition import family, labelled, snapshot_to_prometheus
from repro.obs.histogram import LatencyHistogram

from repro.server import frame

#: Opcode metric names with a dedicated latency histogram (requests
#: only -- replies are not timed separately).
SERVER_OPS = tuple(frame.OP_NAMES.values())

#: Ops the coalescer groups into batch calls.
COALESCED_OPS = ("get", "insert")

#: The page's series after the latency block: (snapshot key, label of
#: a per-op/per-code series or None for a single sample, help text).
_SERIES = (
    ("requests_total", "op", "Requests received, by opcode."),
    ("errors_total", "code", "Error replies sent, by code."),
    ("connections_open", None, "Currently open client connections."),
    ("connections_total", None, "Client connections ever accepted."),
    (
        "forwarded_reads_total",
        None,
        "GETs answered from a write pending in the same epoch.",
    ),
    ("batches_total", "op", "Coalesced batch calls issued."),
    (
        "batched_requests_total",
        "op",
        "Requests served through coalesced batches.",
    ),
    ("batch_size_max", "op", "Largest coalesced batch."),
)


class ServerMetrics:
    """Counters, gauges, and per-opcode latency for one server.

    All mutation happens on the server's event loop thread; the lone
    lock only guards snapshot reads from other threads (tests, the
    admin endpoint when served from a different loop).
    """

    def __init__(self) -> None:
        self.latency: Dict[str, LatencyHistogram] = {
            op: LatencyHistogram() for op in SERVER_OPS
        }
        self.requests_total: Dict[str, int] = {op: 0 for op in SERVER_OPS}
        self.errors_total: Dict[str, int] = {}
        self.connections_open = 0
        self.connections_total = 0
        #: Coalescing: how many batch calls were issued per op, how
        #: many requests they covered, and the largest batch seen.
        self.batches_total: Dict[str, int] = {op: 0 for op in COALESCED_OPS}
        self.batched_requests_total: Dict[str, int] = {
            op: 0 for op in COALESCED_OPS
        }
        self.batch_size_max: Dict[str, int] = {op: 0 for op in COALESCED_OPS}
        #: GETs answered from a write pending in the same epoch: they
        #: count in ``requests_total`` but never reached ``get_many``.
        self.forwarded_reads_total = 0
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def record_request(self, op_name: str, ns: int) -> None:
        self.requests_total[op_name] = self.requests_total.get(op_name, 0) + 1
        hist = self.latency.get(op_name)
        if hist is not None:
            hist.record(ns)

    def record_requests(self, op_name: str, samples_ns) -> None:
        """The requests one coalesced store call served (one call per
        kind per epoch); more than one request makes it a batch."""
        size = len(samples_ns)
        self.requests_total[op_name] += size
        self.latency[op_name].record_many(samples_ns)
        if size > 1:
            self.batches_total[op_name] += 1
            self.batched_requests_total[op_name] += size
            if size > self.batch_size_max[op_name]:
                self.batch_size_max[op_name] = size

    def record_error(self, code: int) -> None:
        name = frame.ERR_NAMES.get(code, str(code))
        self.errors_total[name] = self.errors_total.get(name, 0) + 1

    # -- reading --------------------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-ready dict; ``latency`` matches the obs snapshot shape."""
        with self._lock:
            return {
                "latency": {
                    op: h.to_dict() for op, h in self.latency.items()
                },
                "requests_total": dict(self.requests_total),
                "errors_total": dict(self.errors_total),
                "connections_open": self.connections_open,
                "connections_total": self.connections_total,
                "batches_total": dict(self.batches_total),
                "batched_requests_total": dict(self.batched_requests_total),
                "batch_size_max": dict(self.batch_size_max),
                "forwarded_reads_total": self.forwarded_reads_total,
            }

    def mean_batch_size(self, op_name: str) -> float:
        n = self.batches_total.get(op_name, 0)
        return self.batched_requests_total.get(op_name, 0) / n if n else 0.0

    def to_prometheus(self, prefix: str = "dytis_server") -> str:
        """Prometheus text page: histogram block + server series."""
        snap = self.snapshot()
        page = [snapshot_to_prometheus({"latency": snap["latency"]}, prefix)]
        for key, label, help_text in _SERIES:
            value = snap[key]
            if label is None:
                samples = [("", {}, value)]
            else:
                samples = labelled(label, sorted(value.items()))
            page.append(family(f"{prefix}_{key}", help_text, samples))
        return "".join(page)
