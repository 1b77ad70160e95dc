#!/usr/bin/env python3
"""Render a traced ledger as "where does a GET / an UPDATE spend its
microseconds" tables for the three workloads that cross layers.

    python3 benchmarks/e2e/run.py --trace            # writes out/layers.json
    python3 benchmarks/e2e/layers.py benchmarks/e2e/out/layers.json > layers.md

Every row is a layer's *self* time (its spans minus what their children
cover), so the rows of a column add up to its root span.  Numbers come
from the traced round and carry the span proxies' own cost (see
``trace.overhead_ratio`` in the same ledger); read them as shares.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

Row = Tuple[str, List[Optional[float]]]


def _per(agg: Dict, name: str, field: str, by: float) -> float:
    a = agg.get(name)
    return a[field] / by / 1e3 if a and by else 0.0


def _table(title: str, note: str, columns: List[str], rows: List[Row]) -> str:
    lines = [f"### {title}", "", note, "",
             "| layer | " + " | ".join(columns) + " |",
             "|---|" + "---:|" * len(columns)]
    totals = [sum(r[1][i] or 0.0 for r in rows) for i in range(len(columns))]
    for label, values in rows + [("**total (root span)**", totals)]:
        cells = []
        for value, total in zip(values, totals):
            cells.append("-" if value is None
                         else f"{value:.2f} ({value / total:.0%})" if total
                         else f"{value:.2f}")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def durable(record: Dict) -> str:
    info = record["info"]["traced"]
    full, bare = info["spans"], info["spans_bare_kvstore"]
    gets, updates = full["op.get"]["count"], full["op.update"]["count"]
    kv_get = _per(bare, "op.get", "self_ns", gets)
    kv_upd = _per(bare, "op.update", "self_ns", updates)
    rows: List[Row] = [
        ("core: `get` / `insert`", [
            _per(full, "core.get", "self_ns", gets),
            _per(full, "core.insert", "self_ns", updates)]),
        ("core: `in` (kvstore's membership probe before an insert)", [
            0.0, _per(full, "core.contains", "self_ns", updates)]),
        ("kvstore: codec, namespace (same trace on a bare `KVStore`)", [
            kv_get, kv_upd]),
        ("wal: record, append, group commit (durable minus bare)", [
            _per(full, "op.get", "self_ns", gets) - kv_get,
            _per(full, "op.update", "self_ns", updates) - kv_upd]),
    ]
    return _table(
        "durable_mixed", f"Per op, in process; {gets:,} GETs and {updates:,} "
        "UPDATEs in the traced slices.", ["GET us", "UPDATE us"], rows,
    )


#: Server-side span -> (column it belongs to, row label).
_STORE_ROWS = (
    ("kvstore.get_many", 0, "kvstore: codec, namespace"),
    ("kvstore.insert_many", 1, "kvstore: codec, namespace"),
    ("core.get_many", 0, "core: `get_many` in the server process"),
    ("shard.get_many", 0, "shard: router-side call, incl. waiting for the workers (and their WAL)"),
    ("shard.insert_many", 1, "shard: router-side call, incl. waiting for the workers (and their WAL)"),
    ("shard.contains", 1, "shard: `in` before every insert (kvstore's probe, one RPC each)"),
)


def served(name: str, record: Dict) -> str:
    info = record["info"]["traced"]
    client, server = info["spans"], info["server_spans"]
    requests = client["client.burst"]["keys"]
    keys = [server.get(f"kvstore.{op}", {"keys": 0})["keys"]
            for op in ("get_many", "insert_many")]
    columns = [c for c, n in zip(("GET us", "UPDATE us"), keys) if n]
    store: Dict[str, List[Optional[float]]] = {}
    inside = 0.0
    for span, col, label in _STORE_ROWS:
        if span in server and keys[col]:
            row = store.setdefault(label, [0.0 if n else None for n in keys])
            row[col] += _per(server, span, "self_ns", keys[col])
            inside += server[span]["self_ns"]
    shared = lambda value: [value if n else None for n in keys]  # noqa: E731
    wait = _per(client, "client.wait", "self_ns", requests)
    rows: List[Row] = [
        ("client: encode and send (incl. frame encode)",
         shared(_per(client, "client.encode", "self_ns", requests))),
        ("server: socket, frame decode, coalescer, reply (wait minus store spans)",
         shared(wait - inside / requests / 1e3)),
        *store.items(),
        ("client: check replies against the oracle",
         shared(_per(client, "client.check", "self_ns", requests))),
    ]
    rows = [(label, [v for v, n in zip(values, keys) if n]) for label, values in rows]
    m = record["metrics"]
    note = (
        f"Per request, amortised over lock-step bursts ({requests:,} requests "
        "in the traced window); client and server share one vCPU, so wall "
        "time adds up.  Client and server rows are the same for either kind "
        "of request; store rows are per key of that kind.  Replayed through "
        "the public per-frame functions, the frame codec alone costs "
        f"{m.get('frame.encode_us_per_req', 0.0):.2f} us encode + "
        f"{m.get('frame.decode_us_per_req', 0.0):.2f} us decode per request "
        "(request and reply), an upper bound on its share of those rows."
    )
    return _table(name, note, columns, rows)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ledger = json.loads(open(argv[0]).read())
    if not ledger.get("traced"):
        print("not a traced ledger (run.py --trace)", file=sys.stderr)
        return 2
    prov = ledger["provenance"]
    print("# Where a request spends its microseconds\n")
    print(f"Traced run at `{prov['git_sha'][:12]}`, seed {prov['seed']}, "
          f"engine `{prov['engine']}`, {prov['nproc']} vCPUs, Python "
          f"{prov['python']}, NumPy {prov['numpy']}.  Self times from span "
          "proxies at the public seams; cells are `us (share of column)`.\n")
    workloads = ledger["workloads"]
    print(durable(workloads["durable_mixed"]))
    for name in ("server_read", "fleet_mixed"):
        print(served(name, workloads[name]))
    print("### trace.overhead_ratio (traced / untraced throughput)\n")
    print("| workload | ratio |\n|---|---:|")
    for name, record in workloads.items():
        print(f"| {name} | {record['metrics']['trace.overhead_ratio']:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
