"""Async load generator: YCSB mixes over N pipelined connections.

Each connection is one :class:`~repro.server.client.AsyncRemoteIndex`
driving its slice of a YCSB trace (:mod:`repro.workloads.ycsb`) with a
bounded pipeline window -- ``pipeline`` requests are fired back to
back, then the whole burst is awaited.  Pipelining is the whole point:
it keeps frames queued at the server so the coalescer has runs of
consecutive gets/inserts to batch.  ``pipeline=1`` degenerates to
strict request/reply ping-pong for baseline comparisons.

Run standalone::

    python -m repro.server.loadgen --port 7407 --workload C --conns 16
"""

from __future__ import annotations

import argparse
import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.server import frame
from repro.server.client import AsyncRemoteIndex, RemoteError, RemoteIndex
from repro.workloads.ycsb import OpKind, generate_operations, make_workload


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    workload: str
    n_conns: int
    pipeline: int
    n_requests: int = 0
    n_errors: int = 0
    elapsed_s: float = 0.0
    ops_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completed requests per second (wall clock)."""
        return self.n_requests / self.elapsed_s if self.elapsed_s else 0.0

    def summary(self) -> str:
        kinds = ", ".join(
            f"{k}={n}" for k, n in sorted(self.ops_by_kind.items())
        )
        return (
            f"workload {self.workload}: {self.n_requests} requests over "
            f"{self.n_conns} conns (pipeline {self.pipeline}) in "
            f"{self.elapsed_s:.3f}s = {self.throughput:,.0f} req/s "
            f"[{kinds}] errors={self.n_errors}"
        )


def make_dataset(n_keys: int, seed: int = 0) -> List[int]:
    """Distinct shuffled integer keys (fit any namespace codec)."""
    rng = np.random.default_rng(seed)
    return [int(k) for k in rng.permutation(n_keys)]


async def _drive(
    client: AsyncRemoteIndex,
    ops: Sequence,
    pipeline: int,
    report: LoadReport,
) -> None:
    """Run one connection's trace slice, ``pipeline`` requests per burst.

    Each burst is submitted without awaiting (frames land on the wire
    back to back), then the whole window is gathered at once.  Burst
    pipelining keeps per-request generator overhead to a few C calls
    -- one task wakeup per *window*, not per op -- so the generator
    does not become the bottleneck it is measuring.  ``drain`` is pure
    backpressure and is awaited once per burst.
    """
    n_requests = 0
    n_errors = 0
    for kind, n in (
        ("read", sum(1 for op in ops if op.kind is OpKind.READ)),
        ("update", sum(1 for op in ops if op.kind is OpKind.UPDATE)),
        ("insert", sum(1 for op in ops if op.kind is OpKind.INSERT)),
        ("scan", sum(1 for op in ops if op.kind is OpKind.SCAN)),
        ("rmw", sum(1 for op in ops
                    if op.kind is OpKind.READ_MODIFY_WRITE)),
    ):
        if n:
            report.ops_by_kind[kind] = report.ops_by_kind.get(kind, 0) + n
    ns_id = client.ns_id
    for start in range(0, len(ops), pipeline):
        window: List[asyncio.Future] = []
        buf = bytearray()
        for op in ops[start : start + pipeline]:
            if op.kind is OpKind.READ:
                window.append(client.submit_into(
                    buf, frame.OP_GET, frame.encode_key(ns_id, op.key)
                ))
            elif op.kind in (OpKind.UPDATE, OpKind.INSERT):
                window.append(client.submit_into(
                    buf, frame.OP_INSERT,
                    frame.encode_key_value(ns_id, op.key, op.key),
                ))
            elif op.kind is OpKind.SCAN:
                window.append(client.submit_into(
                    buf, frame.OP_SCAN,
                    frame.encode_scan(ns_id, op.key, op.arg or 100),
                ))
            else:  # READ_MODIFY_WRITE: two pipelined requests
                window.append(client.submit_into(
                    buf, frame.OP_GET, frame.encode_key(ns_id, op.key)
                ))
                window.append(client.submit_into(
                    buf, frame.OP_INSERT,
                    frame.encode_key_value(ns_id, op.key, op.key),
                ))
        client.send_buffer(buf)
        await client.drain()
        # Replies are FIFO per connection, so once the burst's last
        # future resolves the rest are already done: harvest them
        # synchronously instead of paying gather bookkeeping per op.
        try:
            await window[-1]
        except RemoteError:
            pass
        for fut in window:
            n_requests += 1
            try:
                fut.result()
            except RemoteError:
                n_errors += 1
    report.n_requests += n_requests
    report.n_errors += n_errors


async def run_load(
    host: str,
    port: int,
    *,
    workload: str = "C",
    n_conns: int = 8,
    n_keys: int = 20_000,
    n_ops: int = 20_000,
    pipeline: int = 64,
    namespace: str = "default",
    distribution: str = "zipfian",
    seed: int = 0,
    preload: bool = True,
) -> LoadReport:
    """Preload the dataset, then drive ``workload`` over ``n_conns``."""
    spec = make_workload(workload)
    dataset = make_dataset(n_keys, seed=seed)
    preload_keys, ops = generate_operations(
        spec, dataset, n_ops, seed=seed, distribution=distribution
    )
    if preload and preload_keys:
        # Bulk preload over one synchronous connection (chunked
        # insert_many): not part of the measured window.
        loop = asyncio.get_event_loop()

        def _preload() -> None:
            with RemoteIndex(host, port, namespace) as idx:
                idx.bulk_load(preload_keys, preload_keys)

        await loop.run_in_executor(None, _preload)

    clients = await asyncio.gather(
        *(
            AsyncRemoteIndex.connect(host, port, namespace)
            for _ in range(n_conns)
        )
    )
    report = LoadReport(workload=workload, n_conns=n_conns, pipeline=pipeline)
    slices = [ops[i::n_conns] for i in range(n_conns)]
    t0 = time.perf_counter()
    await asyncio.gather(
        *(
            _drive(client, chunk, pipeline, report)
            for client, chunk in zip(clients, slices)
        )
    )
    report.elapsed_s = time.perf_counter() - t0
    await asyncio.gather(*(client.close() for client in clients))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.loadgen",
        description="YCSB load generator for the repro index server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7407)
    parser.add_argument("--workload", default="C", help="YCSB mix (A/B/C/...)")
    parser.add_argument("--conns", type=int, default=8)
    parser.add_argument("--keys", type=int, default=20_000)
    parser.add_argument("--ops", type=int, default=20_000)
    parser.add_argument("--pipeline", type=int, default=64)
    parser.add_argument("--namespace", default="default")
    parser.add_argument(
        "--distribution", default="zipfian",
        choices=("zipfian", "uniform", "hotspot"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-preload", action="store_true",
        help="skip the preload phase (population already loaded)",
    )
    args = parser.parse_args(argv)
    report = asyncio.run(
        run_load(
            args.host,
            args.port,
            workload=args.workload,
            n_conns=args.conns,
            n_keys=args.keys,
            n_ops=args.ops,
            pipeline=args.pipeline,
            namespace=args.namespace,
            distribution=args.distribution,
            seed=args.seed,
            preload=not args.no_preload,
        )
    )
    print(report.summary())
    return 1 if report.n_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
