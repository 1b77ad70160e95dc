"""Server throughput: read coalescing vs the naive request/reply loop.

Sweeps connection count on read-heavy YCSB-C with pipelined clients
(window 64) against two servers over the same store and dataset: the
coalescing server (pipelined point gets drained into ``get_many``
batches against the read snapshot, replies written one batch per
connection) and the naive baseline (``coalesce=False``: execute one
request, write one reply, flush).

The acceptance bar from ISSUE 7 -- coalescing >= 2x naive at >= 16
connections -- is asserted at >= 50k keys where the batch calls
dominate fixed overheads;
the default smoke scale asserts a weaker always-winning floor.
"""

import asyncio
import gc
import os
from dataclasses import dataclass
from typing import List

from repro.server import ServerConfig, ServerThread
from repro.server.loadgen import run_load

CONNS = (1, 4, 16)
PIPELINE = 64
#: Shard-process counts for the sharded-store rows (1 = the
#: single-process router baseline the speedup is measured against).
SHARDS = (1, 4)


@dataclass
class Row:
    conns: int
    naive_rps: float
    coalesced_rps: float
    mean_batch: float

    @property
    def speedup(self) -> float:
        return self.coalesced_rps / self.naive_rps if self.naive_rps else 0.0


def _measure(
    coalesce: bool, conns: int, scale, trials: int = 3, store_factory=None
):
    """Best-of-``trials`` req/s: scheduling noise on shared cores is
    one-sided (a slow trial means interference, not a faster server).
    GC is disabled for the run -- collector pauses inside a sub-second
    measurement window otherwise dominate the variance."""
    config = ServerConfig(coalesce=coalesce, max_batch=PIPELINE * conns)
    best = (0.0, 0.0)
    for _ in range(trials):
        store = store_factory() if store_factory is not None else None
        with ServerThread(store, config=config) as st:
            gc.collect()
            gc.disable()
            try:
                report = asyncio.run(
                    run_load(
                        st.host,
                        st.port,
                        workload="C",
                        n_conns=conns,
                        n_keys=scale.n_keys,
                        n_ops=max(8000, 2 * scale.n_ops),
                        pipeline=PIPELINE,
                        seed=scale.seed,
                    )
                )
            finally:
                gc.enable()
            assert report.n_errors == 0
            rps = report.throughput
            if rps > best[0]:
                best = (rps, st.server.metrics.mean_batch_size("get"))
    return best


def run(scale) -> List[Row]:
    rows = []
    for conns in CONNS:
        naive_rps, _ = _measure(False, conns, scale)
        coalesced_rps, mean_batch = _measure(True, conns, scale)
        rows.append(Row(conns, naive_rps, coalesced_rps, mean_batch))
    return rows


def format_table(rows: List[Row]) -> str:
    lines = [
        "Server throughput, YCSB-C, pipelined clients (window "
        f"{PIPELINE}), req/s",
        f"{'conns':>5}  {'naive':>12}  {'coalesced':>12}  "
        f"{'speedup':>7}  {'mean batch':>10}",
    ]
    for r in rows:
        lines.append(
            f"{r.conns:>5}  {r.naive_rps:>12,.0f}  {r.coalesced_rps:>12,.0f}"
            f"  {r.speedup:>6.2f}x  {r.mean_batch:>10.1f}"
        )
    return "\n".join(lines)


# -- sharded store rows ----------------------------------------------------


def _sharded_store(n_shards: int):
    from repro.kvstore import KVStore
    from repro.shard import ShardedIndex

    return KVStore(index=ShardedIndex(n_shards, mode="hash"))


@dataclass
class ShardedRow:
    shards: int
    rps: float
    mean_batch: float


def run_sharded(scale, shard_counts=SHARDS) -> List[ShardedRow]:
    """Coalescing server over a multi-process ShardedIndex store.

    Same pipelined YCSB-C drive as the main sweep at the largest
    fan-in; the coalescer's ``get_many`` batches scatter across the
    shard fleet (or are answered zero-copy from the shared-memory
    columns), so worker processes absorb index work the single-process
    rows pay on the event-loop thread.
    """
    rows = []
    for n_shards in shard_counts:
        rps, mean_batch = _measure(
            True, max(CONNS), scale,
            store_factory=lambda: _sharded_store(n_shards),
        )
        rows.append(ShardedRow(n_shards, rps, mean_batch))
    return rows


def format_sharded_table(rows: List[ShardedRow]) -> str:
    lines = [
        "Sharded-store server throughput, YCSB-C, "
        f"{max(CONNS)} conns (window {PIPELINE}), req/s",
        f"{'shards':>6}  {'req/s':>12}  {'mean batch':>10}",
    ]
    for r in rows:
        lines.append(
            f"{r.shards:>6}  {r.rps:>12,.0f}  {r.mean_batch:>10.1f}"
        )
    return "\n".join(lines)


def test_server_throughput(benchmark, bench_scale, record_table):
    rows = benchmark.pedantic(
        run, kwargs=dict(scale=bench_scale), rounds=1, iterations=1
    )
    record_table("server_throughput", format_table(rows))
    by_conns = {r.conns: r for r in rows}

    # Coalescing must actually batch once there is concurrency to mine.
    assert by_conns[16].mean_batch > 1.5
    # It must never lose, at any scale or fan-in.
    for r in rows:
        assert r.speedup >= 0.8, (r.conns, r.speedup)
    # Pipelined readers at fan-in: smoke floor, full bar at stable scale.
    assert by_conns[16].speedup >= 1.2
    if bench_scale.n_keys >= 50_000:
        assert by_conns[16].speedup >= 2.0  # ISSUE 7 acceptance bar


def test_server_throughput_sharded(benchmark, bench_scale, record_table):
    rows = benchmark.pedantic(
        run_sharded, kwargs=dict(scale=bench_scale), rounds=1, iterations=1
    )
    record_table("server_throughput_sharded", format_sharded_table(rows))
    by_shards = {r.shards: r for r in rows}
    for r in rows:
        assert r.rps > 0
    # Multi-core gain needs multiple cores; on fewer the row just has
    # to stay in the same league as the single-process router (control
    # channel overhead bounded), matching the fig12 gating convention.
    speedup = by_shards[4].rps / by_shards[1].rps
    if (os.cpu_count() or 1) >= 4 and bench_scale.n_keys >= 50_000:
        assert speedup >= 1.5, f"4-shard server gave {speedup:.2f}x"
    else:
        assert speedup >= 0.3, f"4-shard server collapsed to {speedup:.2f}x"
