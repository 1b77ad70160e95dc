"""Metrics smoke run: an instrumented DyTIS workout + snapshot export.

``run_metrics_smoke`` drives an observability-enabled DyTIS through a
mixed workload (bulk load, inserts, point gets -- present and absent --
scans, deletes; scalar and batched) and returns the collector
snapshot, with the index's own ``OperationStats`` embedded so consumers
can reconcile structural-event counts against the counters the index
maintains independently.  The snapshot also carries a ``"wal"`` block from a
durable-store workout (write, reopen/replay, checkpoint, all on the
in-memory ``SimFS`` so no disk is touched), which the exposition
renders as ``wal_*`` series.  ``python -m repro.bench --metrics-out
PATH`` writes the snapshot as ``PATH.json`` + ``PATH.prom``; CI parses
the Prometheus text back to assert the exposition stays well-formed.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.core import DyTIS
from repro.obs import Observability

#: Required op kinds in the exported snapshot (acceptance criterion:
#: p50/p95/p99 present for each).
REQUIRED_OPS = ("get", "insert", "scan")

#: WAL counters that must be non-zero after the durable workout; the
#: CI crash-recovery job asserts the matching ``dytis_wal_*`` series.
REQUIRED_WAL = (
    "appends_total",
    "ops_logged_total",
    "bytes_written_total",
    "fsyncs_total",
    "checkpoints_total",
    "replays_total",
    "records_replayed_total",
)


def run_wal_smoke(n: int = 500, seed: int = 42) -> Dict:
    """Exercise the durable store end to end; returns a WalMetrics dict.

    Writes through every logged operation, closes, reopens (replay),
    checkpoints, writes past the checkpoint, and reopens once more so
    the replay counters reflect a checkpoint + tail recovery.
    """
    from repro.kvstore import UintCodec
    from repro.wal import DurableKVStore, SimFS, WalMetrics

    rng = random.Random(seed)
    fs = SimFS()
    codecs = {"kv": UintCodec(32)}
    shared = WalMetrics()  # one counter set across the reopen cycles
    with DurableKVStore(
        "/smoke", fs=fs, fsync="batch(32,0.01)", segment_size=16 << 10,
        codecs=codecs, metrics=shared,
    ) as store:
        ns = store.namespace("kv", codecs["kv"])
        keys = rng.sample(range(1 << 30), n)
        for k in keys[: n // 2]:
            ns.insert(k, k % 97)
        ns.insert_many([(k, k % 97) for k in keys[n // 2 :]])
        for k in rng.sample(keys, n // 10):
            ns.delete(k)
        ns.delete_range(0, 1 << 20)
    with DurableKVStore(
        "/smoke", fs=fs, codecs=codecs, metrics=shared
    ) as store:
        store.checkpoint()
        ns = store.namespace("kv")
        for k in rng.sample(range(1 << 30), n // 10):
            ns.insert(k, 0)
    with DurableKVStore(
        "/smoke", fs=fs, codecs=codecs, metrics=shared
    ) as store:
        return store.metrics.to_dict()


def run_metrics_smoke(
    n: int = 3000, seed: int = 42
) -> Tuple[Dict, Observability, DyTIS]:
    """Exercise every instrumented path; return (snapshot, obs, index).

    Each op kind runs scalar and as one batch call; ``extra["ops"]``
    holds the keys read, written and deleted, which
    :func:`check_snapshot` holds the latency counts to.
    """
    rng = random.Random(seed)
    obs = Observability(enabled=True)
    index = DyTIS(obs=obs)

    # Sparse keys: a dense key set (span ~= n) differs only in its low
    # bits, which defeats high-bit splitting and degenerates into
    # directory-doubling storms -- realistic workloads are sparse.
    span = 1 << 32
    keys = rng.sample(range(1, span), n)
    key_set = set(keys)
    half = n // 2
    loaded = sorted(keys[:half])
    index.bulk_load(loaded, [k * 2 for k in loaded])
    third = half + (n - half) // 2
    for k in keys[half:third]:
        index.insert(k, k * 2)
    index.insert_many(keys[third:], [k * 2 for k in keys[third:]])
    reads = rng.sample(keys, min(n, 2000))
    for k in reads[: len(reads) // 2]:
        index.get(k)
    index.get_many(reads[len(reads) // 2 :])
    absent = 0
    while absent < 200:  # misses exercise the plr_misses counter
        k = rng.randrange(1, span)
        if k not in key_set:
            index.get(k)
            absent += 1
    for _ in range(100):
        index.scan(rng.choice(keys), 64)
    doomed = rng.sample(keys, min(n // 10, 500))
    for k in doomed[: len(doomed) // 2]:
        index.delete(k)
    index.delete_many(doomed[len(doomed) // 2 :])

    ops = {
        "get": len(reads) + absent, "insert": n - half, "delete": len(doomed)
    }
    snapshot = obs.snapshot(
        op_stats=index.stats, extra={"n_keys": n, "seed": seed, "ops": ops}
    )
    snapshot["wal"] = run_wal_smoke(n=max(200, n // 6), seed=seed)
    return snapshot, obs, index


def check_snapshot(snapshot: Dict) -> None:
    """Assert the acceptance-criteria shape of a metrics snapshot.

    Every required op has recorded latencies with quantiles, an op
    whose key count the workload states (``extra["ops"]``) recorded one
    sample per key, scalar or batched, and the structural-event counts
    reconcile exactly with ``OperationStats``.
    """
    for op in REQUIRED_OPS:
        hist = snapshot["latency"][op]
        if hist["count"] <= 0:
            raise AssertionError(f"no {op!r} latencies recorded")
        for q in ("p50_ns", "p95_ns", "p99_ns"):
            if hist[q] <= 0:
                raise AssertionError(f"{op!r} {q} missing from snapshot")
    for op, keys in snapshot.get("extra", {}).get("ops", {}).items():
        count = snapshot["latency"][op]["count"]
        if count != keys:
            raise AssertionError(
                f"{op!r} recorded {count} samples for {keys} keys"
            )
    wal = snapshot.get("wal")
    if wal is None:
        raise AssertionError("snapshot lacks the wal metrics block")
    for key in REQUIRED_WAL:
        if wal.get(key, 0) <= 0:
            raise AssertionError(f"wal metric {key!r} missing or zero")
    stats = snapshot.get("op_stats")
    if stats is not None:
        counts = snapshot["events"]["counts"]
        pairs = [
            ("split", stats["splits"]),
            ("expand", stats["expansions"]),
            ("remap", stats["remappings"]),
            ("doubling", stats["doublings"]),
            ("merge", stats["merges"]),
        ]
        for kind, expected in pairs:
            if counts.get(kind, 0) != expected:
                raise AssertionError(
                    f"event count {kind}={counts.get(kind, 0)} does not "
                    f"reconcile with op_stats ({expected})"
                )
