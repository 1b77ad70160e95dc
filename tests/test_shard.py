"""Unit tests for the repro.shard subsystem.

Routing math, per-shard durability (crash a worker, restart it, replay
its WAL), metrics scrape, protocol conformance, and worker reaping.
"""

import numpy as np
import pytest

from repro.api.protocol import is_batch_index, is_index
from repro.core import DyTISConfig
from repro.shard import ShardedIndex, ShardError, ShardRouter
from repro.shard.metrics import WorkerMetrics, shards_to_prometheus

CFG = DyTISConfig(key_bits=32, first_level_bits=3, bucket_capacity=8, l_start=1)


# -- routing ---------------------------------------------------------------


def test_router_msb_partitions_key_space_contiguously():
    r = ShardRouter(4, key_bits=32)
    assert r.ordered
    width = 2**30
    for s in range(4):
        assert r.shard_of(s * width) == s
        assert r.shard_of((s + 1) * width - 1) == s


def test_router_msb_skip_bits_routes_below_prefix():
    # Keys share a constant top byte (the namespace id): skipping it
    # must still spread the payload across shards.
    r = ShardRouter(4, key_bits=64, skip_bits=8)
    prefix = 7 << 56
    payload_width = 2**54  # (64 - 8 - 2) bits per shard
    shards = {r.shard_of(prefix | (s * payload_width)) for s in range(4)}
    assert shards == {0, 1, 2, 3}


def test_router_hash_balances_dense_small_keys():
    r = ShardRouter(8, mode="hash")
    counts = np.bincount(r.route_array(np.arange(8000, dtype=np.uint64)),
                         minlength=8)
    assert counts.min() > 0.5 * counts.max()


def test_router_route_array_matches_scalar():
    for mode in ("msb", "hash"):
        r = ShardRouter(4, key_bits=32, mode=mode)
        keys = np.random.default_rng(0).integers(
            0, 2**32, size=500, dtype=np.uint64
        )
        vec = r.route_array(keys)
        assert [r.shard_of(int(k)) for k in keys] == vec.tolist()


def test_router_range_plan():
    r = ShardRouter(4, key_bits=32)
    width = 2**30
    assert r.range_plan(0, 10) == ([0], True)
    assert r.range_plan(width - 5, width + 5) == ([0, 1], True)
    assert r.range_plan(0, 4 * width) == ([0, 1, 2, 3], True)
    assert r.range_plan(5, 5) == ([], True)
    h = ShardRouter(4, key_bits=32, mode="hash")
    shards, ordered = h.range_plan(0, 10)
    assert shards == [0, 1, 2, 3] and not ordered


def test_router_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ShardRouter(3)
    with pytest.raises(ValueError):
        ShardRouter(4, mode="modulo")
    with pytest.raises(ValueError):
        ShardRouter(4, key_bits=8, skip_bits=8)


# -- the sharded index ------------------------------------------------------


def test_sharded_index_satisfies_protocols():
    with ShardedIndex(2, config=CFG) as idx:
        assert is_index(idx)
        assert is_batch_index(idx)
        assert idx.config.key_bits == CFG.key_bits


def test_sharded_insert_many_pair_form():
    with ShardedIndex(2, config=CFG, mode="hash") as idx:
        idx.insert_many([(5, "a"), (6, "b")])
        assert idx.get_many([5, 6, 7]) == ["a", "b", None]


def test_sharded_scan_across_shards_ordered_mode():
    with ShardedIndex(4, config=CFG, skip_bits=1) as idx:
        keys = list(range(0, 2**31, 2**24))
        idx.bulk_load(keys, keys)
        got = idx.scan(keys[5] + 1, 40)
        assert got == [(k, k) for k in keys[6:46]]


def test_sharded_error_parity_with_local_index():
    """Bad keys raise the same ValueError a local DyTIS raises --
    scalar, batch, and read paths alike -- and a failing batch leaves
    the fleet usable (prior state intact, pipes in sync)."""
    with ShardedIndex(2, config=CFG) as idx:
        idx.insert(7, "ok")
        for bad in (
            lambda: idx.insert(-1, "nope"),
            lambda: idx.get(-1),
            lambda: -1 in idx,
            lambda: idx.insert_many([3, -1], ["a", "b"]),
            lambda: idx.get_many([3, 2**70]),
        ):
            with pytest.raises(ValueError, match="key"):
                bad()
        assert idx.get(7) == "ok"
        assert len(idx) == 1


def test_sharded_remote_error_keeps_original_type():
    """A worker-side application error crosses the pipe as its builtin
    type; only infrastructure failures surface as ShardError."""
    with ShardedIndex(2, config=CFG, mode="hash") as idx:
        # 2**33 survives the router's batch partition (it only rejects
        # non-uint64 values) but violates the workers' key_bits=32
        # config: the worker-side ValueError crosses the pipe intact.
        with pytest.raises(ValueError, match="outside"):
            idx.insert_many([2**33], ["v"])
        assert len(idx) == 0


def test_sharded_close_reaps_workers():
    idx = ShardedIndex(2, config=CFG)
    procs = list(idx._procs)
    assert all(p.is_alive() for p in procs)
    idx.close()
    assert all(not p.is_alive() for p in procs)
    idx.close()  # idempotent


def test_durable_shard_restart_replays_wal(tmp_path):
    d = str(tmp_path / "db")
    with ShardedIndex(
        2, config=CFG, mode="hash", durable_dir=d
    ) as idx:
        idx.insert_many(list(range(500)), [k * 2 for k in range(500)])
        idx.delete_range(100, 200)
        idx.checkpoint()
        idx.insert(1000, "post-ckpt")
        # Simulate a crash of one worker (no clean shutdown) and
        # restart it in place: it recovers checkpoint + WAL tail.
        idx._procs[0].kill()
        idx._procs[0].join()
        with pytest.raises(ShardError):
            for k in range(500):  # some key routes to the dead shard
                idx._call(0, "get", k)
        idx.restart_shard(0)
        assert len(idx) == 401
        assert idx.get(150) is None
        assert idx.get(50) == 100
        assert idx.get(1000) == "post-ckpt"
    # Cold restart from disk only.
    with ShardedIndex(
        2, config=CFG, mode="hash", durable_dir=d
    ) as idx:
        assert len(idx) == 401
        assert idx.get(50) == 100 and idx.get(1000) == "post-ckpt"


def test_shard_metrics_scrape_and_merge():
    with ShardedIndex(2, config=CFG, mode="hash") as idx:
        idx.insert_many(list(range(200)), list(range(200)))
        for k in range(0, 200, 7):
            idx._call(idx.router.shard_of(k), "get", k)
        per_shard = idx.shard_metrics()
        assert len(per_shard) == 2
        assert sum(m.counters["size"] for m in per_shard) == 200
        total_gets = sum(m.latency["get"].count for m in per_shard)
        assert total_gets == len(range(0, 200, 7))
        page = idx.metrics_to_prometheus()
        assert 'dytis_shard_ops_total{op="get",shard="0"}' in page
        assert 'dytis_shard_ops_total{op="get",shard="1"}' in page
        assert 'dytis_shard_keys{shard="1"}' in page
        assert "dytis_shard_op_latency_ns_count" in page


def test_shards_to_prometheus_merges_counts():
    a, b = WorkerMetrics(), WorkerMetrics()
    from repro.obs import LatencyHistogram

    ha = LatencyHistogram()
    ha.record(10)
    hb = LatencyHistogram()
    hb.record(20)
    hb.record(30)
    a.latency["get"] = ha
    b.latency["get"] = hb
    page = shards_to_prometheus([a, b])
    assert 'dytis_shard_ops_total{op="get",shard="0"} 1' in page
    assert 'dytis_shard_ops_total{op="get",shard="1"} 2' in page
    assert 'dytis_shard_op_latency_ns_count{op="get"} 3' in page
