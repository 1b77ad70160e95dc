"""End-to-end: the network server on a multi-process ShardedIndex.

The server must not care that its store's index is a process fleet:
the same wire protocol, the same coalescing pipeline, the same
namespace codec -- with requests fanning out to shard workers under
the hood and the admin page growing per-shard series.  Mirrors the CI
sharded-smoke job in-process so it runs in the tier-1 suite.
"""

import urllib.request

import pytest

from repro.core import DyTISConfig
from repro.kvstore import KVStore
from repro.obs.exposition import parse_prometheus
from repro.server.client import RemoteIndex
from repro.server.loadgen import run_load
from repro.server.server import ServerConfig
from repro.server.testing import ServerThread
from repro.shard import ShardedIndex

CONFIG = ServerConfig(host="127.0.0.1", port=0, admin_port=0)


@pytest.fixture()
def sharded_server():
    index = ShardedIndex(2, config=DyTISConfig(), mode="hash")
    with ServerThread(KVStore(index=index), config=CONFIG) as srv:
        yield srv
    # ServerThread.stop() runs the graceful shutdown, which closes the
    # index and reaps the fleet; verify rather than assume.
    assert all(p is None for p in index._procs)


def test_sharded_server_basic_ops(sharded_server):
    srv = sharded_server
    with RemoteIndex(srv.host, srv.port) as idx:
        keys = list(range(500))
        idx.bulk_load(keys, [k * 3 for k in keys])
        assert idx.get(7) == 21
        assert idx.get_many([1, 2, 999]) == [3, 6, None]
        idx.insert(999, "x")
        assert idx.get(999) == "x"
        assert idx.scan(10, 5) == [(k, k * 3) for k in range(10, 15)]
        assert idx.delete_range(0, 100) == 100
        assert idx.count_range(0, 500) == 400


def test_sharded_server_namespaces_isolated(sharded_server):
    srv = sharded_server
    with RemoteIndex(srv.host, srv.port, "a") as a, RemoteIndex(
        srv.host, srv.port, "b"
    ) as b:
        a.insert(1, "from-a")
        b.insert(1, "from-b")
        assert a.get(1) == "from-a"
        assert b.get(1) == "from-b"


def test_sharded_server_load_and_scrape(sharded_server):
    srv = sharded_server
    report = srv.run(
        run_load(
            srv.host,
            srv.port,
            workload="B",
            n_conns=4,
            n_keys=2000,
            n_ops=3000,
            pipeline=32,
        )
    )
    assert report.n_errors == 0
    assert report.n_requests >= 3000
    text = (
        urllib.request.urlopen(
            f"http://{srv.host}:{srv.admin_port}/metrics", timeout=10
        )
        .read()
        .decode()
    )
    samples = parse_prometheus(text)
    # Server-level series still present...
    assert samples[("dytis_server_requests_total", (("op", "get"),))] > 0
    # ...and the index page contributes per-shard + merged series.
    shard_keys = [
        samples[("dytis_shard_keys", (("shard", str(s)),))] for s in (0, 1)
    ]
    assert sum(shard_keys) >= 2000
    assert all(n > 0 for n in shard_keys), shard_keys
    inserted = sum(
        samples[("dytis_shard_ops_total", (("op", "insert"), ("shard", str(s))))]
        for s in (0, 1)
    )
    assert inserted >= sum(shard_keys)  # every stored key was recorded
    merged = samples[("dytis_shard_op_latency_ns_count", (("op", "insert"),))]
    assert merged == inserted
