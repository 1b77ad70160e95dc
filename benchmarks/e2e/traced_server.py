#!/usr/bin/env python3
"""The benchmark's own server launcher for traced runs.

Composes exactly the public classes ``python -m repro.server`` composes
-- ``DyTIS`` or ``ShardedIndex`` under a ``KVStore`` under an
``IndexServer`` -- but passes span proxies through the two seams the
constructors offer (``KVStore(index=...)`` and ``IndexServer(store)``)
and gives an in-process index an observability collector.  Untraced
runs never come here; they start the real CLI.

Protocol with the runner: prints the CLI's ``listening on`` line;
``SIGUSR1`` switches span recording on (after the preload) and takes
the "before" counter snapshot; ``SIGTERM`` takes the "after" snapshot,
shuts the server down and writes header + spans to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from inprocess import core_snapshot  # noqa: E402
from spans import SpanIndex, SpanStore, Tracer  # noqa: E402


def fleet_snapshot(index) -> list:
    """Per shard: live keys and WAL position, from the workers' own
    counters (``ShardedIndex.shard_metrics()``)."""
    return [
        {
            "size": wm.counters.get("size", 0),
            "wal_lsn": wm.counters.get("wal_last_lsn", 0),
        }
        for wm in index.shard_metrics()
    ]


async def serve(args) -> int:
    from repro.core import DyTIS, DyTISConfig
    from repro.kvstore import KVStore
    from repro.obs import Observability
    from repro.server import IndexServer, ServerConfig

    tracer = Tracer()
    config = DyTISConfig()  # engine from DYTIS_STORAGE, set by the runner
    obs = None
    if args.shards:
        from repro.shard import ShardedIndex

        index = ShardedIndex(
            args.shards, config=config, mode="hash",
            durable_dir=args.dir, fsync=args.fsync,
        )
        proxy = SpanIndex(index, tracer, layer="shard")
    else:
        obs = Observability()
        index = DyTIS(config, obs=obs)
        proxy = SpanIndex(index, tracer, layer="core")
    store = SpanStore(KVStore(index=proxy), tracer)
    server = IndexServer(store, config=ServerConfig(port=0, admin_port=0))
    await server.start()

    counters = {}

    def snapshot(tag: str) -> None:
        if args.shards:
            counters[f"shards_{tag}"] = fleet_snapshot(index)
        else:
            counters[f"core_{tag}"] = core_snapshot(index, obs)

    def switch_on() -> None:
        snapshot("before")
        tracer.on = True

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGUSR1, switch_on)
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    print(
        f"traced_server listening on {server.config.host}:{server.port} "
        f"(spans, admin={server.admin_port})",
        flush=True,
    )
    await stop.wait()
    tracer.on = False
    snapshot("after")  # before shutdown closes the fleet
    await server.shutdown()
    if args.shards:
        before = counters.pop("shards_before", None) or counters["shards_after"]
        counters["shards"] = [
            {"size": after["size"], "wal_appends": after["wal_lsn"] - b["wal_lsn"]}
            for b, after in zip(before, counters.pop("shards_after"))
        ]
    tracer.dump(args.out, proc="server", extra={"counters": counters})
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--dir", default=None)
    parser.add_argument("--fsync", default="batch")
    return asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    sys.exit(main())
