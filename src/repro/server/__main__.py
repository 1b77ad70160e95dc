"""``python -m repro.server``: run the index server from the shell.

In-memory by default; ``--dir`` switches to a :class:`~repro.wal.
DurableKVStore` (WAL + checkpoints) in that directory.  SIGINT and
SIGTERM trigger the graceful shutdown sequence -- quiesce in-flight
batches, checkpoint a durable store, close -- and the process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.kvstore import KVStore
from repro.server.server import IndexServer, ServerConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a DyTIS-backed key-value store over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7407)
    parser.add_argument(
        "--admin-port", type=int, default=7408,
        help="HTTP port for /metrics and /healthz (-1 disables)",
    )
    parser.add_argument(
        "--dir", default=None,
        help="durability directory (enables the WAL-backed store)",
    )
    parser.add_argument(
        "--fsync", default="batch", choices=("always", "batch", "never"),
        help="WAL fsync policy when --dir is set",
    )
    parser.add_argument(
        "--remote", default=None, metavar="DIR",
        help="ship checkpoints + sealed WAL segments to this directory "
        "(filesystem-backed remote storage; needs --dir). An empty "
        "--dir with a populated remote attaches as a replica first.",
    )
    parser.add_argument(
        "--remote-flaky", type=float, default=0.0, metavar="RATE",
        help="inject transient faults into the remote at this rate "
        "(0..1; exercises the retry/backoff path end to end)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="serve a multi-process ShardedIndex with N worker "
        "processes (power of two; 0 serves a single in-process index)",
    )
    parser.add_argument(
        "--shard-mode", default="hash", choices=("hash", "msb"),
        help="shard routing: 'hash' balances any key distribution; "
        "'msb' keeps shards range-contiguous",
    )
    parser.add_argument(
        "--no-coalesce", action="store_true",
        help="serve one request per call (the naive baseline)",
    )
    parser.add_argument("--max-batch", type=int, default=1024)
    return parser


async def _serve(args) -> int:
    remote = None
    if args.remote:
        if not args.dir:
            print("--remote needs --dir (nothing durable to ship)",
                  file=sys.stderr)
            return 2
        from repro.remote import FlakyStorage, LocalFsStorage

        remote = LocalFsStorage(args.remote)
        if args.remote_flaky > 0:
            remote = FlakyStorage(
                remote,
                error_rate=args.remote_flaky,
                timeout_rate=args.remote_flaky / 2,
            )
    if args.shards:
        from repro.kvstore.store import _NAMESPACE_BITS
        from repro.shard import ShardedIndex

        # The codec packs the namespace id into the key's top bits;
        # MSB routing skips them so it splits on payload bits.  Note
        # sharded durability covers index data only -- the namespace
        # registry is rebuilt per session in open order.
        index = ShardedIndex(
            args.shards,
            mode=args.shard_mode,
            skip_bits=_NAMESPACE_BITS if args.shard_mode == "msb" else 0,
            durable_dir=args.dir,
            fsync=args.fsync,
            remote=remote,
        )
        store = KVStore(index=index)
    elif args.dir:
        from repro.wal import DurableKVStore

        store = DurableKVStore(args.dir, fsync=args.fsync, remote=remote)
    else:
        store = KVStore()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        admin_port=None if args.admin_port < 0 else args.admin_port,
        coalesce=not args.no_coalesce,
        max_batch=args.max_batch,
    )
    server = IndexServer(store, config=config)
    await server.start()

    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)

    mode = "coalescing" if config.coalesce else "naive"
    if args.shards:
        mode += f", {args.shards} shard processes"
    if remote is not None:
        mode += f", shipping to {args.remote}"
    print(
        f"repro.server listening on {args.host}:{server.port} "
        f"({mode}, admin={server.admin_port})",
        flush=True,
    )
    await stop.wait()
    print("repro.server shutting down", flush=True)
    await server.shutdown()
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return asyncio.run(_serve(args))


if __name__ == "__main__":
    sys.exit(main())
