"""The shard worker process: one index, one control channel, one loop.

A worker owns exactly one index (a plain :class:`DyTIS` or a
WAL-backed :class:`~repro.shard.durable.DurableShardIndex`) and serves
a strict request/reply protocol over its end of a
``multiprocessing.Pipe``: the router sends ``(op, args)``, the worker
replies ``(True, result)`` or ``(False, repr(error))``.  The worker
never initiates traffic, and it always drains a request before
replying, so the router can scatter a batch to every shard before
collecting any reply without deadlocking the pipes.

Both ends frame every message with :func:`dumps` + ``send_bytes`` and
:func:`recv_msg`: plain ``pickle``, not the ``ForkingPickler`` of
``Connection.send``, which copies its reducer table for every message
to serve objects (sockets, connections) that never cross this channel:
messages hold ints, values and bytes, and the ``"metrics"`` reply a
plain :class:`~repro.shard.metrics.WorkerMetrics` (ARCHITECTURE §14).

The loop is deliberately synchronous and single-index: *processes* are
the concurrency mechanism here (that is the whole point of the
subsystem), so the worker needs no locks, no GIL games, and its
index's single-writer invariants hold by construction.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core import DyTIS, DyTISConfig
from repro.obs import OP_KINDS, Observability
from repro.shard import metrics as shard_metrics


def dumps(msg: Any) -> bytes:
    """One pipe message's bytes; ``conn.send_bytes`` writes them."""
    return pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)


def send_msg(conn, msg: Any) -> None:
    conn.send_bytes(dumps(msg))


def recv_msg(conn) -> Any:
    return pickle.loads(conn.recv_bytes())


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to build its index (must pickle)."""

    shard_id: int
    config: DyTISConfig
    #: Per-shard durability directory; None runs in memory.
    durable_dir: Optional[str] = None
    fsync: str = "always"
    obs: bool = True
    #: Remote storage for checkpoint shipping, already prefixed with
    #: this shard's namespace (must pickle; see PrefixedStorage).
    remote: Optional[Any] = None
    remote_policy: Optional[Any] = None


def _build_index(spec: ShardSpec):
    obs = Observability() if spec.obs else None
    if spec.durable_dir is not None:
        from repro.shard.durable import DurableShardIndex

        return DurableShardIndex(
            spec.durable_dir,
            config=spec.config,
            obs=obs,
            fsync=spec.fsync,
            remote=spec.remote,
            remote_policy=spec.remote_policy,
        )
    return DyTIS(spec.config, obs=obs)


def worker_main(conn, spec: ShardSpec) -> None:
    """Entry point of one shard worker process.

    Runs until the channel delivers ``close`` (acknowledged, clean
    exit) or EOF (router died; exit quietly -- daemonized workers must
    not outlive their router).
    """
    index = _build_index(spec)
    maintainer: Optional[Any] = None  # lazily built MaintenanceController

    def _maintenance(max_rebuilds: Optional[int] = None) -> Dict[str, int]:
        """One maintenance step on the worker's core index.

        The controller is built lazily and kept for the worker's
        lifetime so its traffic baseline spans steps.  Runs inline in
        the request loop -- the worker is the index's single writer, so
        the swap is atomic with respect to every other op by
        construction.  Returns a picklable summary; the full counters
        travel in the metrics reply as ``maint_*`` counters.
        """
        nonlocal maintainer
        if maintainer is None:
            from repro.core.maintenance import MaintenanceController

            core = getattr(index, "index", index)
            maintainer = MaintenanceController(core)
        events = maintainer.step(max_rebuilds)
        return {
            "rebuilds": len(events),
            "segment_rebuilds": sum(1 for e in events if e.scope == "segment"),
            "table_rebuilds": sum(1 for e in events if e.scope == "table"),
            "keys_moved": sum(e.keys_moved for e in events),
            "degraded": maintainer.metrics.last_degraded,
        }

    def _metrics() -> shard_metrics.WorkerMetrics:
        obs = getattr(index, "obs", None) or getattr(
            getattr(index, "index", None), "obs", None
        )
        counters: Dict[str, int] = {"size": len(index)}
        wal = getattr(index, "wal", None)
        if wal is not None:
            counters["wal_last_lsn"] = wal.last_lsn
        remote = getattr(index, "remote_metrics", None)
        if remote is not None:
            for key, value in remote.to_dict().items():
                counters[f"remote_{key}"] = value
        if maintainer is not None:
            for key, value in maintainer.metrics.to_dict().items():
                counters[f"maint_{key}"] = value
        if obs is None:
            obs = Observability()
        # obs.histogram() returns a merged, flushed copy: the pickled
        # reply carries buckets, never the pending raw samples.
        latency = {op: obs.histogram(op) for op in OP_KINDS}
        return shard_metrics.WorkerMetrics(latency, counters)

    def _read_write_many(read_keys, keys, values):
        """A shard's slice of an epoch: the reads (pre-write state),
        then the writes as one batch (one ``BATCH2`` WAL record)."""
        found = index.get_many(read_keys) if read_keys else []
        if keys:
            index.insert_many(keys, values)
        return found

    handlers = {
        "get": lambda key: index.get(key),
        "insert": lambda key, value: index.insert(key, value),
        "read_write_many": _read_write_many,
        "bulk_load": lambda keys, values: index.bulk_load(keys, values),
        "delete": lambda key: index.delete(key),
        "delete_range": lambda low, high: index.delete_range(low, high),
        "scan": lambda start, count: index.scan(start, count),
        "scan_range": lambda low, high: index.scan_range(low, high),
        "count_range": lambda low, high: index.count_range(low, high),
        "items": lambda: list(index.items()),
        "len": lambda: len(index),
        "contains": lambda key: key in index,
        "metrics": _metrics,
        "maintenance": _maintenance,
        "checkpoint": lambda: (
            index.checkpoint() if hasattr(index, "checkpoint") else 0
        ),
        "flush": lambda: (
            index.flush() if hasattr(index, "flush") else None
        ),
        "ping": lambda: spec.shard_id,
    }

    try:
        while True:
            try:
                msg = recv_msg(conn)
            except (EOFError, OSError):
                break
            op, args = msg
            if op == "close":
                if hasattr(index, "close"):
                    try:
                        index.close()
                    except Exception:
                        pass
                send_msg(conn, (True, None))
                break
            handler = handlers.get(op)
            if handler is None:
                send_msg(conn, (False, f"unknown shard op {op!r}"))
                continue
            try:
                # Pickled before anything is written, so a result that
                # cannot pickle is answered as an error like any other.
                reply = dumps((True, handler(*args)))
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                reply = dumps((False, f"{type(exc).__name__}: {exc}"))
            conn.send_bytes(reply)
    finally:
        try:
            conn.close()
        except Exception:
            pass
