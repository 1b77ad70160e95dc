"""`ShardedIndex`: the multi-process index behind one IndexProtocol.

The GIL caps every threaded wrapper in this repo at one core;
``ShardedIndex`` escapes it with processes.  N workers each own a
private :class:`DyTIS` (optionally WAL-backed) for one slice of the
key space; the router -- this class, living in the caller's process --
speaks :class:`~repro.api.protocol.IndexProtocol` +
:class:`~repro.api.protocol.BatchOpsProtocol` so everything that
serves an index today (the kvstore codec layer, ``repro.server``, the
differential harness) can sit on a process fleet unchanged.

Request flow:

- **Point writes** route to the owning worker over its control pipe.
- **Batch ops** scatter: one vectorized routing pass partitions the
  key column by shard, each shard gets one RPC with its slice, and the
  router restores caller order from the partition's index arrays.  A
  mixed epoch (:meth:`ShardedIndex.read_write_many`: reads, then
  writes) is still one message per touched shard; ``get_many`` and
  ``insert_many`` are its one-sided cases.
- **Range ops** consult :meth:`ShardRouter.range_plan`: ordered plans
  concatenate per-shard results; unordered plans heap-merge by key.
- **Point reads** route to the owning worker like point writes, so a
  read always sees every write acknowledged before it.

Worker processes are daemonized children created at construction and
reaped on :meth:`close` (also via ``weakref.finalize``, so a leaked
index cannot orphan its fleet).  :meth:`restart_shard` kills and
respawns one worker in place -- with a durable directory the
replacement replays its own WAL and the other shards never notice.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import weakref
from bisect import bisect_left
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.protocol import batch_columns
from repro.core import DyTISConfig
from repro.shard import metrics as shard_metrics
from repro.shard.routing import ShardRouter
from repro.shard.worker import ShardSpec, worker_main


class ShardError(RuntimeError):
    """A shard's transport or runtime failed (dead pipe, crashed or
    misbehaving worker).  Application errors a local index would raise
    -- ``ValueError`` for a bad key, and friends -- are re-raised as
    their original builtin type so ``ShardedIndex`` keeps the error
    contract of the index it wraps."""


def _raise_remote(shard: int, op: str, result: str) -> None:
    """Re-raise a worker-reported ``"ExcType: message"`` error.

    Builtin non-runtime exception types come back as themselves (error
    parity with the in-process index: a bad key raises ``ValueError``
    whether the index is local or a fleet); anything else -- unknown
    types, OSError/RuntimeError families, malformed frames -- is an
    infrastructure failure and surfaces as :class:`ShardError`.
    """
    import builtins

    name, sep, msg = result.partition(": ")
    exc_type = getattr(builtins, name, None) if sep else None
    if (
        isinstance(exc_type, type)
        and issubclass(exc_type, Exception)
        and not issubclass(exc_type, (RuntimeError, OSError))
    ):
        raise exc_type(f"shard {shard} {op}: {msg}")
    raise ShardError(f"shard {shard} {op}: {result}")


class ShardedIndex:
    """A sharded, multi-process index satisfying the batch protocol."""

    def __init__(
        self,
        n_shards: int = 2,
        *,
        config: Optional[DyTISConfig] = None,
        mode: str = "msb",
        skip_bits: int = 0,
        durable_dir: Optional[str] = None,
        fsync: str = "always",
        obs: bool = True,
        mp_context: Optional[str] = None,
        remote=None,
        remote_policy=None,
        rpc_timeout: Optional[float] = None,
    ):
        if remote is not None and durable_dir is None:
            raise ValueError(
                "remote shipping needs durable_dir: only WAL-backed "
                "shards have checkpoints and segments to ship"
            )
        self.config = config or DyTISConfig()
        self.router = ShardRouter(
            n_shards,
            key_bits=self.config.key_bits,
            mode=mode,
            skip_bits=skip_bits,
        )
        self.n_shards = n_shards
        self._durable_dir = durable_dir
        self._rpc_timeout = rpc_timeout
        self._ctx = mp.get_context(mp_context) if mp_context else mp.get_context()
        if remote is not None:
            from repro.remote.storage import PrefixedStorage
        self._specs: List[ShardSpec] = [
            ShardSpec(
                shard_id=i,
                config=self.config,
                durable_dir=(
                    f"{durable_dir}/shard-{i:03d}" if durable_dir else None
                ),
                fsync=fsync,
                obs=obs,
                # Each shard ships to its own remote prefix, so one
                # shard's failover never reads a sibling's objects.
                remote=(
                    PrefixedStorage(remote, f"shard-{i:03d}")
                    if remote is not None
                    else None
                ),
                remote_policy=remote_policy,
            )
            for i in range(n_shards)
        ]
        self._pipes: List[Any] = [None] * n_shards
        self._procs: List[Any] = [None] * n_shards
        self._closed = False
        for i in range(n_shards):
            self._spawn(i)
        self._finalizer = weakref.finalize(
            self, _reap, self._pipes, self._procs
        )

    # -- process management ---------------------------------------------

    def _spawn(self, shard: int) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child, self._specs[shard]),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._pipes[shard] = parent
        self._procs[shard] = proc

    def restart_shard(self, shard: int) -> None:
        """Kill one worker and bring up a replacement in place.

        With a durable directory the replacement recovers its slice
        from its own checkpoint + WAL; in-memory shards come back
        empty (the router's contract is then the caller's problem,
        exactly like restarting an in-memory server).
        """
        proc, pipe = self._procs[shard], self._pipes[shard]
        if pipe is not None:
            pipe.close()
        if proc is not None:
            proc.terminate()
            proc.join(timeout=10)
        self._spawn(shard)

    def close(self) -> None:
        """Shut every worker down cleanly and reap the processes."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        for pipe in self._pipes:
            if pipe is None:
                continue
            try:
                pipe.send(("close", ()))
            except (BrokenPipeError, OSError):
                pass
        for shard, pipe in enumerate(self._pipes):
            if pipe is None:
                continue
            try:
                # Bounded like any RPC: a wedged worker must not hang
                # shutdown -- terminate() below reaps it regardless.
                self._recv(shard, "close")
            except (ShardError, EOFError, OSError):
                pass
            if self._pipes[shard] is not None:  # not poisoned by _recv
                pipe.close()
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=10)
        self._pipes = [None] * self.n_shards
        self._procs = [None] * self.n_shards

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- RPC ------------------------------------------------------------

    def _poison(self, shard: int) -> None:
        """Drop a shard's pipe so it can never serve a stale reply.

        Called when the pipe's request/reply pairing is broken -- a
        timeout abandoned a reply in flight, or the transport died.
        The shard reads as "not running" until ``restart_shard``; the
        alternative (leaving the pipe in place) lets the worker's late
        reply answer the *next* call, which is silent corruption.
        """
        pipe = self._pipes[shard]
        self._pipes[shard] = None
        if pipe is not None:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def _recv(self, shard: int, op: str) -> Any:
        """One reply off a shard's pipe, bounded by ``rpc_timeout``.

        A worker that is alive but wedged (stuck syscall, livelock)
        would otherwise hang the router forever on a bare ``recv``;
        with a timeout it surfaces as a :class:`ShardError` naming the
        shard.  The timed-out pipe is poisoned -- its reply is still
        owed, so it is desynchronized by construction -- and the shard
        stays down until ``restart_shard`` replaces it.
        """
        pipe = self._pipes[shard]
        if self._rpc_timeout is not None and not pipe.poll(self._rpc_timeout):
            self._poison(shard)
            raise ShardError(
                f"shard {shard} timed out after {self._rpc_timeout}s "
                f"serving {op!r}"
            )
        return pipe.recv()

    def _call(self, shard: int, op: str, *args) -> Any:
        pipe = self._pipes[shard]
        if pipe is None:
            raise ShardError(f"shard {shard} is not running")
        try:
            pipe.send((op, args))
            ok, result = self._recv(shard, op)
        except (EOFError, BrokenPipeError, OSError) as exc:
            self._poison(shard)
            raise ShardError(f"shard {shard} died serving {op!r}") from exc
        if not ok:
            _raise_remote(shard, op, result)
        return result

    def _scatter(
        self, requests: Sequence[Tuple[int, str, tuple]]
    ) -> List[Any]:
        """Issue several shard RPCs concurrently (send all, then recv).

        Workers always drain a request before replying, so sending the
        whole batch before collecting any reply cannot deadlock -- and
        it is what lets N workers compute their slices in parallel.

        Failure isolation: every shard that was sent a request gets
        its reply drained (or its pipe poisoned) before anything is
        raised, so one bad shard can never leave a *healthy* sibling's
        reply queued for the next, unrelated call to consume.
        """
        error: Optional[ShardError] = None
        sent: List[Tuple[int, str]] = []
        for shard, op, args in requests:
            pipe = self._pipes[shard]
            if pipe is None:
                if error is None:
                    error = ShardError(f"shard {shard} is not running")
                continue
            try:
                pipe.send((op, args))
            except (BrokenPipeError, OSError) as exc:
                self._poison(shard)
                if error is None:
                    error = ShardError(f"shard {shard} died serving {op!r}")
                    error.__cause__ = exc
                continue
            sent.append((shard, op))
        out = []
        failed = None
        for shard, op in sent:
            try:
                ok, result = self._recv(shard, op)
            except ShardError as exc:  # timeout; _recv already poisoned
                if error is None:
                    error = exc
                continue
            except (EOFError, OSError) as exc:
                self._poison(shard)
                if error is None:
                    error = ShardError(f"shard {shard} died serving {op!r}")
                    error.__cause__ = exc
                continue
            if not ok and failed is None:
                failed = (shard, op, result)
            out.append(result)
        if error is not None:
            raise error
        if failed is not None:
            # Every reply was drained first -- the pipes stay in sync
            # and the fleet remains usable after the raise.
            _raise_remote(*failed)
        return out

    # -- point operations -----------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        return self._call(self.router.shard_of(key), "get", key)

    def insert(self, key: int, value: Any) -> None:
        self._call(self.router.shard_of(key), "insert", key, value)

    def delete(self, key: int) -> bool:
        return self._call(self.router.shard_of(key), "delete", key)

    def __contains__(self, key: int) -> bool:
        return self._call(self.router.shard_of(key), "contains", key)

    def __len__(self) -> int:
        return sum(
            self._scatter(
                [(s, "len", ()) for s in range(self.n_shards)]
            )
        )

    # -- batch operations -----------------------------------------------

    def _partition(self, keys: Sequence[int]) -> List[Tuple[int, List[int]]]:
        """``[(shard, positions)]`` for the non-empty shards, one
        vectorized routing pass (a lone key routes as a point op);
        ``ValueError`` for a key outside the key space, like
        :meth:`ShardRouter.shard_of`, before any pipe is written."""
        if len(keys) == 1:
            return [(self.router.shard_of(keys[0]), [0])]
        key_bits = self.router.key_bits
        try:
            arr = np.asarray(keys, dtype=np.uint64)
            in_range = (
                key_bits == 64 or not arr.size or int(arr.max()) >> key_bits == 0
            )
        except OverflowError:
            in_range = False
        if not in_range:
            bad = next(k for k in keys if not 0 <= k < 1 << key_bits)
            raise ValueError(f"key {bad} outside [0, 2^{key_bits})")
        shards = self.router.route_array(arr)
        out = []
        for s in range(self.n_shards):
            pos = np.flatnonzero(shards == s)
            if pos.size:
                out.append((s, pos.tolist()))
        return out

    def read_write_many(
        self,
        read_keys: Sequence[int],
        keys: Sequence[int],
        values: Sequence[Any],
    ) -> List[Optional[Any]]:
        """The values of ``read_keys`` as of before the call, then
        ``insert_many(keys, values)``: a mixed epoch as one routing
        pass and one message (one worker activation) per touched shard.

        A length mismatch or an out-of-range key raises ``ValueError``
        before anything is sent: nothing was applied.  A
        :class:`ShardError` comes after the scatter: healthy shards may
        have applied their writes, so replayed reads could see them.
        That holds for a worker's own error too when the call has both
        sides; the one-sided cases keep its builtin type
        (:func:`_raise_remote`), as ``get_many``/``insert_many`` always
        have.
        """
        if len(keys) != len(values):
            raise ValueError(
                f"insert_many: {len(keys)} keys but {len(values)} values"
            )
        both = [*read_keys]
        n_reads = len(both)
        both += keys
        out: List[Optional[Any]] = [None] * n_reads
        requests: List[Tuple[int, str, tuple]] = []
        remote_pos: List[List[int]] = []
        for shard, pos in self._partition(both):
            cut = bisect_left(pos, n_reads)  # reads | writes, both ascending
            reads, writes = pos[:cut], pos[cut:]
            sub = [both[i] for i in reads]
            w_keys = [both[i] for i in writes]
            w_vals = [values[i - n_reads] for i in writes]
            requests.append((shard, "read_write_many", (sub, w_keys, w_vals)))
            remote_pos.append(reads)
        if requests:
            try:
                results = self._scatter(requests)
            except Exception as exc:
                if isinstance(exc, ShardError) or not (n_reads and keys):
                    raise
                # Phase, not type, is what the caller acts on.
                raise ShardError(f"after the scatter: {exc!r}") from exc
            for pos, found in zip(remote_pos, results):
                for i, v in zip(pos, found):
                    out[i] = v
        return out

    def get_many(self, keys: Sequence[int]) -> List[Optional[Any]]:
        return self.read_write_many(keys, (), ())

    def insert_many(
        self, keys: Sequence[int], values: Optional[Sequence[Any]] = None
    ) -> None:
        self.read_write_many((), *batch_columns(keys, values))

    def bulk_load(self, keys: Sequence[int], values: Sequence[Any]) -> None:
        """Partitioned bulk load: one ``bulk_load`` message per shard."""
        ks = list(keys)
        vs = list(values)
        if len(ks) != len(vs):
            raise ValueError(f"bulk_load: {len(ks)} keys but {len(vs)} values")
        requests = [
            (shard, "bulk_load", ([ks[i] for i in pos], [vs[i] for i in pos]))
            for shard, pos in self._partition(ks)
        ]
        if requests:
            self._scatter(requests)

    def delete_range(self, low: int, high: int) -> int:
        shards, _ = self.router.range_plan(low, high)
        if not shards:
            return 0
        return sum(
            self._scatter([(s, "delete_range", (low, high)) for s in shards])
        )

    # -- range operations -----------------------------------------------

    def scan_range(self, low: int, high: int) -> List[Tuple[int, Any]]:
        shards, ordered = self.router.range_plan(low, high)
        if not shards:
            return []
        parts = self._scatter(
            [(s, "scan_range", (low, high)) for s in shards]
        )
        if ordered:
            out: List[Tuple[int, Any]] = []
            for part in parts:
                out.extend(part)
            return out
        return list(heapq.merge(*parts, key=lambda kv: kv[0]))

    def count_range(self, low: int, high: int) -> int:
        shards, _ = self.router.range_plan(low, high)
        if not shards:
            return 0
        return sum(
            self._scatter([(s, "count_range", (low, high)) for s in shards])
        )

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]:
        """First ``count`` pairs with key >= ``start_key``.

        Ordered routing walks shards in key order, asking each for
        only what is still missing; hash routing asks every shard for
        ``count`` candidates (each shard's own smallest) and merges.
        """
        if count <= 0:
            return []
        if self.router.ordered:
            out: List[Tuple[int, Any]] = []
            first = self.router.shard_of(start_key)
            for shard in range(first, self.n_shards):
                need = count - len(out)
                if need <= 0:
                    break
                out.extend(self._call(shard, "scan", start_key, need))
            return out
        parts = self._scatter(
            [(s, "scan", (start_key, count)) for s in range(self.n_shards)]
        )
        merged = heapq.merge(*parts, key=lambda kv: kv[0])
        return [kv for _, kv in zip(range(count), merged)]

    def items(self) -> Iterator[Tuple[int, Any]]:
        parts = self._scatter(
            [(s, "items", ()) for s in range(self.n_shards)]
        )
        if self.router.ordered:
            for part in parts:
                yield from part
        else:
            yield from heapq.merge(*parts, key=lambda kv: kv[0])

    # -- durability / metrics -------------------------------------------

    def flush(self) -> None:
        self._scatter([(s, "flush", ()) for s in range(self.n_shards)])

    def checkpoint(self) -> List[int]:
        """Checkpoint every durable shard; returns per-shard LSNs."""
        return self._scatter(
            [(s, "checkpoint", ()) for s in range(self.n_shards)]
        )

    def maintenance(
        self, max_rebuilds: Optional[int] = None
    ) -> dict:
        """Run one online-maintenance step on every shard.

        Each worker scores its own segments against the ``maint_*``
        policy and re-bulkloads degraded regions (see
        :mod:`repro.core.maintenance`); rebuilds preserve logical
        contents.  Returns the summed per-shard summaries.
        """
        parts = self._scatter(
            [
                (s, "maintenance", (max_rebuilds,))
                for s in range(self.n_shards)
            ]
        )
        total: dict = {}
        for part in parts:
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
        return total

    def shard_metrics(self) -> List[shard_metrics.WorkerMetrics]:
        """Scrape and decode every worker's metrics frame."""
        return [
            shard_metrics.load_worker_metrics(blob)
            for blob in self._scatter(
                [(s, "metrics", ()) for s in range(self.n_shards)]
            )
        ]

    def metrics_to_prometheus(self, prefix: str = "dytis_shard") -> str:
        """Per-shard + merged Prometheus page (see shard.metrics)."""
        return shard_metrics.shards_to_prometheus(
            self.shard_metrics(), prefix
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ShardedIndex(n_shards={self.n_shards}, "
            f"mode={self.router.mode!r}, {state})"
        )


def _reap(pipes: List[Any], procs: List[Any]) -> None:
    """Finalizer: best-effort clean shutdown of a leaked fleet."""
    for pipe in pipes:
        if pipe is None:
            continue
        try:
            pipe.send(("close", ()))
        except Exception:
            pass
    for proc in procs:
        if proc is None:
            continue
        try:
            proc.join(timeout=2)
            if proc.is_alive():
                proc.terminate()
        except Exception:
            pass
