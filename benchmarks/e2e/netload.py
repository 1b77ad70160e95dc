"""The two networked workloads: a child server, two pipelined connections.

``server_read`` drives one ``python -m repro.server`` process with
YCSB-C GETs; ``fleet_mixed`` drives ``--shards 2 --dir`` with YCSB-A.
Each round has a closed-loop ``saturate`` phase (both connections send a
burst of 64 and the next bursts go out when all replies are back, so
burst ``k`` is the same work in every round) and an open-loop ``paced``
phase at a frozen rate (bursts of 16 per connection on a fixed schedule,
every request timed from the instant it was *due*).  In a closed loop
latency is just window / throughput, so the latency metrics come from
the paced phase only.

Untraced runs start the real CLI.  Traced runs start
``traced_server.py``, which composes the same public classes around the
span proxies and writes its spans and boundary counters on exit.
"""

from __future__ import annotations

import asyncio
import atexit
import gc
import os
import re
import select
import signal
import subprocess
import sys
import time
import urllib.request
from time import perf_counter_ns as _now
from typing import Any, Dict, List, Optional

import numpy as np

import harness as H
from frozen import CONNECTIONS, FROZEN, PACED_BURST, PIPELINE
from inprocess import (
    Measurement, Scale, Workload, core_layer_metrics, kv_keys, ycsb_a,
)
from spans import Tracer, read_spans, self_times, write_spans

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+) \(.*admin=(\d+)\)")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 60.0
#: A paced burst sent later than this after it was due counts as late.
_LATE_NS = 1_000_000

def _raise_exit(signum, _frame):
    # Turn a polite kill into a normal exit so atexit reaps the children.
    sys.exit(128 + signum)


_storage_flag: Optional[bool] = None


def _cli_lists_storage_flag() -> bool:
    """Does ``python -m repro.server --help`` still list ``--storage``?

    The engine is pinned through the environment; the flag is passed as
    well only while it exists, so a PR that deletes the knob need not
    touch the benchmark.
    """
    global _storage_flag
    if _storage_flag is None:
        text = subprocess.run(
            [sys.executable, "-m", "repro.server", "--help"],
            capture_output=True, text=True, timeout=60,
        ).stdout
        _storage_flag = "--storage" in text
    return _storage_flag


class ServerChild:
    """One server process (and its shard workers) on ephemeral ports."""

    def __init__(self, shards: int = 0, fsync: str = "batch", traced=False):
        self.directory = H.scratch_dir("fleet") if shards else None
        self.trace_file = None
        if traced:
            H.OUT.mkdir(exist_ok=True)
            self.trace_file = H.OUT / f"server-spans-{os.getpid()}-{_now()}.jsonl"
            cmd = [sys.executable, str(H.HERE / "traced_server.py"),
                   "--out", str(self.trace_file)]
        else:
            cmd = [sys.executable, "-m", "repro.server",
                   "--port", "0", "--admin-port", "0"]
            if _cli_lists_storage_flag():
                cmd += ["--storage", H.ENGINE]
        if shards:
            cmd += ["--shards", str(shards), "--dir", str(self.directory),
                    "--fsync", fsync]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=str(H.ROOT),
        )
        # Reaped on every exit path (stop() is safe to call twice).
        atexit.register(self.stop)
        try:
            self.host, self.port, self.admin_port = self._await_listening()
        except BaseException:
            self.stop()
            raise
        self.pid = self.proc.pid
        self.tree = H.process_tree(self.pid)

    def _await_listening(self):
        deadline = time.monotonic() + _START_TIMEOUT_S
        fd = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                line = fd.readline()
                if not line:
                    break
                found = _LISTENING.search(line)
                if found:
                    return found.group(1), int(found.group(2)), int(found.group(3))
            elif self.proc.poll() is not None:
                break
        raise H.BenchError("server child did not come up")

    @property
    def workers(self) -> List[int]:
        return [p for p in self.tree if p != self.pid]

    def signal(self, signum) -> None:
        self.proc.send_signal(signum)

    def scrape(self) -> Dict:
        """The ``/metrics`` page, parsed."""
        from repro.obs import parse_prometheus

        url = f"http://{self.host}:{self.admin_port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as reply:
            return parse_prometheus(reply.read().decode("utf-8"))

    def stop(self) -> None:
        """SIGTERM (the server's graceful shutdown unlinks its shared
        memory), reap the whole tree, remove the durability directory."""
        proc = self.proc
        tree = H.process_tree(proc.pid) if proc.poll() is None else []
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        # Workers exit when the router closes them (or on its EOF); any
        # that outlive it are killed so nothing survives the benchmark.
        deadline = time.monotonic() + 10.0
        for pid in tree[1:]:
            while time.monotonic() < deadline and os.path.exists(f"/proc/{pid}"):
                time.sleep(0.02)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.directory is not None:
            H.remove_tree(self.directory)


# ---------------------------------------------------------------------------
# Request plans
# ---------------------------------------------------------------------------


def _plan(keys, is_update, expected):
    """One connection's ops: what to send and the reply bytes to expect."""
    from repro.server import frame

    n = len(keys)
    idx = np.arange(n)
    want = [
        b"" if u else frame.encode_value(e)
        for u, e in zip(is_update.tolist(), expected.tolist())
    ]
    return {
        "keys": keys.tolist(), "is_update": is_update.tolist(),
        "values": (idx + 1).tolist(), "want": want, "n": n,
    }


def _slice_plan(plan: Dict, a: int, b: int) -> Dict:
    out = {k: v[a:b] for k, v in plan.items() if k != "n"}
    out["n"] = b - a
    return out


def make_plans(loaded: np.ndarray, n_sat: int, n_paced: int, update_share,
               theta, seed: int):
    """Per-connection plans for both phases.

    Each connection owns a disjoint half of the keys.  The server keeps
    per-connection order, so with no key shared between connections
    every reply is predictable even with 128 requests in flight.  Both
    phases are one YCSB trace per connection, so an update in
    ``saturate`` is the expected value of a later ``paced`` get.
    """
    plans = []
    finals: Dict[int, int] = {}
    for c in range(CONNECTIONS):
        mine = loaded[c::CONNECTIONS]
        n_s, n_p = n_sat // CONNECTIONS, n_paced // CONNECTIONS
        keys, is_update, expected, final = ycsb_a(
            mine, n_s + n_p, update_share, theta, seed + 10 * c
        )
        whole = _plan(keys, is_update, expected)
        plans.append({
            "saturate": _slice_plan(whole, 0, n_s),
            "paced": _slice_plan(whole, n_s, n_s + n_p),
        })
        finals.update(final)
    return plans, finals


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _submit(client, frame, buf, plan, j):
    if plan["is_update"][j]:
        return client.submit_into(
            buf, frame.OP_INSERT,
            frame.encode_key_value(client.ns_id, plan["keys"][j], plan["values"][j]),
        )
    return client.submit_into(
        buf, frame.OP_GET, frame.encode_key(client.ns_id, plan["keys"][j])
    )


def _count_wrong(futs, want) -> int:
    """Replies that are errors, missing, or not the oracle's bytes."""
    wrong = 0
    for fut, expect in zip(futs, want):
        if not fut.done() or fut.cancelled() or fut.exception() is not None:
            wrong += 1
        elif fut.result() != expect:
            wrong += 1
    return wrong


async def _closed_loop(clients, plans, out, tracer, keep):
    """Saturate: every connection sends a burst of PIPELINE, and the
    next bursts go out when all of these have completed.

    The connections advance in lock step so that burst ``k`` is the
    same requests, batched the same way, in every round: each burst is
    a wall-clock slice, and every ``out["cpu_every"]``-th one also
    closes a CPU slice (a read of ``/proc`` per process of the tree).
    Every ``out["probe_every"]``-th burst is followed by a host probe,
    off the clocks: the runner shares the server's vCPU in this phase
    and the server is idle between bursts, so the probe reads the
    speed of the CPU the requests were served on.
    """
    from repro.server import frame

    n = min(p["n"] for p in plans)
    wall, cpu, cpu_clock = out["wall"], out["cpu"], out["cpu_clock"]
    cpu_every, probe_every = out["cpu_every"], out["probe_every"]
    probe = H.host_probe()
    probes: List[float] = []
    cpu_at, cpu_ops = cpu_clock(), 0
    if tracer is not None:
        ids = [tracer.intern(f"client.{x}") for x in ("burst", "encode", "wait", "check")]
    for k, s in enumerate(range(0, n, PIPELINE)):
        e = min(s + PIPELINE, n)
        t0 = _now()
        sent = []
        for client, plan in zip(clients, plans):
            buf = bytearray()
            futs = [_submit(client, frame, buf, plan, j) for j in range(s, e)]
            client.send_buffer(buf)
            sent.append((buf, futs))
        t1 = _now()
        await asyncio.gather(*(futs[-1] for _, futs in sent), return_exceptions=True)
        t2 = _now()
        ops = (e - s) * len(clients)
        wall.append((ops, (t2 - t0) / 1e9, probe))
        probes.append(probe)
        cpu_ops += ops
        if (k + 1) % cpu_every == 0 or e == n:
            now = cpu_clock()
            cpu.append((cpu_ops, now - cpu_at, sum(probes) / len(probes)))
            cpu_at, cpu_ops, probes = now, 0, []
        for (buf, futs), plan in zip(sent, plans):
            out["ok"] += (e - s) - _count_wrong(futs, plan["want"][s:e])
            if keep is not None and len(keep) < 64:
                keep.append((bytes(buf), [
                    (f.result() if f.done() and not f.exception() else b"")
                    for f in futs
                ]))
        if tracer is not None:
            t3 = _now()
            root = tracer.add(ids[0], t0, t3, -1, k, ops)
            tracer.add(ids[1], t0, t1, root, k, ops)
            tracer.add(ids[2], t1, t2, root, k, ops)
            tracer.add(ids[3], t2, t3, root, k, ops)
        if (k + 1) % probe_every == 0:
            own = time.process_time()
            probe = H.host_probe()
            spent = time.process_time() - own
            out["probe_cpu"] += spent
            cpu_at += spent


async def _open_loop(client, plan, t_first, interval, out):
    """Paced: one burst of PACED_BURST every ``interval`` seconds, sent
    whether or not earlier replies are back."""
    from repro.server import frame

    n = plan["n"]
    stamps: List[int] = []
    stamp = stamps.append
    futs: List[asyncio.Future] = []
    due_ns: List[int] = []
    lag_ns: List[int] = []
    inflight: List[int] = []

    def on_done(_fut):
        stamp(_now())

    for b, s in enumerate(range(0, n, PACED_BURST)):
        due = t_first + b * interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        lag_ns.append(int((sent - due) * 1e9))
        inflight.append(len(futs) - len(stamps))
        buf = bytearray()
        e = min(s + PACED_BURST, n)
        for j in range(s, e):
            fut = _submit(client, frame, buf, plan, j)
            fut.add_done_callback(on_done)
            futs.append(fut)
        due_ns.extend([int(due * 1e9)] * (e - s))
        client.send_buffer(buf)
    if futs:
        await asyncio.wait(futs, timeout=30.0)
    out["ok"] += n - _count_wrong(futs, plan["want"])
    # Replies come back in request order on one connection, so the i-th
    # completion stamp belongs to the i-th request.
    k = len(stamps)
    lat = np.asarray(stamps, dtype=np.int64) - np.asarray(due_ns[:k], dtype=np.int64)
    is_update = np.asarray(plan["is_update"][:k], dtype=bool)
    out["read_ns"].append(lat[~is_update])
    out["write_ns"].append(lat[is_update])
    out["op_ns"].append(lat)
    out["lag_ns"].append(np.asarray(lag_ns, dtype=np.int64))
    out["inflight"].append(np.asarray(inflight, dtype=np.int64))


async def _bounded(limit_s: float, coros) -> None:
    """Run the connections' loops together, for at most ``limit_s``."""
    tasks = [asyncio.ensure_future(c) for c in coros]
    _, pending = await asyncio.wait(tasks, timeout=limit_s)
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


class Networked(Workload):
    #: The paced phase's requests of either kind, pooled.
    primary = "op"
    spans_every_slice = True
    shards = 0
    update_share = 0.0

    def generate(self, seed, scale: Scale):
        cfg = FROZEN[self.name]
        loaded = kv_keys(cfg["dataset"], scale.keys(cfg["n_keys"], 1024))
        sat_s = scale.round_s * cfg["saturate_share"]
        n_sat = max(2 * PIPELINE * CONNECTIONS,
                    int(cfg["saturate_ops_per_s"] * sat_s / scale.divisor))
        # Never fewer paced requests than a p99 needs samples.
        n_paced = max(2_400, int(cfg["rate_rps"] * (scale.round_s - sat_s)
                                 / scale.divisor))
        plans, finals = make_plans(
            loaded, n_sat, n_paced, self.update_share,
            cfg["zipf_theta"], seed,
        )
        return {"loaded": loaded.tolist(), "plans": plans, "finals": finals,
                "rate": cfg["rate_rps"]}

    def build(self, inputs, tracer=None):
        from repro.server import RemoteIndex

        signal.signal(signal.SIGTERM, _raise_exit)
        # One vCPU for the runner and the tree it is about to start
        # (see frozen.CONNECTIONS); teardown gives the runner its own back.
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        child = ServerChild(
            self.shards, FROZEN[self.name].get("fsync", "batch"),
            traced=tracer is not None,
        )
        try:
            with RemoteIndex(child.host, child.port) as remote:
                loaded = inputs["loaded"]
                remote.bulk_load(loaded, loaded)
                if len(remote) != len(loaded):
                    raise H.BenchError("preload did not take")
        except BaseException:
            child.stop()
            raise
        # Workers are spawned by now: fix the tree the CPU account reads.
        child.tree = H.process_tree(child.pid)
        return child

    def teardown(self, child) -> None:
        child.stop()
        os.sched_setaffinity(0, self._cpus)
        if child.trace_file is not None and child.trace_file.exists():
            child.trace_file.unlink()

    # -- measurement ----------------------------------------------------

    def measure(self, child, inputs, scale, tracer=None):
        m = Measurement()
        gc.collect()
        gc.disable()
        try:
            raw = asyncio.run(self._drive(child, inputs, scale, tracer))
        finally:
            gc.enable()
        self._file_metrics(m, child, inputs, raw)
        if tracer is not None:
            self._file_layers(m, child, inputs, raw, tracer)
        return m

    async def _drive(self, child, inputs, scale, tracer) -> Dict[str, Any]:
        from repro.server import AsyncRemoteIndex

        clients = [
            await AsyncRemoteIndex.connect(child.host, child.port)
            for _ in range(CONNECTIONS)
        ]
        plans = inputs["plans"]
        tree = child.tree

        def cpu_clock() -> float:
            return time.process_time() + H.cpu_seconds(tree)

        bursts = -(-plans[0]["saturate"]["n"] // PIPELINE)
        # A probe about every 2 ms of bursts: after each one of a fleet's
        # (~12 ms), after every other one of a single server's (~1 ms).
        burst_s = PIPELINE * CONNECTIONS / FROZEN[self.name]["saturate_ops_per_s"]
        sat = {"wall": [], "cpu": [], "ok": 0, "cpu_clock": cpu_clock,
               "cpu_every": max(1, bursts // H.NET_SLICES),
               "probe_every": max(1, int(0.002 / burst_s)), "probe_cpu": 0.0}
        keep = [] if tracer is not None else None
        raw: Dict[str, Any] = {"sat": sat, "keep": keep}
        try:
            if child.trace_file is not None:
                child.signal(signal.SIGUSR1)  # server-side spans on
                await asyncio.sleep(0.05)
            dir0 = H.dir_bytes(child.directory) if child.directory else 0
            page0 = child.scrape()
            srv0 = H.cpu_seconds([child.pid])
            wrk0 = H.cpu_seconds(child.workers)
            own0 = time.process_time()
            raw["sat_ns"] = [_now(), 0]
            # A wedged shard or a dead child must not hang the run: the
            # phase is cut at the deadline and what was not answered
            # correctly by then counts as failed.
            await _bounded(scale.limit_s, [_closed_loop(
                clients, [p["saturate"] for p in plans], sat, tracer, keep
            )])
            raw["sat_ns"][1] = _now()
            raw["own_cpu"] = time.process_time() - own0 - sat["probe_cpu"]
            raw["srv_cpu"] = H.cpu_seconds([child.pid]) - srv0
            raw["wrk_cpu"] = H.cpu_seconds(child.workers) - wrk0
            raw["page"] = (page0, child.scrape())

            paced = {"ok": 0, "read_ns": [], "write_ns": [], "op_ns": [],
                     "lag_ns": [], "inflight": []}
            raw["paced"] = paced
            # The frozen rate is in the reference host's time, like every
            # number reported: on a host running 1.5x slower the schedule
            # is stretched 1.5x (and the latencies divided by it), so the
            # server is offered the same share of what it can serve.
            raw["dilation"] = H.mean_slowdown([sat["wall"]]) if sat["wall"] else 1.0
            per_conn = inputs["rate"] / CONNECTIONS
            interval = PACED_BURST / per_conn * raw["dilation"]
            # Open loop: the generator moves to the other vCPU, or its
            # own waits for the shared one would be charged, as lateness,
            # to the server's latency (see frozen.CONNECTIONS).
            os.sched_setaffinity(0, {max(self._cpus)})
            start = time.perf_counter() + 0.05
            await _bounded(scale.limit_s, (
                _open_loop(c, p["paced"], start + i * interval / CONNECTIONS,
                           interval, paced)
                for i, (c, p) in enumerate(zip(clients, plans))
            ))
            raw["dir_growth"] = (
                H.dir_bytes(child.directory) - dir0 if child.directory else 0
            )
            raw["rss_server"] = H.peak_rss_mib([child.pid])
            raw["rss_tree"] = H.peak_rss_mib(child.tree)
        finally:
            for c in clients:
                await c.close()
        return raw

    def _file_metrics(self, m: Measurement, child, inputs, raw) -> None:
        plans = inputs["plans"]
        sat, paced = raw["sat"], raw["paced"]
        n_sat = sum(p["saturate"]["n"] for p in plans)
        n_paced = sum(p["paced"]["n"] for p in plans)
        m.wall, m.cpu = sat["wall"], sat["cpu"]
        done = m.ops
        m.tally.add(n_sat, n_sat - sat["ok"], "saturate replies wrong, missing or cut")
        m.tally.add(n_paced, n_paced - paced["ok"], "paced replies wrong, missing or cut")
        if not done:
            raise H.BenchError("no request of the saturate phase completed")
        mm = m.metrics
        mm["peak_rss_mib"] = raw["rss_tree"]
        m.info.update(rate_rps=inputs["rate"], paced_requests=n_paced,
                      paced_dilation=raw["dilation"])
        # The paced phase has no idle CPU of the server's to probe (the
        # generator sits on the other vCPU): its clock runs at the
        # slowdown the saturate phase just saw on the server's.
        for kind in ("read", "write", "op"):
            parts = paced[f"{kind}_ns"]
            if parts and sum(len(p) for p in parts):
                m.samples[kind] = np.concatenate(parts) / raw["dilation"]
        writes = sum(
            sum(p[ph]["is_update"]) for p in plans for ph in ("saturate", "paced")
        )
        if child.directory is not None and writes:
            mm["wal_bytes_per_write"] = raw["dir_growth"] / writes
        # Generator health: qualifies every paced latency.
        lag = np.concatenate(paced["lag_ns"])
        mm["client.late_ratio"] = float((lag > _LATE_NS).mean())
        mm["client.max_lateness_ms"] = float(lag.max()) / 1e6
        growing = 0
        for inflight in paced["inflight"]:
            q = max(len(inflight) // 4, 1)
            head, tail = np.median(inflight[:q]), np.median(inflight[-q:])
            if tail > 2 * PACED_BURST and tail > 2 * head:
                growing = 1
        mm["client.backlog_growing"] = growing
        mm["client.cpu_us_per_req"] = raw["own_cpu"] / done * 1e6
        mm["server.cpu_us_per_req"] = raw["srv_cpu"] / done * 1e6
        mm["shard.workers_cpu_us_per_req"] = raw["wrk_cpu"] / done * 1e6
        mm["server.rss_mib"] = raw["rss_server"]
        m.info["generator_bound"] = bool(
            mm["client.cpu_us_per_req"] >= mm["server.cpu_us_per_req"]
        )
        before, after = raw["page"]

        def delta(name, **labels):
            key = (name, tuple(sorted(labels.items())))
            return after.get(key, 0.0) - before.get(key, 0.0)

        for op in ("get", "insert"):
            requests = delta("dytis_server_requests_total", op=op)
            batched = delta("dytis_server_batched_requests_total", op=op)
            calls = delta("dytis_server_batches_total", op=op) + requests - batched
            mm[f"server.mean_batch_{op}"] = requests / calls if calls else 0.0

    # -- layers (traced runs) -------------------------------------------

    def _file_layers(self, m, child, inputs, raw, tracer: Tracer) -> None:
        """Server-side spans and counters, read after the child exits."""
        child.stop()  # SIGTERM: the launcher writes its file on the way out
        header, names, table = read_spans(child.trace_file)
        lo, hi = raw["sat_ns"]
        inside = (table[:, 1] >= lo) & (table[:, 2] <= hi)
        agg = self_times(names, table[inside])
        done = m.ops
        mm = m.metrics

        def layer(prefix, field):
            return sum(v[field] for k, v in agg.items() if k.startswith(prefix))

        # What the server process itself computes inside the store: the
        # kvstore layer and an in-process index.  Spans around a sharded
        # index mostly wait for the workers and are no CPU of this process.
        store_ns = layer("kvstore.", "self_ns") + layer("core.", "self_ns")
        mm["kvstore.self_us_per_op"] = layer("kvstore.", "self_ns") / done / 1e3
        mm["server.dispatch_us_per_req"] = (
            mm["server.cpu_us_per_req"] - store_ns / done / 1e3
        )
        gm = agg.get("core.get_many")
        if gm and gm["keys"]:
            mm["core.get_many_us_per_key"] = gm["self_ns"] / gm["keys"] / 1e3
        ins = agg.get("core.insert_many")
        if ins and ins["keys"]:
            mm["core.insert_self_us"] = ins["self_ns"] / ins["keys"] / 1e3
        counters = header["counters"]
        if "core_before" in counters:
            inserts = ins["keys"] if ins else 0
            core_layer_metrics(
                mm, counters["core_before"], counters["core_after"], inserts,
                m.window_s,
            )
        if self.shards:
            calls = {k: v for k, v in agg.items() if k.startswith("shard.")}
            call_ns = sum(v["total_ns"] for v in calls.values())
            keys = sum(v["keys"] for v in calls.values())
            mm["shard.call_us_per_key"] = call_ns / keys / 1e3 if keys else 0.0
            mm["shard.worker_busy_us_per_key"] = (
                raw["wrk_cpu"] * 1e6 / keys if keys else 0.0
            )
            busy = mm["shard.worker_busy_us_per_key"]
            mm["shard.rpc_tax_ratio"] = (
                mm["shard.call_us_per_key"] / busy if busy else 0.0
            )
            fleet = counters["shards"]
            sizes = [s["size"] for s in fleet]
            mm["shard.key_imbalance"] = max(sizes) / (sum(sizes) / len(sizes))
            mm["wal.appends"] = sum(s["wal_appends"] for s in fleet)
        self._replay_frames(m, raw["keep"])
        own = self_times(tracer.names, tracer.table())
        m.info["spans"] = {k: v for k, v in own.items() if k != "_check"}
        m.info["server_spans"] = {k: v for k, v in agg.items() if k != "_check"}
        m.info["span_check"] = own["_check"]
        path = H.OUT / f"trace-{self.name}.jsonl"
        tracer.dump(path, proc="runner")
        write_spans(path, "server", names, table, append=True)

    def _replay_frames(self, m: Measurement, keep) -> None:
        """Replay recorded request and reply bytes through the public
        frame codec, once in each direction, and time it per request.

        A request is encoded by the client and decoded by the server, a
        reply the other way round; both legs are charged to the layer.
        """
        from repro.server import frame

        n = enc = dec = 0
        for request_bytes, payloads in keep:
            t0 = _now()
            frames = frame.FrameDecoder().feed(request_bytes)
            parsed = [
                frame.decode_key_value(p) if op == frame.OP_INSERT
                else frame.decode_key(p)
                for _, op, p in frames
            ]
            t1 = _now()
            again = bytearray()
            for (rid, op, _), args in zip(frames, parsed):
                again += frame.encode_frame(
                    rid, op,
                    frame.encode_key_value(*args) if op == frame.OP_INSERT
                    else frame.encode_key(*args),
                )
            t2 = _now()
            values = [frame.decode_value(p) if p else None for p in payloads]
            t3 = _now()
            reply = bytearray()
            for (rid, _, _), payload, value in zip(frames, payloads, values):
                frame.encode_frame_into(
                    reply, rid, frame.OP_OK,
                    frame.encode_value(value) if payload else b"",
                )
            t4 = _now()
            for _, _, payload in frame.FrameDecoder().feed(bytes(reply)):
                if payload:
                    frame.decode_value(payload)
            t5 = _now()
            m.tally.expect(bytes(again) == request_bytes, "frame replay round trip")
            n += len(frames)
            enc += (t2 - t1) + (t4 - t3)
            dec += (t1 - t0) + (t5 - t4)
        if n:
            m.metrics["frame.encode_us_per_req"] = enc / n / 1e3
            m.metrics["frame.decode_us_per_req"] = dec / n / 1e3


class ServerRead(Networked):
    name = "server_read"


class FleetMixed(Networked):
    name = "fleet_mixed"
    shards = FROZEN["fleet_mixed"]["shards"]
    update_share = FROZEN["fleet_mixed"]["update_share"]


NETWORKED = (ServerRead(), FleetMixed())
