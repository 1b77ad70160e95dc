"""The five in-process workloads: one caller, closed loop, no network.

Four drive ``repro.core.DyTIS`` directly (ingest, read, scan,
adversarial) and one drives ``repro.wal.DurableKVStore`` (durable
mixed).  Every input is built here from the seed as flat NumPy arrays;
the program only ever receives generated keys and ops.  Every reply is
checked against an oracle, inside the window when the check is a single
comparison and after it when it is not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from time import perf_counter_ns as _now
from typing import Any, Dict, List, Optional

import numpy as np

import harness as H
from frozen import DATASET_SEED, FROZEN, ROUNDS
from spans import SpanIndex, Tracer, self_times


@dataclass
class Scale:
    """``--seconds`` and ``--smoke`` turned into per-round op and key
    counts.  A run's measured time is split evenly over its rounds."""

    seconds: float
    divisor: int = 1
    rounds: int = ROUNDS

    @property
    def round_s(self) -> float:
        return self.seconds / self.rounds

    @property
    def limit_s(self) -> float:
        """When a phase planned to last one round is cut."""
        return max(self.round_s, 1.0) * H.DEADLINE_FACTOR

    def ops(self, per_second: float, floor: int = 2_000) -> int:
        return max(floor, int(per_second * self.round_s / self.divisor))

    def keys(self, n: int, floor: int = 64) -> int:
        return max(floor, n // self.divisor)


Measurement = H.Measurement


def core_snapshot(index, obs=None) -> Dict[str, float]:
    """Public counters and shape of a DyTIS, read at the boundary:
    ``index.stats``, the shape accessors and, in traced runs, the
    observability collector's probe totals and event counts."""
    s = index.stats
    snap = {
        "splits": s.splits, "remaps": s.remappings,
        "expansions": s.expansions, "doublings": s.doublings,
        "keys_moved": s.keys_moved, "structural_s": s.structural_time(),
        "bulk_load_s": s.bulk_load_time,
        "segments": index.segment_count(), "buckets": index.bucket_count(),
        "load_factor": index.load_factor(),
    }
    if obs is not None:
        probes = obs.probe_totals()
        snap.update(
            gets=probes.gets, probe_depth_sum=probes.probe_depth_sum,
            plr_misses=probes.plr_misses,
            fused_rebuilds=obs.events.counts.get("fused_rebuild", 0),
            fused_patches=obs.events.counts.get("fused_patch", 0),
        )
    return snap


def core_layer_metrics(
    mm: Dict[str, float], before: Dict[str, float], after: Dict[str, float],
    inserts: int, window_s: float,
) -> None:
    """``core.*`` counters over a window, from two snapshots."""
    d = {k: after[k] - before.get(k, 0) for k in after}
    for name in ("splits", "remaps", "expansions", "doublings"):
        mm[f"core.{name}"] = d[name]
    structural = d["splits"] + d["remaps"] + d["expansions"] + d["doublings"]
    mm["core.structural_ops_per_kinsert"] = (
        structural / (inserts / 1000.0) if inserts else 0.0
    )
    mm["core.keys_moved_per_insert"] = d["keys_moved"] / inserts if inserts else 0.0
    mm["core.structural_time_share"] = (
        d["structural_s"] / window_s if window_s else 0.0
    )
    for name in ("segments", "buckets", "load_factor", "bulk_load_s"):
        mm[f"core.{name}"] = after[name]
    if "gets" in after:
        gets = d["gets"]
        mm["core.probe_depth_mean"] = d["probe_depth_sum"] / gets if gets else 0.0
        mm["core.plr_miss_ratio"] = d["plr_misses"] / gets if gets else 0.0
        mm["core.fused_rebuilds"] = d["fused_rebuilds"]
        mm["core.fused_patches"] = d["fused_patches"]


def span_layer_metrics(m: Measurement, agg: Dict[str, Dict[str, float]]) -> None:
    """Self times of the ``core.*`` spans, per call and per key."""
    mm = m.metrics

    def per(name: str, by: str) -> float:
        a = agg.get(name)
        return a["self_ns"] / a[by] / 1e3 if a and a[by] else 0.0

    mm["core.get_self_us"] = per("core.get", "count")
    mm["core.scan_self_us"] = per("core.scan", "count")
    mm["core.get_many_us_per_key"] = per("core.get_many", "keys")
    ins = [agg[n] for n in ("core.insert", "core.insert_many") if n in agg]
    keys = sum(a["keys"] for a in ins)
    mm["core.insert_self_us"] = (
        sum(a["self_ns"] for a in ins) / keys / 1e3 if keys else 0.0
    )
    m.info["span_check"] = agg["_check"]


def _finish_trace(m: Measurement, tracer: Tracer, name: str) -> None:
    agg = self_times(tracer.names, tracer.table())
    span_layer_metrics(m, agg)
    m.info["spans"] = {k: v for k, v in agg.items() if k != "_check"}
    H.OUT.mkdir(exist_ok=True)
    tracer.dump(H.OUT / f"trace-{name}.jsonl", proc="runner")


@dataclass
class Embedded:
    """A DyTIS held by the runner, with its optional tracing wrappers."""

    index: Any
    obs: Any = None
    proxy: Any = None


def _new_index(tracer: Optional[Tracer]) -> Embedded:
    from repro.core import DyTIS

    if tracer is None:
        return Embedded(DyTIS())
    from repro.obs import Observability

    obs = Observability()
    index = DyTIS(obs=obs)
    return Embedded(index, obs, SpanIndex(index, tracer))


def checked_gets(sut: "Embedded", keys: List[int], lat: List[int], bad: List[int],
                 tracer: Optional[Tracer], rid_base: int = 0):
    """A window body of scalar gets whose value must equal the key:
    every :data:`harness.STRIDE`-th is timed into ``lat``, wrong replies
    are counted into ``bad[0]``; span-traced slices put a root span
    around every call to the proxy instead."""
    get = sut.index.get
    if tracer is not None:
        t_get, begin, end = sut.proxy.get, tracer.begin, tracer.end
        op_id = tracer.intern("op.get")

    def body(a, b, spans):
        wrong = 0
        if spans:
            for j in range(a, b):
                k = keys[j]
                tracer.rid = rid_base + j
                sid = begin(op_id, 1)
                v = t_get(k)
                end(sid)
                if v != k:
                    wrong += 1
        else:
            for j in range(a, b, H.STRIDE):
                k = keys[j]
                t0 = _now()
                v = get(k)
                lat.append(_now() - t0)
                if v != k:
                    wrong += 1
                for k in keys[j + 1 : min(j + H.STRIDE, b)]:
                    if get(k) != k:
                        wrong += 1
        bad[0] += wrong

    return body


class Workload:
    name = ""
    #: Op kind whose latency is reported as ``op_p50_us``/``op_p99_us``.
    primary = ""
    #: In-process windows trace one slice in four; a traced server
    #: records spans for the whole window.
    spans_every_slice = False
    #: Exponent with which the workload's time follows the host probe's
    #: (``harness.felt``): 1 unless ``frozen.py`` says otherwise.
    host_sensitivity = 1.0

    def generate(self, seed: int, scale: Scale):
        raise NotImplementedError

    def build(self, inputs, tracer: Optional[Tracer] = None):
        raise NotImplementedError

    def measure(self, sut, inputs, scale: Scale, tracer=None) -> Measurement:
        raise NotImplementedError

    def teardown(self, sut) -> None:
        pass


def _embedded_footer(m: Measurement, sut: Embedded, n_expected: int) -> None:
    index = sut.index
    m.tally.expect(len(index) == n_expected, "final len")
    m.metrics["bytes_per_key"] = index.memory_bytes() / max(len(index), 1)
    m.metrics["peak_rss_mib"] = H.own_peak_rss_mib()
    m.info["window_s"] = m.window_s


# ---------------------------------------------------------------------------
# embedded_ingest
# ---------------------------------------------------------------------------


class EmbeddedIngest(Workload):
    name = "embedded_ingest"
    primary = "write"

    def generate(self, seed, scale):
        from repro import datasets

        cfg = FROZEN[self.name]
        n = scale.ops(cfg["ops_per_s"])
        keys = datasets.generate(cfg["dataset"], n, seed=DATASET_SEED)
        # TX keys are (pickup time | 33-bit trip suffix): the times, which
        # shape the index, are the corpus; the suffixes come from --seed.
        low = np.uint64(33)
        suffix = np.random.default_rng(seed).integers(
            0, 1 << 33, size=n, dtype=np.uint64
        )
        keys = ((keys >> low) << low) | suffix
        return {"keys": keys.tolist()}

    def build(self, inputs, tracer=None):
        return _new_index(tracer)

    def measure(self, sut, inputs, scale, tracer=None):
        m = Measurement()
        keys = inputs["keys"]
        insert = sut.index.insert
        lat: List[int] = []
        before = core_snapshot(sut.index, sut.obs)
        if tracer is not None:
            t_insert, begin, end = sut.proxy.insert, tracer.begin, tracer.end
            op_id = tracer.intern("op.insert")

        def body(a, b, spans):
            if spans:
                for j in range(a, b):
                    k = keys[j]
                    tracer.rid = j
                    sid = begin(op_id, 1)
                    t_insert(k, k)
                    end(sid)
                return
            for j in range(a, b, H.STRIDE):
                k = keys[j]
                t0 = _now()
                insert(k, k)
                lat.append(_now() - t0)
                for k in keys[j + 1 : min(j + H.STRIDE, b)]:
                    insert(k, k)

        m.set_slices(H.run_sliced(
            len(keys), body, scale.limit_s, tracer, samples={"write": lat}
        ))
        done = m.ops
        m.tally.add(len(keys), len(keys) - done, "cut by deadline")
        # Inserts return nothing to check: read every key back instead.
        got = sut.index.get_many(keys[:done])
        m.tally.add(done, sum(1 for k, v in zip(keys, got) if k != v), "readback")
        # A suffix may repeat under one pickup time (about once in 1e8).
        _embedded_footer(m, sut, len(set(keys[:done])))
        core_layer_metrics(
            m.metrics, before, core_snapshot(sut.index, sut.obs), done,
            m.window_s,
        )
        if tracer is not None:
            _finish_trace(m, tracer, self.name)
        return m


# ---------------------------------------------------------------------------
# embedded_read
# ---------------------------------------------------------------------------


class EmbeddedRead(Workload):
    name = "embedded_read"
    primary = "read"

    def generate(self, seed, scale):
        from repro import datasets
        from repro.workloads.zipf import ZipfianChooser

        cfg = FROZEN[self.name]
        loaded = np.sort(datasets.generate(
            cfg["dataset"], scale.keys(cfg["n_keys"]), seed=DATASET_SEED
        ))
        chooser = ZipfianChooser(loaded, theta=cfg["zipf_theta"], seed=seed)
        return {
            "loaded": loaded,
            "gets": chooser.choose(scale.ops(cfg["ops_per_s"])).tolist(),
        }

    def build(self, inputs, tracer=None):
        sut = _new_index(tracer)
        loaded = inputs["loaded"]
        sut.index.bulk_load(loaded, loaded.tolist())
        return sut

    def measure(self, sut, inputs, scale, tracer=None):
        m = Measurement()
        keys = inputs["gets"]
        lat: List[int] = []
        bad = [0]
        before = core_snapshot(sut.index, sut.obs)
        body = checked_gets(sut, keys, lat, bad, tracer)
        m.set_slices(H.run_sliced(
            len(keys), body, scale.limit_s, tracer, samples={"read": lat}
        ))
        m.tally.add(len(keys), len(keys) - m.ops + bad[0], "wrong or cut gets")
        _embedded_footer(m, sut, len(inputs["loaded"]))
        core_layer_metrics(
            m.metrics, before, core_snapshot(sut.index, sut.obs), 0, m.window_s
        )
        if tracer is not None:
            _finish_trace(m, tracer, self.name)
        return m


# ---------------------------------------------------------------------------
# embedded_scan
# ---------------------------------------------------------------------------

#: Every n-th scan keeps its whole reply for an exact comparison; every
#: scan keeps its length, first and last key.
_FULL_CHECK_EVERY = 64


def check_scans(
    universe: np.ndarray, birth: np.ndarray, when: np.ndarray,
    start: np.ndarray, got_n: np.ndarray, got_first: np.ndarray,
    got_last: np.ndarray, scan_len: int,
) -> int:
    """How many scan replies disagree with the oracle.

    ``universe`` is every key that ever exists, sorted; ``birth[i]`` is
    the op index at which ``universe[i]`` was inserted (-1: bulk loaded).
    A scan issued at op ``when`` from ``start`` must return the first
    ``scan_len`` keys ``>= start`` born before it: the count, the first
    and the last key of every reply are compared here.
    """
    wrong = 0
    width = scan_len * 2
    n_univ = len(universe)
    pos = np.searchsorted(universe, start)
    for lo in range(0, len(start), 8192):
        hi = min(lo + 8192, len(start))
        p, t = pos[lo:hi], when[lo:hi]
        w = width
        while True:
            idx = p[:, None] + np.arange(w)[None, :]
            inside = idx < n_univ
            idx = np.minimum(idx, n_univ - 1)
            alive = inside & (birth[idx] < t[:, None])
            seen = np.cumsum(alive, axis=1)
            # Widen until every row found scan_len keys or hit the end.
            short = (seen[:, -1] < scan_len) & (p + w < n_univ)
            if not short.any():
                break
            w *= 2
        want_n = np.minimum(seen[:, -1], scan_len)
        rows = np.arange(hi - lo)
        first_at = np.argmax(alive, axis=1)
        last_at = np.argmax(seen >= want_n[:, None], axis=1)
        want_first = universe[idx[rows, first_at]]
        want_last = universe[idx[rows, last_at]]
        some = want_n > 0
        ok = got_n[lo:hi] == want_n
        ok &= ~some | (
            (got_first[lo:hi] == want_first) & (got_last[lo:hi] == want_last)
        )
        wrong += int((~ok).sum())
    return wrong


def check_full_scans(universe, birth, full, scan_len: int) -> int:
    """Exact comparison (keys, order, values) of the sampled replies."""
    wrong = 0
    for when, start, pairs in full:
        p = int(np.searchsorted(universe, np.uint64(start)))
        want: List[int] = []
        while p < len(universe) and len(want) < scan_len:
            if birth[p] < when:
                want.append(int(universe[p]))
            p += 1
        if [k for k, _ in pairs] != want or any(k != v for k, v in pairs):
            wrong += 1
    return wrong


class EmbeddedScan(Workload):
    name = "embedded_scan"
    primary = "scan"
    host_sensitivity = FROZEN["embedded_scan"]["host_sensitivity"]

    def generate(self, seed, scale):
        from repro import datasets
        from repro.workloads.zipf import ZipfianChooser

        cfg = FROZEN[self.name]
        keys = datasets.generate(
            cfg["dataset"], scale.keys(cfg["n_keys"]), seed=DATASET_SEED
        )
        n_bulk = int(len(keys) * cfg["bulk_share"])
        n_ops = scale.ops(cfg["ops_per_s"])
        rng = np.random.default_rng(seed)
        is_insert = rng.random(n_ops) >= cfg["scan_share"]
        # Never more inserts than keys held back.
        extra = np.flatnonzero(is_insert)[len(keys) - n_bulk :]
        is_insert[extra] = False
        n_ins = int(is_insert.sum())
        loaded = np.sort(keys[:n_bulk])
        chooser = ZipfianChooser(loaded, theta=0.99, seed=seed + 1)
        op_keys = chooser.choose(n_ops)
        op_keys[is_insert] = keys[n_bulk : n_bulk + n_ins]
        # Oracle: every key that ever exists, and when it is born.
        universe = np.concatenate([loaded, keys[n_bulk : n_bulk + n_ins]])
        birth = np.concatenate([
            np.full(n_bulk, -1, dtype=np.int64), np.flatnonzero(is_insert)
        ])
        order = np.argsort(universe, kind="stable")
        return {
            "loaded": loaded,
            "is_insert": is_insert.tolist(),
            "op_keys": op_keys.tolist(),
            "op_keys_arr": op_keys,
            "universe": universe[order],
            "birth": birth[order],
            "n_inserts": n_ins,
            "scan_len": cfg["scan_len"],
        }

    def build(self, inputs, tracer=None):
        sut = _new_index(tracer)
        loaded = inputs["loaded"]
        sut.index.bulk_load(loaded, loaded.tolist())
        return sut

    def measure(self, sut, inputs, scale, tracer=None):
        m = Measurement()
        keys, is_insert = inputs["op_keys"], inputs["is_insert"]
        scan_len = inputs["scan_len"]
        scan, insert = sut.index.scan, sut.index.insert
        slat: List[int] = []
        wlat: List[int] = []
        at: List[int] = []
        got_n: List[int] = []
        got_first: List[int] = []
        got_last: List[int] = []
        full: List[tuple] = []
        before = core_snapshot(sut.index, sut.obs)
        if tracer is not None:
            t_scan, t_insert = sut.proxy.scan, sut.proxy.insert
            begin, end = tracer.begin, tracer.end
            scan_id, ins_id = tracer.intern("op.scan"), tracer.intern("op.insert")

        def note(j, k, r):
            n = len(r)
            at.append(j)
            got_n.append(n)
            got_first.append(r[0][0] if n else 0)
            got_last.append(r[-1][0] if n else 0)
            if not j % _FULL_CHECK_EVERY:
                full.append((j, k, r))

        def body(a, b, spans):
            if spans:
                for j in range(a, b):
                    k = keys[j]
                    tracer.rid = j
                    if is_insert[j]:
                        sid = begin(ins_id, 1)
                        t_insert(k, k)
                        end(sid)
                    else:
                        sid = begin(scan_id, 1)
                        r = t_scan(k, scan_len)
                        end(sid)
                        note(j, k, r)
                return
            # A scan costs tens of microseconds and more, two clock
            # reads do not show: every op is timed.
            for j in range(a, b):
                k = keys[j]
                if is_insert[j]:
                    t0 = _now()
                    insert(k, k)
                    wlat.append(_now() - t0)
                else:
                    t0 = _now()
                    r = scan(k, scan_len)
                    slat.append(_now() - t0)
                    note(j, k, r)

        m.set_slices(H.run_sliced(
            len(keys), body, scale.limit_s, tracer,
            samples={"scan": slat, "write": wlat},
            sensitivity=self.host_sensitivity,
        ))
        done = m.ops
        at_arr = np.asarray(at, dtype=np.int64)
        wrong = check_scans(
            inputs["universe"], inputs["birth"], at_arr,
            inputs["op_keys_arr"][at_arr],
            np.asarray(got_n), np.asarray(got_first, dtype=np.uint64),
            np.asarray(got_last, dtype=np.uint64), scan_len,
        )
        wrong += check_full_scans(inputs["universe"], inputs["birth"], full, scan_len)
        m.tally.add(len(keys), len(keys) - done + wrong, "wrong or cut scans")
        inserted = int(np.count_nonzero(inputs["birth"][inputs["birth"] < done] >= 0))
        _embedded_footer(m, sut, len(inputs["loaded"]) + inserted)
        core_layer_metrics(
            m.metrics, before, core_snapshot(sut.index, sut.obs), inserted,
            m.window_s,
        )
        if tracer is not None:
            _finish_trace(m, tracer, self.name)
        return m


# ---------------------------------------------------------------------------
# embedded_adversarial
# ---------------------------------------------------------------------------


class EmbeddedAdversarial(Workload):
    name = "embedded_adversarial"
    # The median insert is one of the 1,024 cheap ones before the cliff
    # (2 ms of a round in all); the gets probe what the cliff left behind.
    primary = "read"

    def generate(self, seed, scale):
        from repro import datasets

        cfg = FROZEN[self.name]
        # The jitter of the runs' bases decides which worst case this is
        # (buckets and build time differ two-fold between jitters).
        keys = datasets.interleaved_runs(scale.keys(cfg["n_keys"]), seed=DATASET_SEED)
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, len(keys), scale.ops(cfg["gets_per_s"]))
        return {"keys": keys.tolist(), "gets": keys[picks].tolist()}

    def build(self, inputs, tracer=None):
        return _new_index(tracer)

    def measure(self, sut, inputs, scale, tracer=None):
        m = Measurement()
        keys, gets = inputs["keys"], inputs["gets"]
        insert = sut.index.insert
        wlat: List[int] = []
        rlat: List[int] = []
        bad = [0]
        before = core_snapshot(sut.index, sut.obs)
        if tracer is not None:
            t_insert, begin, end = sut.proxy.insert, tracer.begin, tracer.end
            ins_id = tracer.intern("op.insert")

        def insert_body(a, b, spans):
            # Few, expensive inserts: every one is timed.
            for j in range(a, b):
                k = keys[j]
                if spans:
                    tracer.rid = j
                    sid = begin(ins_id, 1)
                    t_insert(k, k)
                    end(sid)
                else:
                    t0 = _now()
                    insert(k, k)
                    wlat.append(_now() - t0)

        get_body = checked_gets(sut, gets, rlat, bad, tracer, rid_base=len(keys))
        # Throughput is all ops over all time: both phases' slices.
        ins = H.run_sliced(
            len(keys), insert_body, scale.limit_s, tracer, samples={"write": wlat}
        )
        m.set_slices(ins + H.run_sliced(
            len(gets), get_body, scale.limit_s, tracer, samples={"read": rlat}
        ))
        inserted = sum(s[0] for s in ins.slices)
        insert_s = sum(s[1] for s in ins.slices)
        m.info["insert_window_s"] = insert_s
        n_all = len(keys) + len(gets)
        m.tally.add(n_all, n_all - m.ops + bad[0], "wrong or cut ops")
        _embedded_footer(m, sut, inserted)
        core_layer_metrics(
            m.metrics, before, core_snapshot(sut.index, sut.obs), inserted,
            insert_s,
        )
        if tracer is not None:
            _finish_trace(m, tracer, self.name)
        return m


# ---------------------------------------------------------------------------
# durable_mixed
# ---------------------------------------------------------------------------


def kv_keys(dataset: str, n: int) -> np.ndarray:
    """``n`` dataset keys that fit a namespace's 56-bit payload, sorted.

    ``KVStore`` spends the key's top 8 bits on the namespace id, so the
    generated 63-bit keys drop their low byte (keeping the dataset's
    shape) and are de-duplicated.
    """
    from repro import datasets

    raw = datasets.generate(dataset, n, seed=DATASET_SEED) >> np.uint64(8)
    return np.unique(raw)


def ycsb_a(loaded: np.ndarray, n_ops: int, update_share, theta, seed):
    """Flat YCSB-A trace over ``loaded`` plus the expected reply of
    every get: the preloaded value (the key) or ``1 + index`` of the
    latest update to that key."""
    from repro.workloads.zipf import ZipfianChooser

    keys = ZipfianChooser(loaded, theta=theta, seed=seed).choose(n_ops)
    is_update = np.random.default_rng(seed + 1).random(n_ops) < update_share
    # Latest earlier update of the same key, for every op at once: sort
    # ops by (key, index), carry the position of the last update
    # forward, and accept it only if it lies inside the op's key run.
    order = np.lexsort((np.arange(n_ops), keys))
    sk, su = keys[order], is_update[order]
    at = np.arange(n_ops)
    carried = np.maximum.accumulate(np.where(su, at, -1))
    prev = np.r_[-1, carried[:-1]]
    run_start = np.maximum.accumulate(
        np.where(np.r_[True, sk[1:] != sk[:-1]], at, 0)
    )
    updated = prev >= run_start
    expected = np.empty(n_ops, dtype=np.int64)
    expected[order] = np.where(
        updated, order[np.maximum(prev, 0)] + 1, sk.astype(np.int64)
    )
    # Final value of every updated key: its last update's index + 1.
    upd_idx = np.flatnonzero(is_update)
    final: Dict[int, int] = dict(zip(keys[upd_idx].tolist(), (upd_idx + 1).tolist()))
    return keys, is_update, expected, final


class DurableMixed(Workload):
    name = "durable_mixed"
    primary = "write"

    def generate(self, seed, scale):
        cfg = FROZEN[self.name]
        loaded = kv_keys(cfg["dataset"], scale.keys(cfg["n_keys"]))
        keys, is_update, expected, final = ycsb_a(
            loaded, scale.ops(cfg["ops_per_s"]), cfg["update_share"],
            cfg["zipf_theta"], seed,
        )
        return {
            "loaded": loaded.tolist(),
            "keys": keys.tolist(),
            "is_update": is_update.tolist(),
            "expected": expected.tolist(),
            "final": final,
            "n_updates": int(is_update.sum()),
        }

    def build(self, inputs, tracer=None, durable=True):
        from repro.kvstore import KVStore
        from repro.wal import DurableKVStore

        emb = _new_index(tracer)
        index = emb.proxy if tracer is not None else emb.index
        if durable:
            directory = H.scratch_dir("durable")
            store = DurableKVStore(
                directory, index=index, fsync=FROZEN[self.name]["fsync"]
            )
        else:
            directory, store = None, KVStore(index=index)
        ns = store.namespace("default")
        loaded = inputs["loaded"]
        ns.insert_many(loaded, loaded)
        if durable:
            store.checkpoint()
        return {"store": store, "ns": ns, "dir": directory, "emb": emb}

    def teardown(self, sut):
        if sut["dir"] is not None:
            sut["store"].close()
            H.remove_tree(sut["dir"])

    def _window(self, sut, inputs, scale, tracer, m: Measurement, lat=None):
        """The YCSB-A window against ``sut`` (durable or bare store)."""
        keys, is_update = inputs["keys"], inputs["is_update"]
        expected = inputs["expected"]
        ns_get, ns_insert = sut["ns"].get, sut["ns"].insert
        rlat, wlat = lat if lat is not None else ([], [])
        bad = [0]
        if tracer is not None:
            begin, end = tracer.begin, tracer.end
            get_id, upd_id = tracer.intern("op.get"), tracer.intern("op.update")

        def body(a, b, spans):
            wrong = 0
            for j in range(a, b):
                k = keys[j]
                if spans:
                    tracer.rid = j
                    if is_update[j]:
                        sid = begin(upd_id, 1)
                        ns_insert(k, j + 1)
                        end(sid)
                    else:
                        sid = begin(get_id, 1)
                        v = ns_get(k)
                        end(sid)
                        if v != expected[j]:
                            wrong += 1
                elif j % H.STRIDE:
                    if is_update[j]:
                        ns_insert(k, j + 1)
                    elif ns_get(k) != expected[j]:
                        wrong += 1
                elif is_update[j]:
                    t0 = _now()
                    ns_insert(k, j + 1)
                    wlat.append(_now() - t0)
                else:
                    t0 = _now()
                    v = ns_get(k)
                    rlat.append(_now() - t0)
                    if v != expected[j]:
                        wrong += 1
            bad[0] += wrong

        store = sut["store"]
        midpoint = (
            {H.N_SLICES // 2: store.checkpoint} if sut["dir"] is not None else None
        )
        m.set_slices(H.run_sliced(
            len(keys), body, scale.limit_s, tracer, midpoint,
            samples={"read": rlat, "write": wlat},
        ))
        m.tally.add(len(keys), len(keys) - m.ops + bad[0], "wrong or cut ops")

    def measure(self, sut, inputs, scale, tracer=None):
        from repro.wal import DurableKVStore

        m = Measurement()
        store, directory = sut["store"], sut["dir"]
        wal0 = dict(store.metrics.to_dict())
        before = core_snapshot(sut["emb"].index, sut["emb"].obs)
        rlat: List[int] = []
        wlat: List[int] = []
        self._window(sut, inputs, scale, tracer, m, (rlat, wlat))
        m.info["window_s"] = m.window_s
        store.flush()
        wal1 = store.metrics.to_dict()
        d = {k: wal1[k] - wal0[k] for k in wal1}
        ckpt_bytes = sum(
            p.stat().st_size for p in directory.iterdir() if p.name.startswith("ckpt-")
        )
        writes = inputs["n_updates"]
        mm = m.metrics
        mm["wal_bytes_per_write"] = (d["bytes_written_total"] + ckpt_bytes) / writes
        mm["wal.appends"] = d["appends_total"]
        mm["wal.bytes_per_write"] = d["bytes_written_total"] / writes
        mm["wal.fsyncs_per_kwrite"] = d["fsyncs_total"] / (writes / 1000.0)
        mm["wal.fsync_ms_total"] = d["fsync_ns_total"] / 1e6
        mm["wal.checkpoint_s"] = d["checkpoint_ns_total"] / 1e9
        mm["wal.checkpoint_bytes"] = ckpt_bytes
        mm["peak_rss_mib"] = H.own_peak_rss_mib()
        mm["bytes_per_key"] = sut["emb"].index.memory_bytes() / len(store)
        core_layer_metrics(
            mm, before, core_snapshot(sut["emb"].index, sut["emb"].obs), writes,
            m.window_s,
        )
        # The operator's restart: close, reopen (checkpoint load plus
        # replay of the post-checkpoint half), then check what came back.
        store.close()
        t0 = time.perf_counter()
        reopened = DurableKVStore(directory, fsync=FROZEN[self.name]["fsync"])
        m.fastest["recovery_s"] = time.perf_counter() - t0
        sut["store"] = reopened
        ns = reopened.namespace("default")
        rm = reopened.metrics
        mm["wal.replay_records_per_s"] = (
            rm.records_replayed_total / (rm.replay_ns_total / 1e9)
            if rm.replay_ns_total else 0.0
        )
        final = inputs["final"]
        got = ns.get_many(list(final))
        lost = sum(1 for v, want in zip(got, final.values()) if v != want)
        m.tally.add(len(final), lost, "updates lost across restart")
        m.tally.expect(len(reopened) == len(inputs["loaded"]), "recovered len")
        if tracer is not None:
            self._layer_split(m, inputs, scale, tracer)
        return m

    def _layer_split(self, m, inputs, scale, tracer) -> None:
        """Split a durable op's non-index time into kvstore and WAL.

        The same trace is replayed on a bare ``KVStore`` with the same
        span proxy around its index.  What a root span does not spend
        in ``core.*`` is codec + namespace bookkeeping there, and that
        plus the WAL on the durable store; the difference is the WAL.
        """
        durable = self_times(tracer.names, tracer.table())
        span_layer_metrics(m, durable)
        bare_tracer = Tracer()
        sut = self.build(inputs, bare_tracer, durable=False)
        self._window(sut, inputs, scale, bare_tracer, Measurement())
        bare = self_times(bare_tracer.names, bare_tracer.table())

        def self_us(agg, name):
            a = agg.get(name)
            return a["self_ns"] / a["count"] / 1e3 if a else 0.0

        n_get = durable.get("op.get", {"count": 0})["count"]
        n_upd = durable.get("op.update", {"count": 0})["count"]
        kv_ns = (
            bare.get("op.get", {"self_ns": 0})["self_ns"]
            + bare.get("op.update", {"self_ns": 0})["self_ns"]
        )
        m.metrics["kvstore.self_us_per_op"] = kv_ns / max(n_get + n_upd, 1) / 1e3
        m.metrics["wal.self_us_per_write"] = (
            self_us(durable, "op.update") - self_us(bare, "op.update")
        )
        m.info["spans"] = {k: v for k, v in durable.items() if k != "_check"}
        m.info["spans_bare_kvstore"] = {k: v for k, v in bare.items() if k != "_check"}
        m.info["span_check"] = durable["_check"]
        H.OUT.mkdir(exist_ok=True)
        tracer.dump(H.OUT / f"trace-{self.name}.jsonl", proc="runner")


IN_PROCESS = (
    EmbeddedIngest(), EmbeddedRead(), EmbeddedScan(), EmbeddedAdversarial(),
    DurableMixed(),
)
