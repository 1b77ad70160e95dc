"""Tests for the observability layer (repro.obs).

Covers the latency histogram's percentile math on known distributions,
merge associativity, structural event-hook ordering (including under
concurrent inserts), probe counters, the snapshot/exposition round
trip, and the regression that a disabled collector leaves index
results identical to an uninstrumented index.
"""

import json
import random
import threading

import pytest

from repro.core import ConcurrentDyTIS, DyTIS, DyTISConfig
from repro.obs import (
    EventBus,
    LatencyHistogram,
    Observability,
    RingBufferRecorder,
    SplitEvent,
    parse_prometheus,
    snapshot_to_json,
    snapshot_to_prometheus,
)
from repro.obs.histogram import SUB_BITS

CFG = DyTISConfig(key_bits=32, first_level_bits=2, bucket_capacity=8, l_start=1)

#: The log-linear bucketing's bounded relative error.
REL_ERR = 2.0 ** -SUB_BITS


class TestHistogramPercentiles:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.p50 == 0 and h.p99 == 0
        assert h.mean == 0.0

    def test_single_value(self):
        h = LatencyHistogram()
        h.record(1234)
        assert h.count == 1
        assert h.min_ns == h.max_ns == 1234
        for p in (1, 50, 99, 100):
            assert h.percentile(p) == pytest.approx(1234, rel=REL_ERR)

    def test_small_values_exact(self):
        # Values below one sub-bucket span land in exact unit buckets.
        h = LatencyHistogram()
        for v in (0, 1, 2, 3, 4, 5, 6, 7):
            h.record(v)
        assert h.percentile(50) == 3
        assert h.percentile(100) == 7

    def test_uniform_distribution_bounded_error(self):
        rng = random.Random(3)
        values = [rng.randrange(1, 1_000_000) for _ in range(20_000)]
        h = LatencyHistogram()
        h.record_many(values)
        values.sort()
        for p in (50, 90, 95, 99, 99.9):
            exact = values[min(len(values) - 1, int(len(values) * p / 100))]
            assert h.percentile(p) == pytest.approx(exact, rel=2 * REL_ERR)

    def test_bimodal_distribution(self):
        # 90% fast ops at ~100ns, 10% slow at ~1ms: p50 must sit in the
        # fast mode and p99 in the slow mode, never blended.
        h = LatencyHistogram()
        for _ in range(9000):
            h.record(100)
        for _ in range(1000):
            h.record(1_000_000)
        assert h.percentile(50) == pytest.approx(100, rel=REL_ERR)
        assert h.percentile(99) == pytest.approx(1_000_000, rel=REL_ERR)

    def test_mean_and_sum_exact(self):
        h = LatencyHistogram()
        h.record_many([10, 20, 30, 40])
        assert h.sum_ns == 100
        assert h.mean == 25.0

    def test_huge_value_clamps_to_last_bucket(self):
        h = LatencyHistogram()
        h.record(1 << 60)
        assert h.count == 1
        # The percentile is capped by max_ns, not the bucket bound.
        assert h.percentile(100) == 1 << 60


class TestHistogramMerge:
    def _random_hist(self, seed, n=5000):
        rng = random.Random(seed)
        h = LatencyHistogram()
        h.record_many(rng.randrange(1, 10**7) for _ in range(n))
        return h

    def test_merge_equals_union(self):
        rng = random.Random(9)
        a_vals = [rng.randrange(1, 10**6) for _ in range(3000)]
        b_vals = [rng.randrange(1, 10**6) for _ in range(7000)]
        a, b, u = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        a.record_many(a_vals)
        b.record_many(b_vals)
        u.record_many(a_vals + b_vals)
        m = LatencyHistogram.merged([a, b])
        assert m.counts == u.counts
        assert m.count == u.count and m.sum_ns == u.sum_ns
        assert m.min_ns == u.min_ns and m.max_ns == u.max_ns
        for p in (50, 95, 99):
            assert m.percentile(p) == u.percentile(p)

    def test_merge_associative_and_commutative(self):
        hs = [self._random_hist(s) for s in range(4)]
        left = LatencyHistogram.merged(
            [LatencyHistogram.merged(hs[:2]), LatencyHistogram.merged(hs[2:])]
        )
        right = LatencyHistogram.merged(hs[::-1])
        assert left.counts == right.counts
        assert left.count == right.count
        assert left.sum_ns == right.sum_ns
        assert left.min_ns == right.min_ns
        assert left.max_ns == right.max_ns

    def test_merge_with_empty_is_identity(self):
        h = self._random_hist(5)
        m = LatencyHistogram.merged([h, LatencyHistogram()])
        assert m.counts == h.counts and m.count == h.count


class TestEventBus:
    def _event(self, **kw):
        args = dict(
            local_depth=1, global_depth=2, keys_moved=8, duration_ns=100
        )
        args.update(kw)
        return SplitEvent(**args)

    def test_subscribe_and_counts(self):
        bus = EventBus()
        seen = []
        bus.on_split(seen.append)
        bus.emit(self._event())
        bus.emit(self._event(keys_moved=4))
        assert len(seen) == 2
        assert bus.counts["split"] == 2
        assert bus.keys_moved["split"] == 12

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        off = bus.on_split(seen.append)
        bus.emit(self._event())
        off()
        bus.emit(self._event())
        assert len(seen) == 1

    def test_sequence_numbers_are_gapless_under_threads(self):
        bus = EventBus()
        rec = RingBufferRecorder(capacity=10_000)
        rec.attach(bus)

        def hammer():
            for _ in range(500):
                bus.emit(self._event())

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in rec.events()]
        assert seqs == sorted(seqs)
        assert seqs == list(range(1, 2001))  # gapless, 1-based
        assert rec.dropped == 0

    def test_ring_buffer_drops_oldest(self):
        bus = EventBus()
        rec = RingBufferRecorder(capacity=10)
        rec.attach(bus)
        for _ in range(25):
            bus.emit(self._event())
        events = rec.events()
        assert len(events) == 10
        assert rec.dropped == 15
        assert [e.seq for e in events] == list(range(16, 26))


class TestIndexInstrumentation:
    def _workload(self, index, n=1500, seed=4):
        rng = random.Random(seed)
        keys = rng.sample(range(1, 2**31), n)
        for k in keys:
            index.insert(k, k)
        return keys

    def test_dytis_event_counts_reconcile_with_stats(self):
        obs = Observability(enabled=True)
        d = DyTIS(CFG, obs=obs)
        self._workload(d)
        counts = obs.events.counts
        assert counts["split"] == d.stats.splits
        assert counts["expand"] == d.stats.expansions
        assert counts["remap"] == d.stats.remappings
        assert counts["doubling"] == d.stats.doublings
        assert d.stats.splits > 0  # the workload actually splits

    def test_event_hooks_fire_under_concurrent_inserts(self):
        obs = Observability(enabled=True)
        d = ConcurrentDyTIS(CFG, obs=obs)
        errors = []

        def writer(seed):
            try:
                rng = random.Random(seed)
                for _ in range(400):
                    d.insert(rng.randrange(1, 2**31), 1)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Events observed == structure changes counted by the index,
        # and their seq ordering is strictly increasing in the trace.
        assert obs.events.counts["split"] == d.stats.splits
        seqs = [e.seq for e in obs.trace.events()]
        assert seqs == sorted(seqs)
        # Latencies from all four writers landed in the shards.
        assert obs.histogram("insert").count == 1600

    def test_batch_calls_record_every_key(self):
        """Each batch call records one sample per key, whatever path
        serves it, restructuring keys included; the layout and the
        structural events match an unobserved index fed the same way."""
        rng = random.Random(6)
        keys = rng.sample(range(1, 2**31), 3000)
        obs = Observability(enabled=True)
        d = DyTIS(CFG, obs=obs)
        plain = DyTIS(CFG)
        batches = [keys[i:i + 22] for i in range(0, 1980, 22)] + [keys[1980:]]
        for ix in (d, plain):
            for batch in batches:  # 22-key list path, then the NumPy path
                ix.insert_many(batch, batch)
        assert list(d.items()) == list(plain.items())
        assert d.stats.splits > 0  # full buckets restructured mid-batch
        assert obs.events.counts["split"] == d.stats.splits
        assert obs.histogram("insert").count == len(keys)
        assert d.get_many(keys[:30]) == keys[:30]
        assert d.get_many(keys) == keys  # above ``_SMALL_BATCH``
        assert obs.histogram("get").count == 30 + len(keys)
        assert d.delete_many(iter(keys[:25])) == 25
        assert d.delete_many(keys[25:1025]) == 1000
        assert obs.histogram("delete").count == 1025
        assert obs.histogram("insert").sum_ns > 0

    def test_probe_counters_track_gets_and_scans(self):
        obs = Observability(enabled=True)
        d = DyTIS(CFG, obs=obs)
        keys = self._workload(d, n=800)
        for k in keys[:200]:
            assert d.get(k) == k
        d.get(keys[0] ^ 0x55555)  # likely miss
        probes = obs.probe_totals()
        assert probes.gets == 201
        assert probes.buckets_probed <= probes.gets  # O(1) probes per get
        assert probes.plr_hits >= 200
        d.scan(min(keys), 500)
        probes = obs.probe_totals()
        assert probes.scans == 1
        assert probes.scan_segment_hops >= 1

    def test_disabled_obs_results_identical(self):
        rng = random.Random(11)
        keys = rng.sample(range(1, 2**31), 1200)
        plain = DyTIS(CFG)
        disabled = DyTIS(CFG, obs=Observability(enabled=False))
        enabled = DyTIS(CFG, obs=Observability(enabled=True))
        for d in (plain, disabled, enabled):
            for k in keys:
                d.insert(k, k * 7)
            for k in keys[::3]:
                d.delete(k)
        assert list(disabled.items()) == list(plain.items())
        assert list(enabled.items()) == list(plain.items())
        for k in keys[:100]:
            assert disabled.get(k) == plain.get(k)
        # A disabled collector records nothing.
        assert disabled.obs.histogram("insert").count == 0

    def test_bulk_load_latency_recorded(self):
        obs = Observability(enabled=True)
        d = DyTIS(CFG, obs=obs)
        ks = sorted(random.Random(2).sample(range(1, 2**31), 500))
        d.bulk_load(ks, ks)
        h = obs.histogram("bulk_load")
        assert h.count == 1
        assert h.sum_ns > 0


class TestExposition:
    def _snapshot(self):
        obs = Observability(enabled=True)
        d = DyTIS(CFG, obs=obs)
        rng = random.Random(8)
        for k in rng.sample(range(1, 2**31), 1000):
            d.insert(k, k)
        for k in rng.sample(range(1, 2**31), 300):
            d.get(k)
        d.scan(1, 100)
        return obs.snapshot(op_stats=d.stats)

    def test_json_round_trip(self):
        snap = self._snapshot()
        loaded = json.loads(snapshot_to_json(snap))
        assert loaded["latency"]["insert"]["count"] == 1000
        assert loaded["op_stats"]["splits"] == snap["op_stats"]["splits"]

    def test_prometheus_parses_and_reconciles(self):
        snap = self._snapshot()
        samples = parse_prometheus(snapshot_to_prometheus(snap))
        count = samples[
            ("dytis_op_latency_ns_count", (("op", "insert"),))
        ]
        assert count == 1000
        splits = samples[
            ("dytis_structural_events_total", (("kind", "split"),))
        ]
        assert splits == snap["op_stats"]["splits"]
        # Cumulative buckets end at +Inf == _count.
        inf = samples[
            ("dytis_op_latency_ns_bucket", (("le", "+Inf"), ("op", "insert")))
        ]
        assert inf == count

    def test_quantile_gauges_present(self):
        snap = self._snapshot()
        samples = parse_prometheus(snapshot_to_prometheus(snap))
        for q in ("0.5", "0.95", "0.99"):
            key = (
                "dytis_op_latency_quantile_ns",
                (("op", "get"), ("quantile", q)),
            )
            assert samples[key] > 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not prometheus text\n")


class TestWalExposition:
    """The durability layer's ``wal_*`` series in the Prometheus text."""

    def _snapshot_with_wal(self):
        from repro.bench.metrics import REQUIRED_WAL, run_wal_smoke

        obs = Observability()
        snap = obs.snapshot()
        snap["wal"] = run_wal_smoke(n=60, seed=3)
        return snap, REQUIRED_WAL

    def test_wal_series_rendered_and_parse_back(self):
        snap, required = self._snapshot_with_wal()
        text = snapshot_to_prometheus(snap)
        samples = parse_prometheus(text)
        for key in required:
            assert samples[(f"dytis_wal_{key}", ())] > 0, key
        # Gauges (no _total suffix) render too, typed as gauges.
        assert (f"dytis_wal_last_lsn", ()) in samples
        assert "# TYPE dytis_wal_appends_total counter" in text
        assert "# TYPE dytis_wal_last_lsn gauge" in text

    def test_wal_counters_reconcile_with_snapshot(self):
        snap, _ = self._snapshot_with_wal()
        samples = parse_prometheus(snapshot_to_prometheus(snap))
        for key, value in snap["wal"].items():
            assert samples[(f"dytis_wal_{key}", ())] == value

    def test_metrics_smoke_includes_wal_block(self):
        from repro.bench.metrics import check_snapshot, run_metrics_smoke

        snapshot, _, _ = run_metrics_smoke(n=300, seed=1)
        check_snapshot(snapshot)  # raises if any wal series is missing
        assert snapshot["wal"]["replays_total"] >= 2
