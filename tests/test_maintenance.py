"""Online maintenance: policy scans, atomic re-bulkload, shard wiring.

The controller's contract is *logical transparency*: a maintenance
step may restructure anything, but the key/value mapping, iteration
order, and every index invariant must be exactly what they were.  The
fuzz tests run it in lockstep with a shadow dict under mixed ops;
the shard test drives it across worker
processes and checks the ``maint_*`` counters come back in the
metrics scrape.
"""

import random

import numpy as np
import pytest

from repro.core import (
    DyTIS,
    DyTISConfig,
    MaintenanceController,
    check_invariants,
)
from repro.core.maintenance import MaintMetrics
from repro.datasets import shifting_hotspot
from repro.obs import Observability


def _drifted_index(config, n=6000):
    """An index grown under a shifting hotspot, plus hot read keys."""
    obs = Observability()
    d = DyTIS(config, obs=obs)
    keys = shifting_hotspot(n, seed=7, n_phases=6)
    scale = np.uint64((1 << config.key_bits) - 1)
    keys = np.unique((keys >> np.uint64(64 - config.key_bits)) & scale)
    for k in keys.tolist():
        d.insert(k, k)
    return d, obs, keys


# -- policy scan -------------------------------------------------------


def test_scan_reports_cover_every_segment(small_config):
    d, obs, keys = _drifted_index(small_config, n=3000)
    ctrl = MaintenanceController(d)
    reports = ctrl.scan()
    n_segments = sum(
        sum(1 for _ in t.unique_segments())
        for t in d._tables
        if t is not None
    )
    assert len(reports) == n_segments
    assert sum(r.total_keys for r in reports) == len(d)
    # Span-start keys are unique and ascending within the walk.
    spans = [r.span for r in reports]
    assert spans == sorted(spans) and len(set(spans)) == len(spans)


def test_traffic_gated_reasons_need_traffic(small_config):
    d, obs, keys = _drifted_index(small_config, n=3000)
    ctrl = MaintenanceController(d)
    for r in ctrl.scan():
        # No gets have been recorded, so only the traffic-independent
        # "sparse" verdict may appear.
        assert set(r.reasons) <= {"sparse"}


def test_sparse_reason_fires_without_traffic(small_config):
    d = DyTIS(small_config)
    # Dense load, then delete most of it: fragmentation with zero gets.
    ks = list(range(0, 20000, 3))
    d.bulk_load(ks, ks)
    for k in ks:
        if k % 30:
            d.delete(k)
    ctrl = MaintenanceController(d)
    reports = ctrl.scan()
    assert any("sparse" in r.reasons for r in reports)


def test_step_preserves_contents_and_invariants(small_config):
    d, obs, keys = _drifted_index(small_config)
    hot = keys[: len(keys) // 3].tolist()
    for k in hot:
        assert d.get(k) == k
    ctrl = MaintenanceController(d)
    events = ctrl.step()
    check_invariants(d)
    assert len(d) == len(keys)
    for k in keys.tolist():
        assert d.get(k) == k
    # Iteration order is still globally sorted.
    it_keys = [k for k, _ in d.items()]
    assert it_keys == sorted(it_keys)
    for e in events:
        assert e.scope in ("segment", "table")
        assert e.keys_moved >= 0


def test_table_rebuild_reduces_segments_under_fragmentation(small_config):
    d = DyTIS(small_config)
    ks = list(range(0, 60000, 2))
    for k in ks:
        d.insert(k, k)
    for k in ks:
        if k % 20:
            d.delete(k)
    before = sum(
        sum(1 for _ in t.unique_segments())
        for t in d._tables
        if t is not None
    )
    ctrl = MaintenanceController(d)
    events = ctrl.step()
    assert events, "fragmented index should trigger maintenance"
    after = sum(
        sum(1 for _ in t.unique_segments())
        for t in d._tables
        if t is not None
    )
    assert after < before
    check_invariants(d)
    survivors = [k for k in ks if k % 20 == 0]
    assert len(d) == len(survivors)
    for k in survivors:
        assert d.get(k) == k


def test_budget_bounds_rebuilds(small_config):
    d, obs, keys = _drifted_index(small_config)
    for k in keys[:500].tolist():
        d.get(k)
    ctrl = MaintenanceController(d)
    events = ctrl.step(max_rebuilds=1)
    assert len(events) <= 1
    assert ctrl.metrics.steps_total == 1


def test_metrics_accumulate_and_merge():
    a = MaintMetrics(steps_total=1, keys_moved_total=10, last_degraded=2)
    b = MaintMetrics(steps_total=2, keys_moved_total=5, last_degraded=1)
    a.merge_from(b)
    assert a.steps_total == 3
    assert a.keys_moved_total == 15
    d = a.to_dict()
    assert d["steps_total"] == 3 and "table_rebuilds_total" in d


def test_controller_without_obs_repairs_structure_only(small_config):
    d = DyTIS(small_config)  # no observability at all
    ks = list(range(0, 40000, 2))
    d.bulk_load(ks, ks)
    for k in ks:
        if k % 16:
            d.delete(k)
    ctrl = MaintenanceController(d)
    events = ctrl.step()
    assert events  # sparse rule is traffic-independent
    check_invariants(d)
    survivors = [k for k in ks if k % 16 == 0]
    for k in survivors:
        assert d.get(k) == k


def test_maintenance_event_on_bus(small_config):
    d, obs, keys = _drifted_index(small_config)
    for k in keys[:3000].tolist():
        d.get(k)
    seen = []
    obs.events.subscribe(seen.append, kinds=("maintenance",))
    ctrl = MaintenanceController(d)
    events = ctrl.step()
    assert [e.seq for e in seen] == [e.seq for e in events]
    if events:
        assert obs.events.counts["maintenance"] == len(events)


# -- mixed-op fuzz against a shadow dict -------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_maintenance_lockstep_with_shadow_dict(small_config, seed):
    """Mixed insert/get/delete/scan fuzz with periodic maintenance.

    The oracle never learns maintenance exists: every observable
    answer must match a plain dict throughout.
    """
    rng = random.Random(seed)
    cfg = small_config
    obs = Observability()
    d = DyTIS(cfg, obs=obs)
    ctrl = MaintenanceController(d)
    shadow = {}
    key_space = 1 << cfg.key_bits
    # Narrow moving window so structure actually drifts.
    window = key_space // 64
    base = 0
    for step in range(4000):
        if step % 500 == 499:
            events = ctrl.step()
            check_invariants(d)
            for e in events:
                assert e.keys_moved >= 0
        if step % 400 == 0:
            base = rng.randrange(key_space - window)
        op = rng.random()
        k = base + rng.randrange(window)
        if op < 0.55:
            v = rng.randrange(1 << 30)
            d.insert(k, v)
            shadow[k] = v
        elif op < 0.8:
            assert d.get(k) == shadow.get(k)
        elif op < 0.95:
            assert d.delete(k) == (shadow.pop(k, None) is not None)
        else:
            lo = base + rng.randrange(window)
            hi = min(lo + rng.randrange(window // 4 + 1), key_space - 1)
            got = d.scan_range(lo, hi)
            want = sorted(
                (kk, vv) for kk, vv in shadow.items() if lo <= kk <= hi
            )
            assert got == want
    assert len(d) == len(shadow)
    assert sorted(shadow.items()) == list(d.items())
    check_invariants(d)


# -- sharded fleet -----------------------------------------------------


def test_sharded_maintenance_and_metrics():
    from repro.obs.exposition import parse_prometheus
    from repro.shard import ShardedIndex

    cfg = DyTISConfig(
        key_bits=32, first_level_bits=4, bucket_capacity=8, l_start=2
    )
    with ShardedIndex(n_shards=2, config=cfg) as idx:
        ks = list(range(0, 2**31, 2**18))
        idx.bulk_load(ks, ks)
        for k in ks:
            if k % (2**20):
                idx.delete(k)
        for k in ks[:64]:
            idx.get(k)
        summary = idx.maintenance()
        assert summary["rebuilds"] >= 0
        assert set(summary) >= {
            "rebuilds",
            "segment_rebuilds",
            "table_rebuilds",
            "keys_moved",
            "degraded",
        }
        # Counters surface in the scrape, per shard and well-formed.
        page = idx.metrics_to_prometheus()
        samples = parse_prometheus(page)
        steps = [
            v
            for (name, labels), v in samples.items()
            if name == "dytis_shard_maint_steps_total"
        ]
        assert steps and sum(steps) == 2.0  # one step ran per shard
        # Contents survived across both shards.
        survivors = [k for k in ks if k % (2**20) == 0]
        assert len(idx) == len(survivors)
        for k in survivors:
            assert idx.get(k) == k
