"""Latency-distribution shapes behind Table 2 (structural-op tails).

Shape: DyTIS's Load latency is multi-modal on the high-skew dataset
(fast inserts + a remapping tail decades above); the structural tail is
visible for ALEX too (retraining).
"""

from repro.bench.experiments import latency_profile


def test_latency_profile(benchmark, bench_scale, record_table):
    rows = benchmark.pedantic(
        latency_profile.run, kwargs=dict(scale=bench_scale), rounds=1,
        iterations=1,
    )
    record_table("latency_profile", latency_profile.format_table(rows))
    by_ix = {r.index: r for r in rows}
    # DyTIS's structural tail forms a separated slow mode.
    assert by_ix["DyTIS"].modes >= 2
    # The histograms cover every sample.
    for r in rows:
        assert r.histogram.count > 0
