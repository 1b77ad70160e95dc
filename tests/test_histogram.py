"""Tests for the latency profile's power-of-two view of
repro.obs.LatencyHistogram (repro.bench.experiments.latency_profile)."""

from repro.bench.experiments.latency_profile import (
    _fmt_ns,
    log2_buckets,
    mode_count,
    render,
)
from repro.obs import LatencyHistogram


def _hist(samples):
    h = LatencyHistogram()
    h.record_many(samples)
    return h


class TestBuckets:
    def test_power_of_two_buckets(self):
        h = _hist([1, 2, 3, 4, 7, 8, 1000])
        ranges = [(low, high) for low, high, _ in log2_buckets(h)]
        assert (1, 2) in ranges
        assert (2, 4) in ranges
        assert (4, 8) in ranges
        assert (8, 16) in ranges
        assert (512, 1024) in ranges
        assert h.count == 7

    def test_counts(self):
        h = _hist([2, 3, 2, 3])
        assert len(log2_buckets(h)) == 1
        assert log2_buckets(h)[0][2] == 4

    def test_zero_and_negative_clamped(self):
        h = _hist([0, 1])
        assert log2_buckets(h)[0][0] == 1
        assert log2_buckets(h)[0][2] == 2

    def test_empty(self):
        h = _hist([])
        assert log2_buckets(h) == []
        assert "(no samples)" in render(h)


class TestRender:
    def test_renders_every_bucket(self):
        h = _hist([100] * 90 + [10**7] * 10)
        text = render(h, title="T")
        assert text.startswith("T")
        assert "90" in text and "10" in text
        assert "ms" in text  # 10^7 ns formats as ms

    def test_units(self):
        assert _fmt_ns(500) == "500ns"
        assert _fmt_ns(2_000) == "2µs"
        assert _fmt_ns(3_000_000) == "3ms"
        assert _fmt_ns(2_000_000_000) == "2s"


class TestModeCount:
    def test_unimodal(self):
        h = _hist([100, 120, 130, 200, 210] * 20)
        assert mode_count(h) == 1

    def test_bimodal_with_gap(self):
        fast = [1_000 + i for i in range(95)]
        slow = [5_000_000 + i for i in range(5)]
        h = _hist(fast + slow)
        assert mode_count(h, min_share=0.01) == 2

    def test_min_share_filters_noise(self):
        fast = [1_000] * 999
        slow = [10**8]  # one outlier: 0.1% share
        h = _hist(fast + slow)
        assert mode_count(h, min_share=0.01) == 1
        assert mode_count(h, min_share=0.0005) == 2

    def test_empty(self):
        assert mode_count(_hist([])) == 0
