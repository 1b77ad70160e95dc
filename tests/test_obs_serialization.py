"""Round-trip + merge-commutativity properties of the obs collectors.

A shard worker's metrics reply travels to the router pickled, like
every other message on the pipe (``repro.shard.worker.dumps``).  The
contract these tests pin down: a round trip is lossless (every flushed
field, every bucket), and merging is commutative across round trips --
``merge(a, b) == merge(b, a)`` whether the operands traveled through
the pipe's pickle or not, which is what makes a metrics scrape
independent of the order workers reply in.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import LatencyHistogram, Observability, ProbeCounters
from repro.shard.worker import dumps

samples = st.lists(
    st.integers(min_value=0, max_value=2**44), min_size=0, max_size=200
)


def _hist(values):
    h = LatencyHistogram()
    h.record_many(values)
    return h


def _state(h: LatencyHistogram):
    return (h.counts[:], h.count, h.sum_ns, h.min_ns, h.max_ns)


def _sent(obj):
    """``obj`` after one trip through the worker pipe's pickle."""
    return pickle.loads(dumps(obj))


@given(samples)
@settings(max_examples=60, deadline=None)
def test_histogram_round_trip_is_lossless(values):
    h = _hist(values)
    back = _sent(h)
    assert _state(back) == _state(h)
    # Round trip again: serialization of the flushed state is stable.
    assert dumps(back) == dumps(h)


@given(samples, samples)
@settings(max_examples=60, deadline=None)
def test_histogram_merge_commutes_after_round_trip(va, vb):
    ab = _sent(_hist(va)).merge_from(_sent(_hist(vb)))
    ba = _sent(_hist(vb)).merge_from(_sent(_hist(va)))
    assert _state(ab) == _state(ba)
    # And matches the merge that never touched bytes.
    direct = _hist(va).merge_from(_hist(vb))
    assert _state(ab) == _state(direct)


def test_histogram_overflow_boundary_exponent():
    """Values with exponent exactly _MAX_EXP land in the overflow
    bucket (regression: they used to index past the bucket array, in
    both the scalar and vectorized folds)."""
    for n in (1, 100):  # scalar fold, then the vectorized one
        h = LatencyHistogram()
        h.record_many([2**40] * n + [2**40 + 5] * n + [2**41] * n)
        assert h.count == 3 * n
        assert h.max_ns == 2**41
        back = _sent(h)
        assert _state(back) == _state(h)


def test_metrics_reply_histograms_are_flushed():
    """The worker replies with ``Observability.histogram`` copies: the
    samples are folded into buckets, so the pickle carries a bounded
    bucket array, not one entry per recorded operation."""
    obs = Observability()
    record = obs.recorder("get")
    for ns in range(50_000):  # the fast recorder never flushes itself
        record(ns)
    reply = obs.histogram("get")
    back = _sent(reply)
    assert back.count == 50_000
    assert back.min_ns == 0 and back.max_ns == 49_999
    assert len(dumps(reply)) < 4096


#: Per-span attribution entries: span-start key -> [gets, misses,
#: depth_sum].  Spans are uint64 keys; the three counts stay small so
#: merged sums remain within u64 after repeated merging.
segment_attr = st.dictionaries(
    st.integers(0, 2**64 - 1),
    st.tuples(
        st.integers(0, 2**30), st.integers(0, 2**30), st.integers(0, 2**40)
    ).map(list),
    max_size=12,
)

counters = st.builds(
    ProbeCounters,
    gets=st.integers(0, 2**40),
    buckets_probed=st.integers(0, 2**40),
    plr_hits=st.integers(0, 2**40),
    plr_misses=st.integers(0, 2**40),
    scans=st.integers(0, 2**40),
    scan_segment_hops=st.integers(0, 2**40),
    probe_depth_sum=st.integers(0, 2**44),
    segments=segment_attr,
)


@given(counters)
@settings(max_examples=60, deadline=None)
def test_probe_counters_round_trip(pc):
    back = _sent(pc)
    assert back == pc


@given(counters, counters)
@settings(max_examples=60, deadline=None)
def test_probe_counters_merge_commutes_after_round_trip(a, b):
    ab = _sent(a).merge_from(_sent(b))
    ba = _sent(b).merge_from(_sent(a))
    assert ab == ba
    # Per-span attribution merges element-wise, same as the scalars.
    direct = ProbeCounters()
    direct.merge_from(a).merge_from(b)
    assert ab.segments == direct.segments


@given(counters, counters)
@settings(max_examples=40, deadline=None)
def test_probe_counters_merge_does_not_alias(a, b):
    """Merging must deep-copy span entries, not share the lists."""
    merged = ProbeCounters().merge_from(a)
    merged.merge_from(b)
    for span, ent in merged.segments.items():
        assert ent is not a.segments.get(span)
        assert ent is not b.segments.get(span)


def test_probe_counters_note_get_attributes_spans():
    pc = ProbeCounters()
    pc.note_get(16, 3, True)
    pc.note_get(16, 5, False)
    pc.note_get(32, 1, True)
    assert pc.gets == 3 and pc.plr_misses == 1
    assert pc.probe_depth_sum == 9
    assert pc.segments == {16: [2, 1, 8], 32: [1, 0, 1]}
    deltas = pc.segment_deltas({16: [1, 0, 3]})
    assert deltas == {16: [1, 1, 5], 32: [1, 0, 1]}
