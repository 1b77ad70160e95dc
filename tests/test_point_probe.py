"""Point reads under the probe rule, against a dict.

A segment of more than ``ROUTED_PROBE_BUCKETS`` buckets answers a point
read from the bucket its remap names; a shorter one bisects its whole
padded key column.  Every scalar read site -- ``get``, the observed
``get``, ``get_many`` at and above the small-batch size, ``in``,
``[]``, ``Segment.get``/``probe`` and ``ConcurrentDyTIS.get``/``in`` --
must agree with a dict on both sides of the threshold, for the keys a
routed probe can get wrong: absent keys between two buckets, keys in a
trailing zero-allocation sub-range (routed past the last bucket and
clamped to it), the maximum key ``2^64 - 1`` (equal to the MAX padding)
and deleted keys whose padding copy survives in an earlier bucket's
slack.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConcurrentDyTIS, DyTIS, DyTISConfig
from repro.core.segment import ROUTED_PROBE_BUCKETS
from repro.obs import Observability

_MAX = (1 << 64) - 1
#: Four-key buckets and a high segment-size cap: a few hundred keys in
#: one table make segments of 50-130 buckets, on both sides of the
#: threshold, and scalar inserts leave trailing sub-ranges empty.
_CFG = DyTISConfig(
    first_level_bits=2, bucket_capacity=4, l_start=1,
    seg_limit_factor=64, max_piece_bits=6,
)
#: Every key lies in the top table, the one ``2^64 - 1`` belongs to.
_LO = 3 << 62


def _segments(index: DyTIS):
    return [s for t in index._tables if t is not None for s in t.unique_segments()]


def _span(index: DyTIS, seg) -> tuple:
    """``[lo, hi)`` of the keys ``seg`` owns (all in the top table)."""
    shift = index._m - seg.local_depth
    first = seg.store.bucket_keys(
        next(b for b in range(seg.n_buckets) if seg.store.counts[b])
    )[0]
    lo = (first >> shift) << shift
    return lo, lo + (1 << shift)


def _build(seed: int, n: int, delete_share: float, with_max: bool):
    """Three indexes fed the same scalar writes, the dict they should
    equal, and the probe keys of every case (with which cases occur)."""
    rng = random.Random(seed)
    keys = [_LO + rng.randrange(1 << 62) for _ in range(n)]
    if with_max:
        keys.insert(rng.randrange(len(keys) + 1), _MAX)
    plain, observed = DyTIS(_CFG), DyTIS(_CFG, obs=Observability())
    concurrent = ConcurrentDyTIS(_CFG)
    shadow = {}
    for step, k in enumerate(keys):
        for index in (plain, observed, concurrent):
            index.insert(k, step)
        shadow[k] = step
    deleted = set(rng.sample(sorted(shadow), int(len(shadow) * delete_share)))
    for k in deleted:
        for index in (plain, observed, concurrent):
            assert index.delete(k)
        del shadow[k]
    probes = set(shadow) | deleted | {_MAX, _MAX - 1, _LO}
    cases = {"long": 0, "between": 0, "trailing": 0, "stale": 0}
    for seg in _segments(plain):
        if seg.n_buckets <= ROUTED_PROBE_BUCKETS or not seg.total_keys:
            continue
        cases["long"] += 1
        store = seg.store
        karr = store._karr
        for b in range(seg.n_buckets - 1):
            live = store.bucket_keys(b)
            if live:
                probes.update((max(live[0] - 1, _LO), live[-1] + 1))
                cases["between"] += 1
            # Slack padding copies a later key; a deleted one is stale.
            for slot in range(b * store.capacity + len(live),
                              (b + 1) * store.capacity):
                if karr[slot] in deleted:
                    cases["stale"] += 1
                    probes.add(karr[slot])
        remap = seg.remap
        if remap.allocs[-1] == 0:
            lo, hi = _span(plain, seg)
            top = lo + ((remap.n_pieces - 1) << remap._shift)
            assert remap.bucket_of((hi - 1) & seg._mask) == seg.n_buckets - 1
            probes.update((top, hi - 1, rng.randrange(top, hi)))
            cases["trailing"] += 1
    return plain, observed, concurrent, shadow, sorted(probes), cases


def _check_reads(plain, observed, concurrent, shadow, probes) -> None:
    for k in probes:
        want = shadow.get(k)
        assert plain.get(k) == want, k
        assert observed.get(k) == want, k
        assert concurrent.get(k) == want, k
        assert (k in plain) == (k in shadow)
        assert (k in concurrent) == (k in shadow)
        if k in shadow:
            assert plain[k] == want
        seg = plain._segment(k)  # all probes lie in the top table
        assert seg.get(k) == want
        assert seg.probe(k) == ((True, want) if k in shadow else (False, None))
    want = [shadow.get(k) for k in probes]
    for size in (1, 32, 33, 500):  # small batches, then routed and snapshot
        got = []
        for at in range(0, len(probes), size):
            got += plain.get_many(probes[at : at + size])
        assert got == want, size


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(300, 700),
    delete_share=st.sampled_from([0.0, 0.1, 0.3]),
    with_max=st.booleans(),
)
def test_point_reads_match_dict_across_the_threshold(seed, n, delete_share, with_max):
    plain, observed, concurrent, shadow, probes, cases = _build(
        seed, n, delete_share, with_max
    )
    _check_reads(plain, observed, concurrent, shadow, probes)
    plain.check_invariants()


def test_every_probe_case_is_reached():
    """The builder reaches each case the property test is for: long
    segments, keys between their buckets, a trailing zero-allocation
    sub-range and a stale padding copy of a deleted key; short
    segments are probed too."""
    plain, observed, concurrent, shadow, probes, cases = _build(
        7, 600, 0.3, True
    )
    assert all(cases.values()), cases
    assert any(s.n_buckets <= ROUTED_PROBE_BUCKETS for s in _segments(plain))
    _check_reads(plain, observed, concurrent, shadow, probes)
