"""Work counts of Algorithm 1's structure operations (ISSUE 17).

A structure operation reads its segment once: ``run()`` or
``collect()`` runs once per split, expansion, remapping or failed
remapping.  Remaps, expansions and one-bucket splits then cut that run
without routing a key (``bucket_indices`` is not called for a layout
of at most ``SLICED_BUCKETS`` sub-ranges and buckets); the other
rebuilds route their keys once per layout the planner tries, and never
inside :meth:`Segment.build`, which is handed the counts that proved
the layout fits.  Before the single-pass rewrite the same ingests cost
1.7-2.0 ``collect`` and 2.4-3.6 ``bucket_indices`` calls per
operation.  Counts, not timings: they repeat exactly.
"""

import pytest

from repro import datasets
from repro.core import DyTIS, DyTISConfig
from repro.core.remap import PiecewiseRemap
from repro.core.segment import Segment
from repro.core.storage import SLICED_BUCKETS, ColumnarStorage

#: The scaled config reaches remapping, expansion and remap failure
#: within 50k keys; the default one mostly splits below ``l_start``.
CONFIGS = [{}, {"first_level_bits": 4, "bucket_capacity": 16, "l_start": 2}]


@pytest.mark.parametrize("overrides", CONFIGS, ids=["default", "scaled"])
def test_one_collect_per_op_and_one_routing_per_candidate(monkeypatch, overrides):
    calls = {"collect": 0, "route": 0, "route_in_build": 0, "route_in_cut": 0}
    in_build = [0]
    in_cut = [0]
    collect = ColumnarStorage.collect
    run = ColumnarStorage.run
    bucket_indices = PiecewiseRemap.bucket_indices
    build = Segment.build.__func__

    def counting_collect(self):
        calls["collect"] += 1
        return collect(self)

    def counting_run(self):
        calls["collect"] += 1
        return run(self)

    def counting_bucket_indices(self, local_keys):
        calls["route"] += 1
        calls["route_in_build"] += in_build[0]
        if max(self.n_pieces, self.n_buckets) <= SLICED_BUCKETS:
            calls["route_in_cut"] += in_cut[0]
        return bucket_indices(self, local_keys)

    def flagged(op):
        def wrapper(self, *args):
            in_cut[0] += 1
            try:
                return op(self, *args)
            finally:
                in_cut[0] -= 1
        return wrapper

    def flagged_build(cls, *args, **kwargs):
        in_build[0] += 1
        try:
            return build(cls, *args, **kwargs)
        finally:
            in_build[0] -= 1

    monkeypatch.setattr(ColumnarStorage, "collect", counting_collect)
    monkeypatch.setattr(ColumnarStorage, "run", counting_run)
    monkeypatch.setattr(DyTIS, "_remap", flagged(DyTIS._remap))
    monkeypatch.setattr(DyTIS, "_expand", flagged(DyTIS._expand))
    monkeypatch.setattr(DyTIS, "_cut", flagged(DyTIS._cut))
    monkeypatch.setattr(PiecewiseRemap, "bucket_indices", counting_bucket_indices)
    monkeypatch.setattr(Segment, "build", classmethod(flagged_build))

    index = DyTIS(DyTISConfig(**overrides))
    for k in datasets.generate("TX", 50_000, seed=0).tolist():
        index.insert(k, k)

    s = index.stats
    rebuilds = s.splits + s.expansions + s.remappings
    assert rebuilds > 300
    assert calls["collect"] <= rebuilds + s.remap_failures
    assert calls["route"] <= 1.7 * rebuilds
    assert calls["route_in_build"] == 0
    assert calls["route_in_cut"] == 0
    index.check_invariants()
