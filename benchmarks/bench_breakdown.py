"""§4.3 insertion breakdown: time share per structure operation, then
each operation's count and mean cost.

Paper shapes: remapping dominates for the high-skew RM/RL; TX spends
large shares on both remapping and expansion.
"""

from conftest import full_matrix
from repro.bench.experiments import breakdown

DATASETS = ("MM", "ML", "RM", "RL", "TX") if full_matrix() else ("MM", "RM", "TX")


def test_breakdown(benchmark, bench_scale, record_table):
    rows = benchmark.pedantic(
        breakdown.run,
        kwargs=dict(scale=bench_scale, datasets=DATASETS),
        rounds=1,
        iterations=1,
    )
    record_table("breakdown", breakdown.format_table(rows))
    by_ds = {r.dataset: r for r in rows}
    # High-skew review data leans on remapping (paper §4.3).
    assert by_ds["RM"].remap_share > by_ds["RM"].doubling_share
    assert by_ds["RM"].remap_share > by_ds["MM"].remap_share
    # The per-operation table reads the same counters as the shares.
    for r in rows:
        assert r.op_costs["split"][0] == r.counts["splits"]
        assert r.op_costs["remap"][0] >= r.counts["remappings"]
        assert all(mean > 0 for n, mean in r.op_costs.values() if n)
