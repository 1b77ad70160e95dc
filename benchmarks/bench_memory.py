"""§4.3 memory usage: deep size per index after loading.

Paper shapes: ALEX and the B+-tree use ~20-30% less memory than DyTIS
(partially-filled fixed buckets); XIndex uses far more (delta indexes).
"""

from conftest import full_matrix
from repro.bench.experiments import memory_usage

DATASETS = ("MM", "RM", "TX") if not full_matrix() else ("MM", "ML", "RM", "RL", "TX")


def test_memory_usage(benchmark, bench_scale, record_table):
    rows = benchmark.pedantic(
        memory_usage.run,
        kwargs=dict(scale=bench_scale, datasets=DATASETS),
        rounds=1,
        iterations=1,
    )
    record_table("memory_usage", memory_usage.format_table(rows))
    cell = {(r.dataset, r.index): r for r in rows}
    for ds in DATASETS:
        assert cell[(ds, "DyTIS")].bytes_used > 0
        # Partially filled fixed buckets cost memory (the paper's 'DyTIS
        # uses more memory'), but DyTIS keeps its keys unboxed (8 bytes
        # a slot) while the Python comparators hold a 32-byte int object
        # per key, so on low-skew data it lands at ~0.75x the B+-tree.
        # The floor only catches an accounting collapse.
        assert (
            cell[(ds, "DyTIS")].bytes_used
            > 0.5 * cell[(ds, "B+-tree")].bytes_used
        )
    # The gap is widest on the high-skewness dataset (remapped segments
    # carry the most slack).
    if "RM" in DATASETS:
        assert (
            cell[("RM", "DyTIS")].bytes_used
            > 1.5 * cell[("RM", "B+-tree")].bytes_used
        )
