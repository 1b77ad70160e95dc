"""Batch-operation micro-benchmark: batch calls vs. the scalar loop.

DyTIS's batch layer sorts each batch and walks it with per-segment
cached routing state, so directory lookups and remap coefficient loads
are amortised across every key that lands in the same segment.  This
driver measures that amortisation directly: for each batch size it
times the scalar loop (``get``/``insert`` per key) against one
``get_many``/``insert_many`` call over the same keys and reports the
speedup.  The delete rows time the scalar ``delete`` loop against
``delete_many`` (dispersed batches) and ``delete_range`` (runs of
consecutive keys) over the same victims.

A cell is a few milliseconds of work, so one timing of each side is at
the mercy of the scheduler: each cell times its two sides alternately,
``ROUNDS`` times each (the side that goes first flips every round), and
compares the medians.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.bench.experiments.scale import ExperimentScale, default_scale

DEFAULT_BATCH_SIZES = (64, 256, 1024, 4096)
#: Batch sizes of the ``delete_many`` rows: a fleet epoch's, and a bulk one.
DELETE_BATCH_SIZES = (16, 1024)
#: Consecutive keys per range of the ``delete_range`` row.
RANGE_KEYS = 64

#: Timed rounds per side of a cell; the reported times are medians.
ROUNDS = 11


@dataclass(frozen=True)
class BatchOpRow:
    """One (operation, batch size) cell of the micro-benchmark."""

    op: str  # "get_many" | "insert_many" | "delete_many" | "delete_range"
    batch_size: int
    scalar_s: float
    batch_s: float
    speedup: float


@dataclass(frozen=True)
class BulkCompareRow:
    """Batched inserts vs. ``bulk_load`` building the same index.

    ``ratio`` is bulk over batch throughput (1.0 would mean batched
    inserts match the offline build; the write path's target is to stay
    within ~2x of it)."""

    n_keys: int
    batch_size: int
    bulk_keys_per_s: float
    batch_keys_per_s: float
    ratio: float


def _repeats(batch_size: int, n_ops: int) -> int:
    """Enough repetitions per cell to make the timing stable."""
    return max(3, n_ops // batch_size)


def _alternate(
    scalar: Callable[[], float], batch: Callable[[], float]
) -> Tuple[float, float]:
    """Median seconds of each side over ``ROUNDS`` alternating rounds.

    Each callable runs one round and returns its timed seconds (setup
    it does outside the timer is not counted).  As in ``timeit``, the
    cyclic garbage collector is off meanwhile: a collection of the
    whole heap costs more than a round, and lands on whichever side
    happens to allocate past its threshold.
    """
    times: Tuple[List[float], List[float]] = ([], [])
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(ROUNDS):
            if i % 2:
                times[1].append(batch())
                times[0].append(scalar())
            else:
                times[0].append(scalar())
                times[1].append(batch())
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times[0]), statistics.median(times[1])


def _speedup(scalar_s: float, batch_s: float) -> float:
    return scalar_s / batch_s if batch_s else float("inf")


def _make_index(scale: ExperimentScale):
    from repro.core import DyTIS

    return DyTIS(scale.dytis_config())


def run(
    scale: ExperimentScale = None,
    dataset: str = "MM",
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
) -> List[BatchOpRow]:
    """Time scalar loops vs. batch calls over ``batch_sizes``, then the
    delete rows (:func:`_delete_rows`).

    Lookups run against a preloaded index; inserts measure fresh keys
    drawn from the same distribution (each repeat inserts a disjoint
    slice so no cell degenerates into pure updates).
    """
    import random

    from repro.datasets import generate

    scale = scale or default_scale()
    keys = [int(k) for k in generate(dataset, scale.n_keys * 2, scale.seed)]
    preload, fresh = keys[: scale.n_keys], keys[scale.n_keys :]
    rng = random.Random(scale.seed)

    rows: List[BatchOpRow] = []
    for batch_size in batch_sizes:
        reps = _repeats(batch_size, scale.n_ops)

        # -- get_many: identical random probe batches, scalar vs. batch.
        base = _make_index(scale)
        base.bulk_load(preload, preload)
        batches = [
            [preload[rng.randrange(len(preload))] for _ in range(batch_size)]
            for _ in range(reps)
        ]
        stale_key = preload[0]

        def scalar_gets() -> float:
            t0 = time.perf_counter()
            for batch in batches:
                for k in batch:
                    base.get(k)
            return time.perf_counter() - t0

        def batch_gets() -> float:
            # An upsert outside the timer makes every round a read phase
            # after a write, as the first round is: the read snapshot
            # is stale, so routing and the rebuild rule are timed too.
            base.insert(stale_key, stale_key)
            t0 = time.perf_counter()
            for batch in batches:
                base.get_many(batch)
            return time.perf_counter() - t0

        scalar_s, batch_s = _alternate(scalar_gets, batch_gets)
        rows.append(
            BatchOpRow(
                "get_many", batch_size, scalar_s, batch_s,
                _speedup(scalar_s, batch_s),
            )
        )

        # -- insert_many: disjoint fresh slices into two equal preloads.
        # Inserts mutate, so each timed round builds its index first.
        slices = []
        for i in range(reps):
            lo = (i * batch_size) % max(1, len(fresh) - batch_size)
            slices.append(fresh[lo : lo + batch_size])

        def scalar_inserts() -> float:
            ix = _make_index(scale)
            ix.bulk_load(preload, preload)
            t0 = time.perf_counter()
            for chunk in slices:
                for k in chunk:
                    ix.insert(k, k)
            return time.perf_counter() - t0

        def batch_inserts() -> float:
            ix = _make_index(scale)
            ix.bulk_load(preload, preload)
            t0 = time.perf_counter()
            for chunk in slices:
                ix.insert_many(chunk, chunk)
            return time.perf_counter() - t0

        scalar_s, batch_s = _alternate(scalar_inserts, batch_inserts)
        rows.append(
            BatchOpRow(
                "insert_many", batch_size, scalar_s, batch_s,
                _speedup(scalar_s, batch_s),
            )
        )
    return rows + _delete_rows(scale, preload, rng)


def _delete_rows(scale, preload, rng) -> List[BatchOpRow]:
    """The scalar ``delete`` loop vs. ``delete_many`` and
    ``delete_range``, each deleting half of the preloaded keys.

    ``delete_many`` takes a random half in :data:`DELETE_BATCH_SIZES`
    batches (the scalar loop deletes the same keys in the same order);
    ``delete_range`` takes every other run of :data:`RANGE_KEYS`
    consecutive keys (the scalar loop deletes each run's keys).  Deletes
    mutate, so each timed round bulk-loads its index first.
    """
    ordered = sorted(set(preload))

    def cell(op, size, keys, calls) -> BatchOpRow:
        """``delete`` of each of ``keys`` against ``op`` called once
        per argument tuple of ``calls``."""

        def scalar() -> float:
            ix = _make_index(scale)
            ix.bulk_load(preload, preload)
            t0 = time.perf_counter()
            for k in keys:
                ix.delete(k)
            return time.perf_counter() - t0

        def batch() -> float:
            ix = _make_index(scale)
            ix.bulk_load(preload, preload)
            method = getattr(ix, op)
            t0 = time.perf_counter()
            for args in calls:
                method(*args)
            return time.perf_counter() - t0

        scalar_s, batch_s = _alternate(scalar, batch)
        return BatchOpRow(op, size, scalar_s, batch_s, _speedup(scalar_s, batch_s))

    victims = rng.sample(ordered, len(ordered) // 2)
    rows = [
        cell(
            "delete_many", size, victims,
            [(victims[i : i + size],) for i in range(0, len(victims), size)],
        )
        for size in DELETE_BATCH_SIZES
    ]
    # A run's last key is its range's exclusive end.
    runs = [
        ordered[i : i + RANGE_KEYS + 1]
        for i in range(0, len(ordered) - RANGE_KEYS, 2 * RANGE_KEYS)
    ]
    rows.append(cell(
        "delete_range", RANGE_KEYS,
        [k for run in runs for k in run[:-1]],
        [(run[0], run[-1]) for run in runs],
    ))
    return rows


def bulk_compare(
    scale: ExperimentScale = None,
    dataset: str = "MM",
    batch_size: int = 1024,
) -> BulkCompareRow:
    """Build one index via ``bulk_load`` and one via ``insert_many``.

    Both consume the same keys; the batched build feeds them in
    arrival order, ``batch_size`` at a time, into an initially empty
    index -- the online counterpart of the offline bulk build.  The
    reported ratio is how much slower the online batched path is; like
    every cell of :func:`run`, it compares medians of alternating
    rounds, so one host pause cannot move it.
    """
    from repro.datasets import generate

    scale = scale or default_scale()
    keys = [int(k) for k in generate(dataset, scale.n_keys, scale.seed)]
    pairs = [(k, k) for k in keys]

    def bulk() -> float:
        ix = _make_index(scale)
        t0 = time.perf_counter()
        ix.bulk_load(keys, keys)
        return time.perf_counter() - t0

    def batched() -> float:
        ix = _make_index(scale)
        t0 = time.perf_counter()
        for lo in range(0, len(pairs), batch_size):
            ix.insert_many(pairs[lo : lo + batch_size])
        return time.perf_counter() - t0

    bulk_s, batch_s = _alternate(bulk, batched)

    n = len(keys)
    bulk_tp = n / bulk_s if bulk_s else float("inf")
    batch_tp = n / batch_s if batch_s else float("inf")
    return BulkCompareRow(
        n, batch_size, bulk_tp, batch_tp,
        bulk_tp / batch_tp if batch_tp else float("inf"),
    )


def format_table(rows: List[BatchOpRow]) -> str:
    lines = ["Batch operations vs. scalar loop (DyTIS)"]
    lines.append(
        f"{'op':<12} {'batch':>6} {'scalar(s)':>10} {'batch(s)':>9} "
        f"{'speedup':>8}"
    )
    for r in rows:
        lines.append(
            f"{r.op:<12} {r.batch_size:>6} {r.scalar_s:>10.3f} "
            f"{r.batch_s:>9.3f} {r.speedup:>7.2f}x"
        )
    return "\n".join(lines)


def format_bulk_compare(rows: Sequence[BulkCompareRow]) -> str:
    lines = [
        "insert_many vs bulk_load building the same index",
        f"{'keys':>8} {'batch':>6} {'bulk k/s':>10} "
        f"{'batch k/s':>10} {'bulk/batch':>10}",
    ]
    for r in rows:
        lines.append(
            f"{r.n_keys:>8} {r.batch_size:>6} "
            f"{r.bulk_keys_per_s:>10.0f} {r.batch_keys_per_s:>10.0f} "
            f"{r.ratio:>9.2f}x"
        )
    return "\n".join(lines)
