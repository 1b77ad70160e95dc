#!/usr/bin/env python3
"""One end-to-end benchmark for the whole stack.

Two ways to run it, one code path underneath:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, once.  The last line of standard output is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding
    every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``)
    or every ``per_layer`` metric (``--trace 1``).  Exit status is 0
    only if no op failed.

``python3 benchmarks/e2e/run.py [--trace] [--smoke] [--seed N]``
    The whole suite, every workload in turn, written as one ledger file
    under ``benchmarks/e2e/out/`` (``compare.py`` reads two of those).

An untraced run measures the workload in ``ROUNDS`` rounds, each on a
freshly set-up system, and combines them (``harness.combine``).  A
traced run measures one round untraced and one with span proxies and
the observability collector on.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness as H  # noqa: E402
from frozen import (  # noqa: E402
    CONNECTIONS, DATASET_SEED, FROZEN, PACED_BURST, PIPELINE, ROUNDS,
    RUN_SECONDS, SMOKE_DIVISOR,
)


def load_declaration() -> Dict:
    return json.loads((H.ROOT / "BENCHMARK.json").read_text())


def workloads() -> Dict[str, object]:
    """Name -> workload object, in suite order (imports ``repro``)."""
    from inprocess import IN_PROCESS
    from netload import NETWORKED

    return {w.name: w for w in IN_PROCESS + NETWORKED}


def _traced_wall_s(wl, m) -> float:
    """Wall time, at the reference host's speed, of the slices a traced
    run of ``wl`` puts spans on."""
    return sum(
        s[1] / slowdown
        for i, (s, slowdown) in enumerate(zip(m.wall, H.slowdowns(m.wall)))
        if wl.spans_every_slice or H.traced_slice(i)
    )


def _round(wl, seed: int, scale, tracer=None):
    """One round: inputs generated, a fresh system built, one window
    measured, everything torn down again."""
    gc.collect()
    before = H.host_slowdown()
    t0 = time.perf_counter()
    inputs = wl.generate(seed, scale)
    sut = wl.build(inputs, tracer)
    setup_s = time.perf_counter() - t0
    try:
        after = H.host_slowdown()
        m = wl.measure(sut, inputs, scale, tracer)
    finally:
        wl.teardown(sut)
    # Like every timing, at the reference host's speed.  Set-up has no
    # slices to put probes between: a burst of probes on either side of
    # it, and the window that follows, say how the host ran around it.
    window = H.mean_slowdown([m.wall])
    m.info["setup"] = {"raw_s": setup_s, "before": before, "after": after,
                       "window": window}
    around = ((before + after) / 2) ** wl.host_sensitivity
    m.metrics["setup_s"] = setup_s / ((2 * around + window) / 3)
    return m


def run_workload(wl, seed: int, scale, trace: bool) -> Dict:
    """Measure one workload; returns its record: ``metrics`` (every
    number measured, by name), ``attempted``, ``failed``, ``notes`` and
    ``info``.

    Untraced: ``ROUNDS`` rounds combined by ``harness.combine``.
    Traced: one untraced round, then one with span proxies and the
    observability collector on, so that user-visible numbers always
    come from an untraced window and the tracing overhead is the ratio
    of the two on the slices that were traced.
    """
    from spans import Tracer

    H.reset_own_peak_rss()
    if not trace:
        m = H.combine(
            [_round(wl, seed, scale) for _ in range(ROUNDS)], wl.primary
        )
        metrics, tally, info = m.metrics, m.tally, m.info
    else:
        plain = H.combine([_round(wl, seed, scale)], wl.primary)
        traced = H.combine([_round(wl, seed, scale, Tracer())], wl.primary)
        metrics = dict(traced.metrics)
        metrics.update(plain.metrics)
        metrics["trace.overhead_ratio"] = (
            _traced_wall_s(wl, plain) / _traced_wall_s(wl, traced)
        )
        tally = plain.tally
        tally.merge(traced.tally)
        info = {"untraced": plain.info, "traced": traced.info}
    metrics["failed_ops_ratio"] = tally.failed / max(tally.attempted, 1)
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "info": info,
    }


def contract_line(record: Dict, declared: List[Dict]) -> str:
    """The driver's result line: exactly the declared metrics.

    A per-layer metric of a layer the workload never enters (the WAL in
    an embedded run, shards anywhere but the fleet) reads 0: no work was
    done there.  An end-to-end metric must have been measured.
    """
    out = {}
    for spec in declared:
        value = record["metrics"].get(spec["name"])
        if value is None:
            if "bound" in spec:
                raise H.BenchError(f"{spec['name']} was not measured")
            value = 0.0
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    })


def print_metrics(name: str, record: Dict, units: Dict[str, str]) -> None:
    print(f"== {name}: {record['attempted']} ops attempted, "
          f"{record['failed']} failed")
    for note in record["notes"]:
        print(f"   FAILED {note}")
    for metric in sorted(record["metrics"]):
        value = record["metrics"][metric]
        print(f"   {metric:36s} {value:>16.6g} {units.get(metric, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help=f"1/{SMOKE_DIVISOR} of the keys and ops")
    parser.add_argument("--out", help="suite mode: ledger file to write")
    args = parser.parse_args(argv)

    H.prepare_environment()
    declaration = load_declaration()
    units = {
        m["name"]: m["unit"]
        for m in declaration["end_to_end"] + declaration["per_layer"]
    }
    from inprocess import Scale

    scale = Scale(args.seconds, SMOKE_DIVISOR if args.smoke else 1)
    registry = workloads()
    # BENCHMARK.json names the workloads the driver gates; the suite
    # runs every workload there is.
    if not {w["name"] for w in declaration["workloads"]} <= set(registry):
        raise H.BenchError("BENCHMARK.json names a workload the runner lacks")

    prov = H.provenance(args.seed, {
        "run_seconds": args.seconds, "smoke": args.smoke, "rounds": ROUNDS,
        "dataset_seed": DATASET_SEED, "connections": CONNECTIONS,
        "pipeline": PIPELINE, "paced_burst": PACED_BURST, **FROZEN,
    })
    if args.workload:
        if args.workload not in registry:
            raise H.BenchError(f"unknown workload {args.workload!r}")
        record = run_workload(registry[args.workload], args.seed, scale,
                              bool(args.trace))
        print_metrics(args.workload, record, units)
        print("info " + json.dumps(record["info"], default=float))
        print("provenance " + json.dumps(prov))
        section = "per_layer" if args.trace else "end_to_end"
        print(contract_line(record, declaration[section]))
        return 0 if record["failed"] == 0 else 1

    ledger = {"provenance": prov, "traced": bool(args.trace), "workloads": {}}
    failed = 0
    for name in registry:
        record = run_workload(registry[name], args.seed, scale, bool(args.trace))
        print_metrics(name, record, units)
        undeclared = sorted(set(record["metrics"]) - set(units))
        if undeclared:
            raise H.BenchError(f"{name} printed undeclared metrics {undeclared}")
        ledger["workloads"][name] = record
        failed += record["failed"]
    H.OUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else H.OUT / (
        "layers.json" if args.trace else "bench.json"
    )
    out.write_text(json.dumps(ledger, indent=1, default=float) + "\n")
    print(f"ledger written to {out}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except H.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
