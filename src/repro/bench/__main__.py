"""Regenerate the paper's tables/figures from the command line.

Usage::

    python -m repro.bench                    # every experiment, default scale
    python -m repro.bench --only fig8 table2 # a subset
    python -m repro.bench --n 50000          # bigger datasets
    python -m repro.bench --list             # available experiment ids
    python -m repro.bench --out results/     # also write .txt files

Equivalent to ``pytest benchmarks/ --benchmark-only`` minus the shape
assertions -- handy for exploring scales interactively.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.experiments import (
    ExperimentScale,
    batch_ops,
    breakdown,
    fig1_characteristics,
    fig2_plr,
    fig3_kdd,
    fig8_ycsb,
    fig9_hashing,
    fig10_bulkload,
    fig11_dynamic,
    fig12_concurrency,
    gauntlet,
    group23,
    latency_profile,
    load_timeline,
    lock_overhead,
    memory_usage,
    params_ablation,
    related_work,
    remote_ship,
    scan_sweep,
    table1_datasets,
    table2_latency,
    wal_overhead,
    zipf_sweep,
)

EXPERIMENTS = {
    "fig1": fig1_characteristics,
    "fig2": fig2_plr,
    "fig3": fig3_kdd,
    "table1": table1_datasets,
    "fig8": fig8_ycsb,
    "fig9": fig9_hashing,
    "fig10": fig10_bulkload,
    "fig11": fig11_dynamic,
    "fig12": fig12_concurrency,
    "table2": table2_latency,
    "breakdown": breakdown,
    "gauntlet": gauntlet,
    "memory": memory_usage,
    "params": params_ablation,
    "group23": group23,
    "latency-profile": latency_profile,
    "load-timeline": load_timeline,
    "lock-overhead": lock_overhead,
    "related": related_work,
    "scan-sweep": scan_sweep,
    "zipf-sweep": zipf_sweep,
    "batch-ops": batch_ops,
    "wal-overhead": wal_overhead,
    "remote-ship": remote_ship,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the DyTIS paper's tables and figures.",
    )
    parser.add_argument(
        "--only", nargs="+", metavar="ID",
        help="experiment ids to run (default: all); see --list",
    )
    parser.add_argument(
        "--n", type=int, default=8000, help="keys per dataset (default 8000)"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory to also write <id>.txt files into",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="also aggregate everything that ran into one markdown file",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="BASE",
        help="run the observability metrics smoke and write BASE.json "
        "+ BASE.prom snapshots; without --only, runs only the smoke",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, module in EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<12} {doc}")
        return 0

    if args.metrics_out is not None:
        from repro.bench.metrics import check_snapshot, run_metrics_smoke
        from repro.obs import write_snapshot

        snapshot, _, _ = run_metrics_smoke(n=args.n, seed=args.seed)
        check_snapshot(snapshot)
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        json_path, prom_path = write_snapshot(snapshot, args.metrics_out)
        print(f"[metrics snapshot written to {json_path} and {prom_path}]")
        if not args.only:
            return 0

    chosen = args.only or list(EXPERIMENTS)
    unknown = [c for c in chosen if c not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids {unknown}; see --list")

    scale = ExperimentScale(
        n_keys=args.n,
        n_ops=max(1000, args.n // 2),
        metric_window=max(1000, args.n // 4),
        seed=args.seed,
    )
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    report_sections = []
    for name in chosen:
        module = EXPERIMENTS[name]
        t0 = time.perf_counter()
        rows = module.run(scale)
        table = module.format_table(rows)
        secs = time.perf_counter() - t0
        print(f"\n=== {name} ({secs:.1f}s) " + "=" * max(0, 60 - len(name)))
        print(table)
        if args.out:
            (args.out / f"{name}.txt").write_text(table + "\n")
        if args.report:
            doc = (module.__doc__ or "").strip().splitlines()[0]
            report_sections.append(
                f"## {name}\n\n{doc}\n\n```\n{table}\n```\n"
            )
    if args.report:
        header = (
            "# DyTIS reproduction results\n\n"
            f"Scale: {scale.n_keys:,} keys per dataset, "
            f"{scale.n_ops:,} ops per workload, seed {scale.seed}.\n\n"
        )
        args.report.write_text(header + "\n".join(report_sections))
        print(f"\n[report written to {args.report}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
