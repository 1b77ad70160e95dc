#!/usr/bin/env python3
"""Compare two sets of ledgers, one row per workload x end-to-end metric.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --base A1.json A2.json --new B1.json B2.json

Each ledger is one suite run (``run.py`` without ``--workload``); a set
is one or more ledgers of the same code.  Every row gives both medians,
the ratio new / base, each set's own spread, and a verdict from the
frozen bounds:

``better`` / ``worse``   the medians differ by more than the bound
``unchanged``            they do not, and both sets repeat within it
``unresolved``           they do not, but a set's own spread exceeds the
                         bound, so "no change" cannot be told from noise

Spread is (Q3 - Q1) / median with four or more runs in a set, (max -
min) / median with two or three, and unknown (shown ``-``, treated as
within bound) with one.  Exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from frozen import EXTRA_BOUNDS  # noqa: E402


def bounds() -> Dict[str, Dict]:
    """Metric -> {better, bound, absolute}: BENCHMARK.json's end-to-end
    metrics plus the user-visible ones only some workloads have."""
    declared = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    out = {
        m["name"]: {"better": m["better"], "bound": m["bound"], "absolute": False}
        for m in declared["end_to_end"]
    }
    out.update(EXTRA_BOUNDS)
    return out


def spread(values: List[float]) -> Optional[float]:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return None
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / abs(med)
    return (max(values) - min(values)) / abs(med)


def verdict(base: List[float], new: List[float], rule: Dict) -> str:
    b, n = statistics.median(base), statistics.median(new)
    worse_by = (n - b) if rule["better"] == "lower" else (b - n)
    if not rule["absolute"]:
        if not b:
            return "unresolved"
        worse_by /= abs(b)
    if worse_by > rule["bound"]:
        return "worse"
    if -worse_by > rule["bound"] and not rule["absolute"]:
        return "better"
    noisy = any(
        s is not None and s > rule["bound"]
        for s in (spread(base), spread(new))
    )
    return "unresolved" if noisy and not rule["absolute"] else "unchanged"


def collect(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per ledger."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        ledger = json.loads(Path(path).read_text())
        for workload, record in ledger["workloads"].items():
            for metric, value in record["metrics"].items():
                out.setdefault(workload, {}).setdefault(metric, []).append(value)
    return out


def compare(base_paths: List[str], new_paths: List[str]) -> List[Dict]:
    rules = bounds()
    base, new = collect(base_paths), collect(new_paths)
    rows = []
    for workload in base:
        for metric, rule in rules.items():
            b = base[workload].get(metric)
            n = new.get(workload, {}).get(metric)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            rows.append({
                "workload": workload, "metric": metric,
                "base": mb, "new": mn,
                "ratio": mn / mb if mb else float("nan"),
                "spread_base": spread(b), "spread_new": spread(n),
                "bound": rule["bound"], "verdict": verdict(b, n, rule),
            })
    return rows


def render(rows: List[Dict]) -> str:
    def pct(x):
        return "-" if x is None else f"{x:.1%}"

    lines = [
        f"{'workload':22s} {'metric':20s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'spread b/n':>13s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:22s} {r['metric']:20s} {r['base']:12.5g} "
            f"{r['new']:12.5g} {r['ratio']:9.3f} "
            f"{pct(r['spread_base']):>6s}/{pct(r['spread_new']):>6s} "
            f"{r['bound']:6.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ledgers", nargs="*", help="A.json B.json")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.ledgers:
        if len(args.ledgers) != 2 or args.base or args.new:
            parser.error("give either A.json B.json or --base ... --new ...")
        args.base, args.new = [args.ledgers[0]], [args.ledgers[1]]
    if not args.base or not args.new:
        parser.error("two sets of ledgers are needed")
    rows = compare(args.base, args.new)
    print(render(rows))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "worse", "unchanged", "unresolved")}
    print("\n" + ", ".join(f"{n} {v}" for v, n in counts.items())
          + "  (ratio is new / base)")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
