"""Metrics exposition: Prometheus text format and JSON snapshots.

Input is the dict produced by :meth:`repro.obs.Observability.snapshot`,
so exposition is decoupled from collection: the bench harness snapshots
once and writes both formats, and an external scraper endpoint would
serve :func:`snapshot_to_prometheus` directly.

The Prometheus rendering follows the text exposition format v0.0.4:
histograms as cumulative ``_bucket{le="..."}`` series plus ``_sum`` and
``_count``, counters as ``_total``.  Every family of every page (this
module's, ``ServerMetrics.to_prometheus``, ``shards_to_prometheus``)
is written by :func:`family`, which owns the HELP/TYPE header, label
escaping and the counter/gauge rule.  :func:`parse_prometheus` is a
minimal reader of that same format used by the CI smoke check (and any
test) to assert a snapshot round-trips.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape(value: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in value)


def _labels(labels: Dict[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def family(
    name: str,
    help_text: str,
    samples: Iterable[Tuple[str, Dict[str, object], object]],
    kind: Optional[str] = None,
) -> str:
    """One metric family as Prometheus text: HELP, TYPE, its samples.

    Each sample is ``(suffix, labels, value)``; the suffix extends the
    name (``_bucket``/``_sum``/``_count`` in a histogram, else ``""``).
    The type is ``kind`` when given (histograms), else the naming
    rule: a ``*_total`` name is a counter, any other a gauge.  A family
    without samples declares nothing and renders as ``""``.
    """
    body = "".join(
        f"{name}{suffix}{_labels(labels)} {value}\n"
        for suffix, labels, value in samples
    )
    if not body:
        return ""
    if kind is None:
        kind = "counter" if name.endswith("_total") else "gauge"
    return f"# HELP {name} {help_text}\n# TYPE {name} {kind}\n{body}"


def labelled(label: str, items: Iterable[Tuple[object, object]]) -> list:
    """Samples of a family with one label: ``{label=key} value``."""
    return [("", {label: key}, value) for key, value in items]


def _histogram_samples(latency: Dict[str, Dict]):
    for op, h in latency.items():
        cumulative = 0
        for _low, high, count in h.get("buckets", []):
            cumulative += count
            yield "_bucket", {"op": op, "le": high}, cumulative
        yield "_bucket", {"op": op, "le": "+Inf"}, h["count"]
        yield "_sum", {"op": op}, h["sum_ns"]
        yield "_count", {"op": op}, h["count"]


#: Pre-computed percentile gauges: (quantile label, snapshot key).
_QUANTILES = (
    ("0.5", "p50_ns"),
    ("0.95", "p95_ns"),
    ("0.99", "p99_ns"),
    ("1.0", "max_ns"),
)

#: Structural-event families: (events key, name suffix, help).
_EVENT_FAMILIES = (
    ("counts", "events_total", "Structure operations by kind."),
    ("keys_moved", "keys_moved_total", "Keys copied by structure operations."),
    (
        "duration_ns",
        "duration_ns_total",
        "Time spent in structure operations (ns).",
    ),
)

#: Blocks of flat counters, one unlabelled family per key (see
#: repro.wal.metrics, repro.remote.metrics, repro.core.maintenance).
_FLAT_BLOCKS = (
    ("wal", "Write-ahead log"),
    ("remote", "Remote shipping"),
    ("maint", "Online maintenance"),
)


def snapshot_to_prometheus(snapshot: Dict, prefix: str = "dytis") -> str:
    """Render a snapshot dict in the Prometheus text format.

    Any block may be absent; the page holds only the families the
    snapshot has samples for.
    """
    latency = snapshot.get("latency", {})
    page = [
        family(
            f"{prefix}_op_latency_ns",
            "Per-operation latency in nanoseconds.",
            _histogram_samples(latency),
            kind="histogram",
        ),
        # Pre-computed percentiles: Prometheus histograms quantile
        # server-side, but the bench harness wants them greppable.
        family(
            f"{prefix}_op_latency_quantile_ns",
            "Pre-computed latency percentiles (ns).",
            [
                ("", {"op": op, "quantile": q}, h[key])
                for op, h in latency.items()
                for q, key in _QUANTILES
            ],
        ),
    ]
    events = snapshot.get("events", {})
    for key, name, help_text in _EVENT_FAMILIES:
        samples = labelled("kind", events.get(key, {}).items())
        page.append(family(f"{prefix}_structural_{name}", help_text, samples))
    samples = labelled("counter", snapshot.get("probes", {}).items())
    help_text = "Probe-depth counters and ratios."
    page.append(family(f"{prefix}_probe", help_text, samples))
    for block, what in _FLAT_BLOCKS:
        for key, value in snapshot.get(block, {}).items():
            help_text = f"{what}: {key.replace('_', ' ')}."
            name = f"{prefix}_{block}_{key}"
            page.append(family(name, help_text, [("", {}, value)]))
    samples = labelled("counter", snapshot.get("op_stats", {}).items())
    help_text = "OperationStats counters (reconciliation)."
    page.append(family(f"{prefix}_op_stats", help_text, samples))
    return "".join(page)


def snapshot_to_json(snapshot: Dict, indent: int = 2) -> str:
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def write_snapshot(snapshot: Dict, base_path: Union[str, Path]) -> Tuple[Path, Path]:
    """Write ``<base>.json`` and ``<base>.prom``; returns both paths."""
    base = Path(base_path)
    if base.suffix in (".json", ".prom"):
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    json_path = base.with_suffix(".json")
    prom_path = base.with_suffix(".prom")
    json_path.write_text(snapshot_to_json(snapshot) + "\n")
    prom_path.write_text(snapshot_to_prometheus(snapshot))
    return json_path, prom_path


Sample = Tuple[str, Tuple[Tuple[str, str], ...]]


def parse_prometheus(text: str) -> Dict[Sample, float]:
    """Parse Prometheus text format into {(name, labels): value}.

    ``labels`` is a sorted tuple of (key, value) pairs.  Supports the
    subset this module emits (no timestamps, no exemplars); raises
    ValueError on malformed lines so CI catches exposition regressions.
    """
    out: Dict[Sample, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # <name>{labels} <value>   or   <name> <value>
        if "{" in line:
            name, rest = line.split("{", 1)
            labels_part, _, value_part = rest.rpartition("} ")
            if not _ or "{" in labels_part:
                raise ValueError(f"line {lineno}: malformed labels: {raw!r}")
            labels = []
            for item in _split_labels(labels_part):
                if "=" not in item:
                    raise ValueError(f"line {lineno}: malformed label {item!r}")
                k, v = item.split("=", 1)
                if not (v.startswith('"') and v.endswith('"')):
                    raise ValueError(f"line {lineno}: unquoted label {item!r}")
                labels.append((k.strip(), _unescape(v[1:-1])))
        else:
            parts = line.rsplit(None, 1)
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
            name, value_part = parts
            labels = []
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {value_part!r}")
        out[(name.strip(), tuple(sorted(labels)))] = value
    return out


def _split_labels(labels_part: str):
    """Split 'a="x",b="y,z"' on commas outside quotes."""
    items, buf, in_quotes, escaped = [], [], False, False
    for c in labels_part:
        if escaped:
            buf.append(c)
            escaped = False
            continue
        if c == "\\":
            buf.append(c)
            escaped = True
            continue
        if c == '"':
            in_quotes = not in_quotes
            buf.append(c)
            continue
        if c == "," and not in_quotes:
            items.append("".join(buf))
            buf = []
            continue
        buf.append(c)
    if buf:
        items.append("".join(buf))
    return items


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )

