"""Shared machinery of the end-to-end benchmark.

Everything here is workload-agnostic: the environment guard that pins
the storage engine, ``/proc`` readers for CPU and memory of a whole
process tree, the sliced in-process window runner, the statistics that
turn several rounds of one window into one steady number, failure
accounting, and provenance.

The benchmark drives the program only through its public surface; this
module therefore imports nothing from ``repro`` at import time (the
runner puts ``src/`` on the path first, see :func:`prepare_environment`).
"""

from __future__ import annotations

import functools
import gc
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: The production engine (ROADMAP 3a).  Selected here and nowhere else:
#: the environment variable reaches every child; server children also
#: get ``--storage`` while the CLI still lists that flag.
ENGINE = "columnar"

#: Equal-op slices of an in-process saturate window (a few ms each).
#: Every slice is followed by one :func:`host_probe`, which says how
#: fast the host ran just then (see :func:`steady_cost`).
N_SLICES = 1024
#: Slices of a server workload's saturate window: each ends with a read
#: of ``/proc`` for every process of the tree, so they are coarser.
NET_SLICES = 64
#: Blocks a window is cut into for the steady composite: a block is the
#: same ops in every round, long enough (tens of ms) for its probes to
#: average to the host's speed over it.
N_BLOCKS = 64
#: In-process latency sampling stride: ``perf_counter_ns`` around every
#: 8th op, so timing costs ~1 % of the window rather than ~10 %.
STRIDE = 8
#: A phase that runs longer than this multiple of its planned length is
#: cut and its unsent ops are counted as failed (a wedged shard or a
#: dead child becomes failed ops, not a hang).
DEADLINE_FACTOR = 6.0
#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def traced_slice(i: int) -> bool:
    """Whether slice ``i`` goes through the span proxies in a traced
    run (the rest bypass them so a million-op window does not hold 2M
    spans)."""
    return i % 4 == 3


class BenchError(RuntimeError):
    """The benchmark cannot run (bad environment, dead child, ...)."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def prepare_environment() -> None:
    """Pin the engine, put ``src/`` on the path, refuse a foreign preset.

    Must run before anything imports ``repro`` (the engine default is
    read from the environment when a config is constructed, and every
    child inherits it).
    """
    preset = os.environ.get("DYTIS_STORAGE")
    if preset not in (None, "", ENGINE):
        raise BenchError(
            f"DYTIS_STORAGE is preset to {preset!r}; the benchmark measures "
            f"the {ENGINE!r} engine only. Unset it and run again."
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    os.environ["DYTIS_STORAGE"] = ENGINE
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH", "")
    if src not in inherited.split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (
            os.pathsep + inherited if inherited else ""
        )


def resolved_engine() -> str:
    """The engine a default-constructed index actually uses."""
    from repro.core import DyTISConfig

    return DyTISConfig().storage


def scratch_dir(tag: str) -> Path:
    """A fresh directory under ``out/`` (the benchmark writes only
    inside its checkout); the caller removes it."""
    path = OUT / f"tmp-{os.getpid()}-{tag}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_tree(path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def provenance(seed: int, frozen: Dict) -> Dict:
    """What a reader needs to place a result: code, host, inputs."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "not-a-git-checkout"
    except (OSError, subprocess.SubprocessError):
        sha = "not-a-git-checkout"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine": resolved_engine(),
        "seed": seed,
        "frozen": frozen,
    }


# ---------------------------------------------------------------------------
# /proc readers
# ---------------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces and parentheses: split after the last ')'.
    return raw[raw.rindex(")") + 2 :].split()


def process_tree(root_pid: int) -> List[int]:
    """``root_pid`` and every live descendant."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    tree = [root_pid]
    frontier = [root_pid]
    while frontier:
        frontier = [p for p, pp in parent_of.items() if pp in frontier]
        tree.extend(frontier)
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """CPU time (user + system) consumed so far by the given live
    processes.

    Read from ``/proc/<pid>/task/*/schedstat`` -- time on a CPU at
    scheduler-clock resolution -- because the 10 ms ticks of
    ``/proc/<pid>/stat`` are a tenth of a slice.
    """
    total = 0
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split(None, 1)[0])
            except (OSError, ValueError, IndexError):
                pass
    return total / 1e9


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Sum of the processes' high-water resident sets."""
    total_kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
                break
    return total_kib / 1024.0


def own_peak_rss_mib() -> float:
    return peak_rss_mib([os.getpid()])


def reset_own_peak_rss() -> None:
    """Start the runner's high-water mark afresh, so that in a suite
    run a workload is not charged its predecessors' memory."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # the mark stays cumulative; a single-workload run is unaffected


def dir_bytes(path) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


# ---------------------------------------------------------------------------
# One round of one workload
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Ops attempted against ops that failed, for one workload run.

    A failure is an error, a refusal, a timeout, an op cut by the phase
    deadline, or a reply that disagrees with the oracle.
    """

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(f"{note}: {failed} of {attempted}")

    def expect(self, ok: bool, note: str) -> None:
        """One whole-run check (final length, recovered contents, ...)."""
        self.add(1, 0 if ok else 1, note)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)


@dataclass
class Measurement:
    """What one round (one fresh system, one window) produced.

    ``wall`` and ``cpu`` are ``(ops, seconds, probe_s)`` of the saturate
    window's slices, in op order (slice ``i`` does the same ops in
    every round; the two lists may be cut differently); ``probe_s`` is
    what :func:`host_probe` took around that slice.  ``samples`` are
    the latencies in ns per op kind, in op order, already divided by
    the host's slowdown when they were taken.  ``metrics`` are numbers
    taken once per round (the median round is reported); ``fastest``
    are once-per-round durations for which the quietest round is
    reported.
    """

    wall: List[tuple] = field(default_factory=list)
    cpu: List[tuple] = field(default_factory=list)
    samples: Dict[str, np.ndarray] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    fastest: Dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    info: Dict[str, Any] = field(default_factory=dict)

    def set_slices(self, window: "Window") -> None:
        """File an in-process window's slices under both lists and its
        latency samples under their kinds."""
        self.wall = [(n, w, p) for n, w, _, p in window.slices]
        self.cpu = [(n, c, p) for n, _, c, p in window.slices]
        self.samples.update(window.steady_samples())

    @property
    def ops(self) -> int:
        return sum(s[0] for s in self.wall)

    @property
    def window_s(self) -> float:
        return sum(s[1] for s in self.wall)


# ---------------------------------------------------------------------------
# The host probe: how fast did the machine run just then?
# ---------------------------------------------------------------------------
#
# The reference host is a 2-vCPU guest on shared cores.  Each vCPU flips
# between a quiet speed and states about 1.5x and 3x slower (wall *and*
# CPU time stretch together; the guest sees no steal), for milliseconds
# or for minutes, so neither a long window nor its median slice repeats
# from run to run.  The benchmark therefore measures the host beside the
# program: a fixed, program-independent kernel (interpreter work, small
# NumPy calls, loads that miss the cache: the mix the program itself is
# made of) runs after every slice of a window, and every time measured
# is divided by ``probe time / PROBE_REF_S``.  All timings thus read as
# on the reference host at its quiet speed; ``run.host_slowdown`` says
# how far from it the host actually was.

#: What :func:`host_probe` takes on the reference host when it is quiet.
#: Frozen: it only sets the scale of the reported numbers.
PROBE_REF_S = 145e-6
#: A probe outside these multiples of the reference was interrupted (or
#: the clock stepped); it is clipped rather than believed.  The slowest
#: state seen on the reference host is a little over 3x.
PROBE_CLIP = (0.5, 5.0)


class _ProbeCell:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def step(self, x):
        self.total += x & 7
        return self.total


@functools.lru_cache(maxsize=None)
def _probe_tables():
    """A sorted column to search, 8 MiB to miss the cache in, and the
    rows of indices to gather; built on first use (the traced server
    imports this module and never probes)."""
    rng = np.random.default_rng(0)
    return (
        np.sort(rng.integers(0, 1 << 62, 4096, dtype=np.uint64)),
        rng.integers(0, 1 << 62, 1 << 20, dtype=np.int64),
        rng.integers(0, 1 << 20, (1024, 24)),
    )


def _probe_pass() -> None:
    cell, seen, trail = _ProbeCell(), {}, []
    column, heap, picks = _probe_tables()
    search = column.searchsorted
    x = 88172645463325252
    for i in range(100):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        seen[x & 255] = i
        cell.step(x)
        trail.append(x)
        if not i & 3:
            search(x >> 2)
            heap[picks[(x >> 20) & 1023]].sum()


def host_probe(now=time.perf_counter) -> float:
    """Run the fixed kernel and return the seconds it took.  A first,
    untimed pass brings back what the program's work evicted, so that
    the probe reads the host and not the program's cache footprint."""
    _probe_pass()
    t0 = now()
    _probe_pass()
    return now() - t0


def felt(probe_s: float, sensitivity: float) -> float:
    """The probe time a window whose work follows the probe with the
    exponent ``sensitivity`` is filed with.  A state that slows the
    probe (and interpreter-bound work) 1.5x slows work that waits for
    memory far less; a workload made of such work freezes how much less
    (``frozen.FROZEN[...]["host_sensitivity"]``)."""
    return PROBE_REF_S * (probe_s / PROBE_REF_S) ** sensitivity


def host_slowdown(repeats: int = 32) -> float:
    """The host's slowdown right now, from a burst of probes (used
    around set-up, where there are no slices to put probes between)."""
    lo, hi = PROBE_CLIP
    took = np.clip([host_probe() for _ in range(repeats)],
                   lo * PROBE_REF_S, hi * PROBE_REF_S)
    return float(took.mean()) / PROBE_REF_S


def _blocks(n_slices: int) -> List[np.ndarray]:
    return np.array_split(np.arange(n_slices), min(N_BLOCKS, n_slices))


def slowdowns(slices: Sequence[tuple]) -> np.ndarray:
    """Per slice, the host's slowdown over the block the slice lies in:
    the mean of the block's probes over the reference.  One probe is a
    noisy reading of a state that outlasts it; a block's worth is not."""
    lo, hi = PROBE_CLIP
    probes = np.clip([s[2] for s in slices], lo * PROBE_REF_S, hi * PROBE_REF_S)
    out = np.empty(len(slices))
    for block in _blocks(len(slices)):
        out[block] = probes[block].mean() / PROBE_REF_S
    return out


# ---------------------------------------------------------------------------
# Statistics: several rounds of the same work -> one steady number
# ---------------------------------------------------------------------------
#
# The work is deterministic: block b of every round does the same ops on
# the same state.  A block costs its seconds divided by the host's
# slowdown over it; the window costs the sum over blocks of the median
# round.  The probe removes the host's state, the median what is left
# (a preemption, a page-cache miss) unless it hits the same block twice.


def steady_cost(rounds: Sequence[Sequence[tuple]]) -> float:
    """Per-op cost of a window whose ``(ops, seconds, probe_s)`` slices
    were measured in several rounds, at the reference host's speed."""
    n = min(len(r) for r in rounds)
    if n == 0:
        raise BenchError("no slice of the window completed")
    blocks = _blocks(n)
    per_round = []
    for r in rounds:
        seconds = np.array([s[1] for s in r[:n]]) / slowdowns(r[:n])
        per_round.append([seconds[b].sum() for b in blocks])
    ops = sum(s[0] for s in rounds[0][:n])
    return float(np.median(np.asarray(per_round), axis=0).sum()) / ops


def fitted_sensitivity(rounds: Sequence[Sequence[tuple]]) -> Optional[float]:
    """How this window's cost followed the probe within this run: the
    slope of log(block seconds) on log(block slowdown), each relative to
    the same block's median round.  1 means the work slowed as the probe
    did.  ``None`` with a single round or a host that did not vary."""
    n = min(len(r) for r in rounds)
    if len(rounds) < 2 or n == 0:
        return None
    firsts = [b[0] for b in _blocks(n)]
    cost = np.log([
        np.add.reduceat([s[1] for s in r[:n]], firsts) for r in rounds
    ])
    slow = np.log([slowdowns(r[:n])[firsts] for r in rounds])
    x = (slow - np.median(slow, axis=0)).ravel()
    y = (cost - np.median(cost, axis=0)).ravel()
    return float(x @ y / (x @ x)) if x @ x > 1e-3 else None


def mean_slowdown(rounds: Sequence[Sequence[tuple]]) -> float:
    """Time-weighted slowdown of the host over the rounds' windows."""
    seconds = np.array([s[1] for r in rounds for s in r])
    factors = np.concatenate([slowdowns(r) for r in rounds])
    return float(seconds.sum() / (seconds / factors).sum())


def slice_cv(rounds: Sequence[Sequence[tuple]]) -> float:
    """Coefficient of variation of slice times, each taken relative to
    the quietest round of the same slice: how unevenly the host ran.
    With a single round there is nothing to relate a slice to, and the
    plain CV of its slices is returned."""
    n = min(len(r) for r in rounds)
    per_op = [[r[i][1] / r[i][0] for i in range(n)] for r in rounds]
    if len(rounds) > 1:
        quiet = [min(col) for col in zip(*per_op)]
        per_op = [[t / q for t, q in zip(row, quiet)] for row in per_op]
    flat = [t for row in per_op for t in row]
    mean = statistics.fmean(flat)
    return statistics.pstdev(flat) / mean if mean else 0.0


def steady_percentile_us(
    rounds: Sequence[np.ndarray], q: float
) -> Optional[float]:
    """The ``q``-th percentile latency in microseconds of the median
    round, or ``None`` when a round has fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it."""
    need = MIN_TAIL_SAMPLES / (1.0 - q / 100.0)
    if min(len(s) for s in rounds) < need:
        return None
    return statistics.median(float(np.percentile(s, q)) for s in rounds) / 1e3


def combine(rounds: List[Measurement], primary: str) -> Measurement:
    """One record from the rounds of a run (see the notes above)."""
    out = Measurement()
    for m in rounds:
        out.tally.merge(m.tally)
    wall_s_per_op = steady_cost([m.wall for m in rounds])
    mm = out.metrics
    for name in rounds[0].metrics:
        mm[name] = statistics.median(
            m.metrics[name] for m in rounds if name in m.metrics
        )
    for name in rounds[0].fastest:
        mm[name] = min(m.fastest[name] for m in rounds if name in m.fastest)
    mm["throughput_ops_s"] = 1.0 / wall_s_per_op
    mm["cpu_us_per_op"] = steady_cost([m.cpu for m in rounds]) * 1e6
    mm["run.slice_cv"] = slice_cv([m.wall for m in rounds])
    mm["run.host_slowdown"] = mean_slowdown([m.wall for m in rounds])
    for kind in rounds[0].samples:
        per_round = [m.samples[kind] for m in rounds if kind in m.samples]
        out.info[f"{kind}_samples"] = [int(len(s)) for s in per_round]
        for label, q in (("p50", 50.0), ("p99", 99.0)):
            value = steady_percentile_us(per_round, q)
            if value is not None:
                mm[f"{kind}_{label}_us"] = value
                if kind == primary:
                    mm[f"op_{label}_us"] = value
    for m in rounds:
        for key, value in m.info.items():
            out.info.setdefault(key, value)
    out.info.update(
        rounds=len(rounds),
        ops=rounds[0].ops,
        window_s=[m.window_s for m in rounds],
        # What the clock said, before the host's slowdown was divided out.
        raw_throughput_ops_s=[m.ops / m.window_s for m in rounds],
        fitted_sensitivity=fitted_sensitivity([m.wall for m in rounds]),
        setup_runs=[m.info.get("setup") for m in rounds],
    )
    out.wall = rounds[0].wall
    return out


# ---------------------------------------------------------------------------
# In-process sliced window
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """What :func:`run_sliced` measured: ``(ops, wall_s, cpu_s,
    probe_s)`` per slice, the latency samples the body took (ns, per op
    kind, in op order) and, per slice, how many of each there were by
    its end."""

    slices: List[tuple] = field(default_factory=list)
    samples: Dict[str, List[int]] = field(default_factory=dict)
    marks: List[tuple] = field(default_factory=list)

    def __add__(self, other: "Window") -> "Window":
        """Two windows run one after the other, over disjoint kinds."""
        mine, theirs = len(self.samples), len(other.samples)
        last = self.marks[-1] if self.marks else (0,) * mine
        return Window(
            self.slices + other.slices,
            {**self.samples, **other.samples},
            [m + (0,) * theirs for m in self.marks]
            + [last + m for m in other.marks],
        )

    def steady_samples(self) -> Dict[str, np.ndarray]:
        """The samples, each divided by the host's slowdown over the
        block of slices it was taken in."""
        if not self.slices:
            return {k: np.asarray(v, dtype=np.float64) for k, v in self.samples.items()}
        factors = slowdowns([(n, w, p) for n, w, _, p in self.slices])
        out = {}
        for col, (kind, values) in enumerate(self.samples.items()):
            ends = np.array([m[col] for m in self.marks])
            per_slice = np.diff(ends, prepend=0)
            out[kind] = (
                np.asarray(values[: ends[-1]], dtype=np.float64)
                / np.repeat(factors, per_slice)
            )
        return out


def run_sliced(
    n_ops: int,
    body: Callable[[int, int, bool], None],
    limit_s: float,
    tracer=None,
    before_slice: Optional[Dict[int, Callable[[], None]]] = None,
    samples: Optional[Dict[str, List[int]]] = None,
    sensitivity: float = 1.0,
) -> Window:
    """Run ``body(start, stop, span_traced)`` over equal op slices.

    One caller, closed loop: the next op starts when the previous one
    returns.  GC is collected, then disabled around the window.  A
    :func:`host_probe` runs between slices, off their clock; a slice is
    filed with the mean of the probes on either side of it, raised to
    ``sensitivity`` (see :func:`felt`).  ``samples`` are the lists (per
    op kind) the body appends latencies to.  With a
    ``tracer`` the slices picked by :func:`traced_slice` run span-traced
    and the tracer is switched on for exactly those.  ``before_slice`` maps
    a slice index to work done at the head of that slice, on its clock
    (the mid-window checkpoint stalls the caller, so it is charged).
    After ``limit_s`` the remaining slices are not run.
    """
    n_slices = max(1, min(N_SLICES, n_ops))
    bounds = np.linspace(0, n_ops, n_slices + 1).astype(np.int64).tolist()
    deadline = time.perf_counter() + limit_s
    window = Window(samples=samples if samples is not None else {})
    lists = list(window.samples.values())
    gc.collect()
    gc.disable()
    try:
        probe = host_probe()
        for i in range(n_slices):
            if time.perf_counter() > deadline:
                break
            spans = tracer is not None and traced_slice(i)
            if spans:
                tracer.on = True
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            if before_slice and i in before_slice:
                before_slice[i]()
            body(bounds[i], bounds[i + 1], spans)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if spans:
                tracer.on = False
            after = host_probe()
            window.slices.append((
                bounds[i + 1] - bounds[i], wall, cpu,
                felt((probe + after) / 2, sensitivity),
            ))
            window.marks.append(tuple(len(l) for l in lists))
            probe = after
    finally:
        gc.enable()
    return window
