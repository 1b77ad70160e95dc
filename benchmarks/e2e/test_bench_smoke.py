"""Self-test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_smoke.py -q

Runs the suite at ``--smoke`` scale and validates what it prints
against ``BENCHMARK.json``; checks that a deliberately corrupted reply
is counted as a failed op on every reply path (scan oracle, in-process
get, network reply bytes); and checks ``compare.py``'s verdicts.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness as H  # noqa: E402

# CI exports an engine for the tier-1 suite; the benchmark pins its own.
os.environ.pop("DYTIS_STORAGE", None)
H.prepare_environment()

import compare  # noqa: E402
import inprocess  # noqa: E402
import netload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, env=None, cwd=ROOT, timeout=170):
    """``run.py`` as the driver starts it; a preset engine is scrubbed
    (CI exports one) unless the test passes its own environment."""
    if env is None:
        env = {k: v for k, v in os.environ.items() if k != "DYTIS_STORAGE"}
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), env=env, timeout=timeout,
    )


# ---------------------------------------------------------------------------
# The declaration itself
# ---------------------------------------------------------------------------


def test_declaration_is_within_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DECLARED["workloads"])
    # The bounds compare.py adds cover only metrics the JSON declares.
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert set(compare.EXTRA_BOUNDS) <= declared


# ---------------------------------------------------------------------------
# --smoke: the whole suite, and one workload the way the driver runs it
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_ledgers(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledgers")
    ledgers = {}
    for flag, name in (([], "bench.json"), (["--trace"], "layers.json")):
        done = _run("--smoke", "--seed", "3", "--out", str(out / name), *flag)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        ledgers[name] = json.loads((out / name).read_text())
    return ledgers


def test_smoke_suite_prints_what_the_json_declares(smoke_ledgers):
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    seen = set()
    for ledger in smoke_ledgers.values():
        # The suite runs every workload; the driver gates the declared ones.
        assert {w["name"] for w in DECLARED["workloads"]} <= set(ledger["workloads"])
        for name, record in ledger["workloads"].items():
            assert record["failed"] == 0, (name, record["notes"])
            assert record["attempted"] >= 1
            printed = set(record["metrics"])
            assert printed <= end_to_end | per_layer, printed - end_to_end - per_layer
            assert end_to_end <= printed, (name, end_to_end - printed)
            assert all(v == v for v in record["metrics"].values()), "NaN"
            seen |= printed
    # Every declared metric is measured by at least one workload.
    assert seen == end_to_end | per_layer, (end_to_end | per_layer) - seen


def test_smoke_ledger_carries_provenance(smoke_ledgers):
    prov = smoke_ledgers["bench.json"]["provenance"]
    assert {"git_sha", "nproc", "python", "numpy", "engine", "seed", "frozen"} <= set(prov)
    assert prov["engine"] == H.ENGINE and prov["seed"] == 3
    assert prov["frozen"]["server_read"]["rate_rps"] > 0
    assert not list(H.OUT.glob("tmp-*")), "a temp store outlived its run"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_line_holds_exactly_the_declared_metrics(trace):
    done = _run("--workload", "durable_mixed", "--seed", "5", "--seconds", "8",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_foreign_engine_and_a_checkout_without_the_program(tmp_path):
    env = dict(os.environ, DYTIS_STORAGE="lists")
    done = _run("--workload", "embedded_read", "--smoke", env=env)
    assert done.returncode != 0 and "DYTIS_STORAGE" in done.stderr
    # Only BENCHMARK.json and the benchmark's own files: nothing to measure.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "embedded_read", "--seed", "1", "--seconds", "8",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


# ---------------------------------------------------------------------------
# The host's speed is divided out
# ---------------------------------------------------------------------------


def _round_of_slices(slowdown, spike_at=None):
    """A window of 256 slices of 100 ops at 1 ms each on the reference
    host, measured while the host ran ``slowdown`` times slower."""
    slices = []
    for i in range(256):
        seconds = 1e-3 * slowdown * (5.0 if i == spike_at else 1.0)
        slices.append((100, seconds, H.PROBE_REF_S * slowdown))
    return slices


def test_steady_cost_reads_the_same_on_a_slow_host_and_through_a_stall():
    quiet = H.steady_cost([_round_of_slices(1.0)] * 3)
    assert quiet == pytest.approx(1e-5)
    # The same work on a host that ran 1.6x slower throughout ...
    assert H.steady_cost([_round_of_slices(1.6)] * 3) == pytest.approx(quiet)
    # ... or in one round only, or with a stall the probes did not see.
    mixed = [_round_of_slices(1.0), _round_of_slices(1.6, spike_at=40),
             _round_of_slices(1.3)]
    assert H.steady_cost(mixed) == pytest.approx(quiet)
    assert H.mean_slowdown(mixed) == pytest.approx(1.3, rel=0.02)
    # A program twice as slow is not the host: it reads twice as slow.
    slower = [[(n, 2 * s, p) for n, s, p in r] for r in mixed]
    assert H.steady_cost(slower) == pytest.approx(2 * quiet)


def test_window_divides_each_sample_by_its_block_slowdown():
    window = H.Window(samples={"read": [], "write": []})
    for i in range(128):
        slow = 2.0 if i >= 64 else 1.0
        window.samples["read"] += [int(1000 * slow)] * 3
        if i % 2:
            window.samples["write"].append(int(5000 * slow))
        window.slices.append((8, 1e-3 * slow, 1e-3 * slow, H.PROBE_REF_S * slow))
        window.marks.append(tuple(len(v) for v in window.samples.values()))
    steady = window.steady_samples()
    assert len(steady["read"]) == 384 and len(steady["write"]) == 64
    assert np.allclose(steady["read"], 1000) and np.allclose(steady["write"], 5000)


# ---------------------------------------------------------------------------
# A corrupted reply is a failed op
# ---------------------------------------------------------------------------


def test_scan_oracle_catches_a_corrupted_reply():
    universe = np.arange(0, 4000, 4, dtype=np.uint64)
    birth = np.full(len(universe), -1, dtype=np.int64)
    birth[10] = 500  # key 40 is inserted by op 500
    when = np.array([100, 900], dtype=np.int64)
    start = np.array([30, 30], dtype=np.uint64)
    # Before op 500 a scan from 30 skips key 40; after, it holds it.
    replies = {
        "n": np.array([5, 5]),
        "first": np.array([32, 32], dtype=np.uint64),
        "last": np.array([52, 48], dtype=np.uint64),
    }

    def wrong(**change):
        r = {k: v.copy() for k, v in replies.items()}
        for field, (row, value) in change.items():
            r[field][row] = value
        return inprocess.check_scans(
            universe, birth, when, start, r["n"], r["first"], r["last"], 5
        )

    assert wrong() == 0
    assert wrong(last=(0, 48)) == 1      # the unborn key leaked into the reply
    assert wrong(n=(1, 4)) == 1          # a short reply
    assert wrong(first=(1, 36)) == 1     # the first key >= start was skipped
    good = [(0, 30, [(k, k) for k in (32, 36, 44, 48, 52)])]
    assert inprocess.check_full_scans(universe, birth, good, 5) == 0
    swapped = [(0, 30, [(k, k) for k in (32, 44, 36, 48, 52)])]
    assert inprocess.check_full_scans(universe, birth, swapped, 5) == 1
    bad_value = [(0, 30, [(32, 32), (36, 99), (44, 44), (48, 48), (52, 52)])]
    assert inprocess.check_full_scans(universe, birth, bad_value, 5) == 1


class _LyingIndex:
    """An index that answers one key wrongly; everything else passes
    through."""

    def __init__(self, inner, victim):
        self._inner, self._victim = inner, victim

    def get(self, key):
        value = self._inner.get(key)
        return value + 1 if key == self._victim else value

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_in_process_window_counts_a_wrong_get_as_failed():
    wl = inprocess.EmbeddedRead()
    scale = inprocess.Scale(8.0, divisor=50)
    inputs = wl.generate(7, scale)
    honest = wl.measure(wl.build(inputs), inputs, scale)
    assert honest.tally.failed == 0 and honest.tally.attempted > len(inputs["gets"])
    sut = wl.build(inputs)
    victim = inputs["gets"][0]
    sut.index = _LyingIndex(sut.index, victim)
    lied = wl.measure(sut, inputs, scale)
    assert lied.tally.failed == inputs["gets"].count(victim) > 0
    assert any("wrong" in note for note in lied.tally.notes)


def test_network_reply_check_counts_wrong_missing_and_error_replies():
    async def scenario():
        loop = asyncio.get_running_loop()
        right, wrong, error, missing = (loop.create_future() for _ in range(4))
        right.set_result(b"\x01\x02")
        wrong.set_result(b"\x01\x03")
        error.set_exception(RuntimeError("refused"))
        expect = [b"\x01\x02"] * 4
        return netload._count_wrong([right, wrong, error, missing], expect)

    assert asyncio.run(scenario()) == 3


def test_runner_exits_nonzero_when_an_op_failed(monkeypatch, capsys):
    import run

    wl = inprocess.EmbeddedRead()
    honest_build = wl.build

    def lying_build(inputs, tracer=None):
        sut = honest_build(inputs, tracer)
        sut.index = _LyingIndex(sut.index, inputs["gets"][0])
        return sut

    monkeypatch.setattr(wl, "build", lying_build)
    monkeypatch.setattr(run, "workloads", lambda: {
        **{w["name"]: None for w in DECLARED["workloads"]}, wl.name: wl,
    })
    code = run.main(["--workload", wl.name, "--smoke", "--seed", "7"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------


def _ledger(path, throughput, failed_ratio=0.0):
    path.write_text(json.dumps({"workloads": {"embedded_read": {"metrics": {
        "throughput_ops_s": throughput, "failed_ops_ratio": failed_ratio,
    }}}}))
    return str(path)


def test_compare_verdicts(tmp_path):
    bound = compare.bounds()["throughput_ops_s"]["bound"]

    def verdicts(base, new, failed=0.0):
        rows = compare.compare(
            [_ledger(tmp_path / f"a{i}.json", v) for i, v in enumerate(base)],
            [_ledger(tmp_path / f"b{i}.json", v, failed) for i, v in enumerate(new)],
        )
        return {r["metric"]: r["verdict"] for r in rows}

    steady = [100.0, 100.5, 99.5, 100.2]
    assert verdicts(steady, steady)["throughput_ops_s"] == "unchanged"
    slower = [v * (1 - 2 * bound) for v in steady]
    assert verdicts(steady, slower)["throughput_ops_s"] == "worse"
    assert verdicts(slower, steady)["throughput_ops_s"] == "better"
    noisy = [100.0, 100.0 * (1 + 2 * bound), 100.0 * (1 - 2 * bound), 101.0]
    assert verdicts(noisy, steady)["throughput_ops_s"] == "unresolved"
    # Any failed op is a regression, whatever the base.
    assert verdicts(steady, steady, failed=1e-6)["failed_ops_ratio"] == "worse"
    assert compare.main([_ledger(tmp_path / "x.json", 100.0),
                         _ledger(tmp_path / "y.json", 50.0)]) == 1
