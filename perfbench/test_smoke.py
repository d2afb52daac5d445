"""Smoke test of the benchmark at a tiny scale.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every named metric is printed with its unit, that the traced
wrappers each workload relies on count calls, that the package's modules
are unchanged after a traced pass, that BENCHMARK.json matches the code,
that the reference clock reads its kernel where the benchmark says, and
that the benchmark refuses to run where there is no package.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import layers
import run
import tracing
from refclock import RefClock
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    for workload in SPEC["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER_UNITS.items())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = result_line(proc)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == layers.PER_LAYER_UNITS
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed5-trace1.json").read_text())
    # problems would name any expected wrapper that counted no calls and any
    # attribute left patched
    assert record["problems"] == []
    assert all(record["spans"][s]["calls"] > 0 for s in record["expected_spans"])
    assert record["passes"]["untraced"] >= 1 and record["passes"]["traced"] >= 1
    for name in layers.PER_LAYER_UNITS:
        assert name in proc.stdout


def test_untraced_run_prints_end_to_end_metrics():
    proc = bench("--workload", "traced_runs", "--seed", "6", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = result_line(proc)
    assert {name: m["unit"] for name, m in line["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())
    for name in ("setup_s", "wall_s", "cycles_per_s", "run_ms_p50", "run_ms_tail",
                 "peak_rss_mb", "children_peak_rss_mb", "failed_frac"):
        assert name in proc.stdout


def test_patches_are_undone():
    hc = run.import_hotcold()
    modules = [hc.engine, hc.experiments, hc.cli, hc.analysis, hc.config, hc.trilateration]
    classes = [hc.geometry.Vec2, hc.geometry.Pose]
    before = tracing.snapshot(modules, classes)
    patcher = tracing.Patcher()
    layers.install(hc, tracing.Tracer(), patcher)
    assert tracing.snapshot_changes(before, tracing.snapshot(modules, classes))
    patcher.restore()
    assert tracing.snapshot_changes(before, tracing.snapshot(modules, classes)) == []


def test_refclock_reads_between_steps_and_on_the_timer():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    clock = RefClock(interval_s=0.05)
    assert clock.time_steps([busy, lambda: 7]) == [None, 7]
    # before, after each step, and at least four timer ticks within the busy step
    assert len(clock.readings) >= 3 + 4
    assert len(clock.stretch_seconds) == len(clock.stretch_slowdowns) == len(clock.readings) - 1
    assert 0.2 < clock.seconds < 0.3  # the kernels' own time is left out
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_refuses_to_run_without_the_package():
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "sweeps", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=bare)
    finally:
        with contextlib.suppress(OSError):
            scratch.rmdir()
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
