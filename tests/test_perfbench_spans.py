"""One traced benchmark pass of each workload, at the benchmark's tiny scale.

The benchmark in perfbench/ times each traced function through a wrapper on
the module attribute that its caller looks the function up on, and some
wrappers read the function's arguments or result. A rename or a new
signature can leave a wrapper counting nothing, or make it fail. This test
runs one traced pass of `grid_serial`, `traced_runs` and `sweeps`, and
checks that every span the workload expects counted calls, that the
workload's own gates pass, and that every patched attribute is the original
object again afterwards; a workload that reaches the cycle loop must also
count Hot-Cold comparisons. It makes no timing assertions and only imports
perfbench.
"""

import sys
from pathlib import Path

import pytest

import hotcold.cli
import hotcold.config

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import layers
    import tracing
    from workloads import GridSerial, Sweeps, TracedRuns
finally:
    sys.path.remove(PERFBENCH)

MODULES = ("engine", "experiments", "cli", "analysis", "config", "trilateration", "channel",
           "geometry", "tracker")


@pytest.mark.parametrize("workload_type", [GridSerial, TracedRuns, Sweeps], ids=lambda w: w.name)
def test_traced_pass_counts_every_expected_span(workload_type, tmp_path):
    modules = [getattr(hotcold, name) for name in MODULES]
    classes = [hotcold.geometry.Vec2, hotcold.geometry.Pose]
    before = tracing.snapshot(modules, classes)
    workload = workload_type(hotcold, seed=1, tiny=True)
    workload.prepare()

    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    layers.install(hotcold, tracer, patcher)
    try:
        results = [step() for step in workload.steps(tmp_path)]
    finally:
        patcher.restore()

    assert tracing.snapshot_changes(before, tracing.snapshot(modules, classes)) == []
    checked = workload.check(tmp_path, results)
    assert (checked.problems, checked.failed) == ([], 0)
    silent = [name for name in workload.expected_spans
              if name not in tracer.spans or tracer.spans[name].calls == 0]
    assert silent == []
    if workload_type is not Sweeps:  # the engine workloads
        assert tracer.spans["tracker.ingest_sample"].counts["comparisons"] > 0
