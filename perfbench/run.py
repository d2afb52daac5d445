"""hotcold benchmark: one workload, timed end to end from outside the package.

    python3 perfbench/run.py --workload grid_serial --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. A run first sets up seven times (fresh-interpreter
import of hotcold, config build, one small warm-up run) and reports the
median set-up, rescaled to a nominal machine speed (refclock.py), as
``setup_s``. It then repeats passes of the workload, each on the same
seed-derived inputs, until ``--seconds`` is used up, and reports the
median pass as ``wall_s`` and, rescaled, as ``wall_adj_s``. With
``--trace 1`` untraced and traced passes take turns, and the per-layer
metrics come from the traced ones.

Every pass is checked (see workloads.py) and its output files are hashed;
all passes must produce the same hashes. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. The full record
(machine, every pass, spans, hashes) goes to .perfbench_out/ in the
checkout. Exit code 0 when every check passed, 1 when one failed, 2 when
the benchmark cannot run at all (for example, no package to import).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
import tracing
from refclock import RefClock
from workloads import WORKLOADS, PassResult, sha256_tree

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
RECORDS = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
READ_INTERVAL_S = 0.1  # reference kernel timer in untraced passes (refclock.py)
SETUP_READ_INTERVAL_S = 0.02  # and in set-ups, whose steps last 0.05-0.3 s

# The end-to-end metrics on the last line for --trace 0; BENCHMARK.json lists the same.
END_TO_END = {"wall_adj_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# numpy is imported before the clock starts: loading its extension modules
# does not slow with the host as interpreted code does (README.md).
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; t = time.perf_counter(); "
    "import hotcold.cli; print(time.perf_counter() - t); print(hotcold.cli.__file__)"
)


class CannotRun(Exception):
    """The benchmark has nothing to measure here."""


def read_proc(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def allowed_cpus() -> int:
    """What `nproc` prints: the CPUs this process may run on."""
    for line in read_proc("/proc/self/status").splitlines():
        if line.startswith("Cpus_allowed_list:"):
            count = 0
            for part in line.split(":", 1)[1].strip().split(","):
                lo, _, hi = part.partition("-")
                count += int(hi or lo) - int(lo) + 1
            return count
    raise CannotRun("no Cpus_allowed_list in /proc/self/status")


def machine_block() -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in read_proc("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    return {
        "nproc": allowed_cpus(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "load_1min_start": float(read_proc("/proc/loadavg").split()[0]),
    }


def import_hotcold():
    sys.path.insert(0, str(SRC))
    try:
        import hotcold.cli
        import hotcold.config
    except ImportError as exc:
        raise CannotRun(f"cannot import hotcold from {SRC}: {exc}") from exc
    if not Path(hotcold.__file__).resolve().is_relative_to(SRC):
        raise CannotRun(f"imported hotcold from {hotcold.__file__}, not from {SRC}")
    return hotcold


def time_import() -> float:
    """Import time of hotcold in a fresh interpreter (start-up and numpy excluded)."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    seconds, where = proc.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise CannotRun(f"fresh interpreter imported hotcold from {where}")
    return float(seconds)


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


class Passes:
    """The passes of one run: all untraced, or with `trace` untraced and
    traced in turn, so that both kinds see the same host speed."""

    def __init__(self, hc, workload, tmp: Path) -> None:
        self.hc = hc
        self.workload = workload
        self.tmp = tmp
        self.walls: dict[bool, list[float]] = {False: [], True: []}  # by traced
        self.adjusted: list[float] = []  # untraced passes, rescaled (refclock.py)
        self.readings: list[int] = []  # kernel readings per pass
        self.results: list[PassResult] = []
        self.kinds: list[bool] = []  # traced, for each of results
        self.hashes: list[dict[str, str]] = []
        self.probe = tracing.RunProbe()
        self.tracer = tracing.Tracer()

    def run(self, budget_s: float, trace: bool) -> None:
        start = time.perf_counter()
        durations = []
        traced = False
        while True:
            begun = time.perf_counter()
            if not self._one_pass(traced):
                break
            durations.append(time.perf_counter() - begun)
            both = self.walls[False] and (self.walls[True] or not trace)
            if both and time.perf_counter() - start + statistics.median(durations) > budget_s:
                break
            traced = trace and not traced

    def _one_pass(self, traced: bool) -> bool:
        out = self.tmp / f"pass{len(self.results)}"
        out.mkdir()
        patcher = tracing.Patcher()
        if traced:
            layers.install(self.hc, self.tracer, patcher)
        else:
            for module, attr in self.workload.probe_sites:
                owner = getattr(self.hc, module)
                patcher.patch(owner, attr, self.probe.time_runs(getattr(owner, attr)))
        # The timer's readings would land inside the spans of a traced pass.
        clock = RefClock(self.workload.numpy_pass, None if traced else READ_INTERVAL_S)
        self.kinds.append(traced)
        try:
            results = clock.time_steps(self.workload.steps(out))
        except Exception:  # a crash is a failed pass: record it and stop
            self.results.append(PassResult(attempted=1, failed=1, problems=[traceback.format_exc()]))
            return False
        finally:
            patcher.restore()
        self.walls[traced].append(clock.seconds)
        if not traced:
            self.adjusted.append(clock.adjusted_s)
        self.readings.append(len(clock.readings))
        try:
            self.results.append(self.workload.check(out, results))
        except Exception:  # outputs the check cannot read are a failed check
            self.results.append(PassResult(attempted=1, failed=1, problems=[traceback.format_exc()]))
        self.hashes.append(sha256_tree(out))
        shutil.rmtree(out)
        return True


def set_up(workload, tmp: Path) -> tuple[float, float]:
    """One set-up in plain and in rescaled seconds: the fresh-interpreter
    import, then the config build and warm-up, each rescaled by the
    pure-Python kernel read around and during it."""
    out = tmp / "warmup"
    clock = RefClock(interval_s=SETUP_READ_INTERVAL_S)
    try:
        import_s, _ = clock.time_steps([time_import, lambda: (workload.prepare(),
                                                               workload.warm_up(out))])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    (probe_s, probe_adj_s), (in_process_s, in_process_adj_s) = clock.steps
    # the probe step also holds the child's start-up; rescale its import alone
    return import_s + in_process_s, import_s * probe_adj_s / probe_s + in_process_adj_s


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def measure(hc, workload, tmp: Path, seconds: float, trace: bool) -> dict:
    setups = [set_up(workload, tmp) for _ in range(SETUP_REPEATS)]

    modules = [getattr(hc, m) for m in ("engine", "experiments", "cli", "analysis", "config",
                                         "trilateration", "channel", "geometry", "tracker")]
    classes = [hc.geometry.Vec2, hc.geometry.Pose]
    before = tracing.snapshot(modules, classes)
    passes = Passes(hc, workload, tmp)
    passes.run(seconds, trace)
    changed = tracing.snapshot_changes(before, tracing.snapshot(modules, classes))

    problems = [p for r in passes.results for p in r.problems]
    problems += [f"not the original object after the passes: {a}" for a in changed]
    if any(h != passes.hashes[0] for h in passes.hashes):
        problems.append("output files differ between passes of the same inputs")

    walls = passes.walls[False]
    untraced_results = [r for r, t in zip(passes.results, passes.kinds) if not t]
    cycles = sum(r.cycles for r in untraced_results)
    samples = passes.probe.run_ms
    tail = tail_percentile(samples)
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    e2e = {
        "setup_s": statistics.median(adj for _, adj in setups),
        "wall_s": median_or_nan(walls),
        "wall_adj_s": median_or_nan(passes.adjusted),
        "cycles_per_s": cycles / sum(walls) if cycles else None,
        "run_ms_p50": statistics.median(samples) if samples else None,
        "run_ms_tail": tail[1] if tail else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children_peak_rss_mb": children_kb / 1024,
    }
    attempted = sum(r.attempted for r in passes.results)
    failed = sum(r.failed for r in passes.results)
    e2e["failed_frac"] = failed / attempted if attempted else None
    record = {
        "workload": workload.name,
        "why": workload.why,
        "loads": workload.loads,
        "bypasses": workload.bypasses,
        "setup_s_repeats": [adj for _, adj in setups],
        "setup_s_plain_repeats": [plain for plain, _ in setups],
        "untraced_walls_s": walls,
        "wall_s_quartiles": quartiles(walls) if walls else [],
        "untraced_walls_adj_s": passes.adjusted,
        "kernel_readings_per_pass": passes.readings,
        "cycles_per_pass": untraced_results[0].cycles if untraced_results else 0,
        "run_ms_samples": len(samples),
        "run_ms_tail_percentile": tail[0] if tail else None,
        "end_to_end": e2e,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "outputs_sha256": passes.hashes[0] if passes.hashes else {},
        "passes": {"untraced": len(walls)},
    }
    if trace:
        tracer = passes.tracer
        traced_walls = passes.walls[True]
        values, missing = layers.per_layer_metrics(
            tracer, len(traced_walls), median_or_nan(traced_walls), e2e["wall_s"])
        silent = [s for s in workload.expected_spans
                  if tracer.spans.get(s, tracing.Span(s)).calls == 0]
        problems += [f"traced wrapper {s} counted zero calls" for s in silent]
        record["passes"]["traced"] = len(traced_walls)
        record["traced_walls_s"] = traced_walls
        record["per_layer"] = values
        record["per_layer_missing"] = missing
        record["expected_spans"] = list(workload.expected_spans)
        record["spans"] = {n: s.to_dict() for n, s in sorted(tracer.spans.items())}
    return record


def print_table(record: dict, trace: bool) -> None:
    e2e = record["end_to_end"]
    units = {"setup_s": "s", "wall_s": "s", "wall_adj_s": "s", "cycles_per_s": "1/s",
             "run_ms_p50": "ms", "run_ms_tail": "ms", "peak_rss_mb": "MB",
             "children_peak_rss_mb": "MB", "failed_frac": "frac"}
    print(f"workload {record['workload']}: {record['passes']} passes")
    for name, unit in units.items():
        value = e2e[name]
        shown = "n/a (not measured on this workload)" if value is None else f"{value:.6g}"
        extra = ""
        if name == "run_ms_tail" and value is not None:
            extra = f"  (p{record['run_ms_tail_percentile']} of {record['run_ms_samples']} runs)"
        print(f"  {name:<22} {shown} {unit if value is not None else ''}{extra}")
    if trace:
        for name, unit in layers.PER_LAYER_UNITS.items():
            note = record["per_layer_missing"].get(name)
            print(f"  {name:<46} {record['per_layer'][name]:.6g} {unit}"
                  + (f"  (missing: {note})" if note else ""))
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale")
    args = parser.parse_args(argv)

    try:
        machine = machine_block()
        hc = import_hotcold()
        import numpy

        machine["numpy"] = numpy.__version__
        workload = WORKLOADS[args.workload](hc, args.seed, args.tiny)
        SCRATCH.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
                record = measure(hc, workload, Path(tmp), args.seconds, bool(args.trace))
        finally:
            with contextlib.suppress(OSError):  # another run still uses it
                SCRATCH.rmdir()
    except CannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    machine["load_1min_end"] = float(read_proc("/proc/loadavg").split()[0])
    record["machine"] = machine
    record["seed"] = args.seed
    record["seconds"] = args.seconds

    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_table(record, bool(args.trace))
    print(f"full record: {path}")

    correct = not record["problems"] and record["failed"] == 0
    if args.trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
