"""The benchmark workloads and their correctness gates.

Every workload builds its inputs from the workload seed alone and runs the
same inputs in every pass, so the files of each pass must hash the same.
A pass calls the package through module attributes (``hc.experiments.
run_grid``, ``hc.cli.main``) so that the traced pass's wrappers see it.
`tiny` shrinks each workload for the smoke test; the gates stay the same
wherever the shrunken inputs still determine the answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

EXHAUSTIVE_RUNS = 7_534_800  # 23 angles x 91 ranges x 360 bearings x 10 stop radii
GRID_FIGURES = (
    ("average_distance_m", "fig5.csv", "fig8.csv"),
    ("cycles_in_range_pct", "fig6.csv", "fig9.csv"),
    ("cycles_in_halt_pct", "fig7.csv", "fig10.csv"),
)
KPIS = ("average_distance_m", "cycles_in_range_pct", "cycles_in_halt_pct")


@dataclass
class PassResult:
    """What one pass attempted and what its gates found."""

    attempted: int = 0
    failed: int = 0
    cycles: int = 0  # simulated world cycles; 0 for the sweeps
    problems: list[str] = field(default_factory=list)


def sha256_tree(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def run_cli(hc, argv: list[str]) -> int:
    """In-process `hotcold` command with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return hc.cli.main(argv)
        except SystemExit as exc:  # argparse and verify-lemmas exit this way
            return exc.code if isinstance(exc.code, int) else 1


def _check_kpis(where: str, row: dict, total_cycles: int, problems: list[str]) -> None:
    for key in KPIS:
        if not math.isfinite(float(row[key])):
            problems.append(f"{where}: {key} is {row[key]}")
    if int(row["total_cycles"]) != total_cycles:
        problems.append(f"{where}: total_cycles {row['total_cycles']} != {total_cycles}")


def _missing(out: Path, names: list[str], problems: list[str]) -> None:
    problems.extend(f"{name} not written" for name in names if not (out / name).is_file())


def _fig12_cycles(path: Path, iterations: int, cycles_per_run: int, problems: list[str]) -> int:
    rows = path.read_text().splitlines()[1:]  # one time-zero row per iteration, then cycles
    expected = iterations * (cycles_per_run + 1)
    if len(rows) != expected:
        problems.append(f"{path.name}: {len(rows)} rows, expected {expected}")
    return len(rows) - iterations


class Workload:
    name = ""
    why = ""
    loads = ""
    bypasses = ""
    expected_spans: tuple[str, ...] = ()
    numpy_pass = False  # rescale pass time by the numpy reference kernel (refclock.py)
    # (module, attribute) of run_simulation as the package calls it; every
    # call is timed in untraced passes for run_ms_p50 and run_ms_tail
    probe_sites: tuple[tuple[str, str], ...] = ()

    def __init__(self, hc, seed: int, tiny: bool) -> None:
        self.hc = hc
        self.seed = seed
        self.tiny = tiny

    def prepare(self) -> None:
        """Build the workload's configs; part of set-up."""

    def warm_up(self, out: Path) -> None:
        """One small untimed run; part of set-up."""

    def steps(self, out: Path) -> list[Callable[[], object]]:
        """The timed pass as the calls the benchmark makes into the package,
        in order; check() gets their results. The reference kernel is read
        between steps (refclock.py)."""
        raise NotImplementedError

    def check(self, out: Path, results: list) -> PassResult:
        raise NotImplementedError


ENGINE_SPANS = (
    "channel.rssi", "geometry.advance", "geometry.rotate", "geometry.objects",
    "tracker.ingest_sample", "engine.step_world", "engine.init_world",
    "engine.compute_metrics", "engine.run_simulation",
)
TRILATERATION_SPANS = (
    "trilateration.record_observation", "trilateration.update_estimate",
    "trilateration.decide", "trilateration.estimate_target",
)
SWEEP_SPANS = ("analysis.rotation_sweep", "analysis.exhaustive_sweep", "analysis.verify_convergence")


class GridSerial(Workload):
    name = "grid_serial"
    why = ("default SWS x sigma x tracker grid at 2 runs per point (168 worlds of 2000 cycles), "
           "figs 5-10 written, 1 worker: the cycle loop alone, where engine changes show first")
    loads = "engine, channel, geometry, tracker, trilateration, experiments (run_grid, writers)"
    bypasses = "analysis, cli, process pool; config only in set-up"
    expected_spans = ENGINE_SPANS + TRILATERATION_SPANS + (
        "engine.random_waypoint_step", "experiments.run_grid", "experiments.write_figures",
    )
    probe_sites = (("experiments", "run_simulation"),)
    RUNS_PER_POINT = 2

    def prepare(self) -> None:
        cfg = self.hc.config.default_config()
        cfg["grid"]["master_seed"] = str(self.seed)
        cfg["grid"]["runs_per_point"] = str(1 if self.tiny else self.RUNS_PER_POINT)
        if self.tiny:
            cfg["world"]["duration_s"] = "50"
            cfg["grid"]["sws_values"] = "3,4"
            cfg["grid"]["sigma_values"] = "0,2"
        self.grid = self.hc.config.build_grid(cfg, self.hc.config.build_world(cfg))

    def warm_up(self, out: Path) -> None:
        tracker, sws, sigma = self.grid.points()[0]
        x = self.hc.experiments
        seed = x.derive_seed(self.seed, self.name)
        x.run_simulation(x.grid_world_config(self.grid, tracker, sws, sigma, seed))

    def steps(self, out: Path) -> list[Callable[[], object]]:
        return [lambda: self._grid_pass(out)]

    def _grid_pass(self, out: Path):
        x = self.hc.experiments
        result = x.run_grid(self.grid, workers=1)
        x.write_grid_runs_csv(result, out)
        for metric, sws_fig, sigma_fig in GRID_FIGURES:
            x.write_sws_difference_csv(result, metric, sws_fig, out)
            x.write_sigma_comparison_csv(result, metric, sigma_fig, out)
        return result

    def check(self, out: Path, results: list) -> PassResult:
        (result,) = results
        grid = self.grid
        res = PassResult(attempted=len(grid.points()) * grid.runs_per_point,
                         failed=len(result.failures))
        res.problems.extend(f"run failed: {f}" for f in result.failures)
        total_cycles = grid.base.total_cycles
        for point in result.points:
            for seed, report in zip(point.seeds, point.runs):
                row = report.to_dict()
                _check_kpis(f"{point.tracker}/{point.sws}/{point.sigma}/{seed}", row,
                            total_cycles, res.problems)
                res.cycles += report.total_cycles
        _missing(out, ["grid_runs.csv"] + [f for _, a, b in GRID_FIGURES for f in (a, b)],
                 res.problems)
        return res


class Sweeps(Workload):
    name = "sweeps"
    why = ("rotation_sweep, exhaustive_sweep and verify_convergence(10000), figs 2-4 written: "
           "numpy kernels only, the control for engine changes")
    loads = "analysis, experiments (fig2-4 writers)"
    bypasses = "engine, channel, geometry, tracker, trilateration, config, cli"
    expected_spans = SWEEP_SPANS + ("experiments.write_figures",)
    numpy_pass = True

    def prepare(self) -> None:
        a = self.hc.analysis
        self.rotation_phis = range(137, 142) if self.tiny else a.DEFAULT_PHI_RANGE
        self.exhaustive_phis = range(134, 137) if self.tiny else a.DEFAULT_PHI_RANGE
        self.trials = 1_000 if self.tiny else 10_000
        self.rng_seed = self.hc.experiments.derive_seed(self.seed, self.name)

    def warm_up(self, out: Path) -> None:
        a = self.hc.analysis
        a.rotation_sweep(phi_range=range(139, 140), epsilon_range=range(0, 5))
        a.exhaustive_sweep(phi_range=range(135, 136), rho_range=range(10, 13),
                           beta_range=range(0, 360, 30))
        a.verify_convergence(100, rng=np.random.default_rng(self.rng_seed))

    def steps(self, out: Path) -> list[Callable[[], object]]:
        return [lambda: self._sweeps(out)]

    def _sweeps(self, out: Path):
        a, x = self.hc.analysis, self.hc.experiments
        rotation = a.rotation_sweep(phi_range=self.rotation_phis)
        x.write_rotation_sweep_csvs(rotation, out)
        exhaustive = a.exhaustive_sweep(phi_range=self.exhaustive_phis)
        x.write_exhaustive_csv(exhaustive, out)
        convergence = a.verify_convergence(self.trials, rng=np.random.default_rng(self.rng_seed))
        return rotation, exhaustive, convergence

    def check(self, out: Path, results: list) -> PassResult:
        ((rotation, exhaustive, convergence),) = results
        res = PassResult(attempted=3)
        p = res.problems
        best = rotation.summary(rotation.best_phi)
        if rotation.best_phi != 139 or round(best.overall_mean, 2) != 16.78 or best.percent_valid != 100.0:
            p.append(f"rotation sweep: {rotation.best_phi} deg, mean {best.overall_mean}, "
                     f"{best.percent_valid}% valid; expected 139 deg, 16.78, 100%")
        mean = exhaustive.overall_means[exhaustive.best_phi]
        if exhaustive.best_phi != 135 or round(mean, 3) != 75.876 or exhaustive.cap_hits:
            p.append(f"exhaustive sweep: {exhaustive.best_phi} deg, mean {mean}, "
                     f"{exhaustive.cap_hits} cap hits; expected 135 deg, 75.876, 0")
        a = self.hc.analysis
        runs = (len(self.exhaustive_phis) * len(a.DEFAULT_RHO_RANGE) * len(a.DEFAULT_BETA_RANGE)
                * len(a.DEFAULT_TAU_RANGE))
        if exhaustive.total_runs != runs or (not self.tiny and runs != EXHAUSTIVE_RUNS):
            p.append(f"exhaustive sweep ran {exhaustive.total_runs} runs, expected {runs}")
        if convergence.total_violations or convergence.trials != self.trials:
            p.append(f"convergence: {convergence.total_violations} violations "
                     f"in {convergence.trials} trials")
        _missing(out, ["fig2.csv", "fig3.csv", "fig4.csv"], p)
        return res


class TracedRuns(Workload):
    name = "traced_runs"
    why = ("in-process `simulate` runs at sigma 2 dB, Hot-Cold and trilateration, two obstacles, "
           "trace.csv written, plus the three fig12 scenarios: per-run set-up, sensors and trace")
    loads = ("cli, config, engine (trace, obstacle sensors, fixed-path and static-target "
             "mobility), channel, geometry, tracker, trilateration, experiments (run_scenario)")
    bypasses = "analysis, run_grid, process pool"
    expected_spans = ENGINE_SPANS + TRILATERATION_SPANS + (
        "engine.random_waypoint_step", "engine.sensor_reading_cm", "engine.trace_csv_lines",
        "experiments.run_scenario", "experiments.write_figures", "config.build_world",
        "cli.main.simulate", "cli.main.scenario",
    )
    probe_sites = (("cli", "run_simulation"), ("experiments", "run_simulation"))
    SIMULATIONS = 20
    OBSTACLES = "38:44:44:48; 55:52:58:60"
    SCENARIO_ITERATIONS = 4

    def prepare(self) -> None:
        duration = ["--set", "world.duration_s=50"] if self.tiny else []
        self.iterations = 1 if self.tiny else self.SCENARIO_ITERATIONS
        sims = 2 if self.tiny else self.SIMULATIONS
        self.calls: list[tuple[str, list[str]]] = []
        for i in range(sims):
            tracker = "hotcold" if i % 2 == 0 else "trilateration"
            seed = self.hc.experiments.derive_seed(self.seed, self.name, i)
            self.calls.append((f"sim{i:02d}", [
                "--seed", str(seed), "--set", "channel.shadowing_sigma_db=2",
                "--set", f"world.tracker={tracker}", "--set", f"world.obstacles={self.OBSTACLES}",
                *duration, "simulate",
            ]))
        for name in self.hc.experiments.SCENARIO_NAMES:
            self.calls.append((name, [
                "--seed", str(self.seed), "--runs", str(self.iterations),
                "scenario", "--preset", name, "--sigma", "2",
            ]))
        parser = self.hc.cli.build_parser()
        cfg = self.hc.config
        for _, argv in self.calls:
            args = parser.parse_args(argv)
            if args.command == "simulate":
                world = cfg.default_config()
                cfg.apply_overrides(world, args.overrides)
                world["world"]["seed"] = str(args.seed)
                self.sim_cycles = cfg.build_world(world).total_cycles
        self.scenario_cycles = self.hc.experiments.scenario_preset("scenario1").total_cycles

    def warm_up(self, out: Path) -> None:
        name, argv = self.calls[0]
        run_cli(self.hc, ["--out-dir", str(out / name), *argv])

    def steps(self, out: Path) -> list[Callable[[], object]]:
        return [lambda name=name, argv=argv: run_cli(self.hc, ["--out-dir", str(out / name), *argv])
                for name, argv in self.calls]

    def check(self, out: Path, codes: list) -> PassResult:
        res = PassResult(attempted=len(self.calls))
        p = res.problems
        for (name, argv), code in zip(self.calls, codes):
            if code != 0:
                res.failed += 1
                p.append(f"{name}: exit code {code}")
                continue
            if argv[-1] == "simulate":
                metrics = json.loads((out / name / "metrics.json").read_text())
                _check_kpis(name, metrics, self.sim_cycles, p)
                lines = (out / name / "trace.csv").read_text().count("\n")
                if lines != self.sim_cycles + 1:
                    p.append(f"{name}/trace.csv: {lines} lines, expected {self.sim_cycles + 1}")
                res.cycles += metrics["total_cycles"]
            else:
                path = out / name / f"fig12_{argv[-3]}.csv"
                if not path.is_file():
                    p.append(f"{path.name} not written")
                    continue
                res.cycles += _fig12_cycles(path, self.iterations, self.scenario_cycles, p)
        return res


WORKLOADS = {w.name: w for w in (GridSerial, Sweeps, TracedRuns)}
