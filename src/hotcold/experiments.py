"""Experiment grids, scenario presets, and figure-table emission.

All seeds derive from a master seed through a stable hash, so every grid,
scenario, and report rerun with the same master seed is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from typing import TYPE_CHECKING

from .engine import (
    MetricsReport,
    StaticControl,
    Tracker,
    WorldConfig,
    run_simulation,
    target_path,
)
from .geometry import distance
from .tracker import HotColdConfig
from .trilateration import TrilaterationConfig

if TYPE_CHECKING:  # the writers' annotations only: analysis loads when a sweep runs
    from .analysis import ConvergenceReport, ExhaustiveSweepResult, RotationSweepResult


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and any parts. run_scenario
    passes its sigma as a float: str(2) and str(2.0) hash apart."""
    import hashlib  # loaded on first use: simulate never derives a seed

    text = "|".join([str(master_seed), *map(str, parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# grid runner


@dataclass(frozen=True)
class ExperimentGrid:
    """SWS x sigma x tracker sweep around a base world; each tracker config
    runs as given, the Hot-Cold one at every SWS of the axis."""

    sws_values: tuple[int, ...] = tuple(range(1, 11))
    sigma_values: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    trackers: tuple[Tracker, ...] = (HotColdConfig(), TrilaterationConfig(), StaticControl())
    runs_per_point: int = 5
    master_seed: int = 1
    comparison_sws: tuple[int, ...] = (3, 4, 5, 6, 7)
    base: WorldConfig = WorldConfig()

    def __post_init__(self) -> None:
        if not self.sws_values or not self.sigma_values or not self.trackers:
            raise ValueError("grid axes must be non-empty")
        for name, low in (("runs_per_point", 1), ("master_seed", 0)):
            if (value := getattr(self, name)) < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if len(set(self.tracker_names)) < len(self.trackers):
            raise ValueError(f"grid trackers repeat a name: {self.tracker_names}")
        for name in ("sws_values", "sigma_values", "comparison_sws"):  # a repeat runs twice
            if len(set(values := getattr(self, name))) < len(values):
                raise ValueError(f"grid.{name} repeats a value: {values}")
        # every point's channel and tracker config must build: their own checks
        for sigma in self.sigma_values:
            replace(self.base.channel, shadowing_sigma_db=sigma)
        for config in self.trackers:
            for sws in self.sws_values if hasattr(config, "sws") else ():
                replace(config, sws=sws)

    @property
    def tracker_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.trackers)

    def points(self) -> list[tuple[str, int | None, float]]:
        """Grid points as (tracker, sws, sigma); sws only varies for hotcold."""
        pts: list[tuple[str, int | None, float]] = []
        for tracker in self.tracker_names:
            sws_axis = self.sws_values if tracker == "hotcold" else (None,)
            for sws in sws_axis:
                for sigma in self.sigma_values:
                    pts.append((tracker, sws, sigma))
        return pts


def grid_world_config(grid: ExperimentGrid, tracker: str, sws: int | None, sigma: float, seed: int) -> WorldConfig:
    channel = replace(grid.base.channel, shadowing_sigma_db=sigma)
    config = grid.trackers[grid.tracker_names.index(tracker)]
    if sws is not None:
        config = replace(config, sws=sws)
    return replace(grid.base, channel=channel, tracker=config, seed=seed)


@dataclass(frozen=True)
class GridPoint:
    tracker: str
    sws: int | None
    sigma: float
    seeds: tuple[int, ...]
    runs: tuple[MetricsReport, ...]

    def mean(self, metric: str) -> float:
        """Mean over the runs; NaN when every run of the point failed."""
        if not self.runs:
            return math.nan
        values = [getattr(r, metric) for r in self.runs]
        return math.fsum(values) / len(values)  # statistics.fmean's own sum

    def std(self, metric: str) -> float:
        return _std([getattr(r, metric) for r in self.runs])


def _std(values: list[float]) -> float:
    """Sample std; 0 for one value, NaN for none or when any value is NaN."""
    if not values or any(math.isnan(v) for v in values):
        return math.nan
    import statistics  # loaded on first use, with fractions and decimal

    return statistics.stdev(values) if len(values) > 1 else 0.0


@dataclass(frozen=True)
class GridResult:
    grid: ExperimentGrid
    points: tuple[GridPoint, ...]
    seeds: tuple[int, ...]  # run index r's seed; a point's seeds skip its failed runs
    failures: tuple[str, ...] = ()

    @cached_property
    def _points(self) -> dict[tuple[str, int | None, float], GridPoint]:
        return {(p.tracker, p.sws, p.sigma): p for p in self.points}

    def point(self, tracker: str, sws: int | None, sigma: float) -> GridPoint:
        return self._points[tracker, sws, sigma]


def _run_point(config: WorldConfig, path) -> tuple[MetricsReport, None] | tuple[None, str]:
    try:
        return run_simulation(config, path=path), None
    except Exception as exc:  # recorded, never aborts the grid
        return None, f"{type(exc).__name__}: {exc}"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _record_path(config: WorldConfig) -> tuple[array, array]:
    """The target's start and its position after each cycle, as x and y
    arrays of exactly total_cycles + 1 doubles each."""
    n = config.total_cycles + 1
    xs, ys = array("d", [0.0]) * n, array("d", [0.0]) * n
    for i, (x, y) in zip(range(n), target_path(config)):
        xs[i] = x
        ys[i] = y
    return xs, ys


def _run_seed(grid: ExperimentGrid, seed: int) -> list[tuple[MetricsReport | None, str | None]]:
    """_run_point of every point's world on `seed`, in grid.points() order.
    The worlds differ only in tracker and channel, which the target's path
    never reads, so it is recorded once and replayed to each; if the
    recording fails, every world fails with it."""
    configs = [grid_world_config(grid, *point, seed) for point in grid.points()]
    try:
        xs, ys = _record_path(configs[0])
    except Exception as exc:
        return [(None, f"{type(exc).__name__}: {exc}")] * len(configs)
    return [_run_point(config, zip(xs, ys)) for config in configs]


def run_grid(grid: ExperimentGrid, workers: int = 1) -> GridResult:
    """Run every (tracker, sws, sigma) point of the grid, runs_per_point times.

    Common random numbers: run r of every point has the seed
    derive_seed(master_seed, r), so it sees the same target path and the
    same standard normals, scaled by its own sigma; each world is the
    `simulate --seed` run of that seed with the point's keys. A job is one
    run index. The pool gets min(workers, runs_per_point, usable CPUs)
    processes, all started at the first submit; at one it is skipped and
    the jobs go in-process. Results are gathered in job order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = [derive_seed(grid.master_seed, run) for run in range(grid.runs_per_point)]
    job = partial(_run_seed, grid)
    pool_size = min(workers, len(seeds), usable_cpus())
    if pool_size > 1:
        # imported here: the module costs every command's start-up otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(job, seeds))
    else:
        outcomes = list(map(job, seeds))

    points: list[GridPoint] = []
    failures: list[str] = []
    for i, point in enumerate(grid.points()):
        ran: list[int] = []
        reports: list[MetricsReport] = []
        for seed, results in zip(seeds, outcomes):
            report, error = results[i]
            if report is None:
                failures.append(f"{point} seed={seed}: {error}")
                continue
            ran.append(seed)
            reports.append(report)
        points.append(GridPoint(*point, tuple(ran), tuple(reports)))
    return GridResult(grid, tuple(points), tuple(seeds), tuple(failures))


# ---------------------------------------------------------------------------
# scenario presets

SCENARIO_SIGMA_DB = 2.0  # `scenario --sigma` default; `report` runs fig12 at it
SCENARIO_ITERATIONS = 4

# Gym-scale presets as [world] keys laid over the default config (Hot-Cold at
# its default SWS 4): standing, straight-line and zigzag target paths. The space
# covers every declared waypoint (the straight-line path ends outside the
# nominal 35x40 room). The timed paths own the target kinematics: where a
# path's implied speed disagrees with the nominal target speed, the waypoint
# times win.
_GYM = {"width_m": "55", "height_m": "45", "duration_s": "60",
        "robot_speed_kmh": "10", "target_speed_kmh": "5"}
SCENARIO_WORLDS = {
    "scenario1": {**_GYM, "mobility": "fixed_path", "fixed_path": "0:5:5",
                  "robot_start_x_m": "30", "robot_start_y_m": "35", "robot_heading_deg": "50"},
    "scenario2": {**_GYM, "mobility": "fixed_path", "fixed_path": "0:5:5; 28:50:35",
                  "robot_start_x_m": "30", "robot_start_y_m": "5"},
    "scenario3": {**_GYM, "mobility": "fixed_path",
                  "fixed_path": "0:5:5; 10:5:11.5; 30:30:25; 50.5:5:35",
                  "robot_start_x_m": "30", "robot_start_y_m": "5"},
}
SCENARIO_NAMES = tuple(SCENARIO_WORLDS)


def scenario_preset(name: str, sigma_db: float = SCENARIO_SIGMA_DB, seed: int = 1) -> WorldConfig:
    """The world of preset `name`: its keys, the shadowing sigma and the seed
    over the default config, built as `simulate` builds one."""
    from .config import build_world, default_config  # imported here: config imports this module

    if name not in SCENARIO_WORLDS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    cfg = default_config()
    cfg["world"].update(SCENARIO_WORLDS[name], seed=str(seed))
    cfg["channel"]["shadowing_sigma_db"] = str(sigma_db)
    return build_world(cfg)


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    configs: tuple[WorldConfig, ...]
    distances: tuple[tuple[tuple[float, float], ...], ...]  # (time_s, distance_m) per cycle
    metrics: tuple[MetricsReport, ...]


def run_scenario(
    name: str,
    iterations: int = SCENARIO_ITERATIONS,
    sigma_db: float = SCENARIO_SIGMA_DB,
    master_seed: int = 1,
) -> ScenarioResult:
    for arg, value, low in (("iterations", iterations, 1), ("master_seed", master_seed, 0)):
        if value < low:
            raise ValueError(f"{arg} must be >= {low}, got {value}")
    configs = []
    distances = []
    metrics = []
    for i in range(iterations):
        cfg = scenario_preset(name, sigma_db, derive_seed(master_seed, name, float(sigma_db), i))
        gaps = []  # fig12's column: each cycle's time and robot-target distance
        report = run_simulation(cfg, sink=lambda trace: gaps.extend(
            (r.time_s, math.hypot(r.robot_x - r.target_x, r.robot_y - r.target_y)) for r in trace))
        configs.append(cfg)
        distances.append(tuple(gaps))
        metrics.append(report)
    return ScenarioResult(name, tuple(configs), tuple(distances), tuple(metrics))


# ---------------------------------------------------------------------------
# CSV / JSON emission


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{x:.6f}"


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rotation_sweep_csvs(result: RotationSweepResult, out_dir: Path) -> list[Path]:
    """fig2.csv: mean turns per (phi, epsilon), X = unreachable bearings;
    fig3.csv: per-phi overall mean and percent of valid epsilon cells."""
    out_dir = Path(out_dir)
    eps_values = sorted({c.epsilon_deg for c in result.cells})
    phi_values = sorted({c.phi_deg for c in result.cells})
    lines = ["phi_deg," + ",".join(f"eps_{e}" for e in eps_values) + ",overall_mean"]
    for phi in phi_values:
        row = [str(phi)]
        for eps in eps_values:
            cell = result.cell(phi, eps)
            row.append(_fmt(cell.mean_rotations) if cell.valid else "X")
        row.append(_fmt(result.summary(phi).overall_mean))
        lines.append(",".join(row))
    fig2 = out_dir / "fig2.csv"
    _write_lines(fig2, lines)

    lines = ["phi_deg,overall_mean_rotations,percent_valid"]
    for s in result.summaries:
        lines.append(f"{s.phi_deg},{_fmt(s.overall_mean)},{_fmt(s.percent_valid)}")
    fig3 = out_dir / "fig3.csv"
    _write_lines(fig3, lines)
    return [fig2, fig3]


def write_exhaustive_csv(result: ExhaustiveSweepResult, out_dir: Path) -> Path:
    """fig4.csv: mean steps per (phi, tau) plus the per-phi overall mean."""
    out_dir = Path(out_dir)
    taus = sorted({c.tau for c in result.cells})
    phis = sorted(result.overall_means)
    lines = ["phi_deg," + ",".join(f"tau_{t}" for t in taus) + ",overall_mean"]
    for phi in phis:
        row = [str(phi)]
        for tau in taus:
            row.append(_fmt(result.cell(phi, tau).mean_steps))
        row.append(_fmt(result.overall_means[phi]))
        lines.append(",".join(row))
    path = out_dir / "fig4.csv"
    _write_lines(path, lines)
    return path


def write_grid_runs_csv(result: GridResult, out_dir: Path) -> Path:
    """grid_runs.csv: one row per run with its run index, its seed and all
    KPIs, which are the keys of MetricsReport.to_dict in its order: ints as
    they are, floats through _fmt."""
    kpis = MetricsReport(math.nan, 0, 0, 0).to_dict()  # an empty run's report, for its keys
    lines = [",".join(("tracker,sws,sigma_db,run,seed", *kpis))]
    run_of = {seed: str(run) for run, seed in enumerate(result.seeds)}
    for p in sorted(result.points, key=lambda p: (p.tracker, p.sws or 0, p.sigma)):
        sws = "" if p.sws is None else str(p.sws)
        for seed, rep in zip(p.seeds, p.runs):
            cells = (str(v) if isinstance(v, int) else _fmt(v) for v in rep.to_dict().values())
            lines.append(",".join((p.tracker, sws, _fmt(p.sigma), run_of[seed], str(seed), *cells)))
    path = Path(out_dir) / "grid_runs.csv"
    _write_lines(path, lines)
    return path


def write_sws_difference_csv(result: GridResult, metric: str, filename: str, out_dir: Path) -> Path:
    """fig5/6/7-style: per (sws, sigma), the hotcold mean KPI and its gap to the
    best SWS at that sigma (minimum for distance, maximum otherwise), plus the
    per-SWS mean and std of the gap across sigma. A point whose runs all
    failed prints nan and is not a candidate for the best SWS."""
    hc = [p for p in result.points if p.tracker == "hotcold"]
    if not hc:
        raise ValueError("grid has no hotcold points")
    sws_values = sorted({p.sws for p in hc})
    sigmas = sorted({p.sigma for p in hc})
    best_is_min = metric == "average_distance_m"

    means = {(p.sws, p.sigma): p.mean(metric) for p in hc}
    stds = {(p.sws, p.sigma): p.std(metric) for p in hc}
    diffs: dict[tuple[int, float], float] = {}
    for sigma in sigmas:
        column = [m for m in (means[(sws, sigma)] for sws in sws_values) if not math.isnan(m)]
        best = (min(column) if best_is_min else max(column)) if column else math.nan
        for sws in sws_values:
            diffs[(sws, sigma)] = (
                means[(sws, sigma)] - best if best_is_min else best - means[(sws, sigma)]
            )

    lines = [f"sws,sigma_db,mean_{metric},std_{metric},diff_from_best"]
    for sws in sws_values:
        for sigma in sigmas:
            lines.append(
                f"{sws},{_fmt(sigma)},{_fmt(means[(sws, sigma)])},"
                f"{_fmt(stds[(sws, sigma)])},{_fmt(diffs[(sws, sigma)])}"
            )
    lines.append("")
    lines.append("sws,mean_diff_across_sigma,std_diff_across_sigma")
    for sws in sws_values:
        gaps = [diffs[(sws, sigma)] for sigma in sigmas]
        lines.append(f"{sws},{_fmt(math.fsum(gaps) / len(gaps))},{_fmt(_std(gaps))}")
    path = Path(out_dir) / filename
    _write_lines(path, lines)
    return path


def write_sigma_comparison_csv(result: GridResult, metric: str, filename: str, out_dir: Path) -> Path:
    """fig8/9/10-style: KPI against sigma for the comparison-SWS hotcold curves,
    trilateration, and the static control, with std across runs; nan for a
    point whose runs all failed."""
    sigmas = sorted({p.sigma for p in result.points})
    curves: list[tuple[str, str, int | None]] = []
    for sws in result.grid.comparison_sws:
        if any(p.tracker == "hotcold" and p.sws == sws for p in result.points):
            curves.append((f"hotcold_sws{sws}", "hotcold", sws))
    for name in result.grid.tracker_names:
        if name != "hotcold":
            curves.append((name, name, None))

    lines = [f"curve,sigma_db,mean_{metric},std_{metric}"]
    for label, tracker, sws in curves:
        for sigma in sigmas:
            p = result.point(tracker, sws, sigma)
            lines.append(f"{label},{_fmt(sigma)},{_fmt(p.mean(metric))},{_fmt(p.std(metric))}")
    path = Path(out_dir) / filename
    _write_lines(path, lines)
    return path


def write_scenario_csv(result: ScenarioResult, out_dir: Path) -> Path:
    """fig12-style: per-iteration robot-target distance against time, with a
    time-zero row for the initial separation."""
    lines = ["iteration,time_s,distance_m"]
    for i, (cfg, gaps) in enumerate(zip(result.configs, result.distances)):
        start_gap = distance(cfg.robot_start.position, cfg.mobility.waypoints[0][1])
        lines.append(f"{i},{_fmt(0.0)},{_fmt(start_gap)}")
        lines.extend(f"{i},{_fmt(time_s)},{_fmt(gap)}" for time_s, gap in gaps)
    path = Path(out_dir) / f"fig12_{result.name}.csv"
    _write_lines(path, lines)
    return path


def write_summary_json(
    out_dir: Path,
    convergence: ConvergenceReport,
    rotation: RotationSweepResult,
    exhaustive: ExhaustiveSweepResult,
    grid: GridResult,
) -> Path:
    """summary.json: headline numbers of the convergence check, both sweeps
    and the grid's hotcold points."""
    best = rotation.summary(rotation.best_phi)
    hc = [p for p in grid.points if p.tracker == "hotcold"]
    by_sws: dict[int, list[float]] = {}
    for p in hc:
        by_sws.setdefault(p.sws, []).append(p.mean("average_distance_m"))
    mean_ad = {sws: math.fsum(v) / len(v) for sws, v in by_sws.items()}
    mean_ad = {sws: m for sws, m in mean_ad.items() if not math.isnan(m)}
    summary = {
        "convergence": {
            "trials": convergence.trials,
            "total_violations": convergence.total_violations,
            "boundary_skips": convergence.boundary_skips,
        },
        "rotation_sweep": {
            "best_phi_deg": rotation.best_phi,
            "overall_mean_rotations": best.overall_mean,
            "percent_valid": best.percent_valid,
        },
        "exhaustive_sweep": {
            "best_phi_deg": exhaustive.best_phi,
            "overall_mean_steps": exhaustive.overall_means[exhaustive.best_phi],
            "total_runs": exhaustive.total_runs,
            "cap_hits": exhaustive.cap_hits,
        },
        "grid": {
            "sigma_values": sorted({p.sigma for p in hc}),
            "best_sws_by_mean_average_distance": min(mean_ad, key=mean_ad.get) if mean_ad else None,
        },
    }
    path = Path(out_dir) / "summary.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path
