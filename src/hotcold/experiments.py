"""Experiment grids, scenario presets, and figure-table emission.

All seeds derive from a master seed through a stable hash, so every grid,
scenario, and report rerun with the same master seed is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .analysis import ExhaustiveSweepResult, RotationSweepResult, verify_convergence
from .channel import ChannelParams
from .engine import (
    CycleRecord,
    FixedPath,
    MetricsReport,
    StaticControl,
    Tracker,
    WorldConfig,
    run_simulation,
)
from .geometry import Pose, Vec2, distance
from .tracker import HotColdConfig
from .trilateration import TrilaterationConfig


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and any point coordinates."""
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
        if self.runs_per_point < 1:
            raise ValueError(f"runs_per_point must be >= 1, got {self.runs_per_point}")
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
        return statistics.fmean(getattr(r, metric) for r in self.runs)

    def std(self, metric: str) -> float:
        return _std([getattr(r, metric) for r in self.runs])


def _std(values: list[float]) -> float:
    """Sample std; 0 for one value, NaN for none or when any value is NaN."""
    if not values or any(math.isnan(v) for v in values):
        return math.nan
    return statistics.stdev(values) if len(values) > 1 else 0.0


@dataclass(frozen=True)
class GridResult:
    grid: ExperimentGrid
    points: tuple[GridPoint, ...]
    failures: tuple[str, ...] = ()

    @cached_property
    def _points(self) -> dict[tuple[str, int | None, float], GridPoint]:
        return {(p.tracker, p.sws, p.sigma): p for p in self.points}

    def point(self, tracker: str, sws: int | None, sigma: float) -> GridPoint:
        return self._points[tracker, sws, sigma]


def _run_point(config: WorldConfig) -> tuple[MetricsReport, None] | tuple[None, str]:
    try:
        return run_simulation(config, keep_trace=False)[0], None
    except Exception as exc:  # recorded, never aborts the grid
        return None, f"{type(exc).__name__}: {exc}"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(grid: ExperimentGrid, workers: int = 1) -> GridResult:
    """Run every (tracker, sws, sigma) point of the grid with derived seeds.

    The pool gets min(workers, jobs, usable CPUs) processes, all started at
    the first submit; at one it is skipped and the runs go in-process.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs: list[tuple[tuple[str, int | None, float], int, WorldConfig]] = []
    for tracker, sws, sigma in grid.points():
        for run in range(grid.runs_per_point):
            seed = derive_seed(grid.master_seed, tracker, sws, sigma, run)
            jobs.append(((tracker, sws, sigma), seed, grid_world_config(grid, tracker, sws, sigma, seed)))

    pool_size = min(workers, len(jobs), usable_cpus())
    if pool_size > 1:
        # imported here: the module costs every command's start-up otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(_run_point, (cfg for _, _, cfg in jobs), chunksize=4))
    else:
        outcomes = [_run_point(cfg) for _, _, cfg in jobs]

    by_point: dict[tuple[str, int | None, float], tuple[list[int], list[MetricsReport]]] = {}
    failures: list[str] = []
    for (point, seed, _), (report, error) in zip(jobs, outcomes):
        seeds, runs = by_point.setdefault(point, ([], []))
        if report is None:
            failures.append(f"{point} seed={seed}: {error}")
            continue
        seeds.append(seed)
        runs.append(report)

    points = tuple(
        GridPoint(tracker, sws, sigma, tuple(seeds), tuple(runs))
        for (tracker, sws, sigma), (seeds, runs) in by_point.items()
    )
    return GridResult(grid, points, tuple(failures))


# ---------------------------------------------------------------------------
# scenario presets

SCENARIO_NAMES = ("scenario1", "scenario2", "scenario3")


def scenario_preset(name: str, sigma_db: float = 2.0, seed: int = 1) -> WorldConfig:
    """Gym-scale presets: static, straight-line, and zigzag target paths.

    The timed paths own the target kinematics; where a path's implied speed
    disagrees with the nominal target speed, the waypoint times win. The
    space is sized to cover every declared waypoint (the straight-line
    scenario ends outside the nominal 35x40 room), keeping the paths intact.
    """
    channel = ChannelParams(shadowing_sigma_db=sigma_db)
    common = dict(
        width_m=55.0,
        height_m=45.0,
        duration_s=60.0,
        cycle_period_s=0.5,
        robot_speed_kmh=10.0,
        target_speed_kmh=5.0,
        halt_distance_m=3.0,
        channel=channel,
        tracker=HotColdConfig(sws=4),
        seed=seed,
    )
    if name == "scenario1":
        return WorldConfig(
            mobility=FixedPath(((0.0, Vec2(5.0, 5.0)),)),
            robot_start=Pose(Vec2(30.0, 35.0), math.radians(50.0)),
            **common,
        )
    if name == "scenario2":
        return WorldConfig(
            mobility=FixedPath(((0.0, Vec2(5.0, 5.0)), (28.0, Vec2(50.0, 35.0)))),
            robot_start=Pose(Vec2(30.0, 5.0), 0.0),
            **common,
        )
    if name == "scenario3":
        return WorldConfig(
            mobility=FixedPath(
                (
                    (0.0, Vec2(5.0, 5.0)),
                    (10.0, Vec2(5.0, 11.5)),
                    (30.0, Vec2(30.0, 25.0)),
                    (50.5, Vec2(5.0, 35.0)),
                )
            ),
            robot_start=Pose(Vec2(30.0, 5.0), 0.0),
            **common,
        )
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    configs: tuple[WorldConfig, ...]
    traces: tuple[tuple[CycleRecord, ...], ...]
    metrics: tuple[MetricsReport, ...]


def run_scenario(
    name: str, iterations: int = 4, sigma_db: float = 2.0, master_seed: int = 1
) -> ScenarioResult:
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    configs = []
    traces = []
    metrics = []
    for i in range(iterations):
        cfg = scenario_preset(name, sigma_db, derive_seed(master_seed, name, sigma_db, i))
        report, trace = run_simulation(cfg)
        configs.append(cfg)
        traces.append(tuple(trace))
        metrics.append(report)
    return ScenarioResult(name, tuple(configs), tuple(traces), tuple(metrics))


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
    """grid_runs.csv: one row per run with its seed and all KPIs, which are
    the keys of MetricsReport.to_dict in its order: ints as they are, floats
    through _fmt."""
    kpis = MetricsReport(math.nan, 0, 0, 0).to_dict()  # an empty run's report, for its keys
    lines = [",".join(("tracker,sws,sigma_db,run,seed", *kpis))]
    for p in sorted(result.points, key=lambda p: (p.tracker, p.sws or 0, p.sigma)):
        sws = "" if p.sws is None else str(p.sws)
        for run, (seed, rep) in enumerate(zip(p.seeds, p.runs)):
            cells = (str(v) if isinstance(v, int) else _fmt(v) for v in rep.to_dict().values())
            lines.append(",".join((p.tracker, sws, _fmt(p.sigma), str(run), str(seed), *cells)))
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
        lines.append(f"{sws},{_fmt(statistics.fmean(gaps))},{_fmt(_std(gaps))}")
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
    for i, (cfg, trace) in enumerate(zip(result.configs, result.traces)):
        start_gap = distance(cfg.robot_start.position, cfg.mobility.waypoints[0][1])
        lines.append(f"{i},{_fmt(0.0)},{_fmt(start_gap)}")
        for rec in trace:
            gap = math.hypot(rec.robot_x - rec.target_x, rec.robot_y - rec.target_y)
            lines.append(f"{i},{_fmt(rec.time_s)},{_fmt(gap)}")
    path = Path(out_dir) / f"fig12_{result.name}.csv"
    _write_lines(path, lines)
    return path


def write_summary_json(
    out_dir: Path,
    rotation: RotationSweepResult | None = None,
    exhaustive: ExhaustiveSweepResult | None = None,
    grid: GridResult | None = None,
    convergence_trials: int = 10_000,
) -> Path:
    """summary.json: headline numbers of whichever studies were run."""
    summary: dict = {}
    if rotation is not None:
        best = rotation.summary(rotation.best_phi)
        summary["rotation_sweep"] = {
            "best_phi_deg": rotation.best_phi,
            "overall_mean_rotations": best.overall_mean,
            "percent_valid": best.percent_valid,
        }
    if exhaustive is not None:
        summary["exhaustive_sweep"] = {
            "best_phi_deg": exhaustive.best_phi,
            "overall_mean_steps": exhaustive.overall_means[exhaustive.best_phi],
            "total_runs": exhaustive.total_runs,
            "cap_hits": exhaustive.cap_hits,
        }
    if grid is not None:
        hc = [p for p in grid.points if p.tracker == "hotcold"]
        if hc:
            sigmas = sorted({p.sigma for p in hc})
            by_sws: dict[int, list[float]] = {}
            for p in hc:
                by_sws.setdefault(p.sws, []).append(p.mean("average_distance_m"))
            mean_ad = {sws: statistics.fmean(v) for sws, v in by_sws.items()}
            mean_ad = {sws: m for sws, m in mean_ad.items() if not math.isnan(m)}
            summary["grid"] = {
                "sigma_values": sigmas,
                "best_sws_by_mean_average_distance": (
                    min(mean_ad, key=mean_ad.get) if mean_ad else None
                ),
            }
    report = verify_convergence(convergence_trials)
    summary["convergence"] = {
        "trials": report.trials,
        "total_violations": report.total_violations,
        "boundary_skips": report.boundary_skips,
    }
    path = Path(out_dir) / "summary.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path
