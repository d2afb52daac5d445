"""Command-line front end: single runs, grids, sweeps, scenarios, reports.

Everything is seeded and rerunning any command with the same seed and
arguments produces byte-identical output files. The output directory comes
from --out-dir, or the HOTCOLD_OUT_DIR environment variable, or ./out.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import exhaustive_sweep, rotation_sweep, verify_convergence
from .config import ConfigError, apply_overrides, build_grid, build_world, load_config
from .engine import run_simulation, write_metrics_json, write_trace_csv
from .experiments import (
    SCENARIO_NAMES,
    run_grid,
    run_scenario,
    write_exhaustive_csv,
    write_grid_runs_csv,
    write_rotation_sweep_csvs,
    write_scenario_csv,
    write_sigma_comparison_csv,
    write_sws_difference_csv,
    write_summary_json,
)

QUICK_DURATION_S = 200.0
QUICK_RUNS = 2

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig12")

# grid figures in output order: figure -> (metric, writer)
GRID_FIGURES = {
    "fig5": ("average_distance_m", write_sws_difference_csv),
    "fig6": ("cycles_in_range_pct", write_sws_difference_csv),
    "fig7": ("cycles_in_halt_pct", write_sws_difference_csv),
    "fig8": ("average_distance_m", write_sigma_comparison_csv),
    "fig9": ("cycles_in_range_pct", write_sigma_comparison_csv),
    "fig10": ("cycles_in_halt_pct", write_sigma_comparison_csv),
}
# the SWS-difference figures need hotcold points
SWS_FIGURES = {f for f, (_, writer) in GRID_FIGURES.items() if writer is write_sws_difference_csv}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotcold",
        description="Deterministic RSSI-only target-following simulator and analysis toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", metavar="FILE", help="INI experiment configuration")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override any config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="world seed / grid master seed override")
    parser.add_argument("--out-dir", help="output directory (default $HOTCOLD_OUT_DIR or ./out)")
    parser.add_argument("--runs", type=int, help="runs per grid point / scenario iterations")
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI scale: duration {QUICK_DURATION_S:.0f} s and {QUICK_RUNS} runs per point",
    )
    parser.add_argument("--workers", type=int, default=1, help="parallel grid workers")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="one run: trace.csv + metrics.json")
    sub.add_parser("grid", help="tracker x SWS x sigma sweep: grid_runs.csv + fig5-10 CSVs")
    sub.add_parser("rotation-sweep", help="turn-count analysis: fig2.csv + fig3.csv")
    sub.add_parser("exhaustive-sweep", help="step-count analysis over all starts: fig4.csv")
    sub.add_parser("verify-lemmas", help="randomized convergence checks")
    scenario = sub.add_parser("scenario", help="gym-scale preset: fig12_<name>.csv")
    scenario.add_argument("--preset", choices=SCENARIO_NAMES, required=True)
    scenario.add_argument("--sigma", type=float, default=2.0, help="shadowing sigma in dB")
    report = sub.add_parser("report", help="emit requested figure CSVs plus summary.json")
    report.add_argument(
        "--figures",
        default=",".join(FIGURE_NAMES),
        help=f"comma list from {','.join(FIGURE_NAMES)} (default: all)",
    )
    return parser


def _out_dir(args) -> Path:
    raw = args.out_dir or os.environ.get("HOTCOLD_OUT_DIR") or "out"
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args):
    # precedence: config file < --quick < --set < dedicated flags
    cfg = load_config(args.config)
    if args.quick:
        cfg["world"]["duration_s"] = str(QUICK_DURATION_S)
        cfg["grid"]["runs_per_point"] = str(QUICK_RUNS)
    apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg["world"]["seed"] = str(args.seed)
        cfg["grid"]["master_seed"] = str(args.seed)
    if args.runs is not None:
        cfg["grid"]["runs_per_point"] = str(args.runs)
    return cfg


def _cmd_simulate(args, out: Path) -> None:
    world = build_world(_load(args))
    metrics, trace = run_simulation(world)
    write_trace_csv(trace, out / "trace.csv")
    write_metrics_json(metrics, out / "metrics.json")
    print(f"simulate: {metrics.total_cycles} cycles, "
          f"average distance {metrics.average_distance_m:.2f} m, "
          f"in range {metrics.cycles_in_range_pct:.1f}%, "
          f"in halt {metrics.cycles_in_halt_pct:.1f}%")
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.json'}")


def _cmd_grid(args, out: Path) -> int:
    cfg = _load(args)
    grid = build_grid(cfg, build_world(cfg))
    result = run_grid(grid, workers=args.workers)
    figures = GRID_FIGURES.keys()
    if "hotcold" not in grid.trackers:
        figures -= SWS_FIGURES
    paths = [write_grid_runs_csv(result, out), *_write_grid_figures(result, figures, out)]
    print(f"grid: {len(result.points)} points x {grid.runs_per_point} runs")
    for p in paths:
        print(f"wrote {p}")
    return _exit_on_failures(result)


def _write_grid_figures(result, figures, out: Path) -> list[Path]:
    return [
        writer(result, metric, f"{fig}.csv", out)
        for fig, (metric, writer) in GRID_FIGURES.items()
        if fig in figures
    ]


def _exit_on_failures(result) -> int:
    """Exit status 1 when grid runs failed; their points read nan."""
    for failure in result.failures:
        print(f"warning: run failed: {failure}", file=sys.stderr)
    if result.failures:
        print(f"error: {len(result.failures)} grid runs failed", file=sys.stderr)
        return 1
    return 0


def _cmd_rotation_sweep(args, out: Path) -> None:
    result = rotation_sweep()
    best = result.summary(result.best_phi)
    for p in write_rotation_sweep_csvs(result, out):
        print(f"wrote {p}")
    print(f"rotation-sweep: best angle {result.best_phi} deg, "
          f"mean rotations {best.overall_mean:.2f}, valid {best.percent_valid:.0f}%")


def _cmd_exhaustive_sweep(args, out: Path) -> None:
    result = exhaustive_sweep()
    print(f"wrote {write_exhaustive_csv(result, out)}")
    print(f"exhaustive-sweep: {result.total_runs} runs, best angle {result.best_phi} deg, "
          f"mean steps {result.overall_means[result.best_phi]:.5f}, cap hits {result.cap_hits}")


def _cmd_verify_lemmas(args, out: Path) -> int:
    import numpy as np

    seed = args.seed if args.seed is not None else 0
    report = verify_convergence(rng=np.random.default_rng(seed))
    print(f"verify-lemmas: {report.trials} trials per check, "
          f"violations {report.total_violations} "
          f"(hot {report.hot_mode_violations}, first {report.first_rotation_violations}, "
          f"second {report.second_rotation_violations}, overall {report.overall_gain_violations}, "
          f"ordering {report.ordering_violations}), boundary skips {report.boundary_skips}")
    return 1 if report.total_violations else 0


def _cmd_scenario(args, out: Path) -> None:
    iterations = args.runs if args.runs is not None else (QUICK_RUNS if args.quick else 4)
    seed = args.seed if args.seed is not None else 1
    result = run_scenario(args.preset, iterations=iterations, sigma_db=args.sigma, master_seed=seed)
    print(f"wrote {write_scenario_csv(result, out)}")
    for i, m in enumerate(result.metrics):
        print(f"{args.preset} iteration {i}: average distance {m.average_distance_m:.2f} m, "
              f"in halt {m.cycles_in_halt_pct:.1f}%")


def _cmd_report(args, out: Path) -> int:
    wanted = {f.strip() for f in args.figures.split(",") if f.strip()}
    unknown = wanted - set(FIGURE_NAMES)
    if unknown:
        raise ConfigError(f"unknown figures {sorted(unknown)}; choose from {FIGURE_NAMES}")
    cfg = _load(args)
    rotation = None
    exhaustive = None
    grid_result = None
    if wanted & {"fig2", "fig3"}:
        rotation = rotation_sweep()
        for p in write_rotation_sweep_csvs(rotation, out):
            print(f"wrote {p}")
    if "fig4" in wanted:
        exhaustive = exhaustive_sweep()
        print(f"wrote {write_exhaustive_csv(exhaustive, out)}")
    if wanted & GRID_FIGURES.keys():
        grid = build_grid(cfg, build_world(cfg))
        if wanted & SWS_FIGURES and "hotcold" not in grid.trackers:
            raise ConfigError(f"{sorted(wanted & SWS_FIGURES)} need hotcold in grid.trackers")
        grid_result = run_grid(grid, workers=args.workers)
        print(f"wrote {write_grid_runs_csv(grid_result, out)}")
        for p in _write_grid_figures(grid_result, wanted, out):
            print(f"wrote {p}")
    if "fig12" in wanted:
        iterations = args.runs if args.runs is not None else (QUICK_RUNS if args.quick else 4)
        seed = args.seed if args.seed is not None else 1
        for name in SCENARIO_NAMES:
            result = run_scenario(name, iterations=iterations, master_seed=seed)
            print(f"wrote {write_scenario_csv(result, out)}")
    print(f"wrote {write_summary_json(out, rotation, exhaustive, grid_result)}")
    return 0 if grid_result is None else _exit_on_failures(grid_result)


COMMANDS = {
    "simulate": _cmd_simulate,
    "grid": _cmd_grid,
    "rotation-sweep": _cmd_rotation_sweep,
    "exhaustive-sweep": _cmd_exhaustive_sweep,
    "verify-lemmas": _cmd_verify_lemmas,
    "scenario": _cmd_scenario,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, _out_dir(args)) or 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
