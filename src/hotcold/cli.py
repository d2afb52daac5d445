"""Command-line front end: single runs, grids, sweeps, scenarios, reports.

Everything is seeded and rerunning any command with the same seed and
arguments produces byte-identical output files. The output directory comes
from --out-dir, or the HOTCOLD_OUT_DIR environment variable, or ./out, and
is made only once a command's inputs pass. `report` runs every study and
writes every figure; a subset is its family command. `main` refuses a
global flag that the command does not read (COMMANDS lists the ones each
reads), and is the one place that reads --config and --set.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .channel import MAX_SHADOWING_SIGMA_DB
from .config import ConfigError, apply_overrides, build_grid, build_world, load_config
from .engine import run_simulation, trace_csv_sink, write_metrics_json
from .experiments import (
    SCENARIO_ITERATIONS,
    SCENARIO_NAMES,
    SCENARIO_SIGMA_DB,
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


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@cache  # one parser per process: callers share it and must not change it
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
    parser.add_argument(
        "--workers",
        type=positive_int,
        help="parallel grid workers, default 1 "
        "(the pool gets at most one per job and per usable CPU)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="one run: trace.csv + metrics.json")
    sub.add_parser("grid", help="tracker x SWS x sigma sweep: grid_runs.csv + fig5-10 CSVs")
    sub.add_parser("rotation-sweep", help="turn-count analysis: fig2.csv + fig3.csv")
    sub.add_parser("exhaustive-sweep", help="step-count analysis over all starts: fig4.csv")
    sub.add_parser("verify-lemmas", help="randomized convergence checks")
    scenario = sub.add_parser("scenario", help="gym-scale preset: fig12_<name>.csv")
    scenario.add_argument("--preset", choices=SCENARIO_NAMES, required=True)
    scenario.add_argument(
        "--sigma", type=float, default=SCENARIO_SIGMA_DB, help="shadowing sigma in dB"
    )
    sub.add_parser("report", help="every study: all figure CSVs plus summary.json")
    return parser


def _out_dir(args) -> Path:
    """The output directory, made once the command's inputs have passed."""
    raw = args.out_dir or os.environ.get("HOTCOLD_OUT_DIR") or "out"
    path = Path(raw)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot make output directory {path}: {exc}") from exc
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


def _cmd_simulate(args) -> None:
    world = build_world(args.cfg)
    out = _out_dir(args)
    with open(out / "trace.csv", "w", newline="") as fh:  # streamed, NORMALS_CHUNK cycles at a time
        metrics = run_simulation(world, sink=trace_csv_sink(fh))
    write_metrics_json(metrics, out / "metrics.json")
    print(f"simulate: {metrics.total_cycles} cycles, "
          f"average distance {metrics.average_distance_m:.2f} m, "
          f"in range {metrics.cycles_in_range_pct:.1f}%, "
          f"in halt {metrics.cycles_in_halt_pct:.1f}%")
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.json'}")


def _grid(args, grid):
    """Run the grid and write grid_runs.csv plus every grid figure but the
    SWS ones when the grid has no hotcold."""
    hotcold = "hotcold" in grid.tracker_names
    dropped = [s for s in grid.comparison_sws if s not in grid.sws_values]
    if dropped and hotcold:
        comparisons = [f for f in GRID_FIGURES if f not in SWS_FIGURES]
        print(f"warning: grid.comparison_sws {','.join(map(str, dropped))} not in "
              f"grid.sws_values: no hotcold curve for them in {', '.join(comparisons)}",
              file=sys.stderr)
    out = _out_dir(args)
    result = run_grid(grid, workers=args.workers or 1)
    print(f"grid: {len(result.points)} points x {grid.runs_per_point} runs")
    print(f"wrote {write_grid_runs_csv(result, out)}")
    for fig, (metric, writer) in GRID_FIGURES.items():
        if hotcold or fig not in SWS_FIGURES:
            print(f"wrote {writer(result, metric, f'{fig}.csv', out)}")
    return result


def _cmd_grid(args) -> int:
    grid = build_grid(args.cfg, build_world(args.cfg))
    return _exit_on_failures(_grid(args, grid))


def _exit_on_failures(result) -> int:
    """Exit status 1 when grid runs failed; their points read nan."""
    for failure in result.failures:
        print(f"warning: run failed: {failure}", file=sys.stderr)
    if result.failures:
        print(f"error: {len(result.failures)} grid runs failed", file=sys.stderr)
        return 1
    return 0


def _rotation_sweep(args):
    from .analysis import rotation_sweep  # the sweep kernels load on first use

    out = _out_dir(args)
    result = rotation_sweep()
    best = result.summary(result.best_phi)
    for p in write_rotation_sweep_csvs(result, out):
        print(f"wrote {p}")
    print(f"rotation-sweep: best angle {result.best_phi} deg, "
          f"mean rotations {best.overall_mean:.2f}, valid {best.percent_valid:.0f}%")
    return result


def _exhaustive_sweep(args):
    from .analysis import exhaustive_sweep

    out = _out_dir(args)
    result = exhaustive_sweep()
    print(f"wrote {write_exhaustive_csv(result, out)}")
    print(f"exhaustive-sweep: {result.total_runs} runs, best angle {result.best_phi} deg, "
          f"mean steps {result.overall_means[result.best_phi]:.5f}, cap hits {result.cap_hits}")
    return result


def _cmd_verify_lemmas(args) -> int:
    import numpy as np

    from .analysis import verify_convergence

    report = verify_convergence(rng=np.random.default_rng(args.seed or 0))
    print(f"verify-lemmas: {report.trials} trials per check, "
          f"violations {report.total_violations} "
          f"(hot {report.hot_mode_violations}, first {report.first_rotation_violations}, "
          f"second {report.second_rotation_violations}, overall {report.overall_gain_violations}, "
          f"ordering {report.ordering_violations}), boundary skips {report.boundary_skips}")
    return 1 if report.total_violations else 0


def _scenario_iterations(args) -> int:
    default = QUICK_RUNS if args.quick else SCENARIO_ITERATIONS
    iterations = default if args.runs is None else args.runs
    if iterations < 1:
        raise ConfigError(f"--runs must be >= 1 for a scenario, got {iterations}")
    return iterations


def _scenario(args, preset: str, sigma_db: float, iterations: int) -> None:
    master = {} if args.seed is None else {"master_seed": args.seed}
    result = run_scenario(preset, iterations=iterations, sigma_db=sigma_db, **master)
    print(f"wrote {write_scenario_csv(result, _out_dir(args))}")
    for i, m in enumerate(result.metrics):
        print(f"{preset} iteration {i}: average distance {m.average_distance_m:.2f} m, "
              f"in halt {m.cycles_in_halt_pct:.1f}%")


def _cmd_scenario(args) -> None:
    sigma = args.sigma
    if not 0.0 <= sigma <= MAX_SHADOWING_SIGMA_DB:
        raise ConfigError(f"--sigma must be in [0, {MAX_SHADOWING_SIGMA_DB:g}] dB, got {sigma}")
    _scenario(args, args.preset, sigma, _scenario_iterations(args))


def _cmd_report(args) -> int:
    from .analysis import verify_convergence

    # checked before the output directory is made
    iterations = _scenario_iterations(args)
    grid = build_grid(args.cfg, build_world(args.cfg))
    if "hotcold" not in grid.tracker_names:
        raise ConfigError(f"{sorted(SWS_FIGURES)} need hotcold in grid.trackers")
    out = _out_dir(args)
    rotation = _rotation_sweep(args)
    exhaustive = _exhaustive_sweep(args)
    grid_result = _grid(args, grid)
    for name in SCENARIO_NAMES:  # the presets, whatever the config
        _scenario(args, name, SCENARIO_SIGMA_DB, iterations)
    convergence = verify_convergence()  # at seed 0, whatever --seed says
    print(f"wrote {write_summary_json(out, convergence, rotation, exhaustive, grid_result)}")
    return _exit_on_failures(grid_result)


# global flag -> the attribute argparse gives it
GLOBAL_FLAGS = {"--config": "config", "--set": "overrides", "--seed": "seed",
                "--out-dir": "out_dir", "--runs": "runs", "--quick": "quick", "--workers": "workers"}
# command -> (handler, the global flags it reads); main refuses the others
COMMANDS = {
    "simulate": (_cmd_simulate, ("--config", "--set", "--seed", "--quick", "--out-dir")),
    "grid": (_cmd_grid, tuple(GLOBAL_FLAGS)),
    "rotation-sweep": (_rotation_sweep, ("--out-dir",)),
    "exhaustive-sweep": (_exhaustive_sweep, ("--out-dir",)),
    "verify-lemmas": (_cmd_verify_lemmas, ("--seed",)),
    "scenario": (_cmd_scenario, ("--seed", "--runs", "--quick", "--out-dir")),
    "report": (_cmd_report, tuple(GLOBAL_FLAGS)),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command, reads = COMMANDS[args.command]
    try:
        unread = [flag for flag, dest in GLOBAL_FLAGS.items()
                  if flag not in reads and getattr(args, dest) != parser.get_default(dest)]
        if unread:
            raise ConfigError(f"{args.command} does not read {', '.join(unread)}; "
                              f"it reads {', '.join(reads)}")
        if args.seed is not None and args.seed < 0:  # for every command that reads --seed
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        if "--config" in reads:
            args.cfg = _load(args)
        status = command(args)
        return status if isinstance(status, int) else 0  # a sweep returns its result
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
