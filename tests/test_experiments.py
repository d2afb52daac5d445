import itertools
import json
import math
import tracemalloc
from dataclasses import fields, replace

import pytest

from hotcold.config import (
    ConfigError,
    apply_overrides,
    build_grid,
    build_world,
    default_config,
    load_config,
    write_default_config,
)
from hotcold import engine, experiments
from hotcold.engine import TRACKERS, FixedPath, StaticControl, WorldConfig
from hotcold.experiments import (
    ExperimentGrid,
    derive_seed,
    run_grid,
    run_scenario,
    scenario_preset,
    write_grid_runs_csv,
    write_scenario_csv,
    write_sigma_comparison_csv,
    write_summary_json,
    write_sws_difference_csv,
)
from hotcold.analysis import exhaustive_sweep, rotation_sweep, verify_convergence
from hotcold.channel import ChannelParams
from hotcold.geometry import Pose, Vec2, distance
from hotcold.tracker import HotColdConfig
from hotcold.trilateration import TrilaterationConfig

MINI_BASE = WorldConfig(duration_s=20.0)
MINI_GRID = ExperimentGrid(
    sws_values=(2, 4),
    sigma_values=(0.0, 2.0),
    trackers=(HotColdConfig(), TrilaterationConfig(), StaticControl()),
    runs_per_point=2,
    master_seed=99,
    comparison_sws=(2, 4),
    base=MINI_BASE,
)


def test_grid_axes_must_not_repeat_a_value():
    # a repeated value ran each of its points again on the same seeds, and
    # fig8 drew a repeated comparison SWS twice
    for axis, values in (("sws_values", (4, 2, 4)), ("sigma_values", (2.0, 0.0, 2)),
                         ("comparison_sws", (2, 2))):
        with pytest.raises(ValueError, match=f"grid.{axis} repeats a value"):
            replace(MINI_GRID, **{axis: values})


def test_a_negative_master_seed_is_refused():
    # a world seed must be >= 0, and so must the master seed that derives it,
    # whose digest would otherwise hide the sign
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -3"):
        replace(MINI_GRID, master_seed=-3)
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
        run_scenario("scenario1", iterations=1, master_seed=-1)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "hotcold", 4, 2.0, 0)
    assert a == derive_seed(1, "hotcold", 4, 2.0, 0)
    assert a != derive_seed(1, "hotcold", 4, 2.0, 1)
    assert a != derive_seed(2, "hotcold", 4, 2.0, 0)
    assert 0 <= a < 2**63


def test_seeds_do_not_depend_on_how_sigma_is_typed(tmp_path):
    # each seed hashes sigma as a float: an int sigma of 2 gave another world than 2.0
    for sigma in (0, 2):
        typed = [run_scenario("scenario2", 1, value, 1) for value in (sigma, float(sigma))]
        assert typed[0].metrics == typed[1].metrics and typed[0].distances == typed[1].distances
    ints = replace(MINI_GRID, sigma_values=(0, 2), runs_per_point=1)
    written = []
    for grid in (ints, replace(ints, sigma_values=(0.0, 2.0))):
        out = tmp_path / str(len(written))
        written.append(write_grid_runs_csv(run_grid(grid), out).read_bytes())
    assert written[0] == written[1]


def test_grid_points_shape():
    pts = MINI_GRID.points()
    # hotcold spans the SWS axis, the other trackers collapse it
    assert len(pts) == 2 * 2 + 2 + 2
    assert ("hotcold", 2, 0.0) in pts and ("hotcold", 4, 2.0) in pts
    assert ("trilateration", None, 0.0) in pts and ("static", None, 2.0) in pts


def test_run_grid_structure():
    result = run_grid(MINI_GRID)
    assert not result.failures
    assert len(result.points) == len(MINI_GRID.points())
    point = result.point("hotcold", 4, 0.0)
    assert len(point.runs) == 2
    assert point.seeds == tuple(derive_seed(99, run) for run in range(2))
    assert all(r.total_cycles == 40 for r in point.runs)
    assert point.mean("average_distance_m") > 0.0


def test_run_r_of_every_point_shares_the_run_index_seed():
    # common random numbers: run r of every point sees one target path and
    # one set of standard normals, so a robot that stands still reads the
    # same distance at every sigma
    grid = replace(MINI_GRID, sigma_values=(0.0, 1.0, 2.0, 6.0), runs_per_point=3)
    result = run_grid(grid)
    assert not result.failures
    for point in result.points:
        assert point.seeds == tuple(derive_seed(99, run) for run in range(3)), point
    for run in range(3):
        control = {result.point("static", None, sigma).runs[run].average_distance_m
                   for sigma in grid.sigma_values}
        assert len(control) == 1, (run, control)
    # the sigmas still act on the trackers that move
    assert len({result.point("trilateration", None, sigma).runs[0]
                for sigma in grid.sigma_values}) > 1


def test_every_grid_world_is_its_unshared_run():
    # the recorded path a run index shares gives every world the bits of
    # run_simulation of the same config, which draws its own path
    result = run_grid(MINI_GRID)
    for p in result.points:
        for seed, report in zip(p.seeds, p.runs):
            config = experiments.grid_world_config(MINI_GRID, p.tracker, p.sws, p.sigma, seed)
            assert report == engine.run_simulation(config), (p, seed)


def test_a_run_index_records_its_target_path_once(monkeypatch):
    calls = []
    real = experiments.target_path

    def target_path(config):
        calls.append(config.seed)
        return real(config)

    monkeypatch.setattr(experiments, "target_path", target_path)
    run_grid(MINI_GRID)
    assert calls == [derive_seed(99, 0), derive_seed(99, 1)]


def test_a_failed_path_recording_fails_only_its_run_index(tmp_path, monkeypatch):
    # each world of the run index becomes one failure; the other run index
    # runs as before, keeps its index in grid_runs.csv's run column, and
    # every writer still writes
    real = experiments.target_path
    pinned = run_grid(MINI_GRID)
    for failing, kept in ((0, 1), (1, 0)):

        def target_path(config, failing=failing):
            if config.seed == derive_seed(99, failing):
                raise RuntimeError("forced failure")
            return real(config)

        monkeypatch.setattr(experiments, "target_path", target_path)
        result = run_grid(MINI_GRID)
        assert len(result.failures) == len(MINI_GRID.points())
        assert all(f.endswith(f"seed={derive_seed(99, failing)}: RuntimeError: forced failure")
                   for f in result.failures)
        for p in result.points:
            assert p.seeds == (derive_seed(99, kept),)
            assert p.runs == pinned.point(p.tracker, p.sws, p.sigma).runs[kept:kept + 1]
        header, *rows = write_grid_runs_csv(result, tmp_path).read_text().splitlines()
        assert len(rows) == len(MINI_GRID.points())
        columns = header.split(",")
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            assert (cells["run"], cells["seed"]) == (str(kept), str(derive_seed(99, kept))), row
        write_sws_difference_csv(result, "average_distance_m", "fig5.csv", tmp_path)
        write_sigma_comparison_csv(result, "average_distance_m", "fig8.csv", tmp_path)
        summary = _summary(tmp_path, result)
        assert summary["grid"]["best_sws_by_mean_average_distance"] in MINI_GRID.sws_values


def test_a_run_index_of_long_worlds_records_its_path_in_bounded_memory():
    # the shared path is two arrays of doubles, 16 bytes a cycle; each
    # world's normals stay chunked (about 160 kB), so nothing else grows
    # with the run
    grid = replace(MINI_GRID, trackers=(StaticControl(),), sigma_values=(0.0,), runs_per_point=1,
                   base=replace(MINI_BASE, duration_s=25000.0))
    cycles = grid.base.total_cycles
    run_grid(replace(grid, base=MINI_BASE))  # first-call allocations are not the run's
    tracemalloc.start()
    try:
        result = run_grid(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cycles == 50000 and result.point("static", None, 0.0).runs[0].total_cycles == cycles
    assert peak <= 16 * cycles + 256_000, peak


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


# (workers, usable CPUs, jobs (run indices), pool size or None for in-process runs)
@pytest.mark.parametrize(
    "workers, cpus, jobs, size",
    [
        (3, 2, 16, 2),  # bounded by the CPUs
        (2, 8, 16, 2),  # by the workers asked for
        (64, 64, 2, 2),  # by the jobs
        (8, 1, 16, None),  # one CPU: in-process
        (64, 64, 1, None),  # one job: in-process
        (1, 8, 16, None),
    ],
)
def test_run_grid_pool_size(monkeypatch, workers, cpus, jobs, size):
    import concurrent.futures
    import concurrent.futures.process

    # no real pool may start here, whatever module path the code imports from
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
    grid = replace(MINI_GRID, runs_per_point=jobs)  # a job is one run index
    result = run_grid(grid, workers=workers)
    assert _RecordingPool.sizes == ([] if size is None else [size])
    assert sum(len(p.runs) for p in result.points) == jobs * len(grid.points())
    assert result.points == run_grid(grid).points


@pytest.mark.parametrize("workers", [0, -3])
def test_run_grid_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_grid(MINI_GRID, workers=workers)


def test_usable_cpus_is_positive():
    assert experiments.usable_cpus() >= 1


def test_run_grid_parallel_matches_serial():
    serial = run_grid(MINI_GRID)
    parallel = run_grid(MINI_GRID, workers=2)
    for p in serial.points:
        q = parallel.point(p.tracker, p.sws, p.sigma)
        assert q.runs == p.runs


def test_grid_csv_emission(tmp_path):
    result = run_grid(MINI_GRID)
    runs_csv = write_grid_runs_csv(result, tmp_path)
    fig5 = write_sws_difference_csv(result, "average_distance_m", "fig5.csv", tmp_path)
    fig8 = write_sigma_comparison_csv(result, "average_distance_m", "fig8.csv", tmp_path)
    lines = runs_csv.read_text().splitlines()
    assert lines[0].startswith("tracker,sws,sigma_db,run,seed,")
    assert len(lines) == 1 + (4 + 2 + 2) * 2
    fig5_lines = fig5.read_text().splitlines()
    assert fig5_lines[0] == "sws,sigma_db,mean_average_distance_m,std_average_distance_m,diff_from_best"
    # per sigma, the best SWS sits at zero difference
    diffs = {}
    for line in fig5_lines[1 : 1 + 4]:
        sws, sigma, _, _, diff = line.split(",")
        diffs.setdefault(sigma, []).append(float(diff))
    for column in diffs.values():
        assert min(column) == 0.0
        assert all(d >= 0.0 for d in column)
    fig8_lines = fig8.read_text().splitlines()
    assert fig8_lines[0] == "curve,sigma_db,mean_average_distance_m,std_average_distance_m"
    curves = {line.split(",")[0] for line in fig8_lines[1:]}
    assert curves == {"hotcold_sws2", "hotcold_sws4", "trilateration", "static"}


def test_grid_rerun_is_byte_identical(tmp_path):
    a = write_grid_runs_csv(run_grid(MINI_GRID), tmp_path / "a")
    b = write_grid_runs_csv(run_grid(MINI_GRID), tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_miniature_grid_golden_file(tmp_path):
    # frozen output of MINI_GRID; any change to seeding, stepping, or the
    # CSV schema shows up here first
    import hashlib

    path = write_grid_runs_csv(run_grid(MINI_GRID), tmp_path)
    data = path.read_bytes()
    lines = data.decode().splitlines()
    assert len(lines) == 17
    assert lines[1] == (
        "hotcold,2,0.000000,0,2866525450354206303,13.354850,40,100.000000,0,0.000000,40"
    )
    assert lines[5] == (
        "hotcold,4,0.000000,0,2866525450354206303,15.025996,40,100.000000,0,0.000000,40"
    )
    assert (
        hashlib.sha256(data).hexdigest()
        == "8fbad6d6c196d442a76dfb13c49acd26f80e4f3b96e2d876f351809092ab3abd"
    )


def test_grid_runs_build_no_trace(tmp_path, monkeypatch):
    # the KPIs come from the per-cycle sums: a grid that built a trace record
    # would fail every run here and lose the golden file's bytes
    pinned = write_grid_runs_csv(run_grid(MINI_GRID), tmp_path / "pinned").read_bytes()

    def no_records(*args):
        raise AssertionError("a grid run built a CycleRecord")

    monkeypatch.setattr(engine, "CycleRecord", no_records)
    result = run_grid(MINI_GRID)
    assert result.failures == ()
    assert write_grid_runs_csv(result, tmp_path / "bare").read_bytes() == pinned


def _summary(out_dir, grid) -> dict:
    """summary.json of `grid`, next to small sweeps and convergence check."""
    rotation = rotation_sweep(range(138, 140), range(0, 3))
    exhaustive = exhaustive_sweep(phi_range=range(135, 136), rho_range=range(10, 21, 10))
    return json.loads(
        write_summary_json(out_dir, verify_convergence(10), rotation, exhaustive, grid).read_text()
    )


def _failing_runs(monkeypatch, fails):
    """Make run_simulation raise for every world config that `fails` picks."""
    real = experiments.run_simulation

    def run_simulation(config, *args, **kwargs):
        if fails(config):
            raise RuntimeError("forced failure")
        return real(config, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_simulation", run_simulation)


def test_failed_points_write_nan_and_leave_the_best_sws(tmp_path, monkeypatch):
    # every run of hotcold SWS 2 at 2 dB fails and so does every
    # trilateration run at 0 dB; one run of static at 2 dB fails
    def fails(config):
        sigma = config.channel.shadowing_sigma_db
        tracker = config.tracker
        if isinstance(tracker, HotColdConfig):
            return tracker.sws == 2 and sigma == 2.0
        if isinstance(tracker, TrilaterationConfig):
            return sigma == 0.0
        return sigma == 2.0 and config.seed == derive_seed(99, 1)

    _failing_runs(monkeypatch, fails)
    result = run_grid(MINI_GRID)
    assert len(result.failures) == 2 + 2 + 1
    assert math.isnan(result.point("hotcold", 2, 2.0).mean("average_distance_m"))
    assert math.isnan(result.point("hotcold", 2, 2.0).std("average_distance_m"))
    assert result.point("static", None, 2.0).std("average_distance_m") == 0.0

    runs = write_grid_runs_csv(result, tmp_path).read_text().splitlines()
    assert len(runs) == 1 + (4 + 2 + 2) * 2 - 5
    fig5 = write_sws_difference_csv(result, "average_distance_m", "fig5.csv", tmp_path)
    rows = fig5.read_text().splitlines()
    assert rows[2] == "2,2.000000,nan,nan,nan"
    assert rows[4].startswith("4,2.000000,") and rows[4].endswith(",0.000000")
    assert rows[7].startswith("2,") and rows[7].endswith(",nan,nan")
    fig8 = write_sigma_comparison_csv(result, "average_distance_m", "fig8.csv", tmp_path)
    rows = fig8.read_text().splitlines()
    assert "trilateration,0.000000,nan,nan" in rows
    assert any(r.startswith("static,2.000000,") and r.endswith(",0.000000") for r in rows)
    summary = _summary(tmp_path, result)
    assert summary["grid"]["best_sws_by_mean_average_distance"] == 4


def test_every_hotcold_point_failed_has_no_best_sws(tmp_path, monkeypatch):
    _failing_runs(monkeypatch, lambda config: isinstance(config.tracker, HotColdConfig))
    result = run_grid(MINI_GRID)
    fig6 = write_sws_difference_csv(result, "cycles_in_range_pct", "fig6.csv", tmp_path)
    assert all(row.endswith("nan,nan,nan") for row in fig6.read_text().splitlines()[1:5])
    summary = _summary(tmp_path, result)
    assert summary["grid"]["best_sws_by_mean_average_distance"] is None


def test_scenario_presets_geometry():
    s1 = scenario_preset("scenario1")
    assert s1.mobility == FixedPath(((0.0, Vec2(5.0, 5.0)),))  # a target that stands still
    assert distance(s1.robot_start.position, s1.mobility.waypoints[0][1]) == pytest.approx(
        39.0512, abs=1e-4
    )
    assert math.degrees(s1.robot_start.heading_rad) == pytest.approx(50.0)
    assert s1.robot_speed_kmh == 10.0 and s1.duration_s == 60.0

    s2 = scenario_preset("scenario2")
    assert isinstance(s2.mobility, FixedPath)
    positions = list(itertools.islice(s2.mobility.path(s2, None), s2.total_cycles + 1))
    assert positions[56] == (50.0, 35.0)  # at 28 s, 0.5 s a cycle
    assert positions[-1] == positions[56]  # parked at the destination

    s3 = scenario_preset("scenario3")
    times = [t for t, _ in s3.mobility.waypoints]
    assert times == [0.0, 10.0, 30.0, 50.5]
    with pytest.raises(ValueError):
        scenario_preset("scenario9")


def _literal_preset(name: str, sigma_db: float, seed: int) -> WorldConfig:
    """The presets as they were written by hand before they became INI keys."""
    common = dict(
        width_m=55.0, height_m=45.0, duration_s=60.0, cycle_period_s=0.5, robot_speed_kmh=10.0,
        target_speed_kmh=5.0, halt_distance_m=3.0, channel=ChannelParams(shadowing_sigma_db=sigma_db),
        tracker=HotColdConfig(sws=4), seed=seed,
    )
    if name == "scenario1":
        return WorldConfig(mobility=FixedPath(((0.0, Vec2(5.0, 5.0)),)),
                           robot_start=Pose(Vec2(30.0, 35.0), math.radians(50.0)), **common)
    path = ((0.0, Vec2(5.0, 5.0)), (28.0, Vec2(50.0, 35.0))) if name == "scenario2" else (
        (0.0, Vec2(5.0, 5.0)), (10.0, Vec2(5.0, 11.5)), (30.0, Vec2(30.0, 25.0)),
        (50.5, Vec2(5.0, 35.0)))
    return WorldConfig(mobility=FixedPath(path), robot_start=Pose(Vec2(30.0, 5.0), 0.0), **common)


@pytest.mark.parametrize("name", experiments.SCENARIO_NAMES)
def test_scenario_preset_keys_build_the_hand_written_worlds(name):
    for sigma in (0.0, 0.1, 1 / 3, 100.0):
        for seed in (0, 7, derive_seed(1, name, sigma, 0)):
            built, literal = scenario_preset(name, sigma, seed), _literal_preset(name, sigma, seed)
            assert built == literal and repr(built) == repr(literal), (sigma, seed)


def test_scenario1_noise_free_converges():
    result = run_scenario("scenario1", iterations=1, sigma_db=0.0, master_seed=1)
    ds = [gap for _, gap in result.distances[0]]
    # the run is noise-free deterministic: the approach dips into the halt
    # band right at the end of the 60 s horizon
    assert min(ds) < 4.5
    assert ds[-1] < min(ds[: len(ds) // 2])


def test_scenario3_distance_rises_then_falls():
    result = run_scenario("scenario3", iterations=2, sigma_db=2.0, master_seed=1)
    for cfg, gaps in zip(result.configs, result.distances):
        x, y = next(cfg.mobility.path(cfg, None))
        d0 = math.hypot(cfg.robot_start.position.x - x, cfg.robot_start.position.y - y)
        ds = [gap for _, gap in gaps]
        assert d0 == pytest.approx(25.0)
        assert max(ds[:20]) > d0  # target initially heads away from the robot
        assert min(ds) < d0 - 5.0


def test_scenario_distances_are_each_iterations_traced_run():
    """fig12's column is each iteration's own run: every cycle's time and the
    math.hypot of its robot-target offset, as float.hex; the metrics too."""
    result = run_scenario("scenario2", iterations=2, sigma_db=2.0, master_seed=4)
    assert len(result.distances) == len(result.configs) == 2
    for cfg, gaps, report in zip(result.configs, result.distances, result.metrics):
        records = []
        assert engine.run_simulation(cfg, sink=records.extend) == report
        assert len(records) == cfg.total_cycles
        want = [(r.time_s.hex(), math.hypot(r.robot_x - r.target_x, r.robot_y - r.target_y).hex())
                for r in records]
        assert [(t.hex(), gap.hex()) for t, gap in gaps] == want


def test_scenario_csv_has_initial_distance_row(tmp_path):
    result = run_scenario("scenario1", iterations=2, sigma_db=2.0, master_seed=3)
    path = write_scenario_csv(result, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,time_s,distance_m"
    assert lines[1] == "0,0.000000,39.051248"
    assert len(lines) == 1 + 2 * (1 + 120)
    again = write_scenario_csv(
        run_scenario("scenario1", iterations=2, sigma_db=2.0, master_seed=3), tmp_path
    )
    assert again.read_bytes() == path.read_bytes()


def test_summary_json(tmp_path):
    from hotcold.analysis import exhaustive_sweep, rotation_sweep

    rotation = rotation_sweep(range(138, 140), range(0, 3))
    exhaustive = exhaustive_sweep(phi_range=range(135, 136), rho_range=range(10, 21, 10))
    grid = run_grid(MINI_GRID)
    path = write_summary_json(tmp_path, verify_convergence(500), rotation, exhaustive, grid)
    summary = json.loads(path.read_text())
    assert summary["rotation_sweep"]["best_phi_deg"] in (138, 139)
    assert summary["exhaustive_sweep"]["best_phi_deg"] == 135
    assert summary["convergence"]["trials"] == 500
    assert summary["convergence"]["total_violations"] == 0
    assert "best_sws_by_mean_average_distance" in summary["grid"]


# ---------------------------------------------------------------------------
# config schema


def test_default_config_builds_table_defaults():
    cfg = default_config()
    world = build_world(cfg)
    assert world.duration_s == 1000.0
    assert world.channel.frequency_hz == 2.4e9
    assert isinstance(world.tracker, HotColdConfig)
    grid = build_grid(cfg, world)
    assert grid.sws_values == tuple(range(1, 11))
    assert grid.sigma_values == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    # the INI defaults are the dataclass defaults, and each tracker's
    # section is exactly its config fields
    assert world == WorldConfig()
    assert build_grid(cfg, WorldConfig()) == ExperimentGrid()
    for tracker in TRACKERS:
        assert set(cfg.get(tracker.name, {})) == {f.name for f in fields(tracker)}


def test_overrides_and_tracker_switch():
    cfg = default_config()
    apply_overrides(
        cfg,
        ["world.duration_s=200", "world.tracker=trilateration", "channel.shadowing_sigma_db=3"],
    )
    world = build_world(cfg)
    assert world.duration_s == 200.0
    assert isinstance(world.tracker, TrilaterationConfig)
    assert world.channel.shadowing_sigma_db == 3.0
    apply_overrides(cfg, ["world.tracker=static"])
    assert isinstance(build_world(cfg).tracker, StaticControl)


def test_override_errors():
    cfg = default_config()
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nonsense"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["world.not_a_key=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["beam.duration_s=1"])
    apply_overrides(cfg, ["world.duration_s=abc"])
    with pytest.raises(ConfigError):
        build_world(cfg)


def test_grid_trackers_are_built_from_their_sections():
    cfg = default_config()
    apply_overrides(cfg, ["hotcold.rotation_angle_deg=90", "trilateration.k_observations=5"])
    grid = build_grid(cfg, build_world(cfg))
    assert grid.trackers == (
        HotColdConfig(rotation_angle_deg=90.0),
        TrilaterationConfig(k_observations=5),
        StaticControl(),
    )
    assert grid.tracker_names == ("hotcold", "trilateration", "static")
    world = experiments.grid_world_config(grid, "hotcold", 7, 2.0, 11)
    assert world.tracker == HotColdConfig(sws=7, rotation_angle_deg=90.0)
    assert world.channel.shadowing_sigma_db == 2.0 and world.seed == 11
    apply_overrides(cfg, ["grid.trackers=hotcold,bogus"])
    with pytest.raises(ConfigError, match="grid.trackers"):
        build_grid(cfg, build_world(cfg))
    # a repeated tracker would run each of its points twice on the same seeds
    apply_overrides(cfg, ["grid.trackers=static,hotcold,Static"])
    with pytest.raises(ConfigError, match="repeat"):
        build_grid(cfg, build_world(cfg))


def test_fixed_path_and_static_mobility_from_config():
    cfg = default_config()
    apply_overrides(
        cfg, ["world.mobility=fixed_path", "world.fixed_path=0:5:5; 28:50:35"]
    )
    world = build_world(cfg)
    assert isinstance(world.mobility, FixedPath)
    assert world.mobility.waypoints[1][0] == 28.0
    # a target that stands still is a path of one point
    for x, y in ((5.0, 5.0), (0.25, 80.0)):
        cfg = default_config()
        apply_overrides(cfg, ["world.mobility=fixed_path", f"world.fixed_path=0:{x}:{y}"])
        assert build_world(cfg).mobility == FixedPath(((0.0, Vec2(x, y)),))
    cfg = default_config()
    apply_overrides(cfg, ["world.mobility=static"])
    with pytest.raises(ConfigError, match="random_waypoint or fixed_path, got 'static'"):
        build_world(cfg)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "experiment.ini"
    write_default_config(path)
    cfg = load_config(path)
    assert cfg == default_config()
    path.write_text(path.read_text().replace("duration_s = 1000.0", "duration_s = 50.0"))
    assert build_world(load_config(path)).duration_s == 50.0
    path.write_text("[world]\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[meta]\nversion = 99\n")
    with pytest.raises(ConfigError):
        load_config(path)
