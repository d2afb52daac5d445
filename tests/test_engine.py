import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hotcold.trilateration
import oracles
from hotcold.channel import ChannelParams, RssiReading, noiseless_rssi
from hotcold.engine import (
    MAX_CYCLE_PERIOD_S,
    MAX_CYCLES,
    MAX_EXTENT_M,
    AVOID_BACK_UP_M,
    MAX_SPEED_KMH,
    NORMALS_CHUNK,
    TRACE_COLUMNS,
    TRACKERS,
    CycleRecord,
    FixedPath,
    RandomWaypoint,
    Rect,
    StaticControl,
    Tracker,
    WorldConfig,
    _trilateration_decide,
    init_world,
    obstacle_avoidance,
    random_waypoint_step,
    run_simulation,
    sensor_reading_cm,
    step_world,
    trace_csv_lines,
)
from hotcold.geometry import Pose, Vec2, bearing, distance
from hotcold.tracker import DecisionKind, HotColdConfig
from hotcold.trilateration import TrilaterationConfig


def test_robot_step_from_speeds():
    cfg = WorldConfig()
    assert cfg.robot_step_m == pytest.approx(1.0, abs=1e-12)  # 7.2 km/h x 0.5 s
    assert cfg.target_step_m == pytest.approx(0.5, abs=1e-12)  # 3.6 km/h x 0.5 s
    assert cfg.total_cycles == 2000


def test_halt_threshold_derived_from_halt_distance():
    assert WorldConfig().halt_threshold_dbm() == pytest.approx(-51.41, abs=0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        WorldConfig(duration_s=1000.3)  # not a multiple of the cycle period
    with pytest.raises(ValueError):
        WorldConfig(cycle_period_s=0.0)
    # negative, over the cycle bound, or an infinite count of finite values
    for duration_s, cycle_period_s in ((-0.5, 0.5), (MAX_CYCLES + 1.0, 1.0), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="cycles"):
            WorldConfig(duration_s=duration_s, cycle_period_s=cycle_period_s)
    assert WorldConfig(duration_s=MAX_CYCLES, cycle_period_s=1.0).total_cycles == MAX_CYCLES
    # the period bound keeps the robot's travel, step times cycles, finite:
    # over it, a step or a distance sum overflowed (1e305 and 1e303 s)
    for cycle_period_s in (math.nextafter(MAX_CYCLE_PERIOD_S, math.inf), 1e303, 1e305):
        with pytest.raises(ValueError, match="cycle period"):
            WorldConfig(duration_s=1000 * cycle_period_s, cycle_period_s=cycle_period_s)
    longest = WorldConfig(duration_s=MAX_CYCLES * MAX_CYCLE_PERIOD_S,
                          cycle_period_s=MAX_CYCLE_PERIOD_S, robot_speed_kmh=MAX_SPEED_KMH)
    assert longest.total_cycles == MAX_CYCLES
    assert longest.robot_step_m * longest.total_cycles < 2.8e14  # the bound's arithmetic
    with pytest.raises(ValueError):
        WorldConfig(robot_speed_kmh=-1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, 0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in (
            "width_m",
            "height_m",
            "duration_s",
            "cycle_period_s",
            "robot_speed_kmh",
            "target_speed_kmh",
            "halt_distance_m",
        ):
            with pytest.raises(ValueError, match="must be finite"):
                WorldConfig(**{name: bad})
        with pytest.raises(ValueError, match="must be finite"):
            Rect(0.0, 0.0, bad, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            FixedPath(((0.0, Vec2(0.0, 0.0)), (bad, Vec2(1.0, 0.0))))


def test_robot_start_inside_an_obstacle_is_rejected():
    # inside, both sensors read 0 cm: every cycle avoids and the run means nothing
    box = Rect(45.0, 45.0, 55.0, 55.0)
    for start in (None, Pose(Vec2(46.0, 54.0), 1.0)):
        with pytest.raises(ValueError, match="inside obstacle"):
            WorldConfig(obstacles=(Rect(0.0, 0.0, 1.0, 1.0), box), robot_start=start)
    # the space center of a narrower space lies left of the box; edges and corners are outside
    assert WorldConfig(width_m=80.0, obstacles=(box,)).robot_start is None
    for x, y in ((45.0, 50.0), (55.0, 50.0), (50.0, 45.0), (50.0, 55.0), (45.0, 45.0)):
        WorldConfig(obstacles=(box,), robot_start=Pose(Vec2(x, y), 0.0))


def test_world_bounds():
    # each of these crashed a run with a traceback or made its average
    # distance infinite before the bounds existed
    over = MAX_EXTENT_M * 1.5
    for bad in (
        dict(seed=-5),
        dict(robot_speed_kmh=MAX_SPEED_KMH * 2),
        dict(target_speed_kmh=MAX_SPEED_KMH * 2),
        dict(robot_speed_kmh=0.0),
        dict(robot_speed_kmh=5e-324),  # the step underflows to zero
        dict(width_m=over),
        dict(height_m=1e308),
        dict(robot_start=Pose(Vec2(0.0, -over), 0.0)),
    ):
        with pytest.raises(ValueError):
            WorldConfig(**bad)
    with pytest.raises(ValueError, match="within"):
        FixedPath(((0.0, Vec2(1e308, 0.0)), (1.0, Vec2(-1e308, 0.0))))
    # a path point takes the robot start's bound; it was clamped into the space
    for point in (Vec2(0.0, -over), Vec2(1e300, -1e300)):
        with pytest.raises(ValueError, match="within"):
            FixedPath(((0.0, point),))
    for corner in (Vec2(MAX_EXTENT_M, -MAX_EXTENT_M), Vec2(-MAX_EXTENT_M, MAX_EXTENT_M)):
        FixedPath(((0.0, corner),))  # the bound itself is allowed
    edge = WorldConfig(
        width_m=MAX_EXTENT_M,
        height_m=MAX_EXTENT_M,
        robot_speed_kmh=MAX_SPEED_KMH,
        target_speed_kmh=0.0,
        robot_start=Pose(Vec2(-MAX_EXTENT_M, MAX_EXTENT_M), 0.0),
        seed=0,
        duration_s=5.0,
    )
    assert math.isfinite(run_simulation(edge)[0].average_distance_m)
    # the longest steps at the longest period, from the same corner
    for tracker in (HotColdConfig(), TrilaterationConfig()):
        far = dataclasses.replace(
            edge, cycle_period_s=MAX_CYCLE_PERIOD_S, duration_s=20 * MAX_CYCLE_PERIOD_S,
            target_speed_kmh=MAX_SPEED_KMH, tracker=tracker,
        )
        assert math.isfinite(run_simulation(far)[0].average_distance_m)


def test_every_tracker_type_has_one_table_entry():
    assert set(TRACKERS) == set(typing.get_args(Tracker))
    for config in (HotColdConfig(), TrilaterationConfig(), StaticControl()):
        state = init_world(WorldConfig(tracker=config, duration_s=1.0))
        new_state, decide = TRACKERS[type(config)]
        assert state.decide is decide
        assert type(state.tracker_state) is type(new_state())


def _path_at(path: FixedPath, cycles: int, config: WorldConfig = WorldConfig()) -> tuple:
    """Where `path` puts the target after `cycles` cycles (0: its start)."""
    return next(itertools.islice(path.path(config, None), cycles, None))


def test_mobility_models_place_and_move_the_target():
    cfg = WorldConfig(width_m=50.0, height_m=50.0)
    still = FixedPath(((0.0, Vec2(80.0, 10.0)),))  # a static target: one waypoint
    assert _path_at(still, 0, cfg) == (50.0, 10.0)  # clamped to the space
    assert _path_at(still, 246, cfg) == (50.0, 10.0)
    assert _path_at(still, 246, WorldConfig(width_m=90.0)) == (80.0, 10.0)
    path = FixedPath(((0.0, Vec2(1.0, 2.0)), (10.0, Vec2(11.0, 2.0))))
    assert _path_at(path, 0, cfg) == (1.0, 2.0)
    # the start is drawn first, then the first waypoint, each x first; the
    # first step walks toward that waypoint
    draws = tuple(float(v) for v in np.random.default_rng(0).uniform(0.0, 50.0, 4))
    walk = RandomWaypoint().path(cfg, np.random.default_rng(0))
    assert next(walk) == draws[:2]
    after = np.random.default_rng(0)
    after.uniform(0.0, 50.0, 4)
    assert next(walk) == random_waypoint_step(*draws, cfg, after)[:2]
    for mobility, end in ((FixedPath(((0.0, Vec2(7.0, 8.0)),)), (7.0, 8.0)), (path, (6.0, 2.0))):
        config = WorldConfig(mobility=mobility, duration_s=5.0)
        state = init_world(config)
        for _ in range(config.total_cycles):
            step_world(state, config)
        assert (state.target_x, state.target_y) == end == _path_at(mobility, config.total_cycles)


# name -> (waypoints as (time, (x, y)), cycle period, cycles); the space is 100 m square
FIXED_PATH_CASES = {
    # a 0.1 s clock lands beside the waypoint times: ten periods add to 0.9999999999999999
    "clock-beside-waypoints": (((0.0, (1.0, 2.0)), (1.0, (7.0, 3.0)), (2.0, (3.0, 9.0)),
                                (3.0, (0.3, 0.7))), 0.1, 40),
    # 0.5 s adds up exactly, onto each waypoint time, where 1.1 + 1.0 * (0.1 - 1.1) != 0.1
    "clock-on-waypoints": (((0.0, (1.0, 2.0)), (2.0, (1.1, 2.3)), (2.5, (0.1, 0.2))), 0.5, 9),
    "ends-before-the-run": (((0.0, (10.0, 10.0)), (3.0, (40.0, 20.0))), 0.5, 30),
    "outside-the-space": (((0.0, (-5.0, 120.0)), (4.0, (130.0, -7.5)), (9.0, (50.0, 50.0))),
                          0.25, 50),
    "one-point": (((0.0, (12.5, 7.25)),), 0.5, 10),
    "minus-zero": (((0.0, (-0.0, -0.0)), (1.0, (-0.0, 5.0)), (2.0, (-3.0, -0.0))), 0.25, 12),
}


@pytest.mark.parametrize("name", sorted(FIXED_PATH_CASES))
def test_fixed_path_yields_the_reference_positions_on_the_accumulated_clock(name):
    """FixedPath.path against the reference's clamped interpolation at
    step_world's clock, 0.0 plus the period once per cycle, as float.hex."""
    waypoints, period, cycles = FIXED_PATH_CASES[name]
    path = FixedPath(tuple((t, Vec2(*xy)) for t, xy in waypoints))
    config = WorldConfig(cycle_period_s=period, duration_s=period * cycles, mobility=path)
    ours = list(itertools.islice(path.path(config, None), cycles + 1))
    t, want = 0.0, []
    for _ in range(cycles + 1):
        point = oracles._clamp_to_space(oracles._position_at(path, t), config)
        want.append((point.x, point.y))
        t += period
    assert [_bits(p) for p in ours] == [_bits(p) for p in want]


def test_step_world_stops_after_total_cycles():
    # ten additions of 0.1 s leave the clock at 0.9999999999999999 s, short
    # of the 1 s duration: the cycle count, not the clock, ends the run, with
    # or without a trace
    config = WorldConfig(duration_s=1.0, cycle_period_s=0.1, seed=19)
    for keep_trace in (True, False):
        state = init_world(config, keep_trace=keep_trace)
        for _ in range(config.total_cycles):
            step_world(state, config)
        assert len(state) == state.cycles == 10 and state.time_s < config.duration_s
        with pytest.raises(ValueError, match="full duration"):
            step_world(state, config)
        assert len(state) == 10
        assert (len(state.trace) == 10) if keep_trace else state.trace is None


def test_shadowing_normals_are_the_channel_stream_drawn_up_front():
    # drawn a chunk at a time: the bits of one scalar draw per cycle, and
    # no more of them than the run has cycles
    for cycles in (4001, 2 * NORMALS_CHUNK + 3):
        config = WorldConfig(duration_s=0.5 * cycles, seed=5)
        channel_rng = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[0])
        scalar = [float(channel_rng.standard_normal()) for _ in range(cycles)]
        assert _bits(init_world(config).shadowing_normals) == _bits(scalar)


def test_a_long_run_sets_up_in_bounded_memory():
    config = WorldConfig(duration_s=5e5)  # 10**6 cycles
    tracemalloc.start()
    try:
        init_world(config, keep_trace=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.total_cycles == 10**6 and peak < 4e6


def test_random_waypoint_step_toward_waypoint():
    cfg = WorldConfig()
    rng = np.random.default_rng(0)
    x, y, wx, wy = random_waypoint_step(10.0, 20.0, 20.0, 20.0, cfg, rng)
    assert x == pytest.approx(10.5, abs=1e-12)
    assert y == pytest.approx(20.0, abs=1e-12)
    assert (wx, wy) == (20.0, 20.0)


def test_random_waypoint_arrival_draws_new_waypoint():
    cfg = WorldConfig()
    rng = np.random.default_rng(1)
    x, y, wx, wy = random_waypoint_step(10.0, 20.0, 10.3, 20.0, cfg, rng)
    assert (x, y) == (10.3, 20.0)
    assert (wx, wy) != (10.3, 20.0)
    assert 0.0 <= wx <= cfg.width_m and 0.0 <= wy <= cfg.height_m


def test_random_waypoint_zero_speed_is_static():
    cfg = WorldConfig(target_speed_kmh=0.0)
    rng = np.random.default_rng(2)
    x, y, wx, wy = random_waypoint_step(10.0, 20.0, 30.0, 20.0, cfg, rng)
    assert (x, y) == (10.0, 20.0)
    assert (wx, wy) == (30.0, 20.0)


def test_waypoints_uniform_chi_square():
    from scipy import stats

    cfg = WorldConfig()
    rng = np.random.default_rng(3)
    draws = np.array(
        [random_waypoint_step(50.0, 50.0, 50.0, 50.1, cfg, rng)[2:] for _ in range(10_000)]
    )
    xs = draws[:, 0]
    ys = draws[:, 1]
    counts, _, _ = np.histogram2d(xs, ys, bins=5, range=[[0, 100], [0, 100]])
    assert stats.chisquare(counts.ravel()).pvalue > 0.01


def test_fixed_path_interpolation():
    path = FixedPath(((0.0, Vec2(0.0, 0.0)), (10.0, Vec2(10.0, 0.0)), (20.0, Vec2(10.0, 20.0))))
    assert _path_at(path, 0) == (0.0, 0.0)
    assert _path_at(path, 10) == (5.0, 0.0)  # 5 s at 0.5 s a cycle
    assert _path_at(path, 30) == (10.0, 10.0)
    assert _path_at(path, 198) == (10.0, 20.0)
    with pytest.raises(ValueError):
        FixedPath(((1.0, Vec2(0.0, 0.0)),))
    with pytest.raises(ValueError):
        FixedPath(((0.0, Vec2(0.0, 0.0)), (0.0, Vec2(1.0, 0.0))))


def test_obstacle_avoidance_rules():
    assert AVOID_BACK_UP_M == 0.10
    both = obstacle_avoidance(20.0, 20.0)
    assert (both.kind, both.rotation_deg) == (DecisionKind.AVOID, 45.0)
    right = obstacle_avoidance(100.0, 20.0)
    assert (right.kind, right.rotation_deg) == (DecisionKind.AVOID, 10.0)
    left = obstacle_avoidance(20.0, 100.0)
    assert (left.kind, left.rotation_deg) == (DecisionKind.AVOID, -10.0)
    assert obstacle_avoidance(200.0, 200.0) is None
    with pytest.raises(ValueError):
        obstacle_avoidance(-1.0, 10.0)
    with pytest.raises(ValueError):
        obstacle_avoidance(10.0, 300.0)


def test_sensor_reading_geometry():
    wall = Rect(1.0, -5.0, 1.5, 5.0)
    pose = (0.0, 0.0, 0.0)  # x, y, heading
    left, right = sensor_reading_cm(*pose, (wall,))
    # both rays hit the wall at 1 m / cos(30 deg)
    assert left == pytest.approx(100.0 / math.cos(math.radians(30.0)), abs=1e-6)
    assert right == pytest.approx(left, abs=1e-9)
    origin = Pose(Vec2(0.0, 0.0), 0.0)
    assert (left, right) == tuple(oracles.sensor_reading_cm(origin, (wall,), side) for side in (1, -1))
    # no rectangle in reach: no readings, where each sensor would read the cap
    assert sensor_reading_cm(*pose, ()) is None
    far = Rect(50.0, -5.0, 51.0, 5.0)
    assert sensor_reading_cm(*pose, (far,)) is None
    assert oracles.sensor_reading_cm(origin, (far,), +1) == 255.0
    behind = Rect(-2.0, -0.5, -1.0, 0.5)  # in reach, but neither ray meets it
    assert sensor_reading_cm(*pose, (behind,)) == (255.0, 255.0)


def test_avoidance_preempts_tracker():
    wall = Rect(0.1, -5.0, 0.3, 5.0)
    cfg = WorldConfig(
        duration_s=0.5,
        obstacles=(wall,),
        mobility=FixedPath(((0.0, Vec2(50.0, 50.0)),)),
        robot_start=Pose(Vec2(0.0, 0.0), 0.0),
    )
    state = init_world(cfg)
    step_world(state, cfg)
    rec = state.trace[0]
    assert rec.decision.startswith("avoid(+45")
    assert rec.robot_x == pytest.approx(-0.10, abs=1e-9)
    assert math.degrees(rec.robot_heading_rad) == pytest.approx(45.0, abs=1e-9)


def test_static_control_never_moves():
    cfg = WorldConfig(duration_s=50.0, tracker=StaticControl(), seed=5)
    _, trace = run_simulation(cfg)
    assert all((rec.robot_x, rec.robot_y, rec.robot_heading_rad) == (50.0, 50.0, 0.0) for rec in trace)
    assert all(rec.decision == "none" for rec in trace)


def test_static_control_static_target_average_is_exact():
    cfg = WorldConfig(
        duration_s=25.0,
        tracker=StaticControl(),
        mobility=FixedPath(((0.0, Vec2(30.0, 50.0)),)),
        seed=6,
    )
    metrics, _ = run_simulation(cfg)
    assert metrics.average_distance_m == pytest.approx(20.0, abs=1e-12)
    assert metrics.total_cycles == 50


def test_noise_free_approach_of_static_target():
    # target dead ahead: distance never increases and the halt band is reached
    cfg = WorldConfig(
        duration_s=100.0,
        tracker=HotColdConfig(sws=4),
        mobility=FixedPath(((0.0, Vec2(100.0, 50.0)),)),
        robot_start=Pose(Vec2(50.0, 50.0), 0.0),
        seed=7,
    )
    metrics, trace = run_simulation(cfg)
    ds = [math.hypot(rec.robot_x - rec.target_x, rec.robot_y - rec.target_y) for rec in trace]
    first_halt = next(i for i, rec in enumerate(trace) if rec.in_halt)
    assert all(b <= a + 1e-12 for a, b in zip(ds[:first_halt], ds[1 : first_halt + 1]))
    assert ds[first_halt] < 3.0
    assert metrics.cycles_in_halt > 0


def test_sws1_noise_free_convergence_under_500_cycles():
    for x, y, heading_deg in ((5.0, 5.0, 0.0), (95.0, 95.0, 180.0), (50.0, 95.0, 90.0)):
        cfg = WorldConfig(
            duration_s=250.0,
            tracker=HotColdConfig(sws=1),
            mobility=FixedPath(((0.0, Vec2(50.0, 50.0)),)),
            robot_start=Pose(Vec2(x, y), math.radians(heading_deg)),
            seed=8,
        )
        _, trace = run_simulation(cfg)
        first_halt = next((i for i, rec in enumerate(trace) if rec.in_halt), None)
        assert first_halt is not None and first_halt < 500


def test_target_stays_in_bounds():
    cfg = WorldConfig(duration_s=300.0, seed=9)
    _, trace = run_simulation(cfg)
    for rec in trace:
        assert 0.0 <= rec.target_x <= cfg.width_m
        assert 0.0 <= rec.target_y <= cfg.height_m


def test_out_of_range_repeats_last_decision():
    # 6 m of range; the robot walks out and keeps repeating "move forward"
    channel = ChannelParams(rx_sensitivity_dbm=noiseless_rssi(6.0, ChannelParams()))
    cfg = WorldConfig(
        duration_s=10.0,
        channel=channel,
        halt_distance_m=1.0,
        tracker=HotColdConfig(sws=2),
        mobility=FixedPath(((0.0, Vec2(0.0, 50.0)),)),
        robot_start=Pose(Vec2(5.0, 50.0), 0.0),
        seed=10,
    )
    _, trace = run_simulation(cfg)
    assert not trace[-1].in_range
    out = [rec for rec in trace if not rec.in_range]
    assert out and all(rec.decision == "move_forward" for rec in out)
    assert trace[-1].robot_x == pytest.approx(5.0 + len(trace), abs=1e-9)


def test_never_fed_tracker_stays_put_out_of_range():
    cfg = WorldConfig(
        duration_s=5.0,
        mobility=FixedPath(((0.0, Vec2(0.0, 0.0)),)),
        robot_start=Pose(Vec2(500.0, 0.0), 0.0),
        seed=11,
    )
    _, trace = run_simulation(cfg)
    assert all(not rec.in_range for rec in trace)
    assert all(rec.decision == "none" for rec in trace)
    assert all((rec.robot_x, rec.robot_y) == (500.0, 0.0) for rec in trace)


def test_determinism_bit_identical_trace():
    cfg = WorldConfig(
        duration_s=60.0, channel=ChannelParams(shadowing_sigma_db=2.0), seed=12
    )
    m1, t1 = run_simulation(cfg)
    m2, t2 = run_simulation(cfg)
    assert t1 == t2
    assert m1 == m2
    assert trace_csv_lines(t1) == trace_csv_lines(t2)
    m3, t3 = run_simulation(WorldConfig(duration_s=60.0, channel=ChannelParams(shadowing_sigma_db=2.0), seed=13))
    assert t3 != t1


def test_trilateration_world_runs_and_halts_noise_free():
    cfg = WorldConfig(
        duration_s=120.0,
        tracker=TrilaterationConfig(),
        mobility=FixedPath(((0.0, Vec2(80.0, 60.0)),)),
        seed=14,
    )
    metrics, _ = run_simulation(cfg)
    assert metrics.cycles_in_range == metrics.total_cycles
    assert metrics.cycles_in_halt > 0


def test_empty_duration_metrics():
    metrics, trace = run_simulation(WorldConfig(duration_s=0.0, seed=15))
    assert trace == []
    assert metrics.total_cycles == 0
    assert math.isnan(metrics.average_distance_m)
    assert metrics.cycles_in_range == 0 and metrics.cycles_in_halt == 0
    assert math.isnan(metrics.cycles_in_range_pct)


def test_compute_metrics_against_recomputation():
    cfg = WorldConfig(duration_s=30.0, channel=ChannelParams(shadowing_sigma_db=1.0), seed=16)
    metrics, trace = run_simulation(cfg)
    mean = float(
        np.mean([math.hypot(r.robot_x - r.target_x, r.robot_y - r.target_y) for r in trace])
    )
    assert metrics.average_distance_m == pytest.approx(mean, rel=1e-12)
    assert metrics.cycles_in_range == sum(1 for r in trace if r.in_range)
    assert metrics.cycles_in_halt == sum(1 for r in trace if r.in_halt)
    assert metrics.cycles_in_halt <= metrics.cycles_in_range <= metrics.total_cycles


def test_trace_csv_schema():
    cfg = WorldConfig(duration_s=1.0, seed=17)
    _, trace = run_simulation(cfg)
    lines = trace_csv_lines(trace)
    assert lines[0] == (
        "time_s,robot_x,robot_y,robot_heading_deg,target_x,target_y,"
        "rssi_dbm,in_range,in_halt,decision"
    )
    assert len(lines) == 3
    assert lines[1].startswith("0.500000,")


_SIGMA2 = ChannelParams(shadowing_sigma_db=2.0)
PINNED_WORLDS = {
    "hotcold_sigma2": WorldConfig(duration_s=100.0, channel=_SIGMA2, seed=21),
    "trilateration": WorldConfig(
        duration_s=100.0, channel=_SIGMA2, tracker=TrilaterationConfig(), seed=22
    ),
    "static_control": WorldConfig(
        duration_s=100.0, channel=_SIGMA2, tracker=StaticControl(), seed=23
    ),
    "hotcold_obstacles": WorldConfig(
        duration_s=100.0,
        channel=_SIGMA2,
        obstacles=(Rect(54.0, 40.0, 56.0, 60.0), Rect(40.0, 56.0, 60.0, 58.0)),
        seed=24,
    ),
    "fixed_path": WorldConfig(
        duration_s=100.0,
        channel=_SIGMA2,
        mobility=FixedPath(
            ((0.0, Vec2(10.0, 10.0)), (60.0, Vec2(80.0, 20.0)), (150.0, Vec2(40.0, 90.0)))
        ),
        seed=25,
    ),
    "static_target": WorldConfig(
        duration_s=100.0,
        channel=_SIGMA2,
        mobility=FixedPath(((0.0, Vec2(70.0, 35.0)),)),
        robot_start=Pose(Vec2(20.0, 80.0), 2.0),
        seed=26,
    ),
    # avoidance maneuvers, cycles with no obstacle in reach and unchanged
    # observation FIFOs in one run
    "trilateration_obstacles": WorldConfig(
        duration_s=200.0,
        channel=_SIGMA2,
        tracker=TrilaterationConfig(),
        obstacles=(Rect(38.0, 44.0, 44.0, 48.0), Rect(55.0, 52.0, 58.0, 60.0)),
        seed=27,
    ),
    # a negative rotation angle turns clockwise
    "hotcold_clockwise": WorldConfig(
        duration_s=100.0, channel=_SIGMA2, tracker=HotColdConfig(rotation_angle_deg=-137.0), seed=28
    ),
}

# sha256 of each world's trace CSV, the exact bits of every record's floats
# and its metrics JSON. Any change to the cycle loop's arithmetic, draw order
# or labels changes a digest; a pure speed-up must leave all eight alone.
PINNED_DIGESTS = {
    "hotcold_sigma2": "cdb7daad090569d9ed17a2f40e385d676d11c194aef190ddd8ebe2128f8228dd",
    "trilateration": "884847f41529d136c9551e63e2a92a6b2cadbb3edd70ae9a68810d1e7a59641b",
    "static_control": "e2145493fe26f366f2d7d14bf0e5067e2d36314e37dfba040556dd594ab7547b",
    "hotcold_obstacles": "ec1d06a0d962a914ad828b09ae1c225b7c16477e091b0af2733373188416a154",
    "fixed_path": "d713355e9d76ea1487dd21e9f7e55c9a436b3872e79295f964dbc26a9d695f09",
    "static_target": "e402a54865e59c7b932bd8f26a120ea080385a95554b8619c0fd2b2e3c696733",
    "trilateration_obstacles": "615a08d451caaac2a164541d3c775c4d9639eacc39272574bf7a9087346e495d",
    "hotcold_clockwise": "960ec68574432c258de494f26d13034b75a0ceaa32ee9c1291dd96a1befd130a",
}


def _run_digest(cfg: WorldConfig) -> str:
    metrics, trace = run_simulation(cfg)
    h = hashlib.sha256()
    h.update("\n".join(trace_csv_lines(trace)).encode())
    for rec in trace:
        bits = (
            rec.time_s,
            rec.robot_x,
            rec.robot_y,
            rec.robot_heading_rad,
            rec.target_x,
            rec.target_y,
            rec.rssi_dbm,
        )
        h.update((",".join(v.hex() for v in bits) + "\n").encode())
    h.update(json.dumps(metrics.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_WORLDS))
def test_engine_output_bytes_pinned(name):
    assert _run_digest(PINNED_WORLDS[name]) == PINNED_DIGESTS[name]


def test_cycle_record_is_an_immutable_named_tuple():
    # every kind of decision: Hot-Cold turns, trilateration steers, avoidances
    obstacles = (Rect(38.0, 44.0, 44.0, 48.0), Rect(55.0, 52.0, 58.0, 60.0))
    labels = set()
    for tracker in (HotColdConfig(), TrilaterationConfig()):
        world = WorldConfig(duration_s=300.0, channel=_SIGMA2, tracker=tracker,
                            obstacles=obstacles, seed=18)
        _, trace = run_simulation(world)
        # the loop builds each record without the class's constructor
        assert all(type(rec) is CycleRecord for rec in trace)
        labels.update(rec.decision.split("(")[0] for rec in trace)
    assert labels >= {"move_forward", "rotate_then_move", "avoid"}
    rec = trace[0]
    assert rec._fields == tuple(c.replace("heading_deg", "heading_rad") for c in TRACE_COLUMNS)
    with pytest.raises(AttributeError):
        rec.decision = "halt"


def _old_random_waypoint_step(target, waypoint, config, rng):
    """The step as written before it was fused: the oracle for the fast one."""
    step = config.target_step_m
    if step == 0.0:
        return target, waypoint
    gap = distance(target.position, waypoint)
    if gap <= step:
        new_waypoint = Vec2(
            float(rng.uniform(0.0, config.width_m)),
            float(rng.uniform(0.0, config.height_m)),
        )
        heading = _bearing(target.position, waypoint) if gap > 0.0 else target.heading_rad
        return Pose(waypoint, heading), new_waypoint
    heading = _bearing(target.position, waypoint)
    return oracles.advance(Pose(target.position, heading), step), waypoint


def _bearing(origin: Vec2, to: Vec2) -> float:
    return bearing(origin.x, origin.y, to.x, to.y)


def _bits(values: tuple[float, ...]) -> tuple[str, ...]:
    return tuple(v.hex() for v in values)


_coord = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)


@settings(derandomize=True, database=None, max_examples=400)
@given(
    x=_coord,
    y=_coord,
    wx=_coord,
    wy=_coord,
    heading=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    speed_kmh=st.floats(min_value=0.0, max_value=500.0),
)
@example(x=1.0, y=2.0, wx=1.0, wy=2.0, heading=3.0, speed_kmh=3.6)  # standing on the waypoint
@example(x=0.0, y=0.0, wx=-0.25, wy=0.0, heading=0.5, speed_kmh=3.6)  # arrival, heading pi
def test_random_waypoint_step_matches_pose_formula(x, y, wx, wy, heading, speed_kmh):
    # the old step also returned a heading; the new one has none to compare
    cfg = WorldConfig(target_speed_kmh=speed_kmh)
    fast = random_waypoint_step(x, y, wx, wy, cfg, np.random.default_rng(0))
    pose, new_waypoint = _old_random_waypoint_step(
        Pose(Vec2(x, y), heading), Vec2(wx, wy), cfg, np.random.default_rng(0)
    )
    slow = (pose.position.x, pose.position.y, new_waypoint.x, new_waypoint.y)
    assert fast == slow
    assert _bits(fast) == _bits(slow)


def test_trilateration_reuses_the_solve_of_an_unchanged_fifo(monkeypatch):
    """An estimate dropped on arrival comes back on the next cycle whose
    observation FIFO is unchanged, as a re-solve would bring it back, but
    without solving again."""
    solves = []
    estimate_target = hotcold.trilateration.estimate_target
    monkeypatch.setattr(hotcold.trilateration, "estimate_target",
                        lambda *args: solves.append(args) or estimate_target(*args))
    config = WorldConfig(tracker=TrilaterationConfig())
    target = Vec2(10.0, 10.7)
    weak = RssiReading(-80.0, True)  # below the halt threshold

    def fix(position: Vec2) -> RssiReading:
        return RssiReading(noiseless_rssi(distance(position, target), config.channel), True)

    corners = [Vec2(0.0, 0.0), Vec2(20.0, 0.0), Vec2(10.0, 10.0)]
    cycles = [(Pose(p, 1.0), fix(p)) for p in corners]  # three fixes, the third solved
    cycles += [
        (Pose(corners[2], 1.0), weak),  # beside the last fix, within a step of the estimate
        (Pose(corners[0], 1.0), weak),  # beside the first fix, far from the estimate
    ]
    ours, theirs = init_world(config), oracles.init_world(config)
    for i, (robot, reading) in enumerate(cycles):
        ours.robot_x, ours.robot_y = robot.position.x, robot.position.y
        ours.robot_heading_rad = robot.heading_rad
        theirs.robot = robot
        before = len(solves)
        got = _trilateration_decide(ours.tracker_state, reading.value_dbm, ours.robot_x,
                                    ours.robot_y, ours.robot_heading_rad, config,
                                    ours.halt_threshold_dbm)
        solved = len(solves) - before
        assert got == oracles._trilateration_decide(theirs, reading, config), i
        assert ours.tracker_state == theirs.tracker_state, i
        assert solved == (i == 2), i
        if i == 3:  # dropped on arrival
            assert ours.tracker_state.current_estimate is None
        if i == 4:  # restored, and steered at
            assert ours.tracker_state.current_estimate is not None
            assert got.kind is DecisionKind.ROTATE_THEN_MOVE
            assert got.rotation_deg != config.tracker.bootstrap_turn_deg


# the two obstacles of the benchmark's traced runs
_TRACED_OBSTACLES = (Rect(38.0, 44.0, 44.0, 48.0), Rect(55.0, 52.0, 58.0, 60.0))
_point = st.builds(Vec2, st.floats(-20.0, 120.0), st.floats(-20.0, 120.0))
_rect = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.floats(0.0, 95.0), st.floats(0.0, 95.0), st.floats(0.2, 10.0), st.floats(0.2, 10.0),
)


@st.composite
def _beside_an_edge(draw, rect: Rect) -> Pose:
    """A robot start just outside one edge of `rect`, facing it or at heading 0."""
    gap = draw(st.one_of(st.floats(0.0, 0.6), st.sampled_from([0.0, 0.25, 0.35])))
    mid_x, mid_y = (rect.x_min + rect.x_max) / 2.0, (rect.y_min + rect.y_max) / 2.0
    x, y, facing = draw(st.sampled_from([
        (rect.x_min - gap, mid_y, 0.0),
        (rect.x_max + gap, mid_y, math.pi),
        (mid_x, rect.y_min - gap, math.pi / 2.0),
        (mid_x, rect.y_max + gap, 1.5 * math.pi),
    ]))
    return Pose(Vec2(x, y), draw(st.sampled_from([facing, 0.0])))


@st.composite
def _worlds(draw) -> WorldConfig:
    tracker = draw(st.one_of(
        st.builds(HotColdConfig, sws=st.integers(1, 10)),
        st.just(TrilaterationConfig()),
        st.just(StaticControl()),
    ))
    mobility = draw(st.one_of(
        st.just(RandomWaypoint()),
        _point.map(lambda p: FixedPath(((0.0, p),))),
        st.lists(_point, min_size=1, max_size=4).map(
            lambda points: FixedPath(tuple((20.0 * i, p) for i, p in enumerate(points)))
        ),
    ))
    obstacles = draw(st.one_of(
        st.just(()), st.just(_TRACED_OBSTACLES), st.lists(_rect, min_size=1, max_size=3).map(tuple)
    ))
    starts = [st.none(), st.builds(Pose, _point, st.just(0.0))]
    starts += [_beside_an_edge(rect) for rect in obstacles]
    # WorldConfig rejects a start strictly inside a rectangle; one on an edge is kept
    start = draw(st.one_of(starts).filter(lambda start: not _inside(start, obstacles)))
    return WorldConfig(
        duration_s=0.5 * draw(st.integers(1, 300)),
        channel=ChannelParams(shadowing_sigma_db=draw(st.floats(0.0, 6.0) | st.sampled_from([0.0, 2.0]))),
        tracker=tracker,
        mobility=mobility,
        obstacles=obstacles,
        seed=draw(st.integers(0, 2**32)),
        robot_start=start,
    )


def _inside(start: Pose | None, obstacles: tuple[Rect, ...]) -> bool:
    x, y = (50.0, 50.0) if start is None else (start.position.x, start.position.y)
    return any(r.x_min < x < r.x_max and r.y_min < y < r.y_max for r in obstacles)


def test_traced_run_builds_no_vec2_or_pose_per_cycle(monkeypatch):
    """A traced trilateration run among the benchmark's obstacles builds its
    Vec2s and Poses at set-up and one Vec2 per accepted solve (the estimate),
    so 400 cycles build as many others as 10."""
    built = []
    for cls in (Vec2, Pose):
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, post_init=post_init: built.append(self) or post_init(self))
    estimates = []
    estimate_target = hotcold.trilateration.estimate_target
    monkeypatch.setattr(hotcold.trilateration, "estimate_target",
                        lambda *args: estimates.append(estimate_target(*args)) or estimates[-1])
    others = []
    for cycles in (10, 400):
        config = WorldConfig(duration_s=0.5 * cycles, channel=_SIGMA2, tracker=TrilaterationConfig(),
                             obstacles=_TRACED_OBSTACLES, seed=27)
        built.clear()
        estimates.clear()
        _, trace = run_simulation(config)
        assert len(trace) == cycles
        others.append(len(built) - sum(e is not None for e in estimates))
    assert any(rec.decision.startswith("avoid") for rec in trace)  # the sensors were read
    assert sum(e is not None for e in estimates) > 0  # fixes were stored and solved
    assert others[0] == others[1]
    built.clear()  # a drawn target and a blank robot start are placed as floats
    init_world(WorldConfig())
    assert built == []


def _floats_of(state) -> tuple[float, ...]:
    if isinstance(state, oracles.WorldState):
        robot, target = state.robot, state.target
        floats = (robot.position.x, robot.position.y, robot.heading_rad, target.x, target.y)
    else:
        floats = (state.robot_x, state.robot_y, state.robot_heading_rad, state.target_x,
                  state.target_y)
    return floats + (state.time_s, state.distance_sum)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(config=_worlds())
@example(config=WorldConfig(duration_s=200.0, channel=_SIGMA2, tracker=TrilaterationConfig(),
                            obstacles=_TRACED_OBSTACLES, seed=27))
@example(config=WorldConfig(duration_s=100.0, channel=_SIGMA2, obstacles=_TRACED_OBSTACLES,
                            seed=1, robot_start=Pose(Vec2(37.9, 46.0), 0.0)))
def test_float_cycle_loop_matches_the_pose_loop(config):
    """The cycle loop on floats against the one on Vec2 and Pose, with and
    without a trace, every cycle: the robot and target floats and
    the KPI sums bit for bit, and the decision labels; each flat trace record
    against the nested one field by field, its floats bit for bit."""
    theirs = oracles.init_world(config)
    ours = [init_world(config), init_world(config, keep_trace=False)]
    for cycle in range(config.total_cycles):
        oracles.step_world(theirs, config)
        want = _bits(_floats_of(theirs))
        counts = (theirs.cycles, theirs.cycles_in_range, theirs.cycles_in_halt)
        for state in ours:
            step_world(state, config)
            assert _bits(_floats_of(state)) == want, cycle
            assert (state.cycles, state.cycles_in_range, state.cycles_in_halt) == counts, cycle
        rec, old = ours[0].trace[-1], oracles.flat_record(theirs.trace[-1])
        assert rec.decision == old[-1], cycle
        assert _bits(rec[:7]) == _bits(old[:7]) and rec[7:] == old[7:], cycle


def _world_bits(state) -> tuple:
    """Every float of a state as float.hex, its three counters and its trace length."""
    trace = None if state.trace is None else len(state.trace)
    return (_bits(_floats_of(state)), state.cycles, state.cycles_in_range, state.cycles_in_halt,
            trace)


def _record_bits(rec: CycleRecord) -> tuple:
    return _bits(rec[:7]) + rec[7:]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(config=_worlds(), cuts=st.lists(st.integers(0, 300), max_size=6))
# past the first chunk of normals: cut on its boundary and beside it
@example(config=WorldConfig(duration_s=0.5 * (NORMALS_CHUNK + 5), channel=_SIGMA2, seed=3),
         cuts=[NORMALS_CHUNK - 1, NORMALS_CHUNK, NORMALS_CHUNK + 1])
@example(config=WorldConfig(duration_s=0.5 * (NORMALS_CHUNK + 5), channel=_SIGMA2, seed=4,
                            mobility=FixedPath(((0.0, Vec2(1.0, 2.0)), (1000.0, Vec2(90.0, 3.0))))),
         cuts=[NORMALS_CHUNK, NORMALS_CHUNK + 2])
def test_chunked_stepping_matches_single_cycles(config, cuts):
    """A run stepped in chunks of random sizes ends where the run stepped one
    cycle at a time ends, with and without a trace: every float bit for bit,
    the counters, the last decision and every trace record. Between chunks,
    a count of 0 changes nothing, and a negative count or one past the run's
    end raises and changes nothing."""
    total = config.total_cycles
    cuts = sorted(min(cut, total) for cut in cuts)
    for keep_trace in (True, False):
        single, chunked = init_world(config, keep_trace), init_world(config, keep_trace)
        for _ in range(total):
            step_world(single, config)
        for start, end in zip([0, *cuts], [*cuts, total]):
            before = _world_bits(chunked)
            assert step_world(chunked, config, 0) is chunked
            assert _world_bits(chunked) == before
            for bad in (-1, total - start + 1):
                with pytest.raises(ValueError, match="full duration"):
                    step_world(chunked, config, bad)
                assert _world_bits(chunked) == before
            step_world(chunked, config, end - start)
        assert _world_bits(chunked) == _world_bits(single)
        assert chunked.last_decision == single.last_decision
        assert chunked.tracker_state == single.tracker_state
        if keep_trace:
            assert list(map(_record_bits, chunked.trace)) == list(map(_record_bits, single.trace))
