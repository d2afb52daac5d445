"""The obstacle sensors, their reach cull and the trace writer against
their earlier versions in oracles.py, bit for bit: float.hex for readings,
string equality for trace lines; the trace labels and the streamed trace."""

import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hotcold import engine
from traced import traced_run, traced_world
from hotcold.channel import ChannelParams
from hotcold.engine import (
    AVOID_BOTH,
    AVOID_LEFT,
    AVOID_RIGHT,
    NORMALS_CHUNK,
    SENSOR_MAX_CM,
    SENSOR_RAY_OFFSET_RAD,
    SENSOR_REACH_M,
    CycleRecord,
    FixedPath,
    Rect,
    StaticControl,
    WorldConfig,
    obstacle_avoidance,
    run_simulation,
    sensor_reading_cm,
    step_world,
    trace_csv_lines,
    trace_csv_sink,
    trace_labels,
)
from hotcold.geometry import TWO_PI, Pose, Vec2
from hotcold.tracker import HALT, MOVE_FORWARD, HotColdConfig, rotate_then_move
from hotcold.trilateration import TrilaterationConfig


def _nudge(value: float, ulps: int) -> float:
    toward = math.copysign(math.inf, ulps)
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


# Headings that put one sensor ray on an axis: there |cos| or |sin| of the
# ray direction falls below the 1e-15 parallel-ray threshold.
_AXIS_HEADINGS = [
    k * math.pi / 2.0 - side * SENSOR_RAY_OFFSET_RAD for k in range(4) for side in (1, -1)
]
# turns off those headings on both sides of the threshold, and well past it
_AXIS_TURNS = [0.0, 5e-16, -5e-16, 2e-15, -2e-15, 1e-14, -1e-14, 1e-9, -1e-9, 1e-4, -1e-4]
_headings = st.one_of(
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    st.builds(_nudge, st.sampled_from(_AXIS_HEADINGS), st.integers(-2, 2)),
    st.builds(operator.add, st.sampled_from(_AXIS_HEADINGS), st.sampled_from(_AXIS_TURNS)),
)
_coords = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.builds(_nudge, st.sampled_from([0.0, -0.0, 1.0, 50.0, 1e6, -1e6]), st.integers(-2, 2)),
)
# Edge offsets from the origin: on the origin (0.0 and -0.0), at the reach
# and the sensor cap, and anywhere within a few metres.
_EDGE_OFFSETS = [0.0, -0.0, 2.55, 2.6, -2.55, -2.6, 2.5, -2.5, 1e-12, -1e-12]
_offsets = st.one_of(
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    st.sampled_from(_EDGE_OFFSETS),
)
_widths = st.one_of(st.floats(min_value=1e-9, max_value=8.0), st.sampled_from([1e-9, 0.5, 2.6]))


@st.composite
def _rect_near(draw, ox: float, oy: float, offsets=_offsets) -> Rect:
    """A rectangle whose edges sit at drawn offsets from the origin, each
    moved by up to two ulps: a corner or an edge can land exactly on the
    origin or exactly at the reach."""
    x_min = _nudge(ox + draw(offsets), draw(st.integers(-2, 2)))
    y_min = _nudge(oy + draw(offsets), draw(st.integers(-2, 2)))
    x_max = max(_nudge(x_min + draw(_widths), draw(st.integers(-1, 1))), math.nextafter(x_min, math.inf))
    y_max = max(_nudge(y_min + draw(_widths), draw(st.integers(-1, 1))), math.nextafter(y_min, math.inf))
    return Rect(x_min, y_min, x_max, y_max)


@st.composite
def _scenes(draw, max_rects: int = 3, offsets=_offsets):
    ox, oy = draw(_coords), draw(_coords)
    rects = draw(st.lists(_rect_near(ox, oy, offsets), max_size=max_rects))
    return Pose(Vec2(ox, oy), draw(_headings)), tuple(rects)


def _check_readings(pose: Pose, rects: tuple[Rect, ...]) -> None:
    """Both readings, from all rectangles and from those in reach, against
    the oracle's per-side readings from all; with none in reach there are
    no readings, both oracle sensors read the cap and no maneuver follows."""
    want = tuple(oracles.sensor_reading_cm(pose, rects, side) for side in (1, -1))
    x, y = pose.position.x, pose.position.y
    near = tuple(oracles.obstacles_in_reach(pose.position, rects))
    for seen in (rects, near):
        got = sensor_reading_cm(x, y, pose.heading_rad, seen)
        if not near:
            assert got is None, (pose, seen)
        else:
            assert [v.hex() for v in got] == [v.hex() for v in want], (pose, seen)
    if not near:
        assert want == (SENSOR_MAX_CM, SENSOR_MAX_CM), (pose, rects)
        assert obstacle_avoidance(*want) is None


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(scene=_scenes())
def test_sensor_reading_matches_oracle(scene):
    _check_readings(*scene)


# up to six rectangles, any of them in reach or as far as 12 m
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(scene=_scenes(6, st.one_of(_offsets, st.floats(min_value=-12.0, max_value=12.0))))
def test_no_readings_exactly_when_nothing_is_in_reach(scene):
    pose, rects = scene
    got = sensor_reading_cm(pose.position.x, pose.position.y, pose.heading_rad, rects)
    assert (got is None) == (not oracles.obstacles_in_reach(pose.position, rects)), (pose, rects)


def _straight_ahead(ox: float, gap: float) -> tuple[Pose, Rect]:
    """A pose at (ox, 0) whose left ray points along +x, and a wall whose
    near edge is `gap` ahead of it as computed."""
    pose = Pose(Vec2(ox, 0.0), TWO_PI - SENSOR_RAY_OFFSET_RAD)
    x_min = ox + gap
    return pose, Rect(x_min, -1.0, x_min + 1.0, 1.0)


def test_sensor_reading_matches_oracle_at_fixed_cases():
    reach = SENSOR_REACH_M
    for ox in (0.0, -0.0, 1e6, -1e6, 123.456):
        for gap in (reach, math.nextafter(reach, 0.0), math.nextafter(reach, math.inf),
                    2.55, math.nextafter(2.55, math.inf), 2.549, 0.0, 1.0):
            pose, wall = _straight_ahead(ox, gap)
            _check_readings(pose, (wall,))
            _check_readings(pose, (wall, wall, wall))
        pose, _ = _straight_ahead(ox, 0.0)
        _check_readings(pose, ())
    # inside a rectangle, on its edges and corners, and grazing a corner
    box = Rect(-1.0, -1.0, 1.0, 1.0)
    for x in (-1.0, 0.0, 1.0):
        for y in (-1.0, 0.0, 1.0):
            for heading in [0.0, 1.0, *(h % TWO_PI for h in _AXIS_HEADINGS)]:
                _check_readings(Pose(Vec2(x, y), heading), (box,))
    graze = Pose(Vec2(-2.0, -2.0), math.pi / 4.0 - SENSOR_RAY_OFFSET_RAD)
    _check_readings(graze, (Rect(-1.0, -1.0, 0.0, 0.0),))


def test_sensor_rays_parallel_to_an_axis():
    pose = Pose(Vec2(0.0, 0.0), math.pi / 2.0 - SENSOR_RAY_OFFSET_RAD)  # left ray along +y
    ahead = Rect(-0.5, 1.0, 0.5, 2.0)
    beside = Rect(0.5, 1.0, 1.5, 2.0)
    assert math.cos(pose.heading_rad + SENSOR_RAY_OFFSET_RAD) < 1e-15
    assert sensor_reading_cm(0.0, 0.0, pose.heading_rad, (ahead,))[0] == 100.0
    assert sensor_reading_cm(0.0, 0.0, pose.heading_rad, (beside,))[0] == 255.0
    # the origin a hair outside the slab: a parallel ray misses, a ray just
    # off parallel crosses into the slab within reach
    hair = Rect(1e-15, 1.0, 1.0, 2.0)
    for turn in _AXIS_TURNS:
        turned = Pose(Vec2(0.0, 0.0), pose.heading_rad + turn)
        for rects in ((ahead,), (beside,), (ahead, beside), (hair,)):
            _check_readings(turned, rects)


_floats = st.one_of(
    st.floats(min_value=-2e6, max_value=2e6, allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-7, -5e-7, 0.0000015, 1.2345665, 2.5e-7, 999999.9999995, -1e6]),
)
_records = st.builds(
    oracles.CycleRecord,
    time_s=_floats,
    robot=st.builds(Pose, st.builds(Vec2, _floats, _floats), st.floats(-10.0, 10.0)),
    target=st.builds(Vec2, _floats, _floats),
    rssi_dbm=_floats,
    in_range=st.booleans(),
    in_halt=st.booleans(),
    decision=st.sampled_from(["none", "halt", "move_forward", "rotate_then_move(-0.0000)",
                              AVOID_LEFT.label, AVOID_BOTH.label]),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(trace=st.lists(_records, max_size=5))
@example(trace=[])
def test_trace_csv_lines_match_oracle(trace):
    flat = [CycleRecord(*oracles.flat_record(rec)) for rec in trace]
    assert trace_csv_lines(flat) == oracles.trace_csv_lines(trace)


def test_avoidance_maneuvers_are_shared_and_labelled():
    assert obstacle_avoidance(20.0, 20.0) is AVOID_BOTH
    assert obstacle_avoidance(100.0, 20.0) is AVOID_RIGHT
    assert obstacle_avoidance(20.0, 100.0) is AVOID_LEFT
    for maneuver in (AVOID_BOTH, AVOID_RIGHT, AVOID_LEFT):
        assert maneuver.label == f"avoid({maneuver.rotation_deg:+.4f})"


def test_avoid_labels_are_the_formatted_labels():
    # the trace reads a repeated decision's label from the table, formatted once
    avoids = {AVOID_BOTH, AVOID_RIGHT, AVOID_LEFT}
    for tracker in (HotColdConfig(), HotColdConfig(rotation_angle_deg=-45.0), TrilaterationConfig(),
                    StaticControl()):
        labels = trace_labels(tracker)
        assert labels.pop(None) == "none"
        turns = {tracker.cold_turn} if isinstance(tracker, HotColdConfig) else set()
        assert set(labels) == {MOVE_FORWARD, HALT} | avoids | turns
        for act, label in labels.items():
            assert label == act.label
        for act in avoids:
            assert labels[act] == f"avoid({act.rotation_deg:+.4f})"


_WALL = Rect(50.1, 40.0, 52.0, 60.0)  # 10 cm ahead of the default start: both sensors trigger


@pytest.mark.parametrize("tracker", [TrilaterationConfig(), HotColdConfig(rotation_angle_deg=45.0)],
                         ids=["trilateration", "hotcold-45"])
@pytest.mark.parametrize("angle", [45.0, 10.0, -10.0, 0.0, -0.0])
def test_a_steer_keeps_its_own_label_beside_avoidances_of_its_angle(tracker, angle):
    """A steer of an avoidance's angle, or of -0.0, is traced with its own
    formatted label, never one from the table keyed by a like angle."""
    config = WorldConfig(duration_s=30.0, tracker=tracker, obstacles=(_WALL,),
                         mobility=FixedPath(((0.0, Vec2(45.0, 50.0)),)))
    state = traced_world(config)
    steer = rotate_then_move(angle)
    state.decide = lambda *_: steer
    seen = set()
    for _ in range(config.total_cycles):
        readings = sensor_reading_cm(state.robot_x, state.robot_y, state.robot_heading_rad,
                                     config.obstacles)
        act = (readings and obstacle_avoidance(*readings)) or steer
        step_world(state, config)
        assert state.trace[-1].decision == act.label
        seen.add(state.trace[-1].decision)
    assert seen == {"avoid(+10.0000)", "avoid(+45.0000)", f"rotate_then_move({angle:+.4f})"}


_STREAMED = dict(channel=ChannelParams(shadowing_sigma_db=2.0), tracker=TrilaterationConfig(),
                 obstacles=(Rect(38.0, 44.0, 44.0, 48.0), Rect(55.0, 52.0, 58.0, 60.0)), seed=27)


@pytest.mark.parametrize("cycles", [0, 1, NORMALS_CHUNK, NORMALS_CHUNK + 1, 2 * NORMALS_CHUNK + 1])
def test_a_streamed_trace_csv_equals_the_whole_trace(cycles, tmp_path):
    """A run with a sink hands it NORMALS_CHUNK records at a time, keeps none
    and writes the bytes of the whole trace written at once."""
    config = WorldConfig(duration_s=0.5 * cycles, **_STREAMED)
    metrics, trace = traced_run(config)
    with open(tmp_path / "whole.csv", "w", newline="") as fh:
        trace_csv_sink(fh)(trace)
    chunks = []
    with open(tmp_path / "streamed.csv", "w", newline="") as fh:
        sink = trace_csv_sink(fh)
        streamed = run_simulation(
            config, sink=lambda records: chunks.append(records) or sink(records))
    assert streamed == metrics
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    starts = range(0, max(cycles, 1), NORMALS_CHUNK)  # one empty chunk for no cycles
    assert [len(c) for c in chunks] == [min(NORMALS_CHUNK, cycles - i) for i in starts]
    assert [rec for chunk in chunks for rec in chunk] == trace
    assert trace_csv_lines(trace[1:], header=False) == trace_csv_lines(trace)[2:]


def test_an_untraced_run_builds_no_label_table(monkeypatch):
    """Without a sink, a run among obstacles, past one chunk, never formats
    its trace labels; the same run with a sink does."""
    def refuse(tracker):
        raise AssertionError("trace_labels called")

    monkeypatch.setattr(engine, "trace_labels", refuse)
    for tracker in (HotColdConfig(), TrilaterationConfig()):
        config = WorldConfig(duration_s=0.5 * (NORMALS_CHUNK + 1), **{**_STREAMED, "tracker": tracker})
        assert run_simulation(config).total_cycles == NORMALS_CHUNK + 1
        with pytest.raises(AssertionError, match="trace_labels called"):
            run_simulation(config, sink=lambda records: None)
