"""The obstacle sensor, its reach cull and the trace writer against their
earlier versions in oracles.py, bit for bit: float.hex for readings, string
equality for trace lines."""

import math
import operator

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hotcold.engine import (
    AVOID_BOTH,
    AVOID_LABELS,
    AVOID_LEFT,
    AVOID_RIGHT,
    SENSOR_MAX_CM,
    SENSOR_RAY_OFFSET_RAD,
    SENSOR_REACH_M,
    CycleRecord,
    Rect,
    obstacle_avoidance,
    obstacles_in_reach,
    sensor_reading_cm,
    trace_csv_lines,
)
from hotcold.geometry import TWO_PI, Pose, Vec2
from hotcold.tracker import DecisionKind, TrackerDecision


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
def _rect_near(draw, ox: float, oy: float) -> Rect:
    """A rectangle whose edges sit at drawn offsets from the origin, each
    moved by up to two ulps: a corner or an edge can land exactly on the
    origin or exactly at the reach."""
    x_min = _nudge(ox + draw(_offsets), draw(st.integers(-2, 2)))
    y_min = _nudge(oy + draw(_offsets), draw(st.integers(-2, 2)))
    x_max = max(_nudge(x_min + draw(_widths), draw(st.integers(-1, 1))), math.nextafter(x_min, math.inf))
    y_max = max(_nudge(y_min + draw(_widths), draw(st.integers(-1, 1))), math.nextafter(y_min, math.inf))
    return Rect(x_min, y_min, x_max, y_max)


@st.composite
def _scenes(draw):
    ox, oy = draw(_coords), draw(_coords)
    rects = draw(st.lists(_rect_near(ox, oy), max_size=3))
    return Pose(Vec2(ox, oy), draw(_headings)), tuple(rects)


def _check_reading(pose: Pose, rects: tuple[Rect, ...], side: int) -> None:
    """The reading from all rectangles and from those in reach, against the
    oracle's from all; with none in reach both sensors read the cap and no
    maneuver follows."""
    want = oracles.sensor_reading_cm(pose, rects, side)
    x, y = pose.position.x, pose.position.y
    near = obstacles_in_reach(x, y, rects)
    for seen in (rects, near):
        got = sensor_reading_cm(x, y, pose.heading_rad, seen, side)
        assert got.hex() == want.hex(), (pose, seen, side)
    if not near:
        other = oracles.sensor_reading_cm(pose, rects, -side)
        assert (want, other) == (SENSOR_MAX_CM, SENSOR_MAX_CM), (pose, rects)
        assert obstacle_avoidance(want, other) is None


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(scene=_scenes(), side=st.sampled_from([1, -1]))
def test_sensor_reading_matches_oracle(scene, side):
    _check_reading(*scene, side)


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
            for side in (1, -1):
                _check_reading(pose, (wall,), side)
                _check_reading(pose, (wall, wall, wall), side)
        pose, _ = _straight_ahead(ox, 0.0)
        _check_reading(pose, (), 1)
    # inside a rectangle, on its edges and corners, and grazing a corner
    box = Rect(-1.0, -1.0, 1.0, 1.0)
    for x in (-1.0, 0.0, 1.0):
        for y in (-1.0, 0.0, 1.0):
            for heading in [0.0, 1.0, *(h % TWO_PI for h in _AXIS_HEADINGS)]:
                for side in (1, -1):
                    _check_reading(Pose(Vec2(x, y), heading), (box,), side)
    graze = Pose(Vec2(-2.0, -2.0), math.pi / 4.0 - SENSOR_RAY_OFFSET_RAD)
    _check_reading(graze, (Rect(-1.0, -1.0, 0.0, 0.0),), 1)


def test_sensor_rays_parallel_to_an_axis():
    pose = Pose(Vec2(0.0, 0.0), math.pi / 2.0 - SENSOR_RAY_OFFSET_RAD)  # left ray along +y
    ahead = Rect(-0.5, 1.0, 0.5, 2.0)
    beside = Rect(0.5, 1.0, 1.5, 2.0)
    assert math.cos(pose.heading_rad + SENSOR_RAY_OFFSET_RAD) < 1e-15
    assert sensor_reading_cm(0.0, 0.0, pose.heading_rad, (ahead,), 1) == 100.0
    assert sensor_reading_cm(0.0, 0.0, pose.heading_rad, (beside,), 1) == 255.0
    # the origin a hair outside the slab: a parallel ray misses, a ray just
    # off parallel crosses into the slab within reach
    hair = Rect(1e-15, 1.0, 1.0, 2.0)
    for turn in _AXIS_TURNS:
        turned = Pose(Vec2(0.0, 0.0), pose.heading_rad + turn)
        for rects in ((ahead,), (beside,), (ahead, beside), (hair,)):
            _check_reading(turned, rects, 1)


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
    # the trace reads an avoidance's label from the table, formatted once
    assert sorted(AVOID_LABELS) == sorted(m.rotation_deg for m in (AVOID_BOTH, AVOID_RIGHT,
                                                                   AVOID_LEFT))
    for angle, label in AVOID_LABELS.items():
        assert label == TrackerDecision(DecisionKind.AVOID, angle).label == f"avoid({angle:+.4f})"
