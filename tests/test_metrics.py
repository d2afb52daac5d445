"""A run's KPIs from its per-cycle sums, with a trace and without one,
against the trace-walking compute_metrics kept in oracles.py, bit for bit:
float.hex of the average distance and the exact counts."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from traced import traced_run
from hotcold.channel import ChannelParams
from hotcold.engine import (
    FixedPath,
    Rect,
    StaticControl,
    WorldConfig,
    run_simulation,
)
from hotcold.geometry import Pose, Vec2
from hotcold.trilateration import TrilaterationConfig


def _bits(report) -> tuple:
    counts = (report.cycles_in_range, report.cycles_in_halt, report.total_cycles)
    assert all(type(c) is int for c in counts)
    return (report.average_distance_m.hex(), *counts)


def _run_bits(config: WorldConfig) -> tuple:
    """The report's bits with a trace and without one; both must equal the
    oracle's from the trace."""
    report, trace = traced_run(config)
    bare = run_simulation(config)
    assert len(trace) == config.total_cycles
    nested = [oracles.CycleRecord(r.time_s, Pose(Vec2(r.robot_x, r.robot_y), r.robot_heading_rad),
                                  Vec2(r.target_x, r.target_y), *r[6:]) for r in trace]
    oracle = _bits(oracles.compute_metrics(nested))
    assert _bits(report) == _bits(bare) == oracle
    return oracle


_SIGMA2 = ChannelParams(shadowing_sigma_db=2.0)
WORLDS = {
    "one_cycle": WorldConfig(duration_s=0.5, seed=30),
    "hotcold_sigma2": WorldConfig(duration_s=100.0, channel=_SIGMA2, seed=31),
    "trilateration": WorldConfig(
        duration_s=100.0, channel=_SIGMA2, tracker=TrilaterationConfig(), seed=32
    ),
    "static_control": WorldConfig(
        duration_s=100.0, channel=_SIGMA2, tracker=StaticControl(), seed=33
    ),
    "two_obstacles": WorldConfig(
        duration_s=100.0,
        channel=_SIGMA2,
        obstacles=(Rect(54.0, 40.0, 56.0, 60.0), Rect(40.0, 56.0, 60.0, 58.0)),
        seed=34,
    ),
    "fixed_path": WorldConfig(
        duration_s=100.0,
        channel=_SIGMA2,
        mobility=FixedPath(((0.0, Vec2(10.0, 10.0)), (60.0, Vec2(80.0, 20.0)))),
        seed=35,
    ),
    "static_target": WorldConfig(
        duration_s=100.0,
        channel=_SIGMA2,
        mobility=FixedPath(((0.0, Vec2(70.0, 35.0)),)),
        robot_start=Pose(Vec2(20.0, 80.0), 2.0),
        seed=36,
    ),
    "halting": WorldConfig(
        duration_s=100.0, channel=_SIGMA2, mobility=FixedPath(((0.0, Vec2(60.0, 50.0)),)), seed=37
    ),
}


def test_empty_trace_matches_the_oracle():
    assert _run_bits(WorldConfig(duration_s=0.0)) == ("nan", 0, 0, 0)


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_run_traces_match_the_oracle(name):
    _run_bits(WORLDS[name])


# a motionless robot anywhere in +-1e6 m, with both zeros, and a target at
# 1e-6 to 1e6 m from it, or on it, fixed or on a timed path; the space spans
# 1e6 m, so a target beyond it is clamped to its edge
_coords = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0]),
)
_gaps = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1e-6, 1e6]),
)


@st.composite
def _target(draw, x: float, y: float) -> Vec2:
    gap, angle = draw(_gaps), draw(st.floats(min_value=-math.pi, max_value=math.pi))
    if draw(st.booleans()):  # along an axis: a -0.0 target coordinate stays -0.0
        tx, ty = (x + gap, y) if draw(st.booleans()) else (x, y - gap)
    else:
        tx, ty = x + gap * math.cos(angle), y + gap * math.sin(angle)
    # a fixed path's points must lie within +-1e6 m
    return Vec2(min(max(tx, -1e6), 1e6), min(max(ty, -1e6), 1e6))


@st.composite
def _worlds(draw) -> WorldConfig:
    x, y = draw(_coords), draw(_coords)
    first, last = draw(_target(x, y)), draw(_target(x, y))
    if draw(st.booleans()):
        mobility = FixedPath(((0.0, first),))
    else:
        mobility = FixedPath(((0.0, first), (draw(st.sampled_from([0.5, 2.0])), last)))
    return WorldConfig(
        width_m=1e6, height_m=1e6, duration_s=0.5 * draw(st.integers(1, 8)),
        tracker=StaticControl(), mobility=mobility, robot_start=Pose(Vec2(x, y), 0.0),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(derandomize=True, database=None, max_examples=300)
@given(_worlds())
@example(WorldConfig(
    duration_s=0.5, tracker=StaticControl(), mobility=FixedPath(((0.0, Vec2(-0.0, 0.0)),)),
    robot_start=Pose(Vec2(-0.0, -0.0), 0.0),
))
def test_random_traces_match_the_oracle(config):
    _run_bits(config)


def test_distances_are_added_left_to_right():
    # 1e6 first swallows the two halves of an ulp that a compensated or
    # reordered sum would keep: a motionless robot at the origin, a target
    # 1e6 m off for one cycle and 2**-34 m off for two
    config = WorldConfig(
        width_m=1e6, duration_s=1.5, tracker=StaticControl(),
        mobility=FixedPath(((0.0, Vec2(1e6, 0.0)), (0.5, Vec2(1e6, 0.0)), (0.75, Vec2(2.0**-34, 0.0)))),
        robot_start=Pose(Vec2(0.0, 0.0), 0.0),
    )
    _, trace = traced_run(config)
    gaps = [1e6, 2.0**-34, 2.0**-34]
    assert [math.hypot(r.target_x, r.target_y) for r in trace] == gaps
    for report in (traced_run(config)[0], run_simulation(config)):
        assert report.average_distance_m == ((1e6 + 2.0**-34) + 2.0**-34) / 3
        assert report.average_distance_m != math.fsum(gaps) / 3
