"""compute_metrics against its earlier version in oracles.py, bit for bit:
float.hex of the average distance and the exact counts."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hotcold.channel import ChannelParams
from hotcold.engine import (
    CycleRecord,
    FixedPath,
    Rect,
    StaticControl,
    StaticTarget,
    WorldConfig,
    compute_metrics,
    run_simulation,
)
from hotcold.geometry import Pose, Vec2
from hotcold.trilateration import TrilaterationConfig


def _bits(trace: list[CycleRecord]) -> tuple:
    report = compute_metrics(trace)
    counts = (report.cycles_in_range, report.cycles_in_halt, report.total_cycles)
    assert all(type(c) is int for c in counts)
    return (report.average_distance_m.hex(), *counts)


def _oracle_bits(trace: list[CycleRecord]) -> tuple:
    report = oracles.compute_metrics(trace)
    counts = (report.cycles_in_range, report.cycles_in_halt, report.total_cycles)
    return (report.average_distance_m.hex(), *counts)


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
        mobility=StaticTarget(Vec2(70.0, 35.0)),
        robot_start=Pose(Vec2(20.0, 80.0), 2.0),
        seed=36,
    ),
}


def test_empty_trace_matches_the_oracle():
    assert _bits([]) == _oracle_bits([]) == ("nan", 0, 0, 0)


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_run_traces_match_the_oracle(name):
    _, trace = run_simulation(WORLDS[name])
    assert len(trace) == WORLDS[name].total_cycles
    assert _bits(trace) == _oracle_bits(trace)


# coordinates anywhere in +-1e6 m, with both zeros; a target at 1e-6 to 1e6 m
# from the robot, or on it
_coords = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0]),
)
_gaps = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1e-6, 1e6]),
)


@st.composite
def _records(draw) -> CycleRecord:
    x, y = draw(_coords), draw(_coords)
    gap, angle = draw(_gaps), draw(st.floats(min_value=-math.pi, max_value=math.pi))
    if draw(st.booleans()):  # along an axis: a -0.0 target coordinate stays -0.0
        tx, ty = (x + gap, y) if draw(st.booleans()) else (x, y - gap)
    else:
        tx, ty = x + gap * math.cos(angle), y + gap * math.sin(angle)
    return CycleRecord(
        0.5,
        Pose(Vec2(x, y), 0.0),
        Vec2(tx, ty),
        -60.0,
        draw(st.booleans()),
        draw(st.booleans()),
        "none",
    )


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(_records(), max_size=60))
@example([CycleRecord(0.5, Pose(Vec2(-0.0, -0.0), 0.0), Vec2(-0.0, 0.0), -60.0, True, False, "")])
def test_random_traces_match_the_oracle(trace):
    assert _bits(trace) == _oracle_bits(trace)


def test_distances_are_added_left_to_right():
    # 1e6 first swallows the two halves of an ulp that a compensated or
    # reordered sum would keep
    robot = Pose(Vec2(0.0, 0.0), 0.0)
    gaps = [1e6, 2.0**-34, 2.0**-34]
    trace = [CycleRecord(0.5, robot, Vec2(g, 0.0), -60.0, True, True, "none") for g in gaps]
    assert compute_metrics(trace).average_distance_m == ((1e6 + 2.0**-34) + 2.0**-34) / 3
    assert compute_metrics(trace).average_distance_m != math.fsum(gaps) / 3
