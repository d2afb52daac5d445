import dataclasses
import math
import pickle

import numpy as np
import pytest

from hotcold.geometry import (
    Pose,
    Vec2,
    advance,
    bearing,
    distance,
    rotate,
    signed_turn,
    wrap_heading,
)
from oracles import left_sum, normalize_heading


def test_left_sum_adds_left_to_right():
    # the reference sum of the oracles that the running sums are checked against
    # compensated sums (math.fsum, 3.12's builtin sum) give 2.0 here
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert left_sum([]) == 0.0


def test_rotate_full_turn_is_identity():
    assert rotate(0.0, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_rotate_137_degrees():
    heading = rotate(0.0, math.radians(137.0))
    assert heading == pytest.approx(2.3911, abs=1e-4)
    assert type(heading) is float  # a turn in place: the position is not rotate's


def test_rotate_wraps_around():
    heading = rotate(math.radians(350.0), math.radians(20.0))
    assert math.degrees(heading) == pytest.approx(10.0, abs=1e-9)


@pytest.mark.parametrize(
    "start,heading_deg,step,expected",
    [
        ((0.0, 0.0), 0.0, 1.0, (1.0, 0.0)),
        ((0.0, 0.0), 90.0, 1.0, (0.0, 1.0)),
        ((1.0, 1.0), 180.0, 0.5, (0.5, 1.0)),
    ],
)
def test_advance_examples(start, heading_deg, step, expected):
    heading = math.radians(heading_deg)
    moved = advance(*start, heading, step)
    assert moved[0] == pytest.approx(expected[0], abs=1e-12)
    assert moved[1] == pytest.approx(expected[1], abs=1e-12)
    assert len(moved) == 2  # the position only: the heading is the caller's, unchanged


def test_advance_rejects_negative_step():
    with pytest.raises(ValueError):
        advance(0.0, 0.0, 0.0, -0.1)


def test_distance_examples():
    assert distance(Vec2(0.0, 0.0), Vec2(3.0, 4.0)) == 5.0
    assert distance(Vec2(7.0, -2.0), Vec2(7.0, -2.0)) == 0.0
    # scenario start separation: sqrt(25^2 + 30^2)
    assert distance(Vec2(30.0, 35.0), Vec2(5.0, 5.0)) == pytest.approx(39.0512, abs=1e-4)


def test_vec2_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Vec2(bad, 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, bad)


def test_pose_normalizes_heading():
    assert Pose(Vec2(0.0, 0.0), -math.pi / 2).heading_rad == pytest.approx(1.5 * math.pi)
    assert 0.0 <= Pose(Vec2(0.0, 0.0), 100.0).heading_rad < 2.0 * math.pi
    assert wrap_heading(-1e-20) < 2.0 * math.pi


def test_rotate_inverse_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        heading = float(rng.uniform(0.0, 2.0 * math.pi))
        angle = float(rng.uniform(-10.0, 10.0))
        back = rotate(rotate(heading, angle), -angle)
        err = min(abs(back - heading), 2.0 * math.pi - abs(back - heading))
        assert err < 1e-12


def test_advance_moves_exactly_step_and_keeps_heading():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, y = float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50))
        heading = float(rng.uniform(0, 2 * math.pi))
        step = float(rng.uniform(0.0, 5.0))
        mx, my = advance(x, y, heading, step)
        if step > 0.1:  # the move points along the heading
            assert abs(signed_turn(heading, math.atan2(my - y, mx - x))) < 1e-9
        assert abs(distance(Vec2(x, y), Vec2(mx, my)) - step) < 1e-12


def test_distance_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(500):
        a, b, c = (Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(3))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_bearing_and_signed_turn():
    assert bearing(0.0, 0.0, 0.0, 5.0) == pytest.approx(math.pi / 2)
    # heading east, target due north: quarter turn left
    assert signed_turn(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    # shortest way from 10 deg to 350 deg is -20 deg
    assert signed_turn(math.radians(10.0), math.radians(350.0)) == pytest.approx(
        math.radians(-20.0)
    )
    # a half turn is reported as +pi, never -pi
    assert signed_turn(0.0, math.pi) == pytest.approx(math.pi)


def test_pose_keeps_in_range_heading_bits():
    rng = np.random.default_rng(4)
    for heading in [math.nextafter(0.0, 1.0), 1.0, math.pi, math.nextafter(2.0 * math.pi, 0.0)] + [
        float(h) for h in rng.uniform(0.0, 2.0 * math.pi, 200)
    ]:
        assert Pose(Vec2(0.0, 0.0), heading).heading_rad.hex() == heading.hex()
        assert rotate(heading, 0.0).hex() == wrap_heading(heading).hex() == heading.hex()


@pytest.mark.parametrize(
    "heading",
    [0.0, -0.0, 2.0 * math.pi, -1e-20, -math.pi / 2, 7.5, -123.4, 1e6, -2.0 * math.pi],
)
def test_pose_out_of_range_heading_equals_normalize_heading(heading):
    got = Pose(Vec2(0.0, 0.0), heading).heading_rad
    assert got.hex() == normalize_heading(heading).hex()
    assert 0.0 <= got < 2.0 * math.pi
    assert math.copysign(1.0, got) == 1.0  # never -0.0
    # the float primitives wrap as a Pose does
    assert wrap_heading(heading).hex() == rotate(heading, 0.0).hex() == got.hex()
    assert rotate(heading, -0.0).hex() == got.hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pose_rejects_non_finite_heading(bad):
    with pytest.raises(ValueError):
        Pose(Vec2(0.0, 0.0), bad)
    with pytest.raises(ValueError):
        rotate(0.0, bad)


def test_vec2_and_pose_are_immutable_and_pickle():
    v = Vec2(1.5, -2.25)
    pose = Pose(v, 4.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.x = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pose.heading_rad = 0.0
    with pytest.raises((AttributeError, TypeError)):
        v.z = 0.0  # slotted: no room for new attributes
    for obj in (v, pose):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and type(back) is type(obj)
