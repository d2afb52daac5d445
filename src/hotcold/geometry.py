"""Planar vectors, poses, and the motion primitives shared by the whole toolkit.

Angles are stored in radians internally; degrees are accepted and produced
only at configuration and output boundaries. Positive rotations are
counter-clockwise. The motion primitives take and return plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

TWO_PI = 2.0 * math.pi


def require_finite_fields(obj) -> None:
    """Reject a dataclass whose float fields hold NaN or an infinity.

    Fields of other types (ints, None for "derive a default", nested
    objects) are left to the class's own checks.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{f.name} must be finite, got {value}")


@dataclass(frozen=True, slots=True)
class Vec2:
    """A point or displacement in the plane, in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite vector components ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class Pose:
    """Position plus heading; the heading is always normalized to [0, 2*pi)."""

    position: Vec2
    heading_rad: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading_rad", wrap_heading(self.heading_rad))


def wrap_heading(angle_rad: float) -> float:
    """The angle wrapped to [0, 2*pi), as a Pose keeps its heading.

    Inside (0, 2*pi) the modulo would return this exact float, so the angle
    is returned as it is. Zero takes the modulo so that -0.0 becomes 0.0;
    NaN and the infinities fail the test and raise.
    """
    if 0.0 < angle_rad < TWO_PI:
        return angle_rad
    if not math.isfinite(angle_rad):
        raise ValueError(f"non-finite heading {angle_rad}")
    wrapped = angle_rad % TWO_PI
    if wrapped >= TWO_PI:
        # float modulo of a tiny negative can round up to exactly 2*pi
        wrapped -= TWO_PI
    return wrapped


def rotate(heading_rad: float, angle_rad: float) -> float:
    """The heading after turning in place by a signed angle (counter-clockwise positive)."""
    return wrap_heading(heading_rad + angle_rad)


def advance(x: float, y: float, heading_rad: float, step_m: float) -> tuple[float, float]:
    """The position after moving step_m along the heading; the heading is unchanged."""
    if step_m < 0.0:
        raise ValueError(f"negative step {step_m}")
    return x + step_m * math.cos(heading_rad), y + step_m * math.sin(heading_rad)


def distance(a: Vec2, b: Vec2) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def bearing(x: float, y: float, to_x: float, to_y: float) -> float:
    """Direction from (x, y) toward (to_x, to_y), in [0, 2*pi)."""
    return wrap_heading(math.atan2(to_y - y, to_x - x))


def signed_turn(from_rad: float, to_rad: float) -> float:
    """Shortest signed rotation taking one heading onto another, in (-pi, pi]."""
    delta = (to_rad - from_rad) % TWO_PI
    if delta > math.pi:
        delta -= TWO_PI
    return delta
