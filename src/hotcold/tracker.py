"""The Hot-Cold follower: move while the signal holds up, turn when it fades.

The tracker consumes raw dBm samples in two consecutive windows of SWS
samples each. When the second window completes, the two window averages are
compared: a drop in average signal power ("Cold") triggers a fixed-angle
rotation before the next step, anything else ("Hot", ties included) keeps
the robot moving straight. A single sample above the halt threshold freezes
the robot for that cycle because it is already close enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import ClassVar, NamedTuple

from .geometry import left_sum, require_finite_fields


class RotationDirection(Enum):
    CCW = "ccw"
    CW = "cw"


class DecisionKind(Enum):
    MOVE_FORWARD = "move_forward"
    ROTATE_THEN_MOVE = "rotate_then_move"
    HALT = "halt"


# bound once: an Enum member lookup costs about as much as a whole decision
_CCW = RotationDirection.CCW
_ROTATE_THEN_MOVE = DecisionKind.ROTATE_THEN_MOVE


class TrackerDecision(NamedTuple):
    """One cycle's movement command; rotation_deg is signed, CCW positive.
    A NamedTuple: the trilateration tracker builds one per steering cycle."""

    kind: DecisionKind
    rotation_deg: float = 0.0

    @property
    def label(self) -> str:  # the trace label, built only for a run that keeps a trace
        if self.kind is _ROTATE_THEN_MOVE:
            return f"rotate_then_move({self.rotation_deg:+.4f})"
        return self.kind._value_  # the plain attribute: Enum.value is a property call


MOVE_FORWARD = TrackerDecision(DecisionKind.MOVE_FORWARD)
HALT = TrackerDecision(DecisionKind.HALT)


def rotate_then_move(angle_deg: float) -> TrackerDecision:
    return TrackerDecision(_ROTATE_THEN_MOVE, angle_deg)


@dataclass(frozen=True)
class HotColdConfig:
    """Tunables of the double-window differential decision rule. Left as
    None, the halt threshold is derived from the world's halt distance."""

    name: ClassVar[str] = "hotcold"
    sws: int = 4
    rotation_angle_deg: float = 137.0
    rotation_direction: RotationDirection = RotationDirection.CCW
    halt_threshold_dbm: float | None = None

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.sws < 1:
            raise ValueError(f"samples window size must be >= 1, got {self.sws}")
        if not 0.0 < self.rotation_angle_deg < 360.0:
            raise ValueError(f"rotation angle must be in (0, 360), got {self.rotation_angle_deg}")

    @cached_property
    def cold_turn(self) -> TrackerDecision:
        """The decision after a "Cold" comparison, built once per config."""
        sign = 1.0 if self.rotation_direction is _CCW else -1.0
        return rotate_then_move(sign * self.rotation_angle_deg)


@dataclass
class HotColdState:
    """Mutable per-run tracker state: the two sample windows and a count of
    window comparisons."""

    window_a: list[float] = field(default_factory=list)
    window_b: list[float] = field(default_factory=list)
    comparisons: int = 0

    def reset_windows(self) -> None:
        self.window_a.clear()
        self.window_b.clear()


def window_average(samples: list[float]) -> float:
    """Arithmetic mean of raw dBm samples (indicator-domain averaging)."""
    if not samples:
        raise ValueError("empty samples window")
    return left_sum(samples) / len(samples)


def decide(avg_first: float, avg_second: float, cfg: HotColdConfig) -> TrackerDecision:
    """Compare the two window averages; only a strict drop ("Cold") rotates."""
    if avg_first > avg_second:
        return cfg.cold_turn
    return MOVE_FORWARD


def ingest_sample(
    state: HotColdState, reading_dbm: float, cfg: HotColdConfig, halt_threshold_dbm: float
) -> TrackerDecision:
    """Feed one in-range sample and return the movement for this cycle.

    Every sample is appended to the active window, halting cycles included.
    A sample above the halt threshold freezes the robot for the cycle. The
    sample that completes the second window triggers the window comparison
    and the windows reset; every other non-halt sample is followed by a
    plain forward step, so the robot moves once per non-halt cycle.
    """
    if not math.isfinite(reading_dbm):
        raise ValueError(f"non-finite RSSI sample {reading_dbm}")

    if len(state.window_a) < cfg.sws:
        state.window_a.append(reading_dbm)
    else:
        state.window_b.append(reading_dbm)
    period_complete = len(state.window_b) == cfg.sws

    if reading_dbm > halt_threshold_dbm:
        if period_complete:
            state.reset_windows()
        return HALT
    if not period_complete:
        return MOVE_FORWARD

    avg_first = window_average(state.window_a)
    avg_second = window_average(state.window_b)
    state.comparisons += 1
    state.reset_windows()
    return decide(avg_first, avg_second, cfg)
