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
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

from .geometry import require_finite_fields


class DecisionKind:
    """The kinds of decision, each its own trace label."""

    MOVE_FORWARD = "move_forward"
    ROTATE_THEN_MOVE = "rotate_then_move"
    HALT = "halt"
    AVOID = "avoid"  # obstacle avoidance: back up, then turn; preempts the tracker


class TrackerDecision(NamedTuple):
    """One cycle's movement command; rotation_deg is signed, CCW positive.
    A NamedTuple: the trilateration tracker builds one per steering cycle."""

    kind: str  # a DecisionKind
    rotation_deg: float = 0.0

    @property
    def label(self) -> str:  # the trace label, built only for a run that keeps a trace
        kind = self.kind
        if kind is DecisionKind.ROTATE_THEN_MOVE or kind is DecisionKind.AVOID:  # carry an angle
            return f"{kind}({self.rotation_deg:+.4f})"
        return kind


MOVE_FORWARD = TrackerDecision(DecisionKind.MOVE_FORWARD)
HALT = TrackerDecision(DecisionKind.HALT)


def rotate_then_move(angle_deg: float) -> TrackerDecision:
    # the same TrackerDecision without the generated __new__'s frame: one per trilateration steer
    return tuple.__new__(TrackerDecision, (DecisionKind.ROTATE_THEN_MOVE, angle_deg))


@dataclass(frozen=True)
class HotColdConfig:
    """Tunables of the double-window differential decision rule. The
    rotation angle is signed, CCW positive: its sign is the turn's
    direction. The halt threshold is the world's, from its halt distance."""

    name: ClassVar[str] = "hotcold"
    sws: int = 4
    rotation_angle_deg: float = 137.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.sws < 1:
            raise ValueError(f"samples window size must be >= 1, got {self.sws}")
        if not 0.0 < abs(self.rotation_angle_deg) < 360.0:
            raise ValueError(f"|rotation angle| must be in (0, 360), got {self.rotation_angle_deg}")

    @cached_property
    def cold_turn(self) -> TrackerDecision:
        """The decision after a "Cold" comparison, built once per config."""
        return rotate_then_move(self.rotation_angle_deg)


@dataclass
class HotColdState:
    """Mutable per-run tracker state: the samples in the current double
    window, the running sums of its two windows, and a count of window
    comparisons. Each sum adds left to right from 0.0, uncompensated, so
    its bits are the same on every Python."""

    samples: int = 0
    sum_a: float = 0.0
    sum_b: float = 0.0
    comparisons: int = 0


def decide(avg_first: float, avg_second: float, cfg: HotColdConfig) -> TrackerDecision:
    """Compare the two window averages; only a strict drop ("Cold") rotates."""
    if avg_first > avg_second:
        return cfg.cold_turn
    return MOVE_FORWARD


def ingest_sample(
    state: HotColdState, reading_dbm: float, cfg: HotColdConfig, halt_threshold_dbm: float
) -> TrackerDecision:
    """Feed one in-range sample and return the movement for this cycle.

    Every sample is added to the active window's sum, halting cycles included.
    A sample above the halt threshold freezes the robot for the cycle. The
    sample that completes the second window triggers the window comparison
    and the windows reset; every other non-halt sample is followed by a
    plain forward step, so the robot moves once per non-halt cycle.
    """
    if not math.isfinite(reading_dbm):
        raise ValueError(f"non-finite RSSI sample {reading_dbm}")

    sws = cfg.sws
    if state.samples < sws:
        state.sum_a += reading_dbm
    else:
        state.sum_b += reading_dbm
    state.samples += 1
    halted = reading_dbm > halt_threshold_dbm
    if state.samples < 2 * sws:
        return HALT if halted else MOVE_FORWARD

    sum_a, sum_b = state.sum_a, state.sum_b
    state.samples, state.sum_a, state.sum_b = 0, 0.0, 0.0
    if halted:
        return HALT
    state.comparisons += 1
    # the averages compare in the indicator (dBm) domain
    return decide(sum_a / sws, sum_b / sws, cfg)
