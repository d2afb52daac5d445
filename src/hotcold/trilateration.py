"""Reference tracker: linear least-squares trilateration over recent range fixes.

The robot converts in-range RSSI samples to distance estimates at its own
(exactly known) positions, keeps a small FIFO of such observations, and
solves the linearized circle system for the transmitter position. Subtracting
the newest observation's circle equation from each older one gives, per older
observation i against reference K,

    [2*(xK - xi), 2*(yK - yi)] . [x, y] = di^2 - dK^2 + xK^2 - xi^2 + yK^2 - yi^2

which is solved through the normal equations. Near-collinear observation
geometry makes the normal matrix ill-conditioned; the solve is then refused
and the previous estimate, if any, keeps steering the robot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from .channel import ChannelParams, invert_rssi_to_distance
from .geometry import Vec2, bearing, require_finite_fields, signed_turn
from .tracker import HALT, MOVE_FORWARD, TrackerDecision, rotate_then_move


@dataclass(frozen=True)
class TrilaterationConfig:
    """Estimator window and steering tunables.

    bootstrap_turn_deg bends the path while no estimate exists yet: a robot
    that only ever walked straight has exactly collinear observations and
    the solver would stay degenerate forever.
    """

    name: ClassVar[str] = "trilateration"
    k_observations: int = 3
    min_spacing_m: float = 0.5
    condition_threshold: float = 1e6
    bootstrap_turn_deg: float = 20.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.k_observations < 3:
            raise ValueError(f"need at least 3 observations, got {self.k_observations}")
        if self.min_spacing_m < 0.0:
            raise ValueError(f"negative minimum spacing {self.min_spacing_m}")
        if self.condition_threshold <= 1.0:
            raise ValueError(f"condition threshold must exceed 1, got {self.condition_threshold}")
        if not 0.0 < abs(self.bootstrap_turn_deg) < 360.0:
            raise ValueError(f"bootstrap turn must be in (0, 360), got {self.bootstrap_turn_deg}")


@dataclass(frozen=True)
class Observation:
    """Robot position (x, y) paired with the range estimated from one RSSI sample."""

    x: float
    y: float
    est_distance_m: float

    def __post_init__(self) -> None:
        if self.est_distance_m <= 0.0:
            raise ValueError(f"non-positive range estimate {self.est_distance_m}")


@dataclass
class TrilaterationState:
    """FIFO of observations plus the last well-conditioned position estimate."""

    observations: list[Observation] = field(default_factory=list)
    current_estimate: Vec2 | None = None
    solved: Vec2 | None = None  # the last solve's result; None when refused or not yet solved


def record_observation(
    state: TrilaterationState,
    robot_x: float,
    robot_y: float,
    rssi_dbm: float,
    params: ChannelParams,
    cfg: TrilaterationConfig,
) -> bool:
    """Append a range fix at the robot's position; returns False when skipped.

    Fixes closer than min_spacing_m to an already-stored position are
    dropped (they add no geometry), and the FIFO is capped at k_observations.
    """
    for obs in state.observations:
        if math.hypot(obs.x - robot_x, obs.y - robot_y) < cfg.min_spacing_m:
            return False
    fix = Observation(robot_x, robot_y, invert_rssi_to_distance(rssi_dbm, params))
    state.observations.append(fix)
    while len(state.observations) > cfg.k_observations:
        state.observations.pop(0)
    return True


def estimate_target(
    observations: list[Observation], condition_threshold: float = 1e6
) -> Vec2 | None:
    """Solve the linearized circle system; None when the geometry is degenerate."""
    if len(observations) < 3:
        raise ValueError(f"need at least 3 observations, got {len(observations)}")
    ref = observations[-1]
    a11 = a12 = a22 = g1 = g2 = 0.0
    for obs in observations[:-1]:
        ax = 2.0 * (ref.x - obs.x)
        ay = 2.0 * (ref.y - obs.y)
        b = (
            obs.est_distance_m**2 - ref.est_distance_m**2
            + ref.x**2 - obs.x**2 + ref.y**2 - obs.y**2
        )
        a11 += ax * ax
        a12 += ax * ay
        a22 += ay * ay
        g1 += ax * b
        g2 += ay * b

    # 2x2 symmetric normal matrix: eigenvalues in closed form give its
    # 2-norm condition number.
    trace = a11 + a22
    disc = math.sqrt((a11 - a22) ** 2 + 4.0 * a12 * a12)
    lam_max = 0.5 * (trace + disc)
    lam_min = 0.5 * (trace - disc)
    if lam_min <= 0.0 or lam_max > condition_threshold * lam_min:
        return None
    det = a11 * a22 - a12 * a12
    x = (a22 * g1 - a12 * g2) / det
    y = (a11 * g2 - a12 * g1) / det
    return Vec2(x, y)


def update_estimate(state: TrilaterationState, cfg: TrilaterationConfig) -> None:
    """Refresh the estimate when solvable; a degenerate solve keeps the old one."""
    if len(state.observations) < 3:
        return
    estimate = state.solved = estimate_target(state.observations, cfg.condition_threshold)
    if estimate is not None:
        state.current_estimate = estimate


def trilateration_decide(
    state: TrilaterationState,
    x: float,
    y: float,
    heading_rad: float,
    latest_rssi_dbm: float,
    cfg: TrilaterationConfig,
    halt_threshold_dbm: float,
    step_m: float,
) -> TrackerDecision:
    """Steer straight at the current estimate; halt when the signal says close.

    Reaching the estimated position (within one step_m robot step) without
    the signal confirming proximity means the estimate is stale or wrong; it
    is dropped so the bootstrap arc can gather fresh, spread-out observations
    for the next solve.
    """
    if latest_rssi_dbm > halt_threshold_dbm:
        return HALT
    estimate = state.current_estimate
    if estimate is not None:
        if math.hypot(estimate.x - x, estimate.y - y) <= step_m:
            state.current_estimate = None
        else:
            turn = signed_turn(heading_rad, bearing(x, y, estimate.x, estimate.y))
            return rotate_then_move(math.degrees(turn))
    if len(state.observations) >= cfg.k_observations:
        return rotate_then_move(cfg.bootstrap_turn_deg)
    return MOVE_FORWARD
