"""Cycle-stepped world: target mobility, tracker execution, obstacles, metrics.

Each cycle covers one broadcast interval. The target moves first, then
broadcasts; if the robot is in range its tracker consumes the sample and the
resulting movement executes (out of range, the last decision repeats).
Obstacle sensors, when obstacles exist, can preempt the movement with an
avoidance maneuver. The target is confined to the simulation space; the
robot is free to leave it.

Determinism: a run is fully determined by its config. The seed feeds two
independent streams (channel shadowing, target mobility) so that runs
differing only in tracker behavior see the same world. Both are iterators
that step_world zips with its cycle count, so neither is drawn past the run:
the mobility model's path yields the target's positions, and the shadowing
normals are drawn NORMALS_CHUNK at a time, the same bits as one per cycle.
The path reads only the seed and the target's keys (mobility, space, cycle
period, target speed), so worlds that share them may share one recording of
target_path(config), as each run index of the grid does.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, NamedTuple, Union

import numpy as np

from .channel import MIN_DISTANCE_M, ChannelParams, noiseless_rssi, rssi
from .geometry import Pose, Vec2, advance, require_finite_fields, rotate, wrap_heading
from .tracker import (
    HALT,
    MOVE_FORWARD,
    DecisionKind,
    HotColdConfig,
    HotColdState,
    TrackerDecision,
    ingest_sample,
)
from .trilateration import (
    TrilaterationConfig,
    TrilaterationState,
    record_observation,
    trilateration_decide,
    update_estimate,
)

KMH_TO_MS = 1.0 / 3.6

# Bounds far beyond any tracking scene. They keep every number of a run's
# cycle loop finite, which is why the loop checks none: a step is at most
# 1e4 / 3.6 * 1e4 < 2.8e7 m (a back-up is 0.1 m), so in 1e7 cycles the robot
# moves at most 2.8e14 m from a start within 1e6 m, and the target stays in
# the space. Every coordinate is then below 3e14 m, every distance below
# 5e14 m, a distance sum below 5e21 m and a squared coordinate
# (trilateration) below 1e29 m^2.
MAX_EXTENT_M = 1e6
MAX_SPEED_KMH = 1e4
MAX_CYCLES = 10**7
MAX_CYCLE_PERIOD_S = 1e4
# shadowing normals drawn at a time: a run's set-up memory does not grow with its length
NORMALS_CHUNK = 4096


def within_extent(point: Vec2) -> bool:  # within +-MAX_EXTENT_M m on both axes
    return max(abs(point.x), abs(point.y)) <= MAX_EXTENT_M


SENSOR_MAX_CM = 255.0
SENSOR_TRIGGER_CM = 25.0
SENSOR_RAY_OFFSET_RAD = math.radians(30.0)
# Rectangles farther than this along x or y are culled: the sensor reads its
# cap from 2.55 m on, and the cull in sensor_reading_cm is exact.
SENSOR_REACH_M = 2.6


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class StaticControl:
    """Tracker placeholder for the control case: the robot never moves."""

    name: ClassVar[str] = "static"  # the INI name, as on every tracker config


# Each mobility model's path(config, rng) yields the target's start (x, y),
# then its position after each cycle: the target never reacts to the robot.


@dataclass(frozen=True)
class RandomWaypoint:
    """Start at a uniformly drawn point and walk at constant speed to
    uniformly drawn points; zero pause on arrival."""

    def path(self, config: WorldConfig, rng: np.random.Generator) -> Iterator[tuple[float, float]]:
        # draw order is fixed: start point first, then waypoint
        x, y = _uniform_point(config, rng)
        wx, wy = _uniform_point(config, rng)
        yield x, y
        while True:  # random_waypoint_step is looked up on this module each step
            x, y, wx, wy = random_waypoint_step(x, y, wx, wy, config, rng)
            yield x, y


@dataclass(frozen=True)
class FixedPath:
    """Piecewise-linear timed path; the first waypoint (at t=0) is the start.
    A target that stands still is a path of one waypoint."""

    waypoints: tuple[tuple[float, Vec2], ...]

    def __post_init__(self) -> None:
        if len(self.waypoints) < 1:
            raise ValueError("fixed path needs at least one waypoint")
        if self.waypoints[0][0] != 0.0:
            raise ValueError("fixed path must start at time 0")
        times = [t for t, _ in self.waypoints]
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"fixed path times must be finite, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"fixed path times must strictly increase, got {times}")
        if not all(within_extent(p) for _, p in self.waypoints):
            raise ValueError(f"fixed path waypoints must lie within +-{MAX_EXTENT_M:g} m")

    def path(self, config: WorldConfig, rng: np.random.Generator) -> Iterator[tuple[float, float]]:
        # on step_world's clock (0.0 plus the period, once per cycle), each
        # point lies on the first segment that ends at or after the clock,
        # clamped to the space; past the last waypoint the target stands there
        points, period = self.waypoints, config.cycle_period_s
        yield _clamp_to_space(points[0][1].x, points[0][1].y, config)
        t = 0.0 + period
        for (t0, p0), (t1, p1) in zip(points, points[1:]):
            dx, dy, span = p1.x - p0.x, p1.y - p0.y, t1 - t0
            while t <= t1:
                frac = (t - t0) / span
                yield _clamp_to_space(p0.x + frac * dx, p0.y + frac * dy, config)
                t += period
        yield from itertools.repeat(_clamp_to_space(points[-1][1].x, points[-1][1].y, config))


Mobility = Union[RandomWaypoint, FixedPath]
Tracker = Union[HotColdConfig, TrilaterationConfig, StaticControl]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned obstacle."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError(f"degenerate rectangle {self}")


@dataclass(frozen=True)
class WorldConfig:
    width_m: float = 100.0
    height_m: float = 100.0
    duration_s: float = 1000.0
    cycle_period_s: float = 0.5
    robot_speed_kmh: float = 7.2
    target_speed_kmh: float = 3.6
    halt_distance_m: float = 3.0
    channel: ChannelParams = ChannelParams()
    tracker: Tracker = HotColdConfig()
    mobility: Mobility = RandomWaypoint()
    obstacles: tuple[Rect, ...] = ()
    seed: int = 1
    robot_start: Pose | None = None  # None: space center, heading 0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not (0.0 < self.width_m <= MAX_EXTENT_M and 0.0 < self.height_m <= MAX_EXTENT_M):
            size = f"{self.width_m}x{self.height_m}"
            raise ValueError(f"space sides must be in (0, {MAX_EXTENT_M:g}] m, got {size}")
        if not 0.0 < (period := self.cycle_period_s) <= MAX_CYCLE_PERIOD_S:
            raise ValueError(f"cycle period must be in (0, {MAX_CYCLE_PERIOD_S:g}] s, got {period}")
        cycles = self.duration_s / self.cycle_period_s
        if not 0.0 <= cycles <= MAX_CYCLES:
            raise ValueError(f"duration {self.duration_s} s must run 0 to {MAX_CYCLES:g} cycles")
        if abs(cycles - round(cycles)) > 1e-9:
            raise ValueError(
                f"duration {self.duration_s} is not a multiple of the cycle period {self.cycle_period_s}"
            )
        for name in ("robot_speed_kmh", "target_speed_kmh"):
            value = getattr(self, name)
            if not 0.0 <= value <= MAX_SPEED_KMH:
                raise ValueError(f"{name} must be in [0, {MAX_SPEED_KMH:g}] km/h, got {value}")
        if self.robot_step_m <= 0.0:  # a follower needs a positive step
            raise ValueError(f"robot speed {self.robot_speed_kmh} km/h gives no step per cycle")
        if self.halt_distance_m < MIN_DISTANCE_M:
            raise ValueError(f"halt distance below the {MIN_DISTANCE_M} m channel floor")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        start = self.robot_start
        if start is not None and not within_extent(start.position):
            raise ValueError(f"robot start {start.position} is beyond +-{MAX_EXTENT_M:g} m")
        # inside a rectangle both sensors read 0 and the robot only ever avoids;
        # a start on an edge is outside
        x, y = self.width_m / 2.0, self.height_m / 2.0
        if start is not None:
            x, y = start.position.x, start.position.y
        for rect in self.obstacles:
            if rect.x_min < x < rect.x_max and rect.y_min < y < rect.y_max:
                raise ValueError(f"robot start ({x}, {y}) lies inside obstacle {rect}")

    # The cycle count and step lengths are read every cycle, so each is
    # computed once.
    @cached_property
    def total_cycles(self) -> int:
        return round(self.duration_s / self.cycle_period_s)

    @cached_property
    def robot_step_m(self) -> float:
        return self.robot_speed_kmh * KMH_TO_MS * self.cycle_period_s

    @cached_property
    def target_step_m(self) -> float:
        return self.target_speed_kmh * KMH_TO_MS * self.cycle_period_s

    def halt_threshold_dbm(self) -> float:
        """Tracker halt threshold: the signal level at the halt distance."""
        return noiseless_rssi(self.halt_distance_m, self.channel)


# ---------------------------------------------------------------------------
# state and per-cycle records


class CycleRecord(NamedTuple):
    """One traced cycle, flat in TRACE_COLUMNS order; the heading in radians."""

    time_s: float
    robot_x: float
    robot_y: float
    robot_heading_rad: float
    target_x: float
    target_y: float
    rssi_dbm: float
    in_range: bool
    in_halt: bool
    decision: str


# a tracker's in-range decision from (tracker state, this cycle's sample in
# dBm, robot x, y and heading, config, halt threshold); None: never moves
Decide = Callable[..., Union[TrackerDecision, None]]


@dataclass(slots=True)
class WorldState:
    time_s: float  # positions and heading are floats: no Vec2 or Pose per cycle
    robot_x: float
    robot_y: float
    robot_heading_rad: float  # in [0, 2*pi), as a Pose keeps it
    target_x: float  # the target has no heading: nothing reads one
    target_y: float
    target_path: Iterator[tuple[float, float]]  # the target's (x, y) after each later cycle
    tracker_state: HotColdState | TrilaterationState | None
    decide: Decide
    halt_threshold_dbm: float
    shadowing_normals: Iterator[float]  # the standard normal of each later cycle's broadcast
    last_decision: TrackerDecision | None = None
    trace: list[CycleRecord] | None = None  # None: the run keeps no trace
    # KPI sums; distances are added left to right from 0.0, uncompensated
    cycles: int = 0
    distance_sum: float = 0.0
    cycles_in_range: int = 0
    cycles_in_halt: int = 0

    def __len__(self) -> int:  # the cycles run so far
        return self.cycles


def _uniform_point(config: WorldConfig, rng: np.random.Generator) -> tuple[float, float]:
    """A point drawn uniformly in the space, x first."""
    return float(rng.uniform(0.0, config.width_m)), float(rng.uniform(0.0, config.height_m))


def _clamp_to_space(x: float, y: float, config: WorldConfig) -> tuple[float, float]:
    return min(max(x, 0.0), config.width_m), min(max(y, 0.0), config.height_m)


def _hotcold_decide(tracker_state, value_dbm, x, y, heading_rad, config, halt_threshold_dbm):
    return ingest_sample(tracker_state, value_dbm, config.tracker, halt_threshold_dbm)


def _trilateration_decide(tracker, value_dbm, x, y, heading_rad, config, halt_threshold_dbm):
    cfg = config.tracker
    if record_observation(tracker, x, y, value_dbm, config.channel, cfg):
        update_estimate(tracker, cfg)
    elif tracker.solved is not None:
        # the FIFO is the one last solved: its solve would give this estimate
        # again, restoring it if trilateration_decide dropped it on arrival
        tracker.current_estimate = tracker.solved
    return trilateration_decide(tracker, x, y, heading_rad, value_dbm, cfg, halt_threshold_dbm,
                                config.robot_step_m)


# tracker config type -> (fresh per-run tracker state, in-range decision)
TRACKERS: dict[type, tuple[Callable[[], object], Decide]] = {
    HotColdConfig: (HotColdState, _hotcold_decide),
    TrilaterationConfig: (TrilaterationState, _trilateration_decide),
    StaticControl: (lambda: None, lambda *_: None),
}


def target_path(config: WorldConfig) -> Iterator[tuple[float, float]]:
    """The target's start, then its position after each cycle, from the
    mobility stream of the world's seed (the second of its two)."""
    mobility_ss = np.random.SeedSequence(config.seed).spawn(2)[1]
    return config.mobility.path(config, np.random.default_rng(mobility_ss))


def init_world(config: WorldConfig,
               path: Iterable[tuple[float, float]] | None = None) -> WorldState:
    """The world before its first cycle, keeping no trace (set state.trace to
    a list to keep one). `path`, when given, holds the positions that
    target_path(config) would yield: the start, then at least one per cycle."""
    channel_ss = np.random.SeedSequence(config.seed).spawn(2)[0]  # target_path takes [1]
    shadowing_rng = np.random.default_rng(channel_ss)

    start = config.robot_start
    x, y, heading = ((config.width_m / 2.0, config.height_m / 2.0, 0.0) if start is None
                     else (start.position.x, start.position.y, start.heading_rad))
    positions = target_path(config) if path is None else iter(path)
    target_x, target_y = next(positions)
    new_state, decide = TRACKERS[type(config.tracker)]
    whole, rest = divmod(config.total_cycles, NORMALS_CHUNK)

    return WorldState(
        time_s=0.0,
        robot_x=x,
        robot_y=y,
        robot_heading_rad=heading,
        target_x=target_x,
        target_y=target_y,
        target_path=positions,
        tracker_state=new_state(),
        decide=decide,
        halt_threshold_dbm=config.halt_threshold_dbm(),
        # drawn as the run reaches them: the same bits as one scalar draw per cycle
        shadowing_normals=itertools.chain.from_iterable(
            shadowing_rng.standard_normal(n).tolist() for n in [NORMALS_CHUNK] * whole + [rest]),
    )


# ---------------------------------------------------------------------------
# mobility


def random_waypoint_step(
    x: float, y: float, waypoint_x: float, waypoint_y: float, config: WorldConfig,
    rng: np.random.Generator,
) -> tuple[float, float, float, float]:
    """One cycle of waypoint walking: the new (x, y, waypoint_x, waypoint_y).
    Landing on the waypoint draws a new one."""
    step = config.target_step_m
    if step == 0.0:
        return x, y, waypoint_x, waypoint_y
    dx = waypoint_x - x
    dy = waypoint_y - y
    if math.hypot(dx, dy) <= step:
        return (waypoint_x, waypoint_y, *_uniform_point(config, rng))
    # the direction is wrapped to [0, 2*pi) as a Pose heading would be:
    # cos and sin of the unwrapped atan2 can differ in the last bit
    heading = math.atan2(dy, dx)
    if heading <= 0.0:  # atan2 lies in [-pi, pi], and wrap_heading keeps (0, pi] as it is
        heading = wrap_heading(heading)
    return x + step * math.cos(heading), y + step * math.sin(heading), waypoint_x, waypoint_y


# ---------------------------------------------------------------------------
# obstacle sensing and avoidance


AVOID_BACK_UP_M = 0.10  # every avoidance backs up this far along the heading, then turns
AVOID_BOTH = TrackerDecision(DecisionKind.AVOID, 45.0)
AVOID_RIGHT = TrackerDecision(DecisionKind.AVOID, 10.0)
AVOID_LEFT = TrackerDecision(DecisionKind.AVOID, -10.0)


def trace_labels(tracker: Tracker) -> dict[TrackerDecision | None, str]:
    """The trace labels of the decisions a run repeats, formatted once; keyed
    by the whole decision, so a steer never reads as an avoidance's angle."""
    acts = [MOVE_FORWARD, HALT, AVOID_BOTH, AVOID_RIGHT, AVOID_LEFT]
    if isinstance(tracker, HotColdConfig):  # its one turn; trilateration steers format their own
        acts.append(tracker.cold_turn)
    return {None: "none"} | {act: act.label for act in acts}


def obstacle_avoidance(left_cm: float, right_cm: float) -> TrackerDecision | None:
    """Corner-sensor rules: back off 10 cm and turn away from the blocked side."""
    for reading in (left_cm, right_cm):
        if not 0.0 <= reading <= SENSOR_MAX_CM:
            raise ValueError(f"sensor reading {reading} outside [0, {SENSOR_MAX_CM}] cm")
    if left_cm < SENSOR_TRIGGER_CM and right_cm < SENSOR_TRIGGER_CM:
        return AVOID_BOTH
    if right_cm < SENSOR_TRIGGER_CM:
        return AVOID_RIGHT
    if left_cm < SENSOR_TRIGGER_CM:
        return AVOID_LEFT
    return None


def sensor_reading_cm(ox: float, oy: float, heading_rad: float,
                      obstacles: Sequence[Rect]) -> tuple[float, float] | None:
    """The readings (left_cm, right_cm) of the two front ultrasonic sensors
    of a robot at (ox, oy), or None when no rectangle is in reach.

    A rectangle more than SENSOR_REACH_M beyond (ox, oy) along x or y is
    culled, exactly for every finite coordinate: judged on the very
    differences the slab tests divide, it reads as the cap. Take x_lo =
    x_min - ox > 2.6 (the other three cases mirror it): a parallel ray
    misses, dx < 0 gives two negative slab distances and a miss, and for
    0 < dx <= 1 the computed entry x_lo / dx is >= x_lo > 2.6 m, rounding
    being monotone. No rounding enters the test; an edge widened by the
    margin instead (ox < x_min - 2.6) would be exact only while the 5 cm
    margin beats its half-ulp error, for coordinates below 2**49 m. With
    none in reach both would read the cap, and obstacle_avoidance would
    return None. Both rays are cast at the rest: a slab test, x slab then
    y slab; a ray within 1e-15 of parallel to a slab misses unless its
    origin lies inside it.
    """
    rays = None  # per ray [dx, dy, nearest entry in m], once a rectangle is in reach
    for rect in obstacles:
        x_lo = rect.x_min - ox
        x_hi = rect.x_max - ox
        y_lo = rect.y_min - oy
        y_hi = rect.y_max - oy
        if (x_lo > SENSOR_REACH_M or x_hi < -SENSOR_REACH_M
                or y_lo > SENSOR_REACH_M or y_hi < -SENSOR_REACH_M):
            continue
        if rays is None:
            left, right = heading_rad + SENSOR_RAY_OFFSET_RAD, heading_rad - SENSOR_RAY_OFFSET_RAD
            rays = ([math.cos(left), math.sin(left), math.inf],
                    [math.cos(right), math.sin(right), math.inf])
        for ray in rays:
            dx, dy, nearest = ray
            # x_lo > 0 is exactly ox < x_min, and x_hi < 0 is ox > x_max
            if abs(dx) < 1e-15:
                if x_lo > 0.0 or x_hi < 0.0:
                    continue
                t_min, t_max = 0.0, math.inf
            else:
                t1 = x_lo / dx
                t2 = x_hi / dx
                if t1 > t2:
                    t1, t2 = t2, t1
                t_min = t1 if t1 > 0.0 else 0.0
                t_max = t2
                if t_min > t_max:
                    continue
            if abs(dy) < 1e-15:
                if y_lo > 0.0 or y_hi < 0.0:
                    continue
            else:
                t1 = y_lo / dy
                t2 = y_hi / dy
                if t1 > t2:
                    t1, t2 = t2, t1
                t_min = t1 if t1 > t_min else t_min
                t_max = t2 if t2 < t_max else t_max
                if t_min > t_max:
                    continue
            if t_min < nearest:
                ray[2] = t_min
    if rays is None:
        return None
    return min(rays[0][2] * 100.0, SENSOR_MAX_CM), min(rays[1][2] * 100.0, SENSOR_MAX_CM)


# ---------------------------------------------------------------------------
# stepping


def step_world(state: WorldState, config: WorldConfig, cycles: int = 1) -> WorldState:
    """Advance the world by `cycles` broadcast cycles and add them to the run's sums.

    The world is read out of the state once, stepped in locals and written
    back once; the functions the cycle calls are looked up on this module
    here, once per call; the cycle count comes first in the zip, so neither
    the target's path nor the normals is drawn past these cycles. A count
    that is negative or runs past the run's end raises before anything changes.
    """
    first = state.cycles
    if not 0 <= cycles <= config.total_cycles - first:
        raise ValueError(f"{cycles} cycles from cycle {first} do not fit the simulation's "
                         f"full duration of {config.total_cycles}")
    rssi_, rotate_, advance_, sensor_reading_cm_ = rssi, rotate, advance, sensor_reading_cm
    cos, sin, radians, hypot, new = math.cos, math.sin, math.radians, math.hypot, tuple.__new__
    period, channel, obstacles = config.cycle_period_s, config.channel, config.obstacles
    robot_step_m, trace = config.robot_step_m, state.trace
    labels = None if trace is None else trace_labels(config.tracker)
    tracker_state, decide, halt = state.tracker_state, state.decide, state.halt_threshold_dbm
    t, x, y, heading = state.time_s, state.robot_x, state.robot_y, state.robot_heading_rad
    tx, ty = state.target_x, state.target_y
    last = state.last_decision
    rotate_kind, halt_kind, avoid_kind = (
        DecisionKind.ROTATE_THEN_MOVE, DecisionKind.HALT, DecisionKind.AVOID)
    distance_sum, in_range_sum, in_halt_sum = (
        state.distance_sum, state.cycles_in_range, state.cycles_in_halt)

    for _, (tx, ty), normal in zip(range(cycles), state.target_path, state.shadowing_normals):
        t += period
        value, in_range = rssi_(tx, ty, x, y, channel, normal)
        if in_range:
            last = decide(tracker_state, value, x, y, heading, config, halt)
        act = last  # out of range: repeat the last decision

        if obstacles and (readings := sensor_reading_cm_(x, y, heading, obstacles)) is not None:
            act = obstacle_avoidance(*readings) or act  # an avoidance preempts the tracker

        if act is not None:
            kind = act.kind
            if kind is avoid_kind:  # back up along the heading, then turn
                x -= AVOID_BACK_UP_M * cos(heading)
                y -= AVOID_BACK_UP_M * sin(heading)
                heading = rotate_(heading, radians(act.rotation_deg))
            elif kind is not halt_kind:
                if kind is rotate_kind:
                    heading = rotate_(heading, radians(act.rotation_deg))
                x, y = advance_(x, y, heading, robot_step_m)

        distance_sum += hypot(x - tx, y - ty)
        in_halt = value > halt
        in_range_sum += in_range
        in_halt_sum += in_halt
        if trace is not None:
            label = labels.get(act) or act.label  # a trilateration steer formats its own
            # tuple.__new__ builds the same CycleRecord without the generated __new__'s frame
            trace.append(new(CycleRecord, (t, x, y, heading, tx, ty, value, in_range, in_halt, label)))

    state.time_s, state.robot_x, state.robot_y, state.robot_heading_rad = t, x, y, heading
    state.target_x, state.target_y = tx, ty
    state.last_decision = last
    state.cycles = first + cycles
    state.distance_sum, state.cycles_in_range, state.cycles_in_halt = (
        distance_sum, in_range_sum, in_halt_sum)
    return state


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricsReport:
    average_distance_m: float  # NaN for an empty run
    cycles_in_range: int
    cycles_in_halt: int
    total_cycles: int

    @property
    def cycles_in_range_pct(self) -> float:
        return 100.0 * self.cycles_in_range / self.total_cycles if self.total_cycles else math.nan

    @property
    def cycles_in_halt_pct(self) -> float:
        return 100.0 * self.cycles_in_halt / self.total_cycles if self.total_cycles else math.nan

    def to_dict(self) -> dict:
        return {
            "average_distance_m": self.average_distance_m,
            "cycles_in_range": self.cycles_in_range,
            "cycles_in_range_pct": self.cycles_in_range_pct,
            "cycles_in_halt": self.cycles_in_halt,
            "cycles_in_halt_pct": self.cycles_in_halt_pct,
            "total_cycles": self.total_cycles,
        }


def compute_metrics(state: WorldState) -> MetricsReport:
    """Per-run KPIs from the running sums of the state's len(state) cycles."""
    total = state.cycles
    if not total:
        return MetricsReport(math.nan, 0, 0, 0)
    return MetricsReport(state.distance_sum / total, state.cycles_in_range, state.cycles_in_halt, total)


def run_simulation(config: WorldConfig, path: Iterable[tuple[float, float]] | None = None,
                   sink: Callable[[list[CycleRecord]], object] | None = None) -> MetricsReport:
    """Run the configured world for its whole duration. `path` is
    init_world's: the target's recorded positions. Without a sink, the run
    builds no trace; with one, sink(records) gets NORMALS_CHUNK cycles at a
    time, in order, and keeps what it wants (no cycles: one empty call)."""
    state = init_world(config, path)
    total = config.total_cycles
    if sink is None:
        return compute_metrics(step_world(state, config, total))
    for first in range(0, max(total, 1), NORMALS_CHUNK):
        state.trace = []
        sink(step_world(state, config, min(NORMALS_CHUNK, total - first)).trace)
    return compute_metrics(state)


# ---------------------------------------------------------------------------
# trace / metrics serialization

# the trace.csv header, and the format of one row: a CycleRecord's fields, the heading in degrees
TRACE_COLUMNS = tuple(name.replace("_rad", "_deg") for name in CycleRecord._fields)
_TRACE_ROW = "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%s"


def trace_csv_lines(trace: list[CycleRecord], header: bool = True) -> list[str]:
    lines = [",".join(TRACE_COLUMNS)] if header else []
    lines.extend(
        _TRACE_ROW % (time_s, x, y, math.degrees(heading), tx, ty, rssi_dbm, in_range, in_halt,
                      decision)
        for time_s, x, y, heading, tx, ty, rssi_dbm, in_range, in_halt, decision in trace
    )
    return lines


def trace_csv_sink(fh) -> Callable[[list[CycleRecord]], object]:
    """A run_simulation sink: each chunk's rows to the text file fh, the header first."""
    headers = itertools.chain([True], itertools.repeat(False))
    return lambda trace: fh.write("\n".join(trace_csv_lines(trace, next(headers))) + "\n")


def write_metrics_json(report: MetricsReport, path) -> None:
    """Strict JSON: the NaN KPIs of an empty run are written as null."""
    row = {k: None if math.isnan(v) else v for k, v in report.to_dict().items()}
    with open(path, "w") as fh:
        json.dump(row, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
