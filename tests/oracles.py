"""Independent brute-force oracles used by the test suite.

These deliberately avoid the solver paths they are checking: position
recovery is a coarse grid scan (to pick the right basin, thin observation
triangles leave a near-mirror lobe) followed by a Levenberg-Marquardt
polish on the range residuals, and the turn-count oracle is a linear scan
over candidate counts. normalize_heading and left_sum, the package's
earlier heading wrap and float sum, serve the oracles below.

The two sweep kernels at the end are the package's earlier vectorized
kernels, kept verbatim as references for their replacements:
sweep_cell_rotations scans every wrap kappa for one (phi, epsilon) cell,
and sweep_one_phi computes every distance with np.hypot and writes every
crossed tau level with its own scatter.

The Hot-Cold tracker's earlier list windows follow, verbatim: ingest_sample
appends each sample to a HotColdWindows list and averages each finished
window with window_average, which sums it with left_sum.

The engine's earlier obstacle sensor, trace writer, metrics and
trilateration step follow, also verbatim: _ray_rect_distance
recomputes the ray direction per rectangle and sensor_reading_cm casts at
every rectangle; trace_csv_lines formats each field on its own;
compute_metrics sums geometry.distance with left_sum and makes one more
pass per count; _trilateration_decide solves the observation FIFO on every
in-range cycle, changed or not, and takes its fixes and steering from
record_observation and trilateration_decide on a Vec2 position and a Pose
(the fix is stored as the floats an Observation holds).

The cycle loop on Vec2 and Pose closes the file: step_world and the
helpers it called, from before the loop ran on plain floats. The state
keeps a Pose robot and Vec2 target and waypoint, every position is built
as a Vec2 (which checks it is finite) and every heading as a Pose (which
wraps it). It takes its decisions from the trilateration step above and
the package's Hot-Cold ingest_sample (through _hotcold_decide, its own
glue), and it places and moves the target with _place and _move. Its
trace holds the earlier nested CycleRecord (a Pose robot and a Vec2
target), which trace_csv_lines and compute_metrics read; flat_record
lays one out in the engine's flat CycleRecord order.
"""

from __future__ import annotations

import math
import operator

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np
from scipy import optimize

from hotcold import tracker
from hotcold.analysis import _COS_DEG, _SIN_DEG
from hotcold.channel import (
    MIN_DISTANCE_M,
    ChannelParams,
    RssiReading,
    invert_rssi_to_distance,
    path_loss,
)
from hotcold.engine import (
    AVOID_BACK_UP_M,
    SENSOR_MAX_CM,
    SENSOR_RAY_OFFSET_RAD,
    SENSOR_REACH_M,
    TRACE_COLUMNS,
    TRACKERS,
    FixedPath,
    MetricsReport,
    RandomWaypoint,
    Rect,
    StaticControl,
    WorldConfig,
    obstacle_avoidance,
)
from hotcold.geometry import TWO_PI, Pose, Vec2, distance, signed_turn
from hotcold.tracker import (
    HALT,
    MOVE_FORWARD,
    DecisionKind,
    HotColdConfig,
    HotColdState,
    TrackerDecision,
    decide,
    rotate_then_move,
)
from hotcold.trilateration import (
    Observation,
    TrilaterationConfig,
    TrilaterationState,
    update_estimate,
)


def normalize_heading(angle_rad: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    wrapped = angle_rad % TWO_PI
    if wrapped >= TWO_PI:
        # float modulo of a tiny negative can round up to exactly 2*pi
        wrapped -= TWO_PI
    return wrapped


def left_sum(values) -> float:
    """Plain left-to-right float sum: the same bits on every Python (3.12's
    builtin sum compensates, so its bits differ from earlier versions')."""
    return reduce(operator.add, values, 0.0)


def brute_force_position(
    positions: list[tuple[float, float]],
    distances: list[float],
    grid: int = 121,
    starts: int = 3,
) -> tuple[float, float]:
    """Minimize sum((|p - p_i| - d_i)^2) without any linear-algebra shortcut."""
    pos = np.asarray(positions, dtype=float)
    dist = np.asarray(distances, dtype=float)

    def residuals(point) -> np.ndarray:
        return np.hypot(point[0] - pos[:, 0], point[1] - pos[:, 1]) - dist

    lo = (pos - dist[:, None]).min(axis=0)
    hi = (pos + dist[:, None]).max(axis=0)
    center = (lo + hi) / 2.0
    half = float((hi - lo).max()) / 2.0 or 1.0
    xs = np.linspace(center[0] - half, center[0] + half, grid)
    ys = np.linspace(center[1] - half, center[1] + half, grid)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    coarse = np.zeros_like(gx)
    for (px, py), d in zip(pos, dist):
        coarse += (np.hypot(gx - px, gy - py) - d) ** 2

    seeds = []
    min_separation = grid // 10
    for flat in np.argsort(coarse.ravel()):
        cell = np.unravel_index(flat, coarse.shape)
        if all(
            max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) >= min_separation for c in seeds
        ):
            seeds.append(cell)
        if len(seeds) == starts:
            break

    best_point, best_cost = None, math.inf
    for cell in seeds:
        result = optimize.least_squares(
            residuals, np.array([gx[cell], gy[cell]]), method="lm", xtol=1e-15, ftol=1e-15
        )
        if result.cost < best_cost:
            best_cost = float(result.cost)
            best_point = result.x
    return float(best_point[0]), float(best_point[1])


def brute_force_rotations(phi: int, theta: int, epsilon: int) -> int | None:
    """Smallest turn count by scanning omega upward to 360*phi.

    A count is feasible when some integer wrap kappa in [0, phi] puts
    omega*phi - 360*kappa inside [theta - epsilon, theta + epsilon].
    """
    for omega in range(360 * phi + 1):
        v = omega * phi
        kappa_lo = -((-(v - theta - epsilon)) // 360)  # ceil
        kappa_hi = (v - theta + epsilon) // 360
        if kappa_lo <= kappa_hi and kappa_hi >= 0 and kappa_lo <= phi:
            return omega
    return None


def sweep_cell_rotations(phi_deg: int, epsilon_deg: int) -> np.ndarray:
    """Vectorized rotations_to_reach over all theta; -1 marks no solution."""
    thetas = np.arange(360, dtype=np.int64)[:, None]
    kappas = np.arange(phi_deg + 1, dtype=np.int64)[None, :]
    lo = thetas - epsilon_deg + 360 * kappas
    hi = thetas + epsilon_deg + 360 * kappas
    w_min = np.maximum(-((-lo) // phi_deg), 0)
    w_max = hi // phi_deg
    feasible = w_min <= w_max
    has_solution = feasible.any(axis=1)
    first_kappa = np.argmax(feasible, axis=1)
    omegas = w_min[np.arange(360), first_kappa]
    return np.where(has_solution, omegas, -1)


def sweep_one_phi(
    phi_deg: int, rhos: np.ndarray, betas: np.ndarray, taus: np.ndarray, step_cap: int
) -> tuple[np.ndarray, int]:
    """First-crossing step counts, shape (n_starts, n_taus); -1 where capped.

    `taus` must be ascending and distinct; columns follow its order. All tau
    levels share one trajectory per (rho, beta): tau only decides when
    counting stops, so each trajectory is stepped once.

    Since d <= tau implies d <= every larger tau, a start crosses its levels
    from the largest down. Each start therefore carries one threshold, the
    largest tau it has not crossed yet (-inf once all are crossed), and one
    `d <= threshold` test per step finds the starts with new crossings; only
    those rows look up how many levels they now cross. Finished starts keep
    stepping harmlessly until the live count drops below 3/4 of the state
    length, when the state is compacted. Starts still live after step_cap
    steps are the returned cap count.
    """
    rho_grid, beta_grid = np.meshgrid(rhos, betas, indexing="ij")
    target_x = (rho_grid * _COS_DEG[beta_grid]).ravel()
    target_y = (rho_grid * _SIN_DEG[beta_grid]).ravel()
    n = target_x.size
    counts = np.full((n, taus.size), -1, dtype=np.int64)
    levels = np.arange(taus.size)
    successor = (np.arange(360) + phi_deg) % 360
    thresholds = np.concatenate(([-np.inf], taus))  # indexed by levels left

    idx = np.arange(n)
    x = np.zeros(n)
    y = np.zeros(n)
    heading = np.zeros(n, dtype=np.int64)
    prev_d = np.full(n, np.inf)
    left = np.full(n, taus.size)  # levels not crossed yet: taus[:left]
    threshold = thresholds[left]
    live = n

    for step in range(step_cap + 1):
        d = np.hypot(x - target_x, y - target_y)
        rows = np.flatnonzero(d <= threshold)
        if rows.size:
            first = np.searchsorted(taus, d[rows])  # lowest level now crossed
            crossed = (levels >= first[:, None]) & (levels < left[rows, None])
            hit_rows, hit_levels = np.nonzero(crossed)
            counts[idx[rows[hit_rows]], hit_levels] = step
            left[rows] = first
            threshold[rows] = thresholds[first]
            live -= int(np.count_nonzero(first == 0))
            if live == 0:
                break
            if live < 0.75 * idx.size:
                keep = left > 0
                idx, x, y, heading = idx[keep], x[keep], y[keep], heading[keep]
                d, prev_d = d[keep], prev_d[keep]
                target_x, target_y = target_x[keep], target_y[keep]
                left, threshold = left[keep], threshold[keep]
        heading = np.where(d > prev_d, successor[heading], heading)
        prev_d = d
        x += _COS_DEG[heading]
        y += _SIN_DEG[heading]

    return counts, live


@dataclass
class HotColdWindows:
    """Per-run Hot-Cold state as lists: the two sample windows and a count
    of window comparisons."""

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


def ingest_sample(
    state: HotColdWindows, reading_dbm: float, cfg: HotColdConfig, halt_threshold_dbm: float
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


def _ray_rect_distance(origin: Vec2, direction_rad: float, rect: Rect) -> float:
    """Distance along a ray to an axis-aligned rectangle (slab method)."""
    dx = math.cos(direction_rad)
    dy = math.sin(direction_rad)
    t_min, t_max = 0.0, math.inf
    for o, d, lo, hi in ((origin.x, dx, rect.x_min, rect.x_max), (origin.y, dy, rect.y_min, rect.y_max)):
        if abs(d) < 1e-15:
            if o < lo or o > hi:
                return math.inf
            continue
        t1 = (lo - o) / d
        t2 = (hi - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_min = max(t_min, t1)
        t_max = min(t_max, t2)
        if t_min > t_max:
            return math.inf
    return t_min


def sensor_reading_cm(pose: Pose, obstacles: tuple[Rect, ...], side: int) -> float:
    """Ultrasonic reading for the left (+1) or right (-1) front sensor, in cm."""
    direction = pose.heading_rad + side * SENSOR_RAY_OFFSET_RAD
    nearest = min(
        (_ray_rect_distance(pose.position, direction, rect) for rect in obstacles),
        default=math.inf,
    )
    return min(nearest * 100.0, SENSOR_MAX_CM)


class CycleRecord(NamedTuple):
    time_s: float
    robot: Pose
    target: Vec2
    rssi_dbm: float
    in_range: bool
    in_halt: bool
    decision: str


def flat_record(rec: CycleRecord) -> tuple:
    """The record's fields in the order of the engine's flat CycleRecord."""
    robot, target = rec.robot, rec.target
    return (rec.time_s, robot.position.x, robot.position.y, robot.heading_rad, target.x, target.y,
            rec.rssi_dbm, rec.in_range, rec.in_halt, rec.decision)


def trace_csv_lines(trace: list[CycleRecord]) -> list[str]:
    lines = [",".join(TRACE_COLUMNS)]
    for rec in trace:
        lines.append(
            ",".join(
                (
                    f"{rec.time_s:.6f}",
                    f"{rec.robot.position.x:.6f}",
                    f"{rec.robot.position.y:.6f}",
                    f"{math.degrees(rec.robot.heading_rad):.6f}",
                    f"{rec.target.x:.6f}",
                    f"{rec.target.y:.6f}",
                    f"{rec.rssi_dbm:.6f}",
                    str(int(rec.in_range)),
                    str(int(rec.in_halt)),
                    rec.decision,
                )
            )
        )
    return lines


def compute_metrics(trace: list[CycleRecord]) -> MetricsReport:
    """Per-run KPIs from the cycle trace."""
    if not trace:
        return MetricsReport(math.nan, 0, 0, 0)
    total = len(trace)
    avg = left_sum(distance(rec.robot.position, rec.target) for rec in trace) / total
    return MetricsReport(
        average_distance_m=avg,
        cycles_in_range=sum(rec.in_range for rec in trace),
        cycles_in_halt=sum(rec.in_halt for rec in trace),
        total_cycles=total,
    )


def record_observation(
    state: TrilaterationState,
    robot_pos: Vec2,
    rssi_dbm: float,
    params: ChannelParams,
    cfg: TrilaterationConfig,
) -> bool:
    for obs in state.observations:
        if math.hypot(obs.x - robot_pos.x, obs.y - robot_pos.y) < cfg.min_spacing_m:
            return False
    fix = Observation(robot_pos.x, robot_pos.y, invert_rssi_to_distance(rssi_dbm, params))
    state.observations.append(fix)
    while len(state.observations) > cfg.k_observations:
        state.observations.pop(0)
    return True


def trilateration_decide(
    state: TrilaterationState,
    pose: Pose,
    latest_rssi_dbm: float,
    cfg: TrilaterationConfig,
    halt_threshold_dbm: float,
    step_m: float,
) -> TrackerDecision:
    if latest_rssi_dbm > halt_threshold_dbm:
        return HALT
    if state.current_estimate is not None:
        gap = math.hypot(
            state.current_estimate.x - pose.position.x,
            state.current_estimate.y - pose.position.y,
        )
        if gap <= step_m:
            state.current_estimate = None
        else:
            to = state.current_estimate
            bearing = normalize_heading(math.atan2(to.y - pose.position.y, to.x - pose.position.x))
            turn = signed_turn(pose.heading_rad, bearing)
            return rotate_then_move(math.degrees(turn))
    if len(state.observations) >= cfg.k_observations:
        return rotate_then_move(cfg.bootstrap_turn_deg)
    return MOVE_FORWARD


def _trilateration_decide(state, reading, config):
    cfg = config.tracker
    record_observation(
        state.tracker_state, state.robot.position, reading.value_dbm, config.channel, cfg
    )
    update_estimate(state.tracker_state, cfg)
    return trilateration_decide(
        state.tracker_state, state.robot, reading.value_dbm, cfg,
        state.halt_threshold_dbm, config.robot_step_m,
    )


def rotate(pose: Pose, angle_rad: float) -> Pose:
    """Turn in place by a signed angle (counter-clockwise positive)."""
    return Pose(pose.position, pose.heading_rad + angle_rad)


def advance(pose: Pose, step_m: float) -> Pose:
    """Move forward along the current heading; the heading is unchanged."""
    if step_m < 0.0:
        raise ValueError(f"negative step {step_m}")
    heading = pose.heading_rad
    position = Vec2(
        pose.position.x + step_m * math.cos(heading),
        pose.position.y + step_m * math.sin(heading),
    )
    return Pose(position, heading)


def rssi(target_pos: Vec2, robot_pos: Vec2, params: ChannelParams, normal: float) -> RssiReading:
    d = math.hypot(target_pos.x - robot_pos.x, target_pos.y - robot_pos.y)
    if d < MIN_DISTANCE_M:
        d = MIN_DISTANCE_M
    value = params.link_budget_dbm - path_loss(d, params, params.shadowing_sigma_db * normal)
    return RssiReading(value, value >= params.rx_sensitivity_dbm)


@dataclass(slots=True)
class WorldState:
    time_s: float
    robot: Pose
    target: Vec2  # the target has no heading: nothing reads one
    target_waypoint: Vec2 | None
    tracker_state: HotColdState | TrilaterationState | None
    decide: Callable  # (state, reading, config) -> the in-range decision
    halt_threshold_dbm: float
    shadowing_normals: list[float]  # the standard normal of each cycle's broadcast
    mobility_rng: np.random.Generator
    last_decision: TrackerDecision | None = None
    trace: list[CycleRecord] | None = None  # None: the run keeps no trace
    # KPI sums; distances are added left to right from 0.0, left_sum's bits
    cycles: int = 0
    distance_sum: float = 0.0
    cycles_in_range: int = 0
    cycles_in_halt: int = 0

    def __len__(self) -> int:  # the cycles run so far
        return self.cycles


def _uniform_point(config: WorldConfig, rng: np.random.Generator) -> Vec2:
    """A point drawn uniformly in the space, x first."""
    return Vec2(float(rng.uniform(0.0, config.width_m)), float(rng.uniform(0.0, config.height_m)))


def _clamp_to_space(point: Vec2, config: WorldConfig) -> Vec2:
    x = min(max(point.x, 0.0), config.width_m)
    y = min(max(point.y, 0.0), config.height_m)
    if x == point.x and y == point.y:
        return point
    return Vec2(x, y)


def _place(config: WorldConfig, rng: np.random.Generator) -> tuple[Vec2, Vec2 | None]:
    """The target's start and first waypoint (None if the model has none)."""
    mobility = config.mobility
    if isinstance(mobility, RandomWaypoint):
        # draw order is fixed: start point first (when not given), then waypoint
        start = mobility.start or _uniform_point(config, rng)
        return _clamp_to_space(start, config), _uniform_point(config, rng)
    return _clamp_to_space(_position_at(mobility, 0.0), config), None  # a FixedPath


def _position_at(path: FixedPath, time_s: float) -> Vec2:
    points = path.waypoints
    if time_s <= points[0][0]:
        return points[0][1]
    for (t0, p0), (t1, p1) in zip(points, points[1:]):
        if time_s <= t1:
            frac = (time_s - t0) / (t1 - t0)
            return Vec2(p0.x + frac * (p1.x - p0.x), p0.y + frac * (p1.y - p0.y))
    return points[-1][1]


def _move(state: WorldState, config: WorldConfig, t_end: float) -> None:
    """The two mobility models' moves; a static target is a one-waypoint FixedPath."""
    mobility = config.mobility
    if isinstance(mobility, RandomWaypoint):
        state.target, state.target_waypoint = random_waypoint_step(
            state.target, state.target_waypoint, config, state.mobility_rng
        )
    else:
        state.target = _clamp_to_space(_position_at(mobility, t_end), config)


def _hotcold_decide(state, reading, config):
    return tracker.ingest_sample(
        state.tracker_state, reading.value_dbm, config.tracker, state.halt_threshold_dbm
    )


# tracker config type -> in-range decision on this file's state
_DECIDE = {
    HotColdConfig: _hotcold_decide,
    TrilaterationConfig: _trilateration_decide,
    StaticControl: lambda state, reading, config: None,
}


def init_world(config: WorldConfig, keep_trace: bool = True) -> WorldState:
    channel_ss, mobility_ss = np.random.SeedSequence(config.seed).spawn(2)
    mobility_rng = np.random.default_rng(mobility_ss)
    shadowing_rng = np.random.default_rng(channel_ss)

    robot = config.robot_start or Pose(Vec2(config.width_m / 2.0, config.height_m / 2.0), 0.0)
    target, waypoint = _place(config, mobility_rng)
    new_state, _ = TRACKERS[type(config.tracker)]

    return WorldState(
        time_s=0.0,
        robot=robot,
        target=target,
        target_waypoint=waypoint,
        tracker_state=new_state(),
        decide=_DECIDE[type(config.tracker)],
        halt_threshold_dbm=config.halt_threshold_dbm(),
        # one batch gives the same bits as one scalar draw per cycle
        shadowing_normals=shadowing_rng.standard_normal(config.total_cycles).tolist(),
        mobility_rng=mobility_rng,
        trace=[] if keep_trace else None,
    )


def random_waypoint_step(
    position: Vec2,
    waypoint: Vec2,
    config: WorldConfig,
    rng: np.random.Generator,
) -> tuple[Vec2, Vec2]:
    """One cycle of waypoint walking; landing on the waypoint draws a new one."""
    step = config.target_step_m
    if step == 0.0:
        return position, waypoint
    dx = waypoint.x - position.x
    dy = waypoint.y - position.y
    if math.hypot(dx, dy) <= step:
        return waypoint, _uniform_point(config, rng)
    # the direction is wrapped to [0, 2*pi) as a Pose heading would be:
    # cos and sin of the unwrapped atan2 can differ in the last bit
    heading = normalize_heading(math.atan2(dy, dx))
    moved = Vec2(position.x + step * math.cos(heading), position.y + step * math.sin(heading))
    return moved, waypoint


def obstacles_in_reach(position: Vec2, obstacles: Sequence[Rect]) -> list[Rect]:
    """The obstacles that either sensor at this position could read below its cap."""
    ox, oy = position.x, position.y
    return [
        rect for rect in obstacles
        if not (rect.x_min - ox > SENSOR_REACH_M or rect.x_max - ox < -SENSOR_REACH_M
                or rect.y_min - oy > SENSOR_REACH_M or rect.y_max - oy < -SENSOR_REACH_M)
    ]


_ROTATE_THEN_MOVE = DecisionKind.ROTATE_THEN_MOVE
_HALT = DecisionKind.HALT


def step_world(state: WorldState, config: WorldConfig) -> WorldState:
    """Advance the world by one broadcast cycle and add it to the run's sums."""
    cycle = state.cycles
    if cycle >= config.total_cycles:
        raise ValueError("simulation already ran for its full duration")
    t_end = state.time_s + config.cycle_period_s

    _move(state, config, t_end)
    target = state.target
    robot = state.robot

    reading = rssi(target, robot.position, config.channel, state.shadowing_normals[cycle])

    if reading.in_range:
        decision = state.last_decision = state.decide(state, reading, config)
    else:
        decision = state.last_decision  # out of range: repeat the last decision

    maneuver = None
    if config.obstacles:
        near = obstacles_in_reach(robot.position, config.obstacles)
        if near:
            left = sensor_reading_cm(robot, near, +1)
            right = sensor_reading_cm(robot, near, -1)
            maneuver = obstacle_avoidance(left, right)

    if maneuver is not None:
        # back up and turn as one pose: the bits of rotate(Pose(back, heading), turn)
        heading = robot.heading_rad
        back = Vec2(
            robot.position.x - AVOID_BACK_UP_M * math.cos(heading),
            robot.position.y - AVOID_BACK_UP_M * math.sin(heading),
        )
        robot = Pose(back, heading + math.radians(maneuver.rotation_deg))
    elif decision is not None and decision.kind is not _HALT:
        if decision.kind is _ROTATE_THEN_MOVE:
            robot = rotate(robot, math.radians(decision.rotation_deg))
        robot = advance(robot, config.robot_step_m)

    state.robot = robot
    state.time_s = t_end
    state.cycles = cycle + 1
    state.distance_sum += math.hypot(robot.position.x - target.x, robot.position.y - target.y)
    in_halt = reading.value_dbm > state.halt_threshold_dbm
    state.cycles_in_range += reading.in_range
    state.cycles_in_halt += in_halt
    if state.trace is not None:
        act = maneuver or decision
        state.trace.append(CycleRecord(t_end, robot, target, reading.value_dbm, reading.in_range,
                                       in_halt, "none" if act is None else act.label))
    return state
