"""Independent brute-force oracles used by the test suite.

These deliberately avoid the solver paths they are checking: position
recovery is a coarse grid scan (to pick the right basin, thin observation
triangles leave a near-mirror lobe) followed by a Levenberg-Marquardt
polish on the range residuals, and the turn-count oracle is a linear scan
over candidate counts.

The two sweep kernels at the end are the package's earlier vectorized
kernels, kept verbatim as references for their replacements:
sweep_cell_rotations scans every wrap kappa for one (phi, epsilon) cell,
and sweep_one_phi computes every distance with np.hypot and writes every
crossed tau level with its own scatter.

The engine's earlier obstacle sensor, trace writer, metrics and
trilateration step close the file, also verbatim: _ray_rect_distance
recomputes the ray direction per rectangle and sensor_reading_cm casts at
every rectangle; trace_csv_lines formats each field on its own;
compute_metrics sums geometry.distance with left_sum and makes one more
pass per count; _trilateration_decide solves the observation FIFO on every
in-range cycle, changed or not.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from hotcold.analysis import _COS_DEG, _SIN_DEG
from hotcold.engine import (
    SENSOR_MAX_CM,
    SENSOR_RAY_OFFSET_RAD,
    TRACE_COLUMNS,
    CycleRecord,
    MetricsReport,
    Rect,
)
from hotcold.geometry import Pose, Vec2, distance, left_sum
from hotcold.trilateration import record_observation, trilateration_decide, update_estimate


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
