"""Rotation-angle studies and convergence checks for fixed-angle following.

Three independent tools live here:

* rotations_to_reach / rotation_sweep: for a fixed turn angle phi, the
  fewest whole turns that land the heading within +-epsilon of a desired
  bearing theta, swept over integer grids and averaged.
* steps_to_reach / exhaustive_sweep: noise-free unit-step kinematics of the
  differential follower (turn exactly when the last step increased the
  range), counting steps until the target is within tau step-lengths, swept
  over every start range rho and start bearing beta.
* cold_mode_thresholds / verify_convergence: closed-form thresholds on the
  target's vertical offset that decide whether one or two fixed-angle
  rotations restore approach, checked against direct geometric simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PHI_RANGE = range(121, 144)
DEFAULT_EPSILON_RANGE = range(0, 31)
DEFAULT_RHO_RANGE = range(10, 101)
DEFAULT_BETA_RANGE = range(0, 360)
DEFAULT_TAU_RANGE = range(1, 11)
DEFAULT_STEP_CAP = 10_000

_COS_DEG = np.cos(np.radians(np.arange(360)))
_SIN_DEG = np.sin(np.radians(np.arange(360)))


# ---------------------------------------------------------------------------
# minimum rotations to reach a bearing window


def rotations_to_reach(phi_deg: int, theta_deg: int, epsilon_deg: int) -> int | None:
    """Fewest whole phi-turns with (w*phi) mod 360 inside [theta-eps, theta+eps].

    The wrap integer kappa is scanned upward from 0 to phi; the first kappa
    admitting an integer solution yields the smallest turn count. Returns
    None when no solution exists within that scan.
    """
    if not 1 <= phi_deg <= 359:
        raise ValueError(f"phi must be in [1, 359], got {phi_deg}")
    if not 0 <= theta_deg <= 359:
        raise ValueError(f"theta must be in [0, 359], got {theta_deg}")
    if not 0 <= epsilon_deg <= 30:
        raise ValueError(f"epsilon must be in [0, 30], got {epsilon_deg}")
    for kappa in range(phi_deg + 1):
        lo = theta_deg - epsilon_deg + 360 * kappa
        hi = theta_deg + epsilon_deg + 360 * kappa
        w_min = -((-lo) // phi_deg)  # ceil for integers
        if w_min < 0:
            w_min = 0
        w_max = hi // phi_deg
        if w_min <= w_max:
            return w_min
    return None


def _sweep_cell_rotations(phi_deg: int, epsilon_deg: int) -> np.ndarray:
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


@dataclass(frozen=True)
class RotationCell:
    """One (phi, epsilon) grid cell: per-bearing turn counts and their mean."""

    phi_deg: int
    epsilon_deg: int
    per_theta: np.ndarray  # int array over theta 0..359, -1 = unreachable
    mean_rotations: float | None  # None when any bearing is unreachable

    @property
    def valid(self) -> bool:
        return self.mean_rotations is not None


@dataclass(frozen=True)
class RotationSummary:
    """Per-phi aggregate over the epsilon grid."""

    phi_deg: int
    overall_mean: float  # mean of cell means over valid cells
    percent_valid: float  # share of epsilon cells with every bearing reachable
    fully_valid: bool


@dataclass(frozen=True)
class RotationSweepResult:
    cells: list[RotationCell]
    summaries: list[RotationSummary]
    best_phi: int  # lowest overall mean among fully valid angles

    def cell(self, phi_deg: int, epsilon_deg: int) -> RotationCell:
        for c in self.cells:
            if c.phi_deg == phi_deg and c.epsilon_deg == epsilon_deg:
                return c
        raise KeyError((phi_deg, epsilon_deg))

    def summary(self, phi_deg: int) -> RotationSummary:
        for s in self.summaries:
            if s.phi_deg == phi_deg:
                return s
        raise KeyError(phi_deg)


def rotation_sweep(
    phi_range=DEFAULT_PHI_RANGE, epsilon_range=DEFAULT_EPSILON_RANGE
) -> RotationSweepResult:
    """Sweep mean turn counts over the (phi, epsilon) grid and rank the angles."""
    cells: list[RotationCell] = []
    summaries: list[RotationSummary] = []
    for phi in phi_range:
        phi_cells: list[RotationCell] = []
        for eps in epsilon_range:
            omegas = _sweep_cell_rotations(phi, eps)
            valid = bool((omegas >= 0).all())
            mean = float(omegas.mean()) if valid else None
            phi_cells.append(RotationCell(phi, eps, omegas, mean))
        valid_means = [c.mean_rotations for c in phi_cells if c.valid]
        overall = float(np.mean(valid_means)) if valid_means else math.nan
        summaries.append(
            RotationSummary(
                phi_deg=phi,
                overall_mean=overall,
                percent_valid=100.0 * len(valid_means) / len(phi_cells),
                fully_valid=len(valid_means) == len(phi_cells),
            )
        )
        cells.extend(phi_cells)
    fully_valid = [s for s in summaries if s.fully_valid]
    if not fully_valid:
        raise ValueError("no rotation angle is valid across the whole epsilon grid")
    best = min(fully_valid, key=lambda s: (s.overall_mean, s.phi_deg))
    return RotationSweepResult(cells, summaries, best.phi_deg)


# ---------------------------------------------------------------------------
# exhaustive step counts of the noise-free unit-step follower


def steps_to_reach(
    phi_deg: int,
    rho: float,
    beta_deg: float,
    tau: float,
    step_cap: int = DEFAULT_STEP_CAP,
) -> int | None:
    """Steps a unit-step follower needs to get within tau of a fixed target.

    The follower starts at the origin heading along +x, compares exact
    ranges between consecutive positions, and turns by phi exactly when the
    last step strictly increased the range. None when step_cap is reached.
    """
    target_x = rho * math.cos(math.radians(beta_deg))
    target_y = rho * math.sin(math.radians(beta_deg))
    x = y = 0.0
    heading = 0  # integer degrees; phi is integer so headings stay on the grid
    prev_d = math.inf
    for steps in range(step_cap + 1):
        d = math.hypot(x - target_x, y - target_y)
        if d <= tau:
            return steps
        if d > prev_d:
            heading = (heading + phi_deg) % 360
        prev_d = d
        x += _COS_DEG[heading]
        y += _SIN_DEG[heading]
    return None


@dataclass(frozen=True)
class ExhaustiveCell:
    """Mean steps over all (rho, beta) starts for one (phi, tau) pair."""

    phi_deg: int
    tau: int
    mean_steps: float


@dataclass(frozen=True)
class ExhaustiveSweepResult:
    cells: list[ExhaustiveCell]
    overall_means: dict[int, float]  # phi -> mean over the full (rho, beta, tau) grid
    best_phi: int
    cap_hits: int
    total_runs: int

    def cell(self, phi_deg: int, tau: int) -> ExhaustiveCell:
        for c in self.cells:
            if c.phi_deg == phi_deg and c.tau == tau:
                return c
        raise KeyError((phi_deg, tau))


def _sweep_one_phi(
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


def exhaustive_sweep(
    phi_range=DEFAULT_PHI_RANGE,
    rho_range=DEFAULT_RHO_RANGE,
    beta_range=DEFAULT_BETA_RANGE,
    tau_range=DEFAULT_TAU_RANGE,
    step_cap: int = DEFAULT_STEP_CAP,
) -> ExhaustiveSweepResult:
    """Mean step counts per (phi, tau) over every start, plus per-phi overall means.

    Starts that hit step_cap before reaching a tau are left out of that
    cell's mean and counted in cap_hits (at the smallest tau). A cell or
    overall mean with no reached start is NaN, and such a phi cannot be
    best_phi. tau_range may come in any order but must not repeat a value.
    """
    rhos = np.asarray(list(rho_range), dtype=np.float64)
    betas = np.asarray(list(beta_range), dtype=np.int64)
    taus = np.sort(np.asarray(list(tau_range), dtype=np.float64))
    if not (rhos.size and betas.size and taus.size):
        raise ValueError("rho_range, beta_range and tau_range must not be empty")
    if np.any(taus[1:] == taus[:-1]):
        raise ValueError(f"tau_range repeats a value: {list(tau_range)}")
    cells: list[ExhaustiveCell] = []
    overall: dict[int, float] = {}
    cap_hits = 0
    for phi in phi_range:
        counts, capped = _sweep_one_phi(phi, rhos, betas, taus, step_cap)
        cap_hits += capped
        reached = counts >= 0
        for ti, tau in enumerate(taus):
            cells.append(ExhaustiveCell(phi, int(tau), _mean_or_nan(counts[reached[:, ti], ti])))
        overall[phi] = _mean_or_nan(counts[reached])
    finite = [p for p in overall if not math.isnan(overall[p])]
    if not finite:
        raise ValueError("no rotation angle reaches any tau within the step cap")
    best = min(finite, key=lambda p: (overall[p], p))
    total = len(rhos) * len(betas) * len(taus) * len(list(phi_range))
    return ExhaustiveSweepResult(cells, overall, best, cap_hits, total)


def _mean_or_nan(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else math.nan


# ---------------------------------------------------------------------------
# convergence thresholds and randomized verification


@dataclass(frozen=True)
class ColdModeThresholds:
    """Vertical-offset thresholds for recovery right after entering Cold mode.

    With step s, horizontal distance t > s/2 to the (behind-the-robot)
    target, and vertical offset v, a turn angle phi in (120, 180) degrees
    gives:

    * v > first_rotation: the range shrinks right after the first rotation;
    * otherwise it shrinks right after the second (second_rotation always
      exceeds first_rotation in this regime);
    * v < overall_gain: the range after two rotations is below the range at
      the Cold-mode entry point.

    overall_gain changes comparison direction for phi at or below 120
    degrees and is reported as NaN there; first_rotation is well defined on
    the whole [90, 180] range.
    """

    step_m: float
    horizontal_m: float
    phi_deg: float
    first_rotation: float
    second_rotation: float
    overall_gain: float


def cold_mode_thresholds(step_m: float, horizontal_m: float, phi_deg: float) -> ColdModeThresholds:
    if step_m <= 0.0:
        raise ValueError(f"step must be positive, got {step_m}")
    if horizontal_m <= step_m / 2.0:
        raise ValueError(
            f"horizontal distance {horizontal_m} must exceed half the step {step_m / 2.0}"
        )
    if not 90.0 <= phi_deg <= 180.0:
        raise ValueError(f"turn angle must be in [90, 180] degrees, got {phi_deg}")
    s, t = step_m, horizontal_m
    phi = math.radians(phi_deg)
    first = 0.5 * s / math.sin(phi) + t / math.tan(phi)
    sin2 = math.sin(2.0 * phi)
    if sin2 < 0.0:
        second = (4.0 * s * math.cos(phi / 2.0) ** 2 + 2.0 * t * math.cos(2.0 * phi) - s) / (
            2.0 * sin2
        )
    else:
        # at phi = 90 the second-rotation condition holds for every offset
        second = math.inf
    sum_sines = math.sin(phi) + math.sin(2.0 * phi)
    if sum_sines < 0.0:
        overall = (
            2.0 * s * math.cos(phi / 2.0) ** 2 + t * (math.cos(phi) + math.cos(2.0 * phi))
        ) / sum_sines
    else:
        overall = math.nan
    return ColdModeThresholds(s, t, phi_deg, first, second, overall)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of randomized geometric checks; every violation count must be 0."""

    trials: int
    phi_deg: float
    hot_mode_violations: int
    first_rotation_violations: int
    second_rotation_violations: int
    overall_gain_violations: int
    ordering_violations: int
    boundary_skips: int

    @property
    def total_violations(self) -> int:
        return (
            self.hot_mode_violations
            + self.first_rotation_violations
            + self.second_rotation_violations
            + self.overall_gain_violations
            + self.ordering_violations
        )


def verify_convergence(
    trials: int = 10_000,
    rng: np.random.Generator | None = None,
    phi_deg: float = 137.0,
    tolerance: float = 1e-9,
) -> ConvergenceReport:
    """Check the approach predictions on random geometries by direct simulation.

    Hot mode: one forward step shrinks the range exactly when the horizontal
    distance to the target is at least half a step. Cold mode: simulate the
    two-rotation escape sequence and compare against the closed-form
    thresholds. Geometries within `tolerance` of a threshold are skipped as
    boundary cases.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 120.0 < phi_deg < 180.0:
        raise ValueError(f"verification needs a turn angle in (120, 180), got {phi_deg}")
    phi = math.radians(phi_deg)
    skips = 0

    # Hot mode: robot at the origin heading +x, target at (h, v).
    s = rng.uniform(0.1, 2.0, trials)
    h = rng.uniform(0.0, 3.0, trials) * s
    v = rng.uniform(-3.0, 3.0, trials) * s
    ap2 = h**2 + v**2
    bp2 = (h - s) ** 2 + v**2
    predicted = h >= s / 2.0
    actual = bp2 <= ap2
    boundary = np.abs(h - s / 2.0) <= tolerance * s
    skips += int(boundary.sum())
    hot_violations = int((predicted != actual)[~boundary].sum())

    # Cold mode: robot at the origin heading +x just after the range grew;
    # the target sits behind at (-t, r). Two rotated steps follow.
    s = rng.uniform(0.1, 2.0, trials)
    t = s * rng.uniform(0.5 + 1e-6, 3.0, trials)
    r = rng.uniform(-6.0, 6.0, trials) * s
    first = 0.5 * s / math.sin(phi) + t / math.tan(phi)
    second = (4.0 * s * math.cos(phi / 2.0) ** 2 + 2.0 * t * math.cos(2.0 * phi) - s) / (
        2.0 * math.sin(2.0 * phi)
    )
    overall = (2.0 * s * math.cos(phi / 2.0) ** 2 + t * (math.cos(phi) + math.cos(2.0 * phi))) / (
        math.sin(phi) + math.sin(2.0 * phi)
    )

    dx = s * math.cos(phi)
    dy = s * math.sin(phi)
    ex = dx + s * math.cos(2.0 * phi)
    ey = dy + s * math.sin(2.0 * phi)
    cp2 = t**2 + r**2
    dp2 = (dx + t) ** 2 + (dy - r) ** 2
    ep2 = (ex + t) ** 2 + (ey - r) ** 2
    scale = s + t + np.abs(r)

    band_first = np.abs(r - first) <= tolerance * scale
    skips += int(band_first.sum())
    first_violations = int((((dp2 < cp2) != (r > first)) & ~band_first).sum())

    stayed_cold = (r <= first) & ~band_first
    band_second = np.abs(r - second) <= tolerance * scale
    skips += int((stayed_cold & band_second).sum())
    second_violations = int((stayed_cold & ~band_second & ~(ep2 < dp2)).sum())

    band_overall = np.abs(r - overall) <= tolerance * scale
    skips += int(band_overall.sum())
    overall_violations = int((((ep2 < cp2) != (r < overall)) & ~band_overall).sum())

    ordering_violations = int(((first >= second) | (first >= overall)).sum())

    return ConvergenceReport(
        trials=trials,
        phi_deg=phi_deg,
        hot_mode_violations=hot_violations,
        first_rotation_violations=first_violations,
        second_rotation_violations=second_violations,
        overall_gain_violations=overall_violations,
        ordering_violations=ordering_violations,
        boundary_skips=skips,
    )
