"""Rotation-angle studies and convergence checks for fixed-angle following.

Three independent tools live here:

* turn_counts / rotation_sweep: for a fixed turn angle phi, the
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
from functools import cached_property
from typing import NamedTuple

import numpy as np

DEFAULT_PHI_RANGE = range(121, 144)
DEFAULT_EPSILON_RANGE = range(0, 31)
DEFAULT_RHO_RANGE = range(10, 101)
DEFAULT_BETA_RANGE = range(0, 360)
DEFAULT_TAU_RANGE = range(1, 11)
DEFAULT_STEP_CAP = 10_000
_MAX_EPSILON = 30
_MAX_TURNS = 400  # every solvable rotation cell needs fewer turns, see turn_counts
_MAX_DISTANCE = 2.0**400  # bound on rho + step_cap: keeps every s finite
_BOUNDARY_TOLERANCE = 1e-9  # relative band around a threshold that verify_convergence skips

_TAUS = range(2**53 + 1)  # the stop radii, in steps, that are distinct floats

_COS_DEG = np.cos(np.radians(np.arange(360)))
_SIN_DEG = np.sin(np.radians(np.arange(360)))


def _int(value, what: str, low: int, high: float = math.inf) -> int:
    """`value` as an integer in [low, high]: an integral float such as 139.0
    reads as its integer, and anything else raises ValueError."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, an infinity, not a number
        i = None
    if i is None or i != value or not low <= i <= high:
        raise ValueError(f"{what} must be an integer in [{low}, {high}], got {value!r}")
    return i


def _distinct_ints(values, what: str, allowed: range, name: str, item: str = "a value") -> list[int]:
    """`values` read once as distinct integers in `allowed`, each as _int reads
    it; an empty range raises ValueError."""
    values = list(values)
    if not values:
        raise ValueError(f"{name} must not be empty")
    try:
        ints = [_int(v, what, allowed[0], allowed[-1]) for v in values]
    except ValueError:
        raise ValueError(f"{what} must be integers in [{allowed[0]}, {allowed[-1]}], got {values}") from None
    if len(set(ints)) < len(ints):
        raise ValueError(f"{name} repeats {item}: {values}")
    return ints


# ---------------------------------------------------------------------------
# minimum rotations to reach a bearing window


def turn_counts(phi_deg: int) -> np.ndarray:
    """Fewest whole phi-turns that land the heading within epsilon of each bearing.

    Row epsilon (0-30) of the (31, 360) result holds the counts over theta
    (0-359), -1 where none exists; phi must be an integer in [1, 359]. Turn
    w solves (theta, epsilon) when w*phi lies within epsilon of
    theta + 360*kappa for a wrap kappa in [0, phi]; as epsilon < 180 only
    the nearest wrap can do so, at signed offset m. The running minimum of
    |m| over w falls to epsilon at the first solving w, which is the number
    of turns whose running minimum is still above epsilon. Every solvable
    cell has a solution below 390 turns: the heading sequence repeats every
    360/gcd(phi, 360) <= 360 turns, and a solution that needs kappa = -1
    has w*phi < 30.
    """
    phi_deg = _int(phi_deg, "phi", 1, 359)
    # int32 holds every value below: |w*phi - theta| <= 399*359 + 360 < 2**31
    turns = np.arange(_MAX_TURNS, dtype=np.int32)[:, None]
    offset = turns * phi_deg - np.arange(360, dtype=np.int32)  # w*phi - theta, (turns, theta)
    kappa = (offset + 180) // 360
    miss = np.minimum(np.abs(offset - 360 * kappa), _MAX_EPSILON + 1)
    miss[(kappa < 0) | (kappa > phi_deg)] = _MAX_EPSILON + 1
    np.minimum.accumulate(miss, axis=0, out=miss)
    # per running-minimum value (the last bin: above every epsilon) and theta,
    # the number of turns that leave it there
    per_value = np.bincount(
        (miss * 360 + np.arange(360)).ravel(), minlength=(_MAX_EPSILON + 2) * 360
    ).reshape(_MAX_EPSILON + 2, 360)
    first = _MAX_TURNS - np.cumsum(per_value[:-1], axis=0)
    return np.where(first < _MAX_TURNS, first, -1)


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

    @cached_property
    def _cells(self) -> dict[tuple[int, int], RotationCell]:
        return {(c.phi_deg, c.epsilon_deg): c for c in self.cells}

    @cached_property
    def _summaries(self) -> dict[int, RotationSummary]:
        return {s.phi_deg: s for s in self.summaries}

    def cell(self, phi_deg: int, epsilon_deg: int) -> RotationCell:
        return self._cells[phi_deg, epsilon_deg]

    def summary(self, phi_deg: int) -> RotationSummary:
        return self._summaries[phi_deg]


def rotation_sweep(
    phi_range=DEFAULT_PHI_RANGE, epsilon_range=DEFAULT_EPSILON_RANGE
) -> RotationSweepResult:
    """Sweep mean turn counts over the (phi, epsilon) grid and rank the angles: distinct
    integer angles in [1, 359] and epsilons in [0, 30], each range read once and not empty."""
    phis = _distinct_ints(phi_range, "angles", range(1, 360), "phi_range", "an angle")
    epsilons = _distinct_ints(epsilon_range, "epsilon values", range(_MAX_EPSILON + 1), "epsilon_range")
    cells: list[RotationCell] = []
    summaries: list[RotationSummary] = []
    for phi in phis:
        table = turn_counts(phi)
        # each row's validity and mean in one reduction per angle; the means
        # are exact float sums of integers, so each equals its row's own mean
        valid = (table >= 0).all(axis=1).tolist()
        means = table.mean(axis=1).tolist()
        phi_cells = [RotationCell(phi, eps, table[eps], means[eps] if valid[eps] else None)
                     for eps in epsilons]
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

    The follower starts at the origin heading along +x, rho from the
    target, so it has arrived at step 0 when rho <= tau. From step 1 on it
    compares squared ranges s = dx*dx + dy*dy, with dx = x - target_x and
    dy = y - target_y: it has arrived when s <= tau*tau (the rounded level),
    and it turns by phi exactly when the last step strictly increased s.
    None when step_cap is reached. phi and step_cap are read as
    exhaustive_sweep reads them; rho + step_cap must be below
    _MAX_DISTANCE, as there, and beta finite.
    """
    phi_deg = _int(phi_deg, "phi", 1, 359)
    step_cap = _int(step_cap, "step_cap", 0, _MAX_DISTANCE)
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if not rho >= 0.0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if not rho + step_cap < _MAX_DISTANCE:
        raise ValueError(f"rho + step_cap must be finite and below {_MAX_DISTANCE:.3g}, got rho {rho}")
    if not math.isfinite(beta_deg):
        raise ValueError(f"beta_deg must be finite, got {beta_deg}")
    if rho <= tau:
        return 0
    target_x = rho * math.cos(math.radians(beta_deg))
    target_y = rho * math.sin(math.radians(beta_deg))
    level = tau * tau
    x = y = 0.0
    heading = 0  # integer degrees; phi is integer so headings stay on the grid
    prev_s = target_x * target_x + target_y * target_y
    for steps in range(1, step_cap + 1):
        x += _COS_DEG[heading]
        y += _SIN_DEG[heading]
        dx = x - target_x
        dy = y - target_y
        s = dx * dx + dy * dy
        if s <= level:
            return steps
        if s > prev_s:
            heading = (heading + phi_deg) % 360
        prev_s = s
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

    @cached_property
    def _cells(self) -> dict[tuple[int, int], ExhaustiveCell]:
        return {(c.phi_deg, c.tau): c for c in self.cells}

    def cell(self, phi_deg: int, tau: int) -> ExhaustiveCell:
        return self._cells[phi_deg, tau]


# First leg: every trajectory starts at the origin heading along +x, and as
# _COS_DEG[0] == 1.0 and _SIN_DEG[0] == 0.0 it sits exactly on (j, 0.0) at
# step j until its first turn, whatever phi: _first_leg steps it once for
# every angle with steps_to_reach's rules.


class _FirstLeg(NamedTuple):
    """What every angle shares: each start's walk along +x to its first turn.

    The leg crosses level `crossed[i] % n_taus` of start
    `crossed[i] // n_taus` at step `steps[i]`, the lowest level crossed at
    that step, as the loop writes it. `offset` is the step at which the
    loop takes each start up, 0 where it does not. The other arrays hold
    one element per start of the loop: the starts that turn at `turn_step`
    (below step_cap) with levels left, with their squared distance there.
    Starts done on the leg, or capped before their turn, are not in the
    loop.
    """

    crossed: np.ndarray
    steps: np.ndarray
    offset: np.ndarray
    lane: np.ndarray  # start * n_taus
    turn_step: np.ndarray
    turn_s: np.ndarray
    left: np.ndarray  # levels not crossed yet
    target_x: np.ndarray
    target_y: np.ndarray


def _first_leg(rhos: np.ndarray, betas: np.ndarray, taus: np.ndarray, step_cap: int) -> _FirstLeg:
    """Each start's first turn and its crossings before it: every start is
    stepped along +x once, for every angle, with steps_to_reach's crossing
    and turn rules, until it turns or has crossed every level."""
    target_x = (rhos[:, None] * _COS_DEG[betas]).ravel()  # row-major over (rho, beta)
    target_y = (rhos[:, None] * _SIN_DEG[betas]).ravel()
    squares = taus * taus
    reaches = np.concatenate(([-np.inf], squares))  # by levels left
    # counts reach 2 * step_cap + 1 before the cap clears them: int16 at the default cap
    dtype = np.min_scalar_type(-2 * step_cap - 2)
    turn_step = np.full(target_x.size, float(step_cap))  # the cap: not taken up
    turn_s = np.empty(target_x.size)
    turn_left = np.zeros(target_x.size, dtype=np.int32)
    # step 0 is decided on rho: the levels left are the taus below it
    left = np.searchsorted(taus, np.repeat(rhos, betas.size)).astype(np.int32)
    rows = np.flatnonzero(left < taus.size)
    crossed, steps = [rows * taus.size + left[rows]], [np.zeros(rows.size, dtype=dtype)]
    # the starts still on the leg, at (j, 0.0)
    on = np.flatnonzero(left)
    tx, dy, left = target_x[on], 0.0 - target_y[on], left[on]
    prev_s = tx * tx + dy * dy
    for j in map(float, range(1, step_cap + 1)):
        dx = j - tx
        s = dx * dx + dy * dy
        rows = np.flatnonzero(s <= reaches[left])
        if rows.size:
            first = np.searchsorted(squares, s[rows])
            crossed.append(on[rows] * taus.size + first)
            steps.append(np.full(rows.size, j, dtype=dtype))
            left[rows] = first
        turn = s > prev_s
        turned = on[turn]
        turn_step[turned], turn_s[turned], turn_left[turned] = j, s[turn], left[turn]
        stay = np.flatnonzero(~turn & (left > 0))
        if not stay.size:
            break
        on, tx, dy, prev_s, left = on[stay], tx[stay], dy[stay], s[stay], left[stay]

    enter = np.flatnonzero((turn_left > 0) & (turn_step < step_cap))
    offset = np.zeros(target_x.size, dtype=dtype)
    offset[enter] = turn_step[enter] + 1.0
    lane = (enter * taus.size).astype(np.min_scalar_type(-target_x.size * taus.size))
    return _FirstLeg(np.concatenate(crossed), np.concatenate(steps), offset, lane,
                     turn_step[enter], turn_s[enter], turn_left[enter], target_x[enter],
                     target_y[enter])


def _sweep_one_phi(
    phi_deg: int,
    taus: np.ndarray,
    step_cap: int,
    leg: _FirstLeg,
) -> tuple[np.ndarray, int]:
    """First-crossing step counts, shape (n_starts, n_taus); -1 where capped.

    `taus` must be finite, non-negative, ascending and distinct; columns
    follow its order. `leg` is _first_leg of the same taus and step_cap,
    with step_cap >= 0 and every rho + step_cap below _MAX_DISTANCE.

    All tau levels share one trajectory per (rho, beta): tau only decides
    when counting stops, so each trajectory is stepped once, from the step
    after its first turn (see _first_leg), each start with its own step
    offset. Every decision is steps_to_reach's, on the squared distance s:
    a start crosses each level with s <= tau*tau and turns when s exceeds
    its previous s. Since s <= tau*tau implies s <= every larger square, a
    start crosses its levels from the largest down. Each start therefore
    carries one bound, the square of the largest tau it has not crossed yet
    (-inf once all are crossed), and one test per step finds the starts
    with new crossings. Only the lowest level crossed is written; the
    levels between it and the previous crossing were crossed in the same
    step and are filled from the level below after the loop. Each start
    keeps its heading's cosine and sine, updated only when it turns. Every
    step works in buffers allocated once. Finished starts keep stepping
    harmlessly until the live count drops below 3/4 of the state length,
    when the state is compacted; starts with a later offset step past the
    cap, and their crossings there are cleared. Starts that have not
    crossed the smallest tau within step_cap steps are the returned cap
    count.
    """
    squares = taus * taus
    reaches = np.concatenate(([-np.inf], squares))  # by levels left
    # headings index successor, _COS_DEG and _SIN_DEG every step: as intp,
    # numpy gathers with them directly instead of first casting a copy
    successor = (np.arange(360, dtype=np.intp) + phi_deg) % 360
    # the loop's crossings, by loop step
    counts = np.full((leg.offset.size, taus.size), -1, dtype=leg.offset.dtype)
    flat = counts.reshape(-1)
    live = leg.lane.size

    # the float state and scratch as the rows of one block: an angle
    # allocates and frees it whole, so its buffers leave one hole in the
    # heap, not a dozen (a dozen raised the sweeps' peak RSS by 2 MB)
    x, y, cos_h, sin_h, prev_s, target_x, target_y, reach, dx, s = np.empty((10, live))
    target_x[:], target_y[:], prev_s[:] = leg.target_x, leg.target_y, leg.turn_s
    np.add(leg.turn_step, _COS_DEG[phi_deg], out=x)
    y.fill(0.0 + _SIN_DEG[phi_deg])
    cos_h.fill(_COS_DEG[phi_deg])
    sin_h.fill(_SIN_DEG[phi_deg])
    heading = np.full(live, phi_deg, dtype=np.intp)  # intp, as successor
    lane, left = leg.lane.copy(), leg.left.copy()
    np.take(reaches, left, out=reach)
    start = int(leg.turn_step.min(initial=step_cap)) + 1  # the first loop step
    mask = np.empty(live, dtype=bool)

    for step in range(step_cap + 1 - start):
        np.subtract(x, target_x, out=dx)
        np.multiply(dx, dx, out=s)
        np.subtract(y, target_y, out=dx)
        s += np.multiply(dx, dx, out=dx)
        # the array methods, not their np.* wrappers: this loop runs
        # thousands of steps per angle
        rows = np.less_equal(s, reach, out=mask).nonzero()[0]
        if rows.size:
            first = squares.searchsorted(s[rows])  # the lowest level crossed
            flat[lane[rows] + first] = step
            left[rows] = first
            reach[rows] = reaches[first]
            live -= rows.size - np.count_nonzero(first)
            if live == 0:
                break
        turning = np.greater(s, prev_s, out=mask).nonzero()[0]
        turned = successor[heading[turning]]
        heading[turning] = turned
        cos_h[turning] = _COS_DEG[turned]
        sin_h[turning] = _SIN_DEG[turned]
        prev_s, s = s, prev_s
        x += cos_h
        y += sin_h
        if live < 0.75 * lane.size:
            keep = np.flatnonzero(left)
            arrays = (lane, x, y, heading, cos_h, sin_h, prev_s, target_x, target_y, left, reach)
            for a in arrays:
                a[:live] = a[keep]  # in place, so that no buffer is allocated again
            lane, x, y, heading, cos_h, sin_h, prev_s, target_x, target_y, left, reach = (
                a[:live] for a in arrays)
            dx, s, mask = dx[:live], s[:live], mask[:live]

    np.add(counts, leg.offset[:, None], out=counts, where=counts >= 0)
    flat[leg.crossed] = leg.steps  # the levels crossed on the leg
    counts[counts > step_cap] = -1
    for j in range(1, taus.size):
        unset = counts[:, j] < 0
        counts[unset, j] = counts[unset, j - 1]
    return counts, int(np.count_nonzero(counts[:, 0] < 0))


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
    best_phi. Angles must be distinct integers in [1, 359], bearings
    distinct integers in [0, 359], taus distinct integers in [0, 2**53] and
    rhos distinct and >= 0, in any order; each range is read once and
    must not be empty, and step_cap is an integer >= 0. Counts
    equal steps_to_reach exactly: step 0 is decided on rho and every later
    decision on squared distances, as there. The first leg, the same for
    every angle, is stepped once for the sweep.
    """
    phis = _distinct_ints(phi_range, "angles", range(1, 360), "phi_range", "an angle")
    rho_values = list(rho_range)
    rhos = np.asarray(rho_values, dtype=np.float64)
    betas = np.asarray(_distinct_ints(beta_range, "bearings", range(360), "beta_range"), dtype=np.int64)
    tau_labels = sorted(_distinct_ints(tau_range, "tau values", _TAUS, "tau_range"))
    taus = np.asarray(tau_labels, dtype=np.float64)
    if not rhos.size:
        raise ValueError("rho_range must not be empty")
    if not (rhos >= 0.0).all():
        raise ValueError(f"rho values must be >= 0, got {rho_values}")
    if np.unique(rhos).size < rhos.size:
        raise ValueError(f"rho_range repeats a value: {rho_values}")
    step_cap = _int(step_cap, "step_cap", 0, _MAX_DISTANCE)
    if not rhos.max() + step_cap < _MAX_DISTANCE:
        raise ValueError(f"rho + step_cap must be finite and below {_MAX_DISTANCE:.3g}")
    leg = _first_leg(rhos, betas, taus, step_cap)
    cells: list[ExhaustiveCell] = []
    overall: dict[int, float] = {}
    cap_hits = 0
    for phi in phis:
        counts, capped = _sweep_one_phi(phi, taus, step_cap, leg)
        cap_hits += capped
        # exact integer sums over the reached starts (the -1s added back):
        # sum / n has the bits of the float mean of the reached counts, as a
        # float sum of integers is exact below 2**53
        missed = np.count_nonzero(counts < 0, axis=0)
        sums = (counts.sum(axis=0, dtype=np.int64) + missed).tolist()
        reached = (counts.shape[0] - missed).tolist()
        del counts  # freed before the next angle's kernel runs
        for tau, total, n in zip(tau_labels, sums, reached):
            cells.append(ExhaustiveCell(phi, tau, total / n if n else math.nan))
        overall[phi] = sum(sums) / sum(reached) if sum(reached) else math.nan
    finite = [p for p in overall if not math.isnan(overall[p])]
    if not finite:
        raise ValueError("no rotation angle reaches any tau within the step cap")
    best = min(finite, key=lambda p: (overall[p], p))
    total = rhos.size * betas.size * taus.size * len(phis)
    return ExhaustiveSweepResult(cells, overall, best, cap_hits, total)


# ---------------------------------------------------------------------------
# convergence thresholds and randomized verification


class ColdModeThresholds(NamedTuple):
    """cold_mode_thresholds' three thresholds, floats or arrays as its inputs."""

    first_rotation: float | np.ndarray
    second_rotation: float | np.ndarray
    overall_gain: float | np.ndarray


def cold_mode_thresholds(step_m, horizontal_m, phi_deg: float) -> ColdModeThresholds:
    """Vertical-offset thresholds for recovery right after entering Cold mode.

    With step s, finite horizontal distance t > s/2 to the (behind-the-robot)
    target, and vertical offset v, a turn angle phi in (120, 180) degrees
    gives:

    * v > first_rotation: the range shrinks right after the first rotation;
    * otherwise it shrinks right after the second (second_rotation always
      exceeds first_rotation in this regime);
    * v < overall_gain: the range after two rotations is below the range at
      the Cold-mode entry point.

    overall_gain changes comparison direction for phi at or below 120
    degrees and is reported as NaN there; first_rotation is well defined on
    the whole [90, 180] range. s and t may be floats or arrays, checked
    element by element; a threshold infinite or NaN at phi is one float.
    """
    if not np.all(step_m > 0.0):
        raise ValueError(f"step must be positive, got {step_m}")
    if not np.all((horizontal_m > step_m / 2.0) & (horizontal_m < math.inf)):
        raise ValueError(f"horizontal distance {horizontal_m} must be finite and exceed half of step {step_m}")
    if not 90.0 <= phi_deg <= 180.0:
        raise ValueError(f"turn angle must be in [90, 180] degrees, got {phi_deg}")
    s, t, phi = step_m, horizontal_m, math.radians(phi_deg)
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
    return ColdModeThresholds(first, second, overall)


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
) -> ConvergenceReport:
    """Check the approach predictions on random geometries by direct simulation.

    Hot mode: one forward step shrinks the range exactly when the horizontal
    distance to the target is at least half a step. Cold mode: simulate the
    two-rotation escape sequence and compare against the closed-form
    thresholds. Geometries within _BOUNDARY_TOLERANCE (relative to the
    geometry's scale) of a threshold are skipped as boundary cases. trials
    must be an integer >= 1.
    """
    trials = _int(trials, "trials", 1)
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
    boundary = np.abs(h - s / 2.0) <= _BOUNDARY_TOLERANCE * s
    skips += int(boundary.sum())
    hot_violations = int((predicted != actual)[~boundary].sum())

    # Cold mode: robot at the origin heading +x just after the range grew;
    # the target sits behind at (-t, r). Two rotated steps follow.
    s = rng.uniform(0.1, 2.0, trials)
    t = s * rng.uniform(0.5 + 1e-6, 3.0, trials)
    r = rng.uniform(-6.0, 6.0, trials) * s
    first, second, overall = cold_mode_thresholds(s, t, phi_deg)

    dx = s * math.cos(phi)
    dy = s * math.sin(phi)
    ex = dx + s * math.cos(2.0 * phi)
    ey = dy + s * math.sin(2.0 * phi)
    cp2 = t**2 + r**2
    dp2 = (dx + t) ** 2 + (dy - r) ** 2
    ep2 = (ex + t) ** 2 + (ey - r) ** 2
    scale = s + t + np.abs(r)

    band_first = np.abs(r - first) <= _BOUNDARY_TOLERANCE * scale
    skips += int(band_first.sum())
    first_violations = int((((dp2 < cp2) != (r > first)) & ~band_first).sum())

    stayed_cold = (r <= first) & ~band_first
    band_second = np.abs(r - second) <= _BOUNDARY_TOLERANCE * scale
    skips += int((stayed_cold & band_second).sum())
    second_violations = int((stayed_cold & ~band_second & ~(ep2 < dp2)).sum())

    band_overall = np.abs(r - overall) <= _BOUNDARY_TOLERANCE * scale
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
