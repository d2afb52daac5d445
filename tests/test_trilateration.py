import math

import numpy as np
import pytest

from oracles import brute_force_position

from hotcold.channel import ChannelParams, noiseless_rssi
from hotcold.geometry import Pose, Vec2
from hotcold.tracker import DecisionKind
from hotcold.trilateration import (
    Observation,
    TrilaterationConfig,
    TrilaterationState,
    estimate_target,
    record_observation,
    trilateration_decide,
    update_estimate,
)

PARAMS = ChannelParams()
CFG = TrilaterationConfig()
HALT_DBM = -51.41
STEP_M = 1.0


def steer(state, pose, rssi_dbm, step_m=STEP_M):
    x, y = pose.position.x, pose.position.y
    return trilateration_decide(state, x, y, pose.heading_rad, rssi_dbm, CFG, HALT_DBM, step_m)


def obs_at(x, y, target=(5.0, 5.0)):
    d = math.hypot(x - target[0], y - target[1])
    return Observation(x, y, d)


def test_exact_symmetric_triple():
    observations = [obs_at(0.0, 0.0), obs_at(10.0, 0.0), obs_at(0.0, 10.0)]
    assert all(o.est_distance_m == pytest.approx(math.sqrt(50.0)) for o in observations)
    estimate = estimate_target(observations)
    assert estimate is not None
    assert estimate.x == pytest.approx(5.0, abs=1e-6)
    assert estimate.y == pytest.approx(5.0, abs=1e-6)


def test_collinear_observations_are_degenerate():
    observations = [obs_at(0.0, 0.0), obs_at(1.0, 0.0), obs_at(2.0, 0.0)]
    assert estimate_target(observations) is None


def test_requires_three_observations():
    with pytest.raises(ValueError):
        estimate_target([obs_at(0.0, 0.0), obs_at(1.0, 0.0)])


def test_exact_recovery_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 50:
        pts = rng.uniform(0.0, 100.0, (3, 2))
        area = 0.5 * abs(
            (pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
            - (pts[2, 0] - pts[0, 0]) * (pts[1, 1] - pts[0, 1])
        )
        if area < 25.0:
            continue
        target = rng.uniform(0.0, 100.0, 2)
        observations = [
            Observation(*p, math.hypot(p[0] - target[0], p[1] - target[1]) or 1e-9)
            for p in pts
        ]
        estimate = estimate_target(observations)
        assert estimate is not None
        oracle = brute_force_position([tuple(p) for p in pts], [o.est_distance_m for o in observations])
        assert math.hypot(estimate.x - oracle[0], estimate.y - oracle[1]) < 1e-6
        assert math.hypot(estimate.x - target[0], estimate.y - target[1]) < 1e-6
        checked += 1


def test_translation_equivariance():
    rng = np.random.default_rng(32)
    for _ in range(50):
        pts = rng.uniform(-20.0, 20.0, (3, 2))
        u, v = pts[1] - pts[0], pts[2] - pts[0]
        if abs(u[0] * v[1] - u[1] * v[0]) < 10.0:
            continue
        dists = rng.uniform(5.0, 40.0, 3)
        shift = rng.uniform(-300.0, 300.0, 2)
        base = estimate_target([Observation(*p, d) for p, d in zip(pts, dists)])
        moved = estimate_target([Observation(*(p + shift), d) for p, d in zip(pts, dists)])
        if base is None:
            assert moved is None
            continue
        assert moved.x - base.x == pytest.approx(shift[0], abs=1e-7)
        assert moved.y - base.y == pytest.approx(shift[1], abs=1e-7)


def test_estimate_error_grows_with_shadowing_sigma():
    # a shadowing sample of X dB scales the inverted distance by 10^(X/10n)
    rng = np.random.default_rng(33)
    positions = [np.array([0.0, 0.0]), np.array([8.0, 1.0]), np.array([3.0, 7.0])]
    n = PARAMS.path_loss_exponent
    errors = []
    for sigma in (0.0, 1.0, 2.0, 3.0):
        total = 0.0
        for _ in range(1000):
            target = rng.uniform(10.0, 60.0, 2)
            observations = []
            for p in positions:
                d = math.hypot(*(p - target))
                d_hat = d * 10.0 ** (sigma * rng.standard_normal() / (10.0 * n))
                observations.append(Observation(*p, d_hat))
            estimate = estimate_target(observations)
            if estimate is None:
                total += 100.0
                continue
            total += math.hypot(estimate.x - target[0], estimate.y - target[1])
        errors.append(total / 1000.0)
    assert errors[0] < 1e-6
    assert all(a < b for a, b in zip(errors, errors[1:]))


def test_record_observation_fifo_and_spacing():
    state = TrilaterationState()
    value = noiseless_rssi(10.0, PARAMS)
    assert record_observation(state, 0.0, 0.0, value, PARAMS, CFG)
    assert len(state.observations) == 1
    assert state.current_estimate is None
    # too close to an existing fix: skipped
    assert not record_observation(state, 0.2, 0.2, value, PARAMS, CFG)
    assert len(state.observations) == 1
    for i in range(1, 4):
        assert record_observation(state, 2.0 * i, 0.5 * i, value, PARAMS, CFG)
    assert len(state.observations) == CFG.k_observations
    oldest = state.observations[0]
    assert (oldest.x, oldest.y) == (2.0, 0.5)  # oldest evicted


def test_recorded_distance_comes_from_inversion():
    state = TrilaterationState()
    record_observation(state, 0.0, 0.0, noiseless_rssi(7.3, PARAMS), PARAMS, CFG)
    assert state.observations[0].est_distance_m == pytest.approx(7.3, abs=1e-9)


def test_decide_steers_toward_estimate():
    state = TrilaterationState(current_estimate=Vec2(0.0, 10.0))
    decision = steer(state, Pose(Vec2(0.0, 0.0), 0.0), -70.0)
    assert decision.kind is DecisionKind.ROTATE_THEN_MOVE
    assert decision.rotation_deg == pytest.approx(90.0, abs=1e-9)


def test_decide_bootstrap_and_halt():
    assert (
        steer(TrilaterationState(), Pose(Vec2(0.0, 0.0), 0.0), -70.0).kind
        is DecisionKind.MOVE_FORWARD
    )
    assert (
        steer(TrilaterationState(), Pose(Vec2(0.0, 0.0), 0.0), -45.0).kind
        is DecisionKind.HALT
    )


def test_decide_arcs_when_window_full_but_degenerate():
    state = TrilaterationState(
        observations=[obs_at(0.0, 0.0), obs_at(1.0, 0.0), obs_at(2.0, 0.0)]
    )
    update_estimate(state, CFG)
    assert state.current_estimate is None
    decision = steer(state, Pose(Vec2(2.0, 0.0), 0.0), -70.0)
    assert decision.kind is DecisionKind.ROTATE_THEN_MOVE
    assert decision.rotation_deg == CFG.bootstrap_turn_deg


def test_reaching_the_estimate_without_halt_drops_it():
    state = TrilaterationState(current_estimate=Vec2(0.5, 0.0))
    decision = steer(state, Pose(Vec2(0.0, 0.0), 0.0), -70.0)
    assert state.current_estimate is None
    assert decision.kind is DecisionKind.MOVE_FORWARD  # window not full yet
    # more than one robot step away, the estimate is kept and steered at
    kept = TrilaterationState(current_estimate=Vec2(0.5, 0.0))
    decision = steer(kept, Pose(Vec2(0.0, 0.0), 0.0), -70.0, step_m=0.4)
    assert kept.current_estimate == Vec2(0.5, 0.0)
    assert decision.kind is DecisionKind.ROTATE_THEN_MOVE


def test_degenerate_solve_keeps_previous_estimate():
    state = TrilaterationState(
        observations=[obs_at(0.0, 0.0), obs_at(1.0, 0.0), obs_at(2.0, 0.0)],
        current_estimate=Vec2(40.0, 40.0),
    )
    update_estimate(state, CFG)
    assert state.current_estimate == Vec2(40.0, 40.0)


def test_config_validation():
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("min_spacing_m", "condition_threshold", "bootstrap_turn_deg"):
            with pytest.raises(ValueError, match="must be finite"):
                TrilaterationConfig(**{name: bad})
    with pytest.raises(ValueError):
        TrilaterationConfig(k_observations=2)
    with pytest.raises(ValueError):
        TrilaterationConfig(min_spacing_m=-1.0)
    with pytest.raises(ValueError):
        TrilaterationConfig(condition_threshold=0.5)
    with pytest.raises(ValueError):
        Observation(0.0, 0.0, 0.0)
