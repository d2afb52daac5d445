import math

import numpy as np
import pytest

from oracles import brute_force_rotations

from hotcold.analysis import (
    cold_mode_thresholds,
    exhaustive_sweep,
    rotation_sweep,
    rotations_to_reach,
    steps_to_reach,
    verify_convergence,
)


def test_zero_bearing_needs_zero_rotations():
    for phi in (121, 135, 139, 143):
        for eps in (0, 5, 30):
            assert rotations_to_reach(phi, 0, eps) == 0


def test_rotations_validation():
    with pytest.raises(ValueError):
        rotations_to_reach(0, 10, 5)
    with pytest.raises(ValueError):
        rotations_to_reach(137, 360, 5)
    with pytest.raises(ValueError):
        rotations_to_reach(137, 10, 31)


def test_rotations_against_brute_force_scan():
    rng = np.random.default_rng(41)
    # random grid cells plus angles with coarse step structure (no solution
    # at small deviations for some bearings)
    cases = [(int(rng.integers(121, 144)), int(rng.integers(0, 360)), int(rng.integers(0, 31)))
             for _ in range(150)]
    cases += [(126, 9, 0), (126, 9, 4), (135, 7, 3), (140, 130, 1), (132, 66, 2)]
    for phi, theta, eps in cases:
        assert rotations_to_reach(phi, theta, eps) == brute_force_rotations(phi, theta, eps)


def test_sweep_cell_means_have_expected_extremes():
    result = rotation_sweep()
    # zero deviation with a full-period angle: the turn counts over all
    # bearings are a permutation of 0..359
    cell = result.cell(139, 0)
    assert cell.valid
    assert sorted(cell.per_theta.tolist()) == list(range(360))
    assert cell.mean_rotations == pytest.approx(179.5)
    means = [c.mean_rotations for c in result.cells if c.valid]
    assert max(means) == pytest.approx(179.5)
    assert min(means) == pytest.approx(3.0, abs=0.05)


def test_sweep_invalid_cells_exist_at_small_deviation():
    result = rotation_sweep()
    # a coarse-structure angle cannot reach every bearing at eps=0
    assert not result.cell(135, 0).valid
    assert not result.summary(135).fully_valid
    assert result.summary(135).percent_valid < 100.0


def test_sweep_monotone_in_epsilon():
    result = rotation_sweep()
    for phi in range(121, 144):
        means = [result.cell(phi, e).mean_rotations for e in range(0, 31)]
        valid = [m for m in means if m is not None]
        assert all(a >= b for a, b in zip(valid, valid[1:]))


def test_sweep_rerun_identical():
    a = rotation_sweep(range(133, 136), range(0, 4))
    b = rotation_sweep(range(133, 136), range(0, 4))
    for ca, cb in zip(a.cells, b.cells):
        assert ca.mean_rotations == cb.mean_rotations
        assert (ca.per_theta == cb.per_theta).all()


def test_steps_to_reach_inclusive_boundary():
    assert steps_to_reach(135, 10.0, 0.0, 10.0) == 0


def test_steps_to_reach_straight_line():
    # target dead ahead: never rotates, one step per distance unit
    assert steps_to_reach(137, 12.0, 0.0, 10.0) == 2
    assert steps_to_reach(121, 100.0, 0.0, 1.0) == 99


def test_steps_to_reach_deterministic():
    runs = {steps_to_reach(137, 53.0, 212.0, 3.0) for _ in range(5)}
    assert len(runs) == 1


def test_steps_monotone_in_tau():
    for phi, rho, beta in ((123, 37.0, 295.0), (135, 80.0, 140.0), (143, 10.0, 77.0)):
        counts = [steps_to_reach(phi, rho, beta, float(tau)) for tau in range(1, 11)]
        assert all(c is not None for c in counts)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_exhaustive_sweep_matches_scalar_runs():
    result = exhaustive_sweep(
        phi_range=range(135, 136), rho_range=range(10, 31, 10), beta_range=range(0, 360, 90)
    )
    scalar = [
        steps_to_reach(135, float(rho), float(beta), float(tau))
        for rho in (10, 20, 30)
        for beta in (0, 90, 180, 270)
        for tau in range(1, 11)
    ]
    assert result.cap_hits == 0
    for tau in range(1, 11):
        cell = result.cell(135, tau)
        expected = [scalar[i] for i in range(tau - 1, len(scalar), 10)]
        assert cell.mean_steps == pytest.approx(sum(expected) / len(expected), rel=1e-12)


def test_exhaustive_sweep_equals_scalar_runs_with_step_cap():
    phis, rhos, betas = (121, 135, 143), range(10, 101, 30), (0, 97, 180, 311)
    taus = range(1, 11)
    result = exhaustive_sweep(
        phi_range=phis, rho_range=rhos, beta_range=betas, tau_range=taus, step_cap=60
    )
    capped = 0
    for phi in phis:
        for tau in taus:
            scalar = [
                steps_to_reach(phi, float(rho), float(beta), float(tau), step_cap=60)
                for rho in rhos
                for beta in betas
            ]
            reached = [s for s in scalar if s is not None]
            assert reached, "every cell needs a reached start"
            assert result.cell(phi, tau).mean_steps == sum(reached) / len(reached)
            if tau == 1:
                capped += scalar.count(None)
    assert capped > 0
    assert result.cap_hits == capped


def test_exhaustive_sweep_tau_order_is_irrelevant():
    grid = dict(
        phi_range=range(135, 136), rho_range=range(10, 31, 10), beta_range=range(0, 360, 90)
    )
    ascending = exhaustive_sweep(tau_range=(1, 2, 3), **grid)
    shuffled = exhaustive_sweep(tau_range=(3, 1, 2), **grid)
    for tau in (1, 2, 3):
        assert shuffled.cell(135, tau) == ascending.cell(135, tau)
    assert shuffled.overall_means == ascending.overall_means
    for bad in ((1, 2, 1), ()):
        with pytest.raises(ValueError):
            exhaustive_sweep(tau_range=bad, **grid)


def test_exhaustive_sweep_fully_capped_cells_are_nan():
    # straight line to a target 15 ahead: within 5 after 10 steps, within 1
    # only after 14, past the cap of 12
    result = exhaustive_sweep(
        phi_range=(135,), rho_range=(15,), beta_range=(0,), tau_range=(1, 5), step_cap=12
    )
    assert math.isnan(result.cell(135, 1).mean_steps)
    assert result.cell(135, 5).mean_steps == 10
    assert result.overall_means[135] == 10
    assert result.cap_hits == 1


def test_exhaustive_sweep_best_phi_skips_unreached_angles():
    # target 5 away at 90 degrees: 143 needs 18 steps to get within 1, 135 needs 10
    grid = dict(rho_range=(5,), beta_range=(90,), tau_range=(1,))
    result = exhaustive_sweep(phi_range=(143, 135), step_cap=12, **grid)
    assert math.isnan(result.overall_means[143])
    assert result.best_phi == 135
    assert result.cap_hits == 1
    with pytest.raises(ValueError):
        exhaustive_sweep(phi_range=(143, 135), step_cap=5, **grid)


def test_exhaustive_sweep_monotone_and_deterministic():
    result = exhaustive_sweep(phi_range=range(130, 133), rho_range=range(10, 41, 5))
    for phi in (130, 131, 132):
        means = [result.cell(phi, tau).mean_steps for tau in range(1, 11)]
        assert all(a >= b for a, b in zip(means, means[1:]))
    again = exhaustive_sweep(phi_range=range(130, 133), rho_range=range(10, 41, 5))
    assert again.overall_means == result.overall_means


def test_cold_thresholds_right_angle_case():
    th = cold_mode_thresholds(1.0, 1.0, 90.0)
    assert th.first_rotation == pytest.approx(0.5, abs=1e-12)
    assert th.second_rotation == math.inf
    assert math.isnan(th.overall_gain)


def test_cold_thresholds_at_137_degrees():
    th = cold_mode_thresholds(1.0, 1.0, 137.0)
    # coefficients from the trig forms: 1/(2 sin 137deg) and cot 137deg
    assert 0.5 / math.sin(math.radians(137.0)) == pytest.approx(0.7331, abs=1e-4)
    assert 1.0 / math.tan(math.radians(137.0)) == pytest.approx(-1.0724, abs=1e-4)
    assert th.first_rotation == pytest.approx(0.7331 - 1.0724, abs=2e-4)
    assert th.second_rotation == pytest.approx(0.2319 - 0.0699, abs=2e-4)
    assert th.overall_gain == pytest.approx(2.0965 - 0.8513, abs=2e-4)


def test_cold_thresholds_ordering_random_geometries():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        s = rng.uniform(0.1, 3.0)
        t = s * rng.uniform(0.5 + 1e-9, 4.0)
        th = cold_mode_thresholds(s, t, 137.0)
        assert th.first_rotation < th.second_rotation
        assert th.first_rotation < th.overall_gain


def test_cold_thresholds_validation():
    with pytest.raises(ValueError):
        cold_mode_thresholds(1.0, 0.5, 137.0)  # horizontal must exceed s/2
    with pytest.raises(ValueError):
        cold_mode_thresholds(1.0, 1.0, 60.0)
    with pytest.raises(ValueError):
        cold_mode_thresholds(0.0, 1.0, 137.0)


def test_hot_mode_boundary_geometry():
    # horizontal gap exactly half a step: the step neither gains nor loses
    s, v = 0.75, 1.3
    h = s / 2.0
    ap2 = h * h + v * v
    bp2 = (h - s) ** 2 + v * v
    assert ap2 == bp2


def test_first_rotation_example_geometry():
    # s=1, t=1, offset 0 exceeds the first-rotation threshold: the first
    # rotated step approaches
    th = cold_mode_thresholds(1.0, 1.0, 137.0)
    assert 0.0 > th.first_rotation
    phi = math.radians(137.0)
    cp2 = 1.0
    dp2 = (1.0 + math.cos(phi)) ** 2 + (math.sin(phi) - 0.0) ** 2
    assert dp2 < cp2


def test_verify_convergence_clean():
    report = verify_convergence(10_000, np.random.default_rng(43))
    assert report.total_violations == 0
    assert report.trials == 10_000


def test_verify_convergence_other_angles():
    for phi in (125.0, 130.0, 143.0):
        report = verify_convergence(2_000, np.random.default_rng(44), phi_deg=phi)
        assert report.total_violations == 0
    with pytest.raises(ValueError):
        verify_convergence(100, np.random.default_rng(45), phi_deg=90.0)
