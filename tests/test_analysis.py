import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_rotations, sweep_cell_rotations, sweep_one_phi

from hotcold import analysis
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


def test_rotation_kernel_equals_kappa_scan():
    for phi in range(121, 144):
        table = analysis._sweep_phi_rotations(phi)
        for eps in range(31):
            assert np.array_equal(table[eps], sweep_cell_rotations(phi, eps)), (phi, eps)
    for phi in range(1, 360):
        table = analysis._sweep_phi_rotations(phi)
        for eps in (0, 1, 15, 30):
            assert np.array_equal(table[eps], sweep_cell_rotations(phi, eps)), (phi, eps)


def test_rotation_sweep_validation():
    for bad in ((0, 31), (-1,), (1.5,)):
        with pytest.raises(ValueError):
            rotation_sweep(range(135, 136), bad)
    with pytest.raises(ValueError):
        rotation_sweep(range(0, 2))


def _sweep_fields(result) -> tuple:
    cells = [(c.phi_deg, c.epsilon_deg, c.per_theta.tolist(), c.mean_rotations)
             for c in result.cells]
    return cells, result.summaries, result.best_phi


def test_rotation_sweep_reads_each_range_once():
    expected = rotation_sweep([139, 140], [0, 3, 30])
    assert len(expected.cells) == 6
    assert _sweep_fields(rotation_sweep(iter([139, 140]), iter([0, 3, 30]))) == (
        _sweep_fields(expected))


def test_rotation_sweep_rejects_angles_off_the_degree_grid():
    # 135.5 and 139.0 raised numpy's TypeError; an integral float is the integer
    for phi in (135.5, 0, 360, -5, math.nan):
        with pytest.raises(ValueError, match="angles must be integers"):
            rotation_sweep([139, phi])
    assert _sweep_fields(rotation_sweep([139.0])) == _sweep_fields(rotation_sweep([139]))


def test_rotation_sweep_rejects_repeated_angles():
    # [139, 139] gave 62 cells and two summaries of one angle
    with pytest.raises(ValueError, match="repeats an angle"):
        rotation_sweep([139, 140, 139])


def test_rotation_sweep_rejects_repeated_epsilons():
    # [3, 3] gave two cells of one epsilon per angle
    with pytest.raises(ValueError, match="repeats a value"):
        rotation_sweep([139], [3, 3])


def test_steps_to_reach_inclusive_boundary():
    assert steps_to_reach(135, 10.0, 0.0, 10.0) == 0


def test_steps_to_reach_validates_its_inputs():
    # squaring would read tau -3 as 3, and a negative step_cap returned None
    # where exhaustive_sweep raises
    start = dict(phi_deg=135, rho=10.0, beta_deg=0.0, tau=1.0)
    for name, bad in (("tau", -3.0), ("tau", math.nan), ("rho", -10.0), ("rho", math.nan),
                      ("step_cap", -1)):
        with pytest.raises(ValueError, match=name):
            steps_to_reach(**{**start, name: bad})
    assert steps_to_reach(**start, step_cap=0) is None
    assert steps_to_reach(**{**start, "tau": 10.0}, step_cap=0) == 0


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


@pytest.mark.parametrize("step_cap", [analysis.DEFAULT_STEP_CAP, 60])
def test_exhaustive_kernel_equals_hypot_kernel(step_cap):
    # the oracle is the earlier kernel, which steps every start from the
    # origin with no shared first leg, on the same squared-distance rules
    rhos = np.asarray(analysis.DEFAULT_RHO_RANGE, dtype=np.float64)
    betas = np.asarray(analysis.DEFAULT_BETA_RANGE, dtype=np.int64)
    taus = np.asarray(analysis.DEFAULT_TAU_RANGE, dtype=np.float64)
    leg = analysis._first_leg(rhos, betas, taus, step_cap)
    for phi in (121, 135, 143):
        counts, capped = analysis._sweep_one_phi(phi, taus, step_cap, leg)
        expected, expected_capped = sweep_one_phi(phi, rhos, betas, taus, step_cap)
        assert np.array_equal(counts, expected), phi
        assert capped == expected_capped


def test_exhaustive_kernel_near_ties_and_skipped_levels():
    # a target half a step ahead is as far after the first step as before it
    # (an exact tie, so no turn); at phi 72 the starts at bearing 234 meet
    # consecutive squared distances that are equal or an ulp apart; a tau
    # grid finer than a step makes single steps cross several levels at once
    rhos = np.array([0.5, 2.0, 5.588, 23.752, 23.944, 99.979])
    betas = np.array([0, 45, 181, 234, 359])
    taus = np.array([0.0, 0.1, 0.25, 0.5, 0.6, 0.7, 1.0, 3.0])
    leg = analysis._first_leg(rhos, betas, taus, 200)
    for phi in (1, 72, 135, 180, 359):
        counts, capped = analysis._sweep_one_phi(phi, taus, 200, leg)
        expected, expected_capped = sweep_one_phi(phi, rhos, betas, taus, 200)
        assert np.array_equal(counts, expected), phi
        assert capped == expected_capped
        starts = [(rho, beta) for rho in rhos for beta in betas]
        for (rho, beta), row in zip(starts, counts):
            scalar = [steps_to_reach(phi, rho, beta, tau, step_cap=200) for tau in taus]
            assert row.tolist() == [-1 if c is None else c for c in scalar], (phi, rho, beta)


def test_exhaustive_sweep_rejects_unbounded_inputs():
    grid = dict(phi_range=(135,), beta_range=(0,))
    for bad in (dict(tau_range=(1, math.inf)), dict(tau_range=(math.nan,)),
                dict(rho_range=(10, math.inf)), dict(rho_range=(1e200,)),
                dict(rho_range=(10,), step_cap=2**400)):
        with pytest.raises(ValueError):
            exhaustive_sweep(**{**grid, **bad})


def test_exhaustive_sweep_reads_each_range_once():
    lists = dict(phi_range=[134, 135], rho_range=[10, 20], beta_range=[0, 90, 200],
                 tau_range=[1, 5])
    expected = exhaustive_sweep(**lists)
    assert expected.total_runs == 2 * 2 * 3 * 2
    result = exhaustive_sweep(**{name: iter(values) for name, values in lists.items()})
    assert result == expected


def test_exhaustive_sweep_rejects_repeated_angles():
    with pytest.raises(ValueError, match="repeats an angle"):
        exhaustive_sweep(phi_range=(135, 136, 135), rho_range=(10,), beta_range=(0,))


def test_exhaustive_sweep_rejects_angles_off_the_degree_grid():
    for phi in (135.5, 0, 360, -5, 400, math.nan):
        with pytest.raises(ValueError, match="angles must be integers"):
            exhaustive_sweep(phi_range=(135, phi), rho_range=(10,), beta_range=(0,))


def test_exhaustive_sweep_rejects_bearings_off_the_degree_grid():
    # a bearing of 10.5 was once read as 10: 52 steps, where steps_to_reach
    # gives 53
    assert steps_to_reach(135, 40, 10.5, 1) == 53
    assert exhaustive_sweep(phi_range=(135,), rho_range=(40,), beta_range=(10,),
                            tau_range=(1,)).cell(135, 1).mean_steps == 52
    for beta in (10.5, 360, -1, math.nan):
        with pytest.raises(ValueError, match="bearings must be integers"):
            exhaustive_sweep(phi_range=(135,), rho_range=(40,), beta_range=(0, beta))
    # a repeated bearing counted its starts twice in every mean
    with pytest.raises(ValueError, match="beta_range repeats a value"):
        exhaustive_sweep(phi_range=(135,), rho_range=(40,), beta_range=(0, 90, 0.0))
    with pytest.raises(ValueError, match="step_cap"):
        exhaustive_sweep(phi_range=(135,), rho_range=(40,), beta_range=(0,), step_cap=-1)


def test_exhaustive_sweep_rejects_repeated_negative_and_nan_ranges():
    # a repeated rho counted its starts twice in every mean, and rho -10 at
    # bearing 0 is rho 10 at bearing 180
    grid = dict(phi_range=(135,), beta_range=(0, 180))
    assert exhaustive_sweep(rho_range=(10,), tau_range=(1,), **grid).total_runs == 2
    for bad in ((10, 10), (10, 20, 10.0), (0.0, -0.0)):
        with pytest.raises(ValueError, match="rho_range repeats a value"):
            exhaustive_sweep(rho_range=bad, **grid)
    for bad in ((10, -10), (math.nan,), (20, -0.5)):
        with pytest.raises(ValueError, match="rho values must be >= 0"):
            exhaustive_sweep(rho_range=bad, **grid)


def test_exhaustive_sweep_reads_taus_as_distinct_integers():
    # int(tau) labelled taus 1.5, 1.7 and 3 as 1, 1 and 3: cell(135, 1) was
    # the 1.7 row, and fig4 printed one tau_1 column
    grid = dict(phi_range=[135], rho_range=range(10, 13), beta_range=range(0, 360, 30))
    for bad in ([1.5, 1.7, 3], [1, 2.5], [-1, 2], [2**60], ["3"]):
        with pytest.raises(ValueError, match="tau values must be integers"):
            exhaustive_sweep(tau_range=bad, **grid)
    with pytest.raises(ValueError, match="tau_range repeats a value"):
        exhaustive_sweep(tau_range=[3, 1, 3.0], **grid)
    floats = exhaustive_sweep(tau_range=[3.0, 1.0], **grid)
    assert [c.tau for c in floats.cells] == [1, 3]
    assert all(type(c.tau) is int for c in floats.cells)
    assert floats == exhaustive_sweep(tau_range=[1, 3], **grid)


def _scalar_counts(phi, rhos, betas, taus, step_cap):
    return np.array([
        [-1 if c is None else c
         for c in (steps_to_reach(phi, rho, beta, tau, step_cap=step_cap) for tau in taus)]
        for rho in rhos for beta in betas
    ])


def _assert_kernel_exact(phis, rhos, betas, taus, step_cap, oracle=True):
    """_sweep_one_phi with its _first_leg equals steps_to_reach (and the
    oracle kernel, where asked), and a second call with the same leg
    gives the same counts: the kernel does not mutate the leg."""
    rhos, betas, taus = (np.asarray(v, dtype=dtype) for v, dtype in (
        (rhos, np.float64), (betas, np.int64), (taus, np.float64)))
    leg = analysis._first_leg(rhos, betas, taus, step_cap)
    for phi in phis:
        counts, capped = analysis._sweep_one_phi(phi, taus, step_cap, leg)
        again, _ = analysis._sweep_one_phi(phi, taus, step_cap, leg)
        assert np.array_equal(counts, again)
        expected = _scalar_counts(phi, rhos.tolist(), betas.tolist(), taus.tolist(), step_cap)
        assert np.array_equal(counts, expected), phi
        assert capped == np.count_nonzero(expected[:, 0] < 0)
        if oracle:
            assert np.array_equal(counts, sweep_one_phi(phi, rhos, betas, taus, step_cap)[0])
    return leg


def test_first_leg_needs_an_exact_unit_heading():
    # the leg sits exactly on (k, 0.0) only because heading 0 is exact
    assert analysis._COS_DEG[0] == 1.0
    assert analysis._SIN_DEG[0] == 0.0


def _first_turn(rho, beta):
    """The first step whose squared distance rose, walking along +x."""
    tx, ty = rho * math.cos(math.radians(beta)), rho * math.sin(math.radians(beta))
    step, prev = 1, tx * tx + ty * ty
    while (s := (step - tx) * (step - tx) + (0.0 - ty) * (0.0 - ty)) <= prev:
        step, prev = step + 1, s
    return step


def _rho_on(tx, beta):
    """A rho whose target lies exactly at x = tx on bearing beta, or None."""
    rho = tx / math.cos(math.radians(beta))
    for _ in range(16):
        rho = math.nextafter(rho, -math.inf)
    for _ in range(33):
        if rho * math.cos(math.radians(beta)) == tx:
            return rho
        rho = math.nextafter(rho, math.inf)
    return None


def test_first_leg_turns_at_half_steps():
    # a target at x = k + 1/2 is as far from k as from k + 1, so the first
    # turn waits a step; one ulp either side decides it
    for k in (0, 3, 17):
        half = k + 0.5
        below, above = math.nextafter(half, -math.inf), math.nextafter(half, math.inf)
        assert [_first_turn(tx, 0) for tx in (below, half, above)] == [k + 1, k + 2, k + 2]
    starts = [(rho, beta) for beta in (0, 30, 60, 75, 300, 330) for k in (0, 2, 7)
              for tx in (math.nextafter(k + 0.5, -math.inf), k + 0.5,
                         math.nextafter(k + 0.5, math.inf))
              if (rho := _rho_on(tx, beta)) is not None]
    assert len(starts) >= 40
    taus = (0.25, 1.0)
    for rho, beta in starts:
        leg = _assert_kernel_exact((72, 135, 143), [rho], [beta], taus, 200)
        assert leg.turn_step.tolist() == [_first_turn(rho, beta)], (rho, beta)


def test_first_leg_turns_at_once_on_axis_bearings():
    # at bearings 90 and 270 the target's x is within 2e-14 of 0, at 180 it
    # is negative: every start turns at step 1
    rhos, betas = (10.0, 37.5, 100.0), (90, 180, 270)
    leg = _assert_kernel_exact((72, 135, 143), rhos, betas, (1.0, 5.0, 10.0), 10_000)
    assert leg.turn_step.tolist() == [1.0] * (len(rhos) * len(betas))


def test_first_leg_crossings_at_step_0():
    # step 0 is decided on rho itself: at range 10 the squared start
    # distance rounds to either side of 100, yet tau 10 and 10.5 are
    # reached at step 0 at every bearing, and tau 1 at none
    rhos, betas, taus = np.array([10.0]), np.arange(360), np.array([1.0, 10.0, 10.5])
    target_x, target_y = 10.0 * analysis._COS_DEG, 10.0 * analysis._SIN_DEG
    start_s = target_x * target_x + target_y * target_y
    assert (start_s > 100.0).any() and (start_s < 100.0).any()
    leg = _assert_kernel_exact((121, 135), rhos, betas, taus, 10_000)
    for phi in (121, 135):
        counts, _ = analysis._sweep_one_phi(phi, taus, 10_000, leg)
        assert (counts[:, 1:] == 0).all() and (counts[:, 0] != 0).all()


def test_first_leg_longer_than_the_step_cap():
    for step_cap in (0, 1, 5, 12):
        leg = _assert_kernel_exact((121, 135, 143), range(10, 101, 10), (0, 1, 5, 30, 355),
                                   (1.0, 5.0, 10.0), step_cap)
        assert leg.lane.size < 50  # the long legs turn past the cap


def test_first_leg_non_integer_ranges():
    _assert_kernel_exact((97, 135, 143), (0.3, 10.25, 33.3, 57.75, 99.9),
                         (0, 45, 123, 200, 359), (0.5, 1.0, 2.5, 10.0), 10_000)


_half_step_ranges = st.builds(lambda k, up: math.nextafter(k + 0.5, math.inf if up else -math.inf),
                              st.integers(0, 119), st.booleans())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(phi=st.integers(1, 359),
       rhos=st.lists(st.floats(0.0, 120.0) | _half_step_ranges, min_size=1, max_size=4),
       betas=st.lists(st.integers(0, 359), min_size=1, max_size=4, unique=True),
       taus=st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 10.5)), min_size=1,
                     max_size=4, unique=True).map(sorted),
       step_cap=st.integers(0, 250))
# targets an ulp from x = 0.5 and 7.5: first-leg near ties, where one ulp
# of the target decides the turn
@example(phi=135, rhos=[1.9318516525781366, 28.977774788672047], betas=[75], taus=[0.25, 1.0],
         step_cap=200)
def test_first_leg_and_kernel_equal_steps_to_reach(phi, rhos, betas, taus, step_cap):
    _assert_kernel_exact((phi,), rhos, betas, taus, step_cap, oracle=False)


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


def test_verify_convergence_uses_the_exported_thresholds():
    # verify_convergence evaluates the thresholds on arrays; each element must
    # be the exact float that cold_mode_thresholds returns for that geometry
    rng = np.random.default_rng(46)
    s = rng.uniform(0.1, 2.0, 200)
    t = s * rng.uniform(0.5 + 1e-6, 3.0, 200)
    for phi_deg in (121.0, 137.0, 179.0):
        arrays = analysis._cold_thresholds(s, t, math.radians(phi_deg))
        for i in range(len(s)):
            th = cold_mode_thresholds(float(s[i]), float(t[i]), phi_deg)
            scalars = (th.first_rotation, th.second_rotation, th.overall_gain)
            assert tuple(float(a[i]) for a in arrays) == scalars


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
