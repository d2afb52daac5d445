import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hotcold.tracker
import oracles
from hotcold.tracker import (
    DecisionKind,
    HotColdConfig,
    HotColdState,
    TrackerDecision,
    decide,
    ingest_sample,
    rotate_then_move,
)

HALT_DBM = -51.41
CFG1 = HotColdConfig(sws=1)
CFG4 = HotColdConfig(sws=4)


def feed(state, cfg, samples, halt_dbm=HALT_DBM):
    return [ingest_sample(state, s, cfg, halt_dbm) for s in samples]


def _window_average(samples, cfg):
    """The average a comparison reads of a first window filled with samples."""
    state = HotColdState()
    feed(state, cfg, samples)
    assert state.samples == cfg.sws == len(samples)
    return state.sum_a / cfg.sws


def test_window_average_examples():
    assert _window_average([-50.0, -52.0, -54.0, -56.0], CFG4) == -53.0
    assert _window_average([-60.0], CFG1) == -60.0
    with pytest.raises(ValueError):  # a window never is empty
        HotColdConfig(sws=0)


def test_window_average_sums_left_to_right():
    # a compensated sum (3.12's builtin sum) gives 0.5: the window mean
    # must keep the same bits on every Python
    assert _window_average([1.0, 1e100, 1.0, -1e100], CFG4) == 0.0


def test_decide_examples():
    assert decide(-50.0, -55.0, CFG4).kind is DecisionKind.ROTATE_THEN_MOVE
    assert decide(-50.0, -55.0, CFG4).rotation_deg == 137.0
    assert decide(-55.0, -50.0, CFG4).kind is DecisionKind.MOVE_FORWARD
    # a tie is not "Cold": keep moving
    assert decide(-50.0, -50.0, CFG4).kind is DecisionKind.MOVE_FORWARD


def test_decide_clockwise_direction():
    cfg = HotColdConfig(sws=1, rotation_angle_deg=-137.0)
    assert decide(-50.0, -55.0, cfg).rotation_deg == -137.0


def test_sws1_increasing_power_moves_forward():
    state = HotColdState()
    decisions = feed(state, CFG1, [-60.0, -58.0])
    assert decisions[0].kind is DecisionKind.MOVE_FORWARD  # first window filling
    assert decisions[1].kind is DecisionKind.MOVE_FORWARD  # comparison: not Cold
    assert state.comparisons == 1


def test_sws1_decreasing_power_rotates():
    state = HotColdState()
    decisions = feed(state, CFG1, [-58.0, -60.0])
    assert decisions[1].kind is DecisionKind.ROTATE_THEN_MOVE
    assert decisions[1].rotation_deg == 137.0


def test_halt_sample_freezes_cycle():
    state = HotColdState()
    decision = ingest_sample(state, -45.0, CFG4, HALT_DBM)
    assert decision.kind is DecisionKind.HALT
    # the halting sample still entered the window
    assert (state.samples, state.sum_a, state.sum_b) == (1, -45.0, 0.0)


def test_halt_at_period_end_resets_windows_without_decision():
    state = HotColdState()
    decisions = feed(state, CFG1, [-60.0, -45.0])
    assert decisions[1].kind is DecisionKind.HALT
    assert (state.samples, state.sum_a, state.sum_b) == (0, 0.0, 0.0)
    assert state.comparisons == 0


def test_one_comparison_per_double_window():
    rng = np.random.default_rng(21)
    for sws in (1, 2, 4, 7):
        cfg = HotColdConfig(sws=sws)
        state = HotColdState()
        periods = 9
        samples = list(rng.uniform(-90.0, -60.0, periods * 2 * sws))
        decisions = feed(state, cfg, samples)
        assert state.comparisons == periods
        # every non-halt cycle moves: forward while filling, the comparison
        # outcome on the period's last sample
        assert all(d.kind is not DecisionKind.HALT for d in decisions)
        for i, d in enumerate(decisions):
            if (i + 1) % (2 * sws) != 0:
                assert d.kind is DecisionKind.MOVE_FORWARD


def test_never_rotates_while_halted():
    rng = np.random.default_rng(22)
    cfg = HotColdConfig(sws=3)
    state = HotColdState()
    for s in rng.uniform(-90.0, -50.0, 600):
        decision = ingest_sample(state, float(s), cfg, -70.0)
        assert (decision.kind is DecisionKind.HALT) == (s > -70.0)


def test_decision_sequence_invariant_to_constant_offset():
    rng = np.random.default_rng(23)
    samples = list(rng.uniform(-90.0, -60.0, 240))
    cfg = HotColdConfig(sws=4)
    base = feed(HotColdState(), cfg, samples, -10.0)  # no halts either way
    shifted = feed(HotColdState(), cfg, [s + 7.5 for s in samples], -10.0)
    assert [d.kind for d in base] == [d.kind for d in shifted]


def test_cold_turn_is_built_once_per_config():
    cw = HotColdConfig(sws=1, rotation_angle_deg=-137.0)
    for cfg, angle in ((CFG1, 137.0), (cw, -137.0)):
        turns = [d for d in feed(HotColdState(), cfg, [-58.0, -60.0] * 3) if d.rotation_deg]
        assert len(turns) == 3
        assert all(d is cfg.cold_turn for d in turns)
        assert cfg.cold_turn == TrackerDecision(DecisionKind.ROTATE_THEN_MOVE, angle)
    # rotate_then_move builds its tuple without the class's constructor: the
    # same type and fields, at a config's angle or a trilateration steer's
    for angle in (137.0, -137.0, math.degrees(-2.5), 0.0):
        turn = rotate_then_move(angle)
        assert type(turn) is TrackerDecision
        assert turn == TrackerDecision(DecisionKind.ROTATE_THEN_MOVE, angle)
        assert turn.rotation_deg.hex() == angle.hex() and turn._fields == ("kind", "rotation_deg")
    # the cached decision is no field: equality, replace and pickling ignore it
    assert dataclasses.replace(CFG1, rotation_angle_deg=120.0).cold_turn.rotation_deg == 120.0
    assert pickle.loads(pickle.dumps(CFG1)) == CFG1


def test_phase_tracking():
    state = HotColdState()
    feed(state, CFG4, [-60.0] * 3)
    assert (state.samples, state.sum_a, state.sum_b) == (3, -180.0, 0.0)  # filling the first window
    feed(state, CFG4, [-60.0] * 2)
    assert (state.samples, state.sum_a, state.sum_b) == (5, -240.0, -60.0)  # filling the second
    feed(state, CFG4, [-60.0] * 3)  # period completes, windows reset
    assert (state.samples, state.sum_a, state.sum_b) == (0, 0.0, 0.0)


def test_config_validation():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            HotColdConfig(rotation_angle_deg=bad)
    with pytest.raises(ValueError):
        HotColdConfig(sws=0)
    with pytest.raises(ValueError):
        HotColdConfig(rotation_angle_deg=0.0)
    with pytest.raises(ValueError):
        HotColdConfig(rotation_angle_deg=360.0)
    with pytest.raises(ValueError):
        HotColdConfig(rotation_angle_deg=-360.0)
    with pytest.raises(TypeError):  # Hot-Cold always moves the world's robot step
        HotColdConfig(step_size_m=1.0)
    with pytest.raises(ValueError):
        ingest_sample(HotColdState(), math.nan, CFG4, HALT_DBM)


_sample = st.one_of(
    st.floats(-100.0, -20.0),  # above HALT_DBM halts: mid-window or at the end of a period
    st.sampled_from([-70.0, -60.0, -45.0]),  # equal averages: ties
    st.floats(-1e300, 1e300),  # sums that round
)


@settings(derandomize=True, database=None, max_examples=400)
@given(sws=st.integers(1, 10), samples=st.lists(_sample, max_size=80))
@example(sws=4, samples=[1.0, 1e100, 1.0, -1e100] * 3)
@example(sws=2, samples=[1.0, 1e100, 1.0, -1e100] * 3)
@example(sws=2, samples=[-60.0, -61.0, -62.0, -45.0, -60.0, -70.0, -61.0, -62.0])  # halt at the end
@example(sws=3, samples=[-60.0, -45.0, -62.0, -60.0, -70.0, -40.0, -61.0] * 2)  # halts mid-window
def test_running_sums_match_the_list_windows(sws, samples):
    """The running-sum tracker against the list windows it replaced
    (oracles.ingest_sample), sample by sample: equal decisions and
    comparison counts; after every sample each running sum equals the
    oracle's left_sum of its list as float.hex, so each first window is
    checked as it finishes; and the averages each comparison reads are
    equal as float.hex, which checks each finished second window."""
    cfg = HotColdConfig(sws=sws)
    ours, theirs = HotColdState(), oracles.HotColdWindows()
    compared = {"ours": [], "theirs": []}

    def recorder(key):
        def record(avg_first, avg_second, cfg):
            compared[key].append((avg_first.hex(), avg_second.hex()))
            return decide(avg_first, avg_second, cfg)
        return record

    with mock.patch.object(hotcold.tracker, "decide", recorder("ours")), \
            mock.patch.object(oracles, "decide", recorder("theirs")):
        for i, sample in enumerate(samples):
            got = ingest_sample(ours, sample, cfg, HALT_DBM)
            assert got == oracles.ingest_sample(theirs, sample, cfg, HALT_DBM), i
            assert ours.comparisons == theirs.comparisons, i
            assert ours.samples == len(theirs.window_a) + len(theirs.window_b), i
            assert ours.sum_a.hex() == oracles.left_sum(theirs.window_a).hex(), i
            assert ours.sum_b.hex() == oracles.left_sum(theirs.window_b).hex(), i
    assert compared["ours"] == compared["theirs"]
    assert len(compared["ours"]) == ours.comparisons
