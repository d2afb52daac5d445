"""The grid's Hot-Cold and static worlds of one seed, stepped together.

A run index of the grid holds worlds that differ only in tracker and
shadowing sigma. run_lockstep steps the obstacle-free Hot-Cold and static
ones as one batch and gives each the report run_simulation gives it, bit for
bit. The engine names it uses (init_world, TRACKERS, rotate, compute_metrics
and, through each world's decider, ingest_sample) are looked up on the
engine module at call time, so a wrapper set there sees the batch's calls too.

It is a module of its own because compiling it as part of engine.py raised
the peak RSS of a process that imports the package without a cached .pyc
by about 0.15 MB; compiled apart, it adds nothing measurable to that peak.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import replace

import numpy as np

from . import engine
from .channel import MIN_DISTANCE_M
from .engine import MetricsReport, StaticControl, WorldConfig
from .tracker import DecisionKind, HotColdConfig

# the trackers run_lockstep steps; trilateration steers anew on each fix, so it steps alone
LOCKSTEP_TRACKERS = (HotColdConfig, StaticControl)
# the narrowest batch the grid builds: a batch's cost per cycle is mostly fixed, so fewer
# worlds run faster alone (in-process, 2,000 cycles, best of 5-7, 2 vCPUs, CPython 3.11: 2 worlds
# took 26 ms batched and 6 ms alone, 16 worlds 49 and 45 ms, 21 worlds 56 and 58 ms, 77 worlds
# 136 and 220 ms)
LOCKSTEP_MIN_WORLDS = 20


def run_lockstep(configs: Sequence[WorldConfig],
                 path: Iterable[tuple[float, float]] | None = None) -> list[MetricsReport]:
    """run_simulation of each world, stepped together, bit for bit: the
    worlds differ only in tracker (Hot-Cold or static) and shadowing sigma,
    so they share one path and one normals stream, and have no obstacles.
    `path` is init_world's: the target's recorded positions.

    The channel and the sums run on arrays of one element per world in
    step_world's order of operations, numpy only adding, subtracting,
    multiplying and comparing (correctly rounded everywhere); hypot and
    log10 are math's, per element. A world turns through rotate, and caches
    step*cos and step*sin of its heading, the terms advance adds. Each
    in-range world decides through its own state.decide. Worlds that share
    less, have obstacles or track by trilateration raise ValueError.
    """
    if not configs:
        return []
    base = configs[0]
    for config in configs:
        shape = replace(config, tracker=base.tracker, channel=replace(
            config.channel, shadowing_sigma_db=base.channel.shadowing_sigma_db))
        if config.obstacles or not isinstance(config.tracker, LOCKSTEP_TRACKERS) or shape != base:
            raise ValueError("lockstep worlds need Hot-Cold or static trackers, no obstacles, "
                             "and every other key but the shadowing sigma shared")
    first = engine.init_world(base, path)
    # the worlds share the first's path, normals and halt threshold; each has its own tracker
    states = [first] + [replace(first, tracker_state=new_state(), decide=decide)
                        for new_state, decide in (engine.TRACKERS[type(c.tracker)]
                                                  for c in configs[1:])]
    n, channel, step, rotate_ = len(states), base.channel, base.robot_step_m, engine.rotate
    worlds, compress = range(n), itertools.compress
    hypot, log10, cos, sin, radians, halt_dbm = (
        math.hypot, math.log10, math.cos, math.sin, math.radians, first.halt_threshold_dbm)
    # the constants as 0-d arrays, which numpy takes faster than floats
    gain, scale, reference, floor, halt, one = map(np.array, (
        channel.link_budget_dbm, 10.0 * channel.path_loss_exponent, channel.reference_loss_db,
        channel.rx_sensitivity_dbm, halt_dbm, 1.0))
    sigma = np.array([c.channel.shadowing_sigma_db for c in configs])
    # rows x and y of the robots, the target repeated per world, and their differences
    pos = np.array([[first.robot_x] * n, [first.robot_y] * n])
    target, delta = np.empty_like(pos), np.empty_like(pos)
    headings = [first.robot_heading_rad] * n
    steps = np.array([[step * cos(headings[0])] * n, [step * sin(headings[0])] * n])
    moving, in_range, halting = np.zeros((3, n), bool)
    lasts = [None] * n
    turning = {}  # world -> the turn it repeats each cycle until its decision changes
    deciders = [(s.decide, s.tracker_state, c) for s, c in zip(states, configs)]
    # the counts are exact in doubles, and a masked add needs no cast from bool
    distance_sum, in_range_sum, in_halt_sum, noise = np.zeros((4, n))
    t, tx, ty, period = 0.0, first.target_x, first.target_y, base.cycle_period_s
    forward_kind, rotate_kind = DecisionKind.MOVE_FORWARD, DecisionKind.ROTATE_THEN_MOVE

    for _, (tx, ty), normal in zip(range(base.total_cycles), first.target_path,
                                   first.shadowing_normals):
        t += period
        target[0], target[1] = tx, ty
        d = list(map(hypot, *np.subtract(target, pos, out=delta).tolist()))
        if min(d) < MIN_DISTANCE_M:
            d = [max(v, MIN_DISTANCE_M) for v in d]
        value = np.fromiter(map(log10, d), float, n)
        value *= scale
        value += reference
        value += np.multiply(sigma, normal, out=noise)
        np.subtract(gain, value, out=value)
        np.greater_equal(value, floor, out=in_range)
        np.add(in_range_sum, one, out=in_range_sum, where=in_range)
        np.add(in_halt_sum, one, out=in_halt_sum, where=np.greater(value, halt, out=halting))
        values, (xs, ys) = value.tolist(), pos.tolist()
        for i in compress(worlds, in_range.tolist()):
            decide, tracker_state, config = deciders[i]
            act = decide(tracker_state, values[i], xs[i], ys[i], headings[i], config, halt_dbm)
            if act is not lasts[i]:
                lasts[i] = act
                kind = None if act is None else act.kind
                moving[i] = kind is forward_kind or kind is rotate_kind
                if kind is rotate_kind:
                    turning[i] = radians(act.rotation_deg)
                else:
                    turning.pop(i, None)
        for i, angle in turning.items():
            heading = headings[i] = rotate_(headings[i], angle)
            steps[0, i], steps[1, i] = step * cos(heading), step * sin(heading)
        np.add(pos, steps, out=pos, where=moving)
        gaps = map(hypot, *np.subtract(pos, target, out=delta).tolist())
        distance_sum += np.fromiter(gaps, float, n)

    for state, *ends in zip(states, *pos.tolist(), headings, lasts, distance_sum.tolist(),
                            map(int, in_range_sum.tolist()), map(int, in_halt_sum.tolist())):
        (state.robot_x, state.robot_y, state.robot_heading_rad, state.last_decision,
         state.distance_sum, state.cycles_in_range, state.cycles_in_halt) = ends
        state.time_s, state.target_x, state.target_y, state.cycles = t, tx, ty, base.total_cycles
    return [engine.compute_metrics(state) for state in states]


