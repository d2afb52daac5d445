"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion. Each criterion asserts after printing, so a failure still leaves
its line in the report.
"""

import math
import time

import numpy as np

from oracles import brute_force_position

from hotcold.analysis import exhaustive_sweep, rotation_sweep, verify_convergence
from hotcold.channel import ChannelParams, max_range_m, noiseless_rssi, rssi
from hotcold.cli import main as cli_main
from hotcold.engine import StaticControl, WorldConfig, run_simulation
from hotcold.experiments import ExperimentGrid, derive_seed, run_grid
from hotcold.tracker import HotColdConfig
from hotcold.trilateration import Observation, TrilaterationConfig, estimate_target

PARAMS = ChannelParams()


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_rotation_numerical_analysis():
    t0 = time.perf_counter()
    result = rotation_sweep()
    elapsed = time.perf_counter() - t0
    best = result.summary(139)
    ok = (
        elapsed < 60.0
        and abs(best.overall_mean - 16.78) <= 0.01
        and best.percent_valid == 100.0
        and result.best_phi == 139
    )
    report(
        "rotation-sweep",
        ok,
        f"phi=139 mean={best.overall_mean:.4f} (16.78+-0.01), "
        f"valid={best.percent_valid:.0f}%, argmin={result.best_phi}, {elapsed:.1f}s (<60s)",
    )


def test_exhaustive_simulation_analysis():
    t0 = time.perf_counter()
    result = exhaustive_sweep()
    elapsed = time.perf_counter() - t0
    best_mean = result.overall_means[result.best_phi]
    monotone = all(
        result.cell(phi, tau).mean_steps >= result.cell(phi, tau + 1).mean_steps
        for phi in range(121, 144)
        for tau in range(1, 10)
    )
    ok = (
        result.total_runs == 7_534_800
        and elapsed < 600.0
        and result.best_phi == 135
        and abs(best_mean - 75.87639) <= 0.1 * 75.87639
        and monotone
        and result.cap_hits == 0
    )
    report(
        "exhaustive-sweep",
        ok,
        f"{result.total_runs} runs in {elapsed:.1f}s (<600s), argmin={result.best_phi} "
        f"mean={best_mean:.5f} (75.87639+-10%), monotone_in_tau={monotone}, "
        f"cap_hits={result.cap_hits}",
    )


def test_convergence_verification():
    t0 = time.perf_counter()
    result = verify_convergence(10_000, np.random.default_rng(2024))
    elapsed = time.perf_counter() - t0
    ok = result.total_violations == 0 and elapsed < 10.0
    report(
        "convergence-checks",
        ok,
        f"10^4 geometries, violations={result.total_violations} "
        f"(hot={result.hot_mode_violations}, first={result.first_rotation_violations}, "
        f"second={result.second_rotation_violations}, overall={result.overall_gain_violations}, "
        f"ordering={result.ordering_violations}), {elapsed:.2f}s (<10s)",
    )


def test_trilateration_exactness():
    rng = np.random.default_rng(1234)
    worst = 0.0
    checked = 0
    while checked < 1000:
        pts = rng.uniform(0.0, 100.0, (3, 2))
        u, v = pts[1] - pts[0], pts[2] - pts[0]
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        if area < 50.0:
            continue
        target = rng.uniform(0.0, 100.0, 2)
        dists = [float(np.hypot(*(p - target))) for p in pts]
        if min(dists) < 1e-6:
            continue
        estimate = estimate_target(
            [Observation(*p, d) for p, d in zip(pts, dists)]
        )
        assert estimate is not None
        oracle = brute_force_position([tuple(p) for p in pts], dists)
        worst = max(worst, math.hypot(estimate.x - oracle[0], estimate.y - oracle[1]))
        checked += 1
    collinear = estimate_target(
        [Observation(float(i), 0.0, 5.0) for i in range(3)]
    )
    ok = worst < 1e-6 and collinear is None
    report(
        "trilateration-exactness",
        ok,
        f"1000 noise-free triples vs grid-search oracle, worst gap={worst:.2e} (<1e-6), "
        f"collinear->degenerate={collinear is None}",
    )


def test_channel_sanity():
    from scipy import stats

    normals = np.random.default_rng(99).standard_normal(10**5).tolist()
    sigma = 3.0
    noisy = ChannelParams(shadowing_sigma_db=sigma)
    base = noiseless_rssi(10.0, noisy)
    deviates = np.array(
        [rssi(0.0, 0.0, 10.0, 0.0, noisy, n).value_dbm - base for n in normals]
    )
    p_value = stats.kstest(deviates / sigma, "norm").pvalue
    range_m = max_range_m(PARAMS)
    at_halt = noiseless_rssi(3.0, PARAMS)
    ok = abs(range_m - 99.6) <= 0.1 and abs(at_halt - (-51.41)) <= 0.01 and p_value > 0.01
    report(
        "channel-sanity",
        ok,
        f"range={range_m:.2f} m (99.6+-0.1), rssi@3m={at_halt:.3f} dBm (-51.41+-0.01), "
        f"shadowing KS p={p_value:.3f} (>0.01)",
    )


DESK_GRID = ExperimentGrid(
    sws_values=(4,),
    sigma_values=(0.0, 1.0, 2.0, 3.0, 4.0, 6.0),
    trackers=(HotColdConfig(), TrilaterationConfig(), StaticControl()),
    runs_per_point=5,
    master_seed=1,
    comparison_sws=(4,),
    base=WorldConfig(duration_s=500.0),
)


def test_simulation_comparisons():
    result = run_grid(DESK_GRID)
    hc_ir0 = result.point("hotcold", 4, 0.0).mean("cycles_in_range_pct")
    tri_ir0 = result.point("trilateration", None, 0.0).mean("cycles_in_range_pct")
    wins = sum(
        result.point("hotcold", 4, s).mean("average_distance_m")
        < result.point("trilateration", None, s).mean("average_distance_m")
        for s in (0.0, 1.0, 2.0, 3.0, 4.0)
    )
    ctl6 = result.point("static", None, 6.0).mean("average_distance_m")
    hc6 = result.point("hotcold", 4, 6.0).mean("average_distance_m")
    tri6 = result.point("trilateration", None, 6.0).mean("average_distance_m")
    ok = (
        not result.failures
        and hc_ir0 >= 99.0
        and tri_ir0 >= 99.0
        and wins >= 4
        and hc6 > ctl6
        and tri6 > ctl6
    )
    report(
        "simulation-comparisons",
        ok,
        f"sigma=0 in-range: hotcold={hc_ir0:.1f}%, trilateration={tri_ir0:.1f}% (>=99%); "
        f"hotcold wins {wins}/5 average-distance comparisons on sigma 0-4 (>=4); "
        f"sigma=6 distances hotcold={hc6:.1f}, trilateration={tri6:.1f} "
        f"vs control={ctl6:.1f} (both worse than control)",
    )


def test_static_control_baseline():
    distances = []
    for run in range(5):
        cfg = WorldConfig(tracker=StaticControl(), seed=derive_seed(1, "control-baseline", run))
        metrics = run_simulation(cfg)
        distances.append(metrics.average_distance_m)
    mean = sum(distances) / len(distances)
    ok = abs(mean - 30.0) <= 0.15 * 30.0
    report(
        "static-control-baseline",
        ok,
        f"centered static robot vs waypoint target, 5 seeds x 1000 s: "
        f"mean distance={mean:.2f} m (30+-15%)",
    )


def test_determinism_byte_identical_outputs(tmp_path):
    commands = [
        ["--seed", "21", "--set", "world.duration_s=50",
         "--set", "channel.shadowing_sigma_db=2", "simulate"],
        ["--seed", "22", "--runs", "2", "scenario", "--preset", "scenario3"],
        ["--seed", "23", "--runs", "1", "--set", "world.duration_s=10",
         "--set", "grid.sws_values=4", "--set", "grid.sigma_values=0,2",
         "--set", "grid.comparison_sws=4", "grid"],
    ]
    identical = True
    for i, command in enumerate(commands):
        dirs = [tmp_path / f"c{i}_{rep}" for rep in range(2)]
        for d in dirs:
            assert cli_main([*command[:0], "--out-dir", str(d), *command]) == 0
        for csv in sorted(dirs[0].glob("*.csv")):
            twin = dirs[1] / csv.name
            if not (twin.exists() and twin.read_bytes() == csv.read_bytes()):
                identical = False
    report(
        "determinism",
        identical,
        "simulate, scenario, and grid reruns with identical seeds emit "
        "byte-identical CSV files",
    )
