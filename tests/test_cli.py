import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hotcold import experiments
from hotcold.cli import main
from hotcold.config import DEFAULTS
from hotcold.tracker import HotColdConfig


def run_cli(args):
    return main(list(args))


def test_simulate_writes_trace_and_metrics(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        ["--seed", "7", "--out-dir", str(out), "--set", "world.duration_s=20", "simulate"]
    )
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 41
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total_cycles"] == 40
    assert "average distance" in capsys.readouterr().out


def test_simulate_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["--seed", "11", "--set", "world.duration_s=30", "--set", "channel.shadowing_sigma_db=2"]
    assert run_cli(args + ["--out-dir", str(out_a), "simulate"]) == 0
    assert run_cli(args + ["--out-dir", str(out_b), "simulate"]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()


def test_quick_flag_shrinks_run(tmp_path):
    out = tmp_path / "quick"
    assert run_cli(["--quick", "--seed", "1", "--out-dir", str(out), "simulate"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total_cycles"] == 400  # 200 s at 0.5 s cycles


def test_explicit_set_beats_quick(tmp_path):
    out = tmp_path / "quickset"
    code = run_cli(
        ["--quick", "--seed", "1", "--out-dir", str(out),
         "--set", "world.duration_s=30", "simulate"]
    )
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total_cycles"] == 60


def test_grid_command_with_overrides(tmp_path):
    out = tmp_path / "grid"
    code = run_cli(
        [
            "--seed",
            "5",
            "--out-dir",
            str(out),
            "--runs",
            "1",
            "--set",
            "world.duration_s=10",
            "--set",
            "grid.sws_values=4",
            "--set",
            "grid.sigma_values=0,2",
            "--set",
            "grid.comparison_sws=4",
            "grid",
        ]
    )
    assert code == 0
    for name in ("grid_runs.csv", "fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv", "fig9.csv", "fig10.csv"):
        assert (out / name).exists(), name
    runs = (out / "grid_runs.csv").read_text().splitlines()
    assert len(runs) == 1 + 2 + 2 + 2  # hotcold, trilateration, static x 2 sigmas


def test_rotation_sweep_command(tmp_path, capsys):
    out = tmp_path / "rot"
    assert run_cli(["--out-dir", str(out), "rotation-sweep"]) == 0
    assert "best angle 139" in capsys.readouterr().out
    fig2 = (out / "fig2.csv").read_text().splitlines()
    assert fig2[0].startswith("phi_deg,eps_0,eps_1")
    assert len(fig2) == 1 + 23
    assert "X" in fig2[15]  # phi=135 has unreachable bearings at small eps
    fig3 = (out / "fig3.csv").read_text().splitlines()
    assert fig3[0] == "phi_deg,overall_mean_rotations,percent_valid"


def test_verify_lemmas_command(capsys, tmp_path):
    assert run_cli(["--out-dir", str(tmp_path), "verify-lemmas"]) == 0
    assert "violations 0" in capsys.readouterr().out


def test_scenario_command(tmp_path):
    out = tmp_path / "scen"
    code = run_cli(
        ["--seed", "3", "--runs", "2", "--out-dir", str(out), "scenario", "--preset", "scenario2"]
    )
    assert code == 0
    lines = (out / "fig12_scenario2.csv").read_text().splitlines()
    assert lines[0] == "iteration,time_s,distance_m"
    assert lines[1].startswith("0,0.000000,25.")


def test_report_figures_subset(tmp_path):
    out = tmp_path / "rep"
    code = run_cli(["--out-dir", str(out), "report", "--figures", "fig2,fig3"])
    assert code == 0
    assert (out / "fig2.csv").exists() and (out / "fig3.csv").exists()
    assert not (out / "fig4.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rotation_sweep"]["best_phi_deg"] == 139
    assert summary["convergence"]["total_violations"] == 0


def test_report_grid_figures(tmp_path):
    out = tmp_path / "repgrid"
    code = run_cli(
        [
            "--seed",
            "2",
            "--runs",
            "1",
            "--out-dir",
            str(out),
            "--set",
            "world.duration_s=10",
            "--set",
            "grid.sws_values=3,4",
            "--set",
            "grid.sigma_values=0",
            "--set",
            "grid.comparison_sws=3,4",
            "report",
            "--figures",
            "fig5,fig8",
        ]
    )
    assert code == 0
    assert (out / "fig5.csv").exists() and (out / "fig8.csv").exists()
    assert not (out / "fig6.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid"]["best_sws_by_mean_average_distance"] in (3, 4)


TINY_GRID = [
    "--seed", "5", "--runs", "2", "--set", "world.duration_s=10", "--set", "grid.sws_values=3,4",
    "--set", "grid.sigma_values=0,2", "--set", "grid.comparison_sws=3,4",
]


@pytest.mark.parametrize("command", [["grid"], ["report", "--figures", "fig5,fig8"]])
def test_failed_grid_runs_exit_1_after_writing(tmp_path, capsys, monkeypatch, command):
    real = experiments.run_simulation

    def run_simulation(config, *args, **kwargs):
        if isinstance(config.tracker, HotColdConfig) and config.tracker.sws == 3:
            raise RuntimeError("forced failure")
        return real(config, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_simulation", run_simulation)
    out = tmp_path / "failed"
    assert run_cli(TINY_GRID + ["--out-dir", str(out)] + command) == 1
    err = capsys.readouterr().err
    assert err.count("warning: run failed:") == 4
    assert "error: 4 grid runs failed" in err
    assert "3,0.000000,nan,nan,nan" in (out / "fig5.csv").read_text()
    assert "hotcold_sws3,2.000000,nan,nan" in (out / "fig8.csv").read_text()
    assert len((out / "grid_runs.csv").read_text().splitlines()) == 1 + 2 * 2 * 3


def test_grid_without_hotcold_skips_the_sws_figures(tmp_path):
    args = TINY_GRID + ["--set", "grid.trackers=static", "--out-dir", str(tmp_path), "grid"]
    assert run_cli(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig10.csv", "fig8.csv", "fig9.csv", "grid_runs.csv"
    ]


def test_grid_and_report_write_the_same_figures(tmp_path):
    figures = ["fig5", "fig6", "fig7", "fig8", "fig9", "fig10"]
    assert run_cli(TINY_GRID + ["--out-dir", str(tmp_path / "grid"), "grid"]) == 0
    report = ["report", "--figures", ",".join(figures)]
    assert run_cli(TINY_GRID + ["--out-dir", str(tmp_path / "report")] + report) == 0
    for name in ["grid_runs"] + figures:
        grid_bytes = (tmp_path / "grid" / f"{name}.csv").read_bytes()
        assert grid_bytes == (tmp_path / "report" / f"{name}.csv").read_bytes(), name


def test_bad_inputs_exit_nonzero(tmp_path, capsys):
    assert run_cli(["--out-dir", str(tmp_path), "report", "--figures", "fig99"]) == 2
    no_hotcold = ["--set", "grid.trackers=static", "report", "--figures", "fig5"]
    assert run_cli(["--out-dir", str(tmp_path)] + no_hotcold) == 2
    assert (
        run_cli(["--out-dir", str(tmp_path), "--set", "world.duration_s=1.3", "simulate"]) == 2
    )
    assert run_cli(["--out-dir", str(tmp_path), "--set", "world.duration_s=1e12", "simulate"]) == 2
    # a step of inf m, and finite positions whose distance sum overflows
    for duration, period in (("1e308", "1e305"), ("1e306", "1e303")):
        overflow = ["--set", f"world.duration_s={duration}", "--set", f"world.cycle_period_s={period}"]
        assert run_cli(["--out-dir", str(tmp_path)] + overflow + ["simulate"]) == 2
        assert run_cli(["--out-dir", str(tmp_path), "--quick"] + overflow + ["grid"]) == 2
        assert not any(tmp_path.iterdir())
    # a robot that starts inside an obstacle reads 0 cm on both sensors and only ever avoids
    trapped = ["--set", "world.obstacles=45:45:55:55", "simulate"]
    assert run_cli(["--out-dir", str(tmp_path)] + trapped) == 2
    assert not any(tmp_path.iterdir())
    assert run_cli(["--out-dir", str(tmp_path), "--set", "bogus=1", "simulate"]) == 2
    # Hot-Cold always moves the world's robot step: no step size key
    assert run_cli(["--out-dir", str(tmp_path), "--set", "hotcold.step_size_m=1", "simulate"]) == 2
    # a grid axis value that no point's channel or tracker config accepts
    for axis in ("grid.sigma_values=-1", "grid.sigma_values=nan", "grid.sws_values=0"):
        assert run_cli(TINY_GRID + ["--out-dir", str(tmp_path), "--set", axis, "grid"]) == 2
    # a repeated axis value ran its points again on the same seeds and drew
    # its fig8 curve twice, each std taken over the duplicated runs
    capsys.readouterr()
    for axis in ("grid.sws_values=4,4", "grid.sigma_values=2,2", "grid.comparison_sws=4,4"):
        assert run_cli(TINY_GRID + ["--out-dir", str(tmp_path), "--set", axis, "grid"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "repeats a value" in err
    repeated = ["--runs", "2", "--set", "world.duration_s=5", "--set", "grid.sigma_values=2,2",
                "--set", "grid.sws_values=4,4", "--set", "grid.comparison_sws=4,4", "grid"]
    assert run_cli(["--out-dir", str(tmp_path)] + repeated) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not any(tmp_path.iterdir())
    # a target start beyond the robot start's bound was clamped into the space
    far = ["--set", "world.target_start_x_m=1e300", "--set", "world.target_start_y_m=-1e300",
           "--set", "world.duration_s=2", "simulate"]
    for mobility in ("random_waypoint", "static"):
        assert run_cli(["--out-dir", str(tmp_path), "--set", f"world.mobility={mobility}"] + far) == 2
        assert "world.target_start_x_m/y_m" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # a target start that would be ignored: half set, or under a fixed path
    fixed = ["--set", "world.mobility=fixed_path", "--set", "world.fixed_path=0:10:10"]
    for start in ([], fixed + ["--set", "world.target_start_y_m=10"]):
        args = start + ["--set", "world.target_start_x_m=10", "simulate"]
        assert run_cli(["--out-dir", str(tmp_path)] + args) == 2
    # a fixed path that would be ignored under another mobility model
    static = ["--set", "world.mobility=static", "--set", "world.target_start_x_m=10",
              "--set", "world.target_start_y_m=10"]
    for mobility in ([], static):
        args = mobility + ["--set", "world.duration_s=50", "--set",
                           "world.fixed_path=0:10:10; 30:90:90", "simulate"]
        assert run_cli(["--out-dir", str(tmp_path)] + args) == 2
    # a clockwise turn is a negative rotation angle: no direction key
    direction = ["--set", "hotcold.rotation_direction=cw", "simulate"]
    assert run_cli(["--out-dir", str(tmp_path)] + direction) == 2
    assert not any(tmp_path.iterdir())
    # numpy rejects a negative seed with a traceback; the CLI checks it first
    assert run_cli(["--out-dir", str(tmp_path), "--seed", "-1", "verify-lemmas"]) == 2
    with pytest.raises(SystemExit):
        run_cli(["no-such-command"])


@pytest.mark.parametrize(
    "override",
    [
        "channel.path_loss_exponent=nan",
        "world.duration_s=inf",
        "world.width_m=nan",
        "channel.shadowing_sigma_db=inf",
    ],
)
def test_non_finite_config_values_exit_2(tmp_path, capsys, override):
    assert run_cli(["--out-dir", str(tmp_path), "--set", override, "simulate"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HOTCOLD_OUT_DIR", str(tmp_path / "envout"))
    assert run_cli(["--seed", "1", "--set", "world.duration_s=5", "simulate"]) == 0
    assert (tmp_path / "envout" / "trace.csv").exists()


def test_out_dir_that_is_a_file_exits_2(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    assert run_cli(["--out-dir", str(blocker), "simulate"]) == 2
    monkeypatch.setenv("HOTCOLD_OUT_DIR", str(blocker / "sub"))
    assert run_cli(["simulate"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: cannot make output directory") for line in err)
    assert blocker.read_text() == "keep"


# every world key but the two whose ratio is the run length: a huge accepted
# value there is a legitimately long run
_SET_KEYS = [
    f"{section}.{key}"
    for section in ("world", "channel", "hotcold", "trilateration")
    for key in DEFAULTS[section]
    if key not in ("duration_s", "cycle_period_s")
]
_any_value = st.one_of(st.floats().map(repr), st.integers().map(str), st.text())


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    return not isinstance(value, float) or math.isfinite(value)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    tracker=st.sampled_from(["hotcold", "trilateration"]),
    overrides=st.dictionaries(st.sampled_from(_SET_KEYS), _any_value, min_size=1, max_size=3),
)
@example(tracker="hotcold", overrides={"channel.shadowing_sigma_db": "1e308"})  # infinite sample
@example(tracker="trilateration", overrides={"channel.shadowing_sigma_db": "14195"})  # range 0.0
@example(  # the widest accepted noise
    tracker="trilateration",
    overrides={"channel.path_loss_exponent": "0.5", "channel.shadowing_sigma_db": "100"},
)
@example(tracker="hotcold", overrides={"world.seed": "-5"})  # SeedSequence traceback
@example(tracker="hotcold", overrides={"world.robot_speed_kmh": "1e308"})  # robot off to inf
@example(tracker="trilateration", overrides={"world.width_m": "1e308"})  # distance sum inf
@example(  # distance sum inf
    tracker="hotcold",
    overrides={"world.robot_start_x_m": "1e308", "world.robot_start_y_m": "0"},
)
@example(  # interpolation overflow
    tracker="hotcold",
    overrides={"world.mobility": "fixed_path", "world.fixed_path": "0:1e308:0; 1:-1e308:0"},
)
def test_any_set_value_exits_0_with_finite_metrics_or_2(tracker, overrides):
    args = ["--set", "world.duration_s=5", "--set", f"world.tracker={tracker}"]
    for key, value in overrides.items():
        args += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(args + ["--out-dir", out, "simulate"])
        assert code in (0, 2)
        if code == 0:
            metrics = json.loads((Path(out) / "metrics.json").read_text())
            assert _finite_numbers(metrics), metrics


def _files_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


QUICK_GRID = [
    "--quick", "--runs", "1", "--set", "world.duration_s=20", "--set", "grid.sws_values=3,4",
    "--set", "grid.sigma_values=0,2", "--set", "grid.comparison_sws=3,4",
]
PINNED_COMMANDS = {
    "grid": QUICK_GRID + ["grid"],
    **{name: ["--runs", "1", "scenario", "--preset", name] for name in experiments.SCENARIO_NAMES},
}
# sha256 over the name and bytes of every file each command writes. Any change
# to seeding, stepping, tracker or mobility dispatch, or the CSV writers
# changes a digest; a refactor must leave all four alone.
PINNED_COMMAND_DIGESTS = {
    "grid": "93ee8278ad0e7333d39afac6a6495b1904311cb4ccb1eac51f9df2f2d11837c6",
    "scenario1": "bb17d9c6d997fa3593d0c4ed44de18e87058f5f7f59eacb1600ab27e8a8999ea",
    "scenario2": "098270538e9a2ed9fd4e134991ef8a9e9f468e6d8a03469041d6b650919238bd",
    "scenario3": "69d348d68eb790807a874d1d509b727c3b587c73630bed72ab8df65f637df46c",
}


@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_command_output_bytes_pinned(tmp_path, capsys, name):
    assert run_cli(["--out-dir", str(tmp_path)] + PINNED_COMMANDS[name]) == 0
    assert _files_digest(tmp_path) == PINNED_COMMAND_DIGESTS[name]


# sha256 of the fig4.csv that `exhaustive-sweep` writes
FIG4_SHA256 = "c17d95a730010561b2382343243b1501b1be02ef2be5a480e11adfb130033304"


def test_exhaustive_sweep_command_bytes_pinned(tmp_path, capsys):
    assert run_cli(["--out-dir", str(tmp_path), "exhaustive-sweep"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["fig4.csv"]
    assert hashlib.sha256((tmp_path / "fig4.csv").read_bytes()).hexdigest() == FIG4_SHA256


def test_report_fig12_writes_the_scenario_outputs(tmp_path, capsys):
    assert run_cli(["--out-dir", str(tmp_path), "--runs", "1", "report", "--figures", "fig12"]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"fig12_{name}.csv" for name in experiments.SCENARIO_NAMES] + ["summary.json"]
    for name in experiments.SCENARIO_NAMES:
        scenario_out = tmp_path / name
        scenario_out.mkdir()
        (tmp_path / f"fig12_{name}.csv").rename(scenario_out / f"fig12_{name}.csv")
        assert _files_digest(scenario_out) == PINNED_COMMAND_DIGESTS[name], name


def test_workers_2_grid_equals_the_serial_grid(tmp_path, capsys):
    assert run_cli(QUICK_GRID + ["--out-dir", str(tmp_path), "--workers", "2", "grid"]) == 0
    assert _files_digest(tmp_path) == PINNED_COMMAND_DIGESTS["grid"]


@pytest.mark.parametrize("config_text, args", [
    (None, ["simulate"]),  # the --config path does not exist
    ("duration_s = 5\n", ["simulate"]),  # no section header
    ("[bogus]\nx = 1\n", ["simulate"]),
    ("", ["--set", "world.obstacles=1:2:a:4", "simulate"]),
    ("", ["--set", "grid.sws_values=,", "grid"]),
    ("", ["--set", "world.mobility=fixed_path", "simulate"]),  # world.fixed_path left blank
], ids=["unreadable", "no-section", "unknown-section", "obstacle-not-numeric", "empty-axis",
        "fixed-path-blank"])
def test_input_errors_exit_2_and_write_nothing(tmp_path, capsys, config_text, args):
    config = tmp_path / "config.ini"
    if config_text is not None:
        config.write_text(config_text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(config), "--out-dir", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


def test_grid_honours_the_tracker_sections(tmp_path, capsys):
    keys = ["--set", "hotcold.rotation_angle_deg=90", "--set", "trilateration.k_observations=5"]
    assert run_cli(QUICK_GRID + ["--out-dir", str(tmp_path / "default"), "grid"]) == 0
    assert run_cli(QUICK_GRID + keys + ["--out-dir", str(tmp_path / "keys"), "grid"]) == 0
    rows = {
        name: (tmp_path / name / "grid_runs.csv").read_text().splitlines()
        for name in ("default", "keys")
    }
    for tracker, changed in (("hotcold", True), ("trilateration", True), ("static", False)):
        default, keyed = ([r for r in rows[n] if r.startswith(f"{tracker},")] for n in rows)
        assert len(default) == len(keyed) > 0
        assert (default != keyed) is changed, tracker


def test_empty_run_writes_strict_json(tmp_path, capsys):
    assert run_cli(["--out-dir", str(tmp_path), "--set", "world.duration_s=0", "simulate"]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    metrics = json.loads((tmp_path / "metrics.json").read_text(), parse_constant=refuse)
    assert metrics == {
        "average_distance_m": None,
        "cycles_in_halt": 0,
        "cycles_in_halt_pct": None,
        "cycles_in_range": 0,
        "cycles_in_range_pct": None,
        "total_cycles": 0,
    }


# key -> (a non-default value, companion settings applied with and without
# it). The companions make the key matter (a tracker's section needs that
# tracker) or give it a working baseline where its blank default alone is
# refused or unread.
LIVE_KEYS = {
    "world.width_m": ("80", {}),
    "world.height_m": ("80", {}),
    "world.duration_s": ("40", {}),
    "world.cycle_period_s": ("0.25", {}),
    "world.robot_speed_kmh": ("5", {}),
    "world.target_speed_kmh": ("5", {}),
    "world.halt_distance_m": ("40", {}),
    "world.seed": ("2", {}),
    "world.tracker": ("trilateration", {}),
    "world.mobility": (
        "static", {"world.target_start_x_m": "10", "world.target_start_y_m": "10"}
    ),
    "world.robot_start_x_m": (
        "20", {"world.robot_start_x_m": "50", "world.robot_start_y_m": "50"}
    ),
    "world.robot_start_y_m": (
        "20", {"world.robot_start_x_m": "50", "world.robot_start_y_m": "50"}
    ),
    "world.robot_heading_deg": (
        "90", {"world.robot_start_x_m": "50", "world.robot_start_y_m": "50"}
    ),
    "world.target_start_x_m": (
        "80", {"world.target_start_x_m": "10", "world.target_start_y_m": "10"}
    ),
    "world.target_start_y_m": (
        "80", {"world.target_start_x_m": "10", "world.target_start_y_m": "10"}
    ),
    "world.fixed_path": (
        "0:10:10; 30:90:90", {"world.mobility": "fixed_path", "world.fixed_path": "0:10:10"}
    ),
    "world.obstacles": ("51:40:53:60", {}),
    "channel.tx_power_dbm": ("5", {}),
    "channel.tx_gain_dbi": ("1", {}),
    "channel.rx_gain_dbi": ("3", {}),
    "channel.frequency_hz": ("5e9", {}),
    "channel.path_loss_exponent": ("3", {}),
    "channel.shadowing_sigma_db": ("2", {}),
    "channel.rx_sensitivity_dbm": ("-60", {}),
    "hotcold.sws": ("2", {}),
    "hotcold.rotation_angle_deg": ("90", {}),
    "hotcold.halt_threshold_dbm": ("-80", {}),
    **{
        f"trilateration.{key}": (value, {"world.tracker": "trilateration"})
        for key, value in (
            ("k_observations", "4"),
            ("min_spacing_m", "3"),
            ("condition_threshold", "1.5"),
            ("bootstrap_turn_deg", "45"),
        )
    },
}


def _simulate_bytes(settings: dict[str, str]) -> str:
    args = ["--set", "world.duration_s=50"]
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(args + ["--out-dir", out, "simulate"]) == 0, settings
        return _files_digest(Path(out))


def test_every_world_and_tracker_key_changes_the_output():
    sections = ("world", "channel", "hotcold", "trilateration")
    assert set(LIVE_KEYS) == {f"{s}.{key}" for s in sections for key in DEFAULTS[s]}
    dead = []
    for key, (value, companions) in LIVE_KEYS.items():
        section, name = key.split(".")
        assert value != DEFAULTS[section][name], key
        if _simulate_bytes(companions) == _simulate_bytes(companions | {key: value}):
            dead.append(key)
    assert dead == []


def test_robot_heading_applies_to_a_blank_start(tmp_path, capsys):
    args = ["--set", "world.duration_s=20"]
    assert run_cli(args + ["--out-dir", str(tmp_path / "default"), "simulate"]) == 0
    turned = args + ["--set", "world.robot_heading_deg=90"]
    assert run_cli(turned + ["--out-dir", str(tmp_path / "turned"), "simulate"]) == 0
    centered = turned + ["--set", "world.robot_start_x_m=50", "--set", "world.robot_start_y_m=50"]
    assert run_cli(centered + ["--out-dir", str(tmp_path / "centered"), "simulate"]) == 0
    default, turned, centered = (
        (tmp_path / name / "trace.csv").read_bytes() for name in ("default", "turned", "centered")
    )
    assert turned != default
    assert turned == centered  # a blank start is the space center


@pytest.mark.parametrize("command", [["grid"], ["report", "--figures", "fig5,fig8"]])
def test_comparison_sws_outside_the_grid_are_named(tmp_path, capsys, command):
    args = TINY_GRID + ["--set", "grid.comparison_sws=3,9,11", "--out-dir", str(tmp_path)]
    assert run_cli(args + command) == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "grid.comparison_sws 9,11 not in grid.sws_values" in err
    curves = {line.split(",")[0] for line in (tmp_path / "fig8.csv").read_text().splitlines()[1:]}
    assert curves == {"hotcold_sws3", "trilateration", "static"}
    assert run_cli(TINY_GRID + ["--out-dir", str(tmp_path / "all_in")] + command) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "args",
    [
        ["--runs", "0", "scenario", "--preset", "scenario1"],
        ["--runs", "-1", "scenario", "--preset", "scenario1"],
        ["scenario", "--preset", "scenario1", "--sigma", "nan"],
        ["scenario", "--preset", "scenario1", "--sigma", "-1"],
        ["scenario", "--preset", "scenario1", "--sigma", "inf"],
        ["--runs", "0", "report", "--figures", "fig12"],
        ["--runs", "0", "report", "--figures", "fig2,fig12"],  # checked before fig2 is written
    ],
)
def test_scenario_flags_out_of_bounds_exit_2(tmp_path, capsys, args):
    assert run_cli(["--out-dir", str(tmp_path)] + args) == 2
    assert capsys.readouterr().err.startswith("error: --")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        run_cli(TINY_GRID + ["--out-dir", str(tmp_path), "--workers", workers, "grid"])
    assert exc.value.code == 2
    assert f"argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "grid_runs.csv").exists()


def test_cli_import_leaves_the_process_pool_out():
    import subprocess
    import sys

    code = "import sys, hotcold.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
