import contextlib
import hashlib
import io
import json
import math
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hotcold import analysis, cli, engine, experiments
from hotcold.analysis import exhaustive_sweep, rotation_sweep
from hotcold.cli import main
from hotcold.config import DEFAULTS
from hotcold.engine import Rect, WorldConfig
from hotcold.tracker import HotColdConfig
from hotcold.trilateration import TrilaterationConfig
from traced import traced_run


def run_cli(args):
    return main(list(args))


def _one_angle_sweeps(monkeypatch):
    """report's two sweeps at one angle, for the tests of its wiring."""
    monkeypatch.setattr(analysis, "rotation_sweep", partial(rotation_sweep, range(139, 140)))
    monkeypatch.setattr(analysis, "exhaustive_sweep", partial(exhaustive_sweep, range(139, 140)))


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


def test_simulate_streams_the_trace_of_a_run(tmp_path, monkeypatch):
    """simulate writes trace.csv a chunk at a time, the bytes of the whole
    trace; the formatter's calls sum to the run's records and bytes, the
    header counted once."""
    keys = ["--set", "world.duration_s=4097", "--set", "world.tracker=trilateration",
            "--set", "world.obstacles=38:44:44:48; 55:52:58:60"]  # 8194 cycles, three chunks
    calls = []
    lines = engine.trace_csv_lines

    def counted(trace, *args):
        calls.append(lines(trace, *args))
        return calls[-1]

    monkeypatch.setattr(engine, "trace_csv_lines", counted)
    assert run_cli(keys + ["--out-dir", str(tmp_path / "run"), "simulate"]) == 0
    monkeypatch.undo()
    streamed = (tmp_path / "run" / "trace.csv").read_bytes()
    config = WorldConfig(duration_s=4097.0, tracker=TrilaterationConfig(),
                         obstacles=(Rect(38.0, 44.0, 44.0, 48.0), Rect(55.0, 52.0, 58.0, 60.0)))
    _, trace = traced_run(config)
    with open(tmp_path / "whole.csv", "w", newline="") as fh:
        engine.trace_csv_sink(fh)(trace)
    assert streamed == (tmp_path / "whole.csv").read_bytes()
    assert [len(c) for c in calls] == [engine.NORMALS_CHUNK + 1, engine.NORMALS_CHUNK, 2]
    assert sum(len(line) + 1 for c in calls for line in c) == len(streamed)


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main parses with one parser per process; nothing a call parses may
    # reach the next call, also when the parse exits 2
    assert cli.build_parser() is cli.build_parser()
    short = ["--set", "world.duration_s=20", "--set", "channel.shadowing_sigma_db=2"]
    assert run_cli(short + ["--out-dir", str(tmp_path / "short"), "simulate"]) == 0
    assert run_cli(short + ["verify-lemmas"]) == 2  # verify-lemmas reads no --set
    with pytest.raises(SystemExit) as exc:
        run_cli(short + ["no-such-command"])
    assert exc.value.code == 2
    assert run_cli(["--out-dir", str(tmp_path / "default"), "simulate"]) == 0
    totals = [json.loads((tmp_path / name / "metrics.json").read_text())["total_cycles"]
              for name in ("short", "default")]
    assert totals == [40, WorldConfig().total_cycles]
    assert cli.build_parser().get_default("overrides") == []


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


# sha256 of the two files that `rotation-sweep` writes
FIG2_FIG3_SHA256 = {
    "fig2.csv": "6eafa2904373d5902ee81ed19fdc1724bca525856be6fee522c54fe0aaeb8e89",
    "fig3.csv": "8d99fd2428ed7c66ebccb220cd98f788fd93079ecc776c360abf2bfe31144e4a",
}


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
    for name, digest in FIG2_FIG3_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_verify_lemmas_command(capsys, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("HOTCOLD_OUT_DIR", str(out))
    assert run_cli(["verify-lemmas"]) == 0
    assert "violations 0" in capsys.readouterr().out
    assert not out.exists()  # it writes nothing


CONFIG_FREE_COMMANDS = [
    ["rotation-sweep"], ["exhaustive-sweep"], ["verify-lemmas"],
    ["scenario", "--preset", "scenario1"],
]


@pytest.mark.parametrize("command", CONFIG_FREE_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("flag", ["--config", "--set"])
def test_config_free_commands_refuse_config_and_set(tmp_path, capsys, command, flag):
    value = str(tmp_path / "missing.ini") if flag == "--config" else "world.seed=1"
    out = tmp_path / "out"
    out_dir = [] if command == ["verify-lemmas"] else ["--out-dir", str(out)]
    assert run_cli([flag, value] + out_dir + command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"does not read {flag};" in err
    assert not out.exists()


# command -> the global flags it reads; it refuses the others
READS = {
    "simulate": ("--config", "--set", "--seed", "--quick", "--out-dir"),
    "grid": ("--config", "--set", "--seed", "--quick", "--out-dir", "--runs", "--workers"),
    "report": ("--config", "--set", "--seed", "--quick", "--out-dir", "--runs", "--workers"),
    "rotation-sweep": ("--out-dir",),
    "exhaustive-sweep": ("--out-dir",),
    "verify-lemmas": ("--seed",),
    "scenario": ("--seed", "--runs", "--quick", "--out-dir"),
}
COMMAND_ARGV = {"scenario": ["scenario", "--preset", "scenario1"]}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, reads in READS.items() for flag in READS["grid"]
    if flag not in reads
])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, monkeypatch, command, flag):
    out = tmp_path / "out"
    monkeypatch.setenv("HOTCOLD_OUT_DIR", str(out))
    value = {"--config": [str(tmp_path / "x.ini")], "--set": ["world.seed=1"], "--seed": ["1"],
             "--out-dir": [str(out)], "--runs": ["5"], "--quick": [], "--workers": ["1"]}[flag]
    assert run_cli([flag, *value] + COMMAND_ARGV.get(command, [command])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} does not read {flag};") and err.count("\n") == 1, err
    assert not out.exists()


def test_every_unread_flag_is_named(tmp_path, capsys):
    argv = ["--runs", "5", "--workers", "3", "--quick", "--out-dir", str(tmp_path / "x")]
    assert run_cli(argv + ["verify-lemmas"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: verify-lemmas does not read --out-dir, --runs, --quick, --workers; "
                   "it reads --seed\n")
    assert not (tmp_path / "x").exists()


def test_scenario_command(tmp_path):
    out = tmp_path / "scen"
    code = run_cli(
        ["--seed", "3", "--runs", "2", "--out-dir", str(out), "scenario", "--preset", "scenario2"]
    )
    assert code == 0
    lines = (out / "fig12_scenario2.csv").read_text().splitlines()
    assert lines[0] == "iteration,time_s,distance_m"
    assert lines[1].startswith("0,0.000000,25.")


@pytest.mark.parametrize("name", experiments.SCENARIO_NAMES)
def test_scenario_iteration_is_the_simulate_run_of_its_keys(tmp_path, capsys, name):
    sigma, iteration = experiments.SCENARIO_SIGMA_DB, 1
    scenario = ["--seed", "3", "--runs", "2", "--out-dir", str(tmp_path / "scenario")]
    assert run_cli(scenario + ["scenario", "--preset", name]) == 0
    keys = ["--set", f"channel.shadowing_sigma_db={sigma}"]
    for key, value in experiments.SCENARIO_WORLDS[name].items():
        keys += ["--set", f"world.{key}={value}"]
    seed = experiments.derive_seed(3, name, sigma, iteration)
    sim = tmp_path / "sim"
    assert run_cli(["--seed", str(seed), "--out-dir", str(sim)] + keys + ["simulate"]) == 0

    fig12 = (tmp_path / "scenario" / f"fig12_{name}.csv").read_text().splitlines()[1:]
    rows = [row.split(",") for row in fig12 if row.startswith(f"{iteration},")][1:]  # after t=0
    trace = [row.split(",") for row in (sim / "trace.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(trace) == 120
    for (_, time_s, gap), (t, x, y, _, tx, ty, *_) in zip(rows, trace):
        assert time_s == t
        # the trace prints positions to 1e-6 m
        assert float(gap) == pytest.approx(math.hypot(float(x) - float(tx), float(y) - float(ty)),
                                           abs=3e-6)
    # and bit for bit: the iteration's own trace and metrics
    result = experiments.run_scenario(name, 2, sigma, 3)
    with open(tmp_path / "iteration.csv", "w", newline="") as fh:
        engine.run_simulation(result.configs[iteration], sink=engine.trace_csv_sink(fh))
    assert (tmp_path / "iteration.csv").read_bytes() == (sim / "trace.csv").read_bytes()
    metrics = json.loads((sim / "metrics.json").read_text())
    assert metrics["average_distance_m"] == result.metrics[iteration].average_distance_m


def test_report_grid_figures(tmp_path, monkeypatch):
    _one_angle_sweeps(monkeypatch)
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
        ]
    )
    assert code == 0
    for name in ("grid_runs", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"):
        assert (out / f"{name}.csv").exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid"]["best_sws_by_mean_average_distance"] in (3, 4)


TINY_GRID = [
    "--seed", "5", "--runs", "2", "--set", "world.duration_s=10", "--set", "grid.sws_values=3,4",
    "--set", "grid.sigma_values=0,2", "--set", "grid.comparison_sws=3,4",
]


@pytest.mark.parametrize("command", [["grid"], ["report"]])
def test_failed_grid_runs_exit_1_after_writing(tmp_path, capsys, monkeypatch, command):
    _one_angle_sweeps(monkeypatch)
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


def test_bad_inputs_exit_nonzero(tmp_path, capsys):
    out = tmp_path / "out"  # an input error must not make it
    # report writes every figure: a subset is its family command
    with pytest.raises(SystemExit) as exc:
        run_cli(["--out-dir", str(out), "report", "--figures", "fig99"])
    assert exc.value.code == 2
    assert run_cli(["--out-dir", str(out), "--set", "grid.trackers=static", "report"]) == 2
    assert "error: ['fig5', 'fig6', 'fig7'] need hotcold in grid.trackers" in capsys.readouterr().err
    assert (
        run_cli(["--out-dir", str(out), "--set", "world.duration_s=1.3", "simulate"]) == 2
    )
    assert run_cli(["--out-dir", str(out), "--set", "world.duration_s=1e12", "simulate"]) == 2
    # a step of inf m, and finite positions whose distance sum overflows
    for duration, period in (("1e308", "1e305"), ("1e306", "1e303")):
        overflow = ["--set", f"world.duration_s={duration}", "--set", f"world.cycle_period_s={period}"]
        assert run_cli(["--out-dir", str(out)] + overflow + ["simulate"]) == 2
        assert run_cli(["--out-dir", str(out), "--quick"] + overflow + ["grid"]) == 2
        assert not out.exists()
    # a robot that starts inside an obstacle reads 0 cm on both sensors and only ever avoids
    trapped = ["--set", "world.obstacles=45:45:55:55", "simulate"]
    assert run_cli(["--out-dir", str(out)] + trapped) == 2
    assert not out.exists()
    assert run_cli(["--out-dir", str(out), "--set", "bogus=1", "simulate"]) == 2
    # Hot-Cold always moves the world's robot step: no step size key
    assert run_cli(["--out-dir", str(out), "--set", "hotcold.step_size_m=1", "simulate"]) == 2
    # a grid axis value that no point's channel or tracker config accepts
    for axis in ("grid.sigma_values=-1", "grid.sigma_values=nan", "grid.sws_values=0"):
        assert run_cli(TINY_GRID + ["--out-dir", str(out), "--set", axis, "grid"]) == 2
    # a repeated axis value ran its points again on the same seeds and drew
    # its fig8 curve twice, each std taken over the duplicated runs
    capsys.readouterr()
    for axis in ("grid.sws_values=4,4", "grid.sigma_values=2,2", "grid.comparison_sws=4,4"):
        assert run_cli(TINY_GRID + ["--out-dir", str(out), "--set", axis, "grid"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "repeats a value" in err
    repeated = ["--runs", "2", "--set", "world.duration_s=5", "--set", "grid.sigma_values=2,2",
                "--set", "grid.sws_values=4,4", "--set", "grid.comparison_sws=4,4", "grid"]
    assert run_cli(["--out-dir", str(out)] + repeated) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()
    # a fixed path that would be ignored under another mobility model
    ignored = ["--set", "world.fixed_path=0:10:10; 30:90:90", "simulate"]
    assert run_cli(["--out-dir", str(out), "--set", "world.duration_s=50"] + ignored) == 2
    # a clockwise turn is a negative rotation angle: no direction key
    direction = ["--set", "hotcold.rotation_direction=cw", "simulate"]
    assert run_cli(["--out-dir", str(out)] + direction) == 2
    assert not out.exists()
    # numpy rejects a negative seed with a traceback; the CLI checks it first
    assert run_cli(["--seed", "-1", "verify-lemmas"]) == 2
    assert not out.exists()
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
    out = tmp_path / "out"
    assert run_cli(["--out-dir", str(out), "--set", override, "simulate"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


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
    "grid": "5b7c50f898934c3673181bcd10250b9baebca71848a31a072a0519b292c95b33",
    "scenario1": "bb17d9c6d997fa3593d0c4ed44de18e87058f5f7f59eacb1600ab27e8a8999ea",
    "scenario2": "098270538e9a2ed9fd4e134991ef8a9e9f468e6d8a03469041d6b650919238bd",
    "scenario3": "69d348d68eb790807a874d1d509b727c3b587c73630bed72ab8df65f637df46c",
}


@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_command_output_bytes_pinned(tmp_path, capsys, name):
    assert run_cli(["--out-dir", str(tmp_path)] + PINNED_COMMANDS[name]) == 0
    assert _files_digest(tmp_path) == PINNED_COMMAND_DIGESTS[name]


# sha256 of the fig4.csv that `exhaustive-sweep` writes
FIG4_SHA256 = "6b8342a8056d75ec565e85478616c7cf9facb687d60001634e1e46cbafc2352c"


def test_exhaustive_sweep_command_bytes_pinned(tmp_path, capsys):
    assert run_cli(["--out-dir", str(tmp_path), "exhaustive-sweep"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["fig4.csv"]
    assert hashlib.sha256((tmp_path / "fig4.csv").read_bytes()).hexdigest() == FIG4_SHA256


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One `QUICK_GRID` `report`, read by the tests of what it writes."""
    out = tmp_path_factory.mktemp("report")
    assert run_cli(QUICK_GRID + ["--out-dir", str(out), "report"]) == 0
    return out


def _family_digest(report: Path, names, tmp_path: Path) -> str:
    """`_files_digest` of the named report files alone, copied aside."""
    for name in names:
        (tmp_path / name).write_bytes((report / name).read_bytes())
    return _files_digest(tmp_path)


def test_report_figures_subset(tmp_path, capsys, quick_report):
    # report is the family commands in one directory plus summary.json; figs
    # 2/3 are rotation-sweep's bytes and fig4 is exhaustive-sweep's
    written = ["fig2.csv", "fig3.csv", "fig4.csv", "summary.json", "grid_runs.csv",
               *(f"fig{n}.csv" for n in range(5, 11)),
               *(f"fig12_{name}.csv" for name in experiments.SCENARIO_NAMES)]
    assert sorted(p.name for p in quick_report.iterdir()) == sorted(written)
    assert run_cli(["--out-dir", str(tmp_path), "rotation-sweep"]) == 0
    for name in ("fig2.csv", "fig3.csv"):
        assert (quick_report / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert hashlib.sha256((quick_report / "fig4.csv").read_bytes()).hexdigest() == FIG4_SHA256
    summary = json.loads((quick_report / "summary.json").read_text())
    assert sorted(summary) == ["convergence", "exhaustive_sweep", "grid", "rotation_sweep"]
    assert summary["rotation_sweep"]["best_phi_deg"] == 139
    assert summary["exhaustive_sweep"]["best_phi_deg"] == 135
    assert summary["grid"]["best_sws_by_mean_average_distance"] in (3, 4)
    assert summary["convergence"]["total_violations"] == 0


def test_grid_and_report_write_the_same_figures(tmp_path, quick_report):
    # grid_runs.csv and figs 5-10 of report are the bytes `grid` writes
    names = ["grid_runs.csv"] + [f"fig{n}.csv" for n in range(5, 11)]
    assert _family_digest(quick_report, names, tmp_path) == PINNED_COMMAND_DIGESTS["grid"]


def test_report_fig12_writes_the_scenario_outputs(tmp_path, quick_report):
    # each fig12 file of report is the bytes `scenario --preset` writes
    for name in experiments.SCENARIO_NAMES:
        (tmp_path / name).mkdir()
        digest = _family_digest(quick_report, [f"fig12_{name}.csv"], tmp_path / name)
        assert digest == PINNED_COMMAND_DIGESTS[name], name


def test_workers_2_grid_equals_the_serial_grid(tmp_path, capsys):
    assert run_cli(QUICK_GRID + ["--out-dir", str(tmp_path), "--workers", "2", "grid"]) == 0
    assert _files_digest(tmp_path) == PINNED_COMMAND_DIGESTS["grid"]


def test_simulate_reproduces_every_grid_row(tmp_path, capsys):
    # a grid_runs.csv row is the `simulate` run of the row's seed (its run
    # index's seed, shared by every point) with the point's keys
    grid_out = tmp_path / "grid"
    assert run_cli(QUICK_GRID + ["--runs", "2", "--out-dir", str(grid_out), "grid"]) == 0
    header, *rows = (grid_out / "grid_runs.csv").read_text().splitlines()
    columns = header.split(",")
    assert len(rows) == 8 * 2
    for i, row in enumerate(rows):
        cells = dict(zip(columns, row.split(",")))
        keys = [f"world.tracker={cells['tracker']}", f"channel.shadowing_sigma_db={cells['sigma_db']}",
                "world.duration_s=20"]
        if cells["sws"]:
            keys.append(f"hotcold.sws={cells['sws']}")
        out = tmp_path / f"row{i}"
        args = [arg for key in keys for arg in ("--set", key)]
        assert run_cli(args + ["--seed", cells["seed"], "--out-dir", str(out), "simulate"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        kpis = columns[columns.index("seed") + 1:]
        written = [str(v) if isinstance(v, int) else f"{v:.6f}" for v in map(metrics.get, kpis)]
        assert written == [cells[k] for k in kpis], row


@pytest.mark.parametrize("config_text, args", [
    (None, ["simulate"]),  # the --config path does not exist
    ("duration_s = 5\n", ["simulate"]),  # no section header
    ("[bogus]\nx = 1\n", ["simulate"]),
    ("", ["--set", "world.obstacles=1:2:a:4", "simulate"]),
    ("", ["--set", "grid.sws_values=,", "grid"]),
    ("", ["--set", "world.mobility=fixed_path", "simulate"]),  # world.fixed_path left blank
    # each world input has one spelling: a standing target is a one-point
    # world.fixed_path, and the halt threshold comes from world.halt_distance_m
    ("", ["--set", "world.mobility=static", "simulate"]),
    ("", ["--set", "world.target_start_x_m=5", "simulate"]),
    ("", ["--set", "hotcold.halt_threshold_dbm=-60", "simulate"]),
    ("[hotcold]\nhalt_threshold_dbm = -60\n", ["simulate"]),
    # report builds and checks its config before it runs anything
    ("", ["--set", "world.duration_s=abc", "report"]),
    ("", ["--set", "grid.master_seed=-3", "--quick", "grid"]),  # as world.seed
], ids=["unreadable", "no-section", "unknown-section", "obstacle-not-numeric", "empty-axis",
        "fixed-path-blank", "static-mobility", "target-start", "halt-threshold-set",
        "halt-threshold-ini", "report-bad-world-key", "negative-master-seed"])
def test_input_errors_exit_2_and_write_nothing(tmp_path, capsys, config_text, args):
    config = tmp_path / "config.ini"
    if config_text is not None:
        config.write_text(config_text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(config), "--out-dir", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


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
    "world.mobility": ("fixed_path", {}),
    "world.robot_start_x_m": (
        "20", {"world.robot_start_x_m": "50", "world.robot_start_y_m": "50"}
    ),
    "world.robot_start_y_m": (
        "20", {"world.robot_start_x_m": "50", "world.robot_start_y_m": "50"}
    ),
    "world.robot_heading_deg": (
        "90", {"world.robot_start_x_m": "50", "world.robot_start_y_m": "50"}
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


# a key that changes only together with another: key -> the other's setting
# (world.fixed_path is refused unless world.mobility=fixed_path)
ALONG_WITH = {"world.mobility": {"world.fixed_path": "0:80:60"}}


def test_every_world_and_tracker_key_changes_the_output():
    sections = ("world", "channel", "hotcold", "trilateration")
    assert set(LIVE_KEYS) == {f"{s}.{key}" for s in sections for key in DEFAULTS[s]}
    dead = []
    for key, (value, companions) in LIVE_KEYS.items():
        section, name = key.split(".")
        assert value != DEFAULTS[section][name], key
        changed = companions | {key: value} | ALONG_WITH.get(key, {})
        if _simulate_bytes(companions) == _simulate_bytes(changed):
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


@pytest.mark.parametrize("command", [["grid"], ["report"]])
def test_comparison_sws_outside_the_grid_are_named(tmp_path, capsys, monkeypatch, command):
    _one_angle_sweeps(monkeypatch)
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
        # checked before any figure is written
        ["--runs", "0", "report"],
        ["--runs", "-1", "report"],
        ["--seed", "-1", "scenario", "--preset", "scenario1"],  # as every other command
    ],
)
def test_scenario_flags_out_of_bounds_exit_2(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run_cli(["--out-dir", str(out)] + args) == 2
    assert capsys.readouterr().err.startswith("error: --")
    assert not out.exists()


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


def test_simulate_loads_neither_the_sweep_kernels_nor_statistics_nor_hashlib(tmp_path):
    """A fresh `import hotcold.cli`, and then a `simulate`, load none of the
    three; what numpy loads is the baseline, numpy.random's too for the run
    (its seeding loads hashlib through secrets)."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, numpy\n"
        "lazy = {'hotcold.analysis', 'statistics', 'hashlib'}\n"
        "base = set(sys.modules)\n"
        "from hotcold.cli import main\n"
        "print(','.join(sorted(lazy & (set(sys.modules) - base))))\n"
        "import numpy.random\n"
        "base |= set(sys.modules)\n"
        "argv = ['--out-dir', sys.argv[1], '--set', 'world.duration_s=10', 'simulate']\n"
        "assert main(argv) == 0\n"
        "print(','.join(sorted(lazy & (set(sys.modules) - base))))\n"
        "import hotcold\n"
        "print(hotcold.analysis.exhaustive_sweep.__name__)\n"
        "try:\n"
        "    hotcold.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.splitlines()
    assert [out[0], *out[-3:]] == ["", "", "exhaustive_sweep", "AttributeError"]
