"""INI experiment configuration: defaults, loading, and key=value overrides.

One flat, versioned schema with sections [meta], [world], [channel],
[hotcold], [trilateration], and [grid]. Any key can be overridden on the
command line as section.key=value. Blank values mean "derive a default"
where the schema says so.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .channel import ChannelParams
from .engine import (
    FixedPath,
    RandomWaypoint,
    Rect,
    StaticControl,
    StaticTarget,
    WorldConfig,
)
from .experiments import ExperimentGrid
from .geometry import Pose, Vec2
from .tracker import HotColdConfig, RotationDirection
from .trilateration import TrilaterationConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unparsable experiment configuration."""


DEFAULTS: dict[str, dict[str, str]] = {
    "meta": {"version": str(SCHEMA_VERSION)},
    "world": {
        "width_m": "100.0",
        "height_m": "100.0",
        "duration_s": "1000.0",
        "cycle_period_s": "0.5",
        "robot_speed_kmh": "7.2",
        "target_speed_kmh": "3.6",
        "halt_distance_m": "3.0",
        "seed": "1",
        "tracker": "hotcold",  # hotcold | trilateration | static
        "mobility": "random_waypoint",  # random_waypoint | static | fixed_path
        "robot_start_x_m": "",  # blank: space center
        "robot_start_y_m": "",
        "robot_heading_deg": "0.0",
        "target_start_x_m": "",  # blank: drawn uniformly (random_waypoint only)
        "target_start_y_m": "",
        "fixed_path": "",  # "t:x:y; t:x:y; ..." for mobility=fixed_path
        "obstacles": "",  # "xmin:ymin:xmax:ymax; ..." axis-aligned rectangles
    },
    "channel": {
        "tx_power_dbm": "0.0",
        "tx_gain_dbi": "0.0",
        "rx_gain_dbi": "2.0",
        "frequency_hz": "2.4e9",
        "path_loss_exponent": "2.8",
        "shadowing_sigma_db": "0.0",
        "rx_sensitivity_dbm": "-94.0",
    },
    "hotcold": {
        "sws": "4",
        "rotation_angle_deg": "137.0",
        "rotation_direction": "ccw",
        "halt_threshold_dbm": "",  # blank: derived from halt_distance_m
    },
    "trilateration": {
        "k_observations": "3",
        "min_spacing_m": "0.5",
        "condition_threshold": "1e6",
        "bootstrap_turn_deg": "20.0",
    },
    "grid": {
        "sws_values": "1,2,3,4,5,6,7,8,9,10",
        "sigma_values": "0,1,2,3,4,5,6",
        "trackers": "hotcold,trilateration,static",
        "runs_per_point": "5",
        "master_seed": "1",
        "comparison_sws": "3,4,5,6,7",
    },
}


def default_config() -> dict[str, dict[str, str]]:
    return {section: dict(keys) for section, keys in DEFAULTS.items()}


def load_config(path: str | Path | None) -> dict[str, dict[str, str]]:
    """Defaults overlaid with an optional INI file; unknown keys are errors."""
    cfg = default_config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in cfg[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            cfg[section][key] = value
    version = cfg["meta"]["version"]
    if version != str(SCHEMA_VERSION):
        raise ConfigError(f"unsupported config version {version!r} (expected {SCHEMA_VERSION})")
    return cfg


def apply_overrides(cfg: dict[str, dict[str, str]], overrides: list[str]) -> None:
    """Apply command-line section.key=value overrides in place."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, key = dotted.split(".", 1)
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        cfg[section][key] = value


def _get_float(cfg, section, key) -> float:
    raw = cfg[section][key]
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from exc


def _get_int(cfg, section, key) -> int:
    raw = cfg[section][key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from exc


def _get_opt_float(cfg, section, key) -> float | None:
    raw = cfg[section][key].strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be a number or blank, got {raw!r}") from exc


def _parse_points(raw: str, what: str, parts: int) -> list[tuple[float, ...]]:
    rows = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split(":")
        if len(fields) != parts:
            raise ConfigError(f"{what} entry {chunk!r} must have {parts} ':'-separated numbers")
        try:
            rows.append(tuple(float(f) for f in fields))
        except ValueError as exc:
            raise ConfigError(f"{what} entry {chunk!r} is not numeric") from exc
    return rows


def build_channel(cfg) -> ChannelParams:
    # every [channel] key is a ChannelParams field of the same name
    try:
        return ChannelParams(**{key: _get_float(cfg, "channel", key) for key in cfg["channel"]})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_tracker(cfg, name: str, key: str = "world.tracker"):
    """The config of the tracker called `name`, from that tracker's section."""
    name = name.strip().lower()
    try:
        if name == "hotcold":
            direction = cfg["hotcold"]["rotation_direction"].strip().lower()
            if direction not in ("ccw", "cw"):
                raise ConfigError(f"hotcold.rotation_direction must be ccw or cw, got {direction!r}")
            return HotColdConfig(
                sws=_get_int(cfg, "hotcold", "sws"),
                rotation_angle_deg=_get_float(cfg, "hotcold", "rotation_angle_deg"),
                rotation_direction=RotationDirection(direction),
                halt_threshold_dbm=_get_opt_float(cfg, "hotcold", "halt_threshold_dbm"),
            )
        if name == "trilateration":
            return TrilaterationConfig(
                k_observations=_get_int(cfg, "trilateration", "k_observations"),
                min_spacing_m=_get_float(cfg, "trilateration", "min_spacing_m"),
                condition_threshold=_get_float(cfg, "trilateration", "condition_threshold"),
                bootstrap_turn_deg=_get_float(cfg, "trilateration", "bootstrap_turn_deg"),
            )
        if name == "static":
            return StaticControl()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"{key} must be hotcold, trilateration, or static, got {name!r}")


def build_mobility(cfg):
    name = cfg["world"]["mobility"].strip().lower()
    tx = _get_opt_float(cfg, "world", "target_start_x_m")
    ty = _get_opt_float(cfg, "world", "target_start_y_m")
    try:
        if name == "random_waypoint":
            start = Vec2(tx, ty) if tx is not None and ty is not None else None
            return RandomWaypoint(start=start)
        if name == "static":
            if tx is None or ty is None:
                raise ConfigError("mobility=static requires world.target_start_x_m/y_m")
            return StaticTarget(Vec2(tx, ty))
        if name == "fixed_path":
            rows = _parse_points(cfg["world"]["fixed_path"], "world.fixed_path", 3)
            if not rows:
                raise ConfigError("mobility=fixed_path requires world.fixed_path waypoints")
            return FixedPath(tuple((t, Vec2(x, y)) for t, x, y in rows))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(
        f"world.mobility must be random_waypoint, static, or fixed_path, got {name!r}"
    )


def build_world(cfg) -> WorldConfig:
    rx = _get_opt_float(cfg, "world", "robot_start_x_m")
    ry = _get_opt_float(cfg, "world", "robot_start_y_m")
    if (rx is None) != (ry is None):
        raise ConfigError("set both or neither of world.robot_start_x_m / robot_start_y_m")
    try:
        robot_start = None
        if rx is not None and ry is not None:
            heading = math.radians(_get_float(cfg, "world", "robot_heading_deg"))
            robot_start = Pose(Vec2(rx, ry), heading)
        obstacles = tuple(
            Rect(*row) for row in _parse_points(cfg["world"]["obstacles"], "world.obstacles", 4)
        )
        return WorldConfig(
            width_m=_get_float(cfg, "world", "width_m"),
            height_m=_get_float(cfg, "world", "height_m"),
            duration_s=_get_float(cfg, "world", "duration_s"),
            cycle_period_s=_get_float(cfg, "world", "cycle_period_s"),
            robot_speed_kmh=_get_float(cfg, "world", "robot_speed_kmh"),
            target_speed_kmh=_get_float(cfg, "world", "target_speed_kmh"),
            halt_distance_m=_get_float(cfg, "world", "halt_distance_m"),
            channel=build_channel(cfg),
            tracker=build_tracker(cfg, cfg["world"]["tracker"]),
            mobility=build_mobility(cfg),
            obstacles=obstacles,
            seed=_get_int(cfg, "world", "seed"),
            robot_start=robot_start,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_list(cfg, section: str, key: str, kind):
    values = []
    for chunk in cfg[section][key].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(kind(chunk))
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} entry {chunk!r} is not a {kind.__name__}") from exc
    if not values:
        raise ConfigError(f"{section}.{key} must not be empty")
    return values


def build_grid(cfg, base: WorldConfig) -> ExperimentGrid:
    try:
        return ExperimentGrid(
            sws_values=tuple(_parse_list(cfg, "grid", "sws_values", int)),
            sigma_values=tuple(_parse_list(cfg, "grid", "sigma_values", float)),
            trackers=tuple(
                build_tracker(cfg, name, "grid.trackers")
                for name in _parse_list(cfg, "grid", "trackers", str)
            ),
            runs_per_point=_get_int(cfg, "grid", "runs_per_point"),
            master_seed=_get_int(cfg, "grid", "master_seed"),
            comparison_sws=tuple(_parse_list(cfg, "grid", "comparison_sws", int)),
            base=base,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_default_config(path: str | Path) -> None:
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    with open(path, "w") as fh:
        parser.write(fh)
