"""INI experiment configuration: defaults, loading, and key=value overrides.

One flat, versioned schema with sections [meta], [world], [channel],
[hotcold], [trilateration], and [grid]. Each config dataclass is the schema
of its section: every field of a type read from one value (int, float,
float | None, a tuple of numbers) is the key of the same name, with the
field's default. The composite [world] keys (tracker, mobility,
starts, fixed path, obstacles) and grid.trackers are read by hand. Any key
can be overridden on the command line as section.key=value. Blank values
mean "derive a default" where the schema says so.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import fields, replace
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .channel import ChannelParams
from .engine import MAX_EXTENT_M, TRACKERS, FixedPath, RandomWaypoint, Rect, WorldConfig, within_extent
from .experiments import ExperimentGrid
from .geometry import Pose, Vec2

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unparsable experiment configuration."""


# scalar field type -> (parser of one INI value, what the value must be)
_SCALARS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    float | None: (lambda raw: float(raw) if raw.strip() else None, "a number or blank"),
    str: (str.strip, "text"),
}


@cache
def _reader(tp):
    """read(raw, key) of one INI value as a field of type `tp`: a tuple
    type reads a non-empty comma list. None when no INI key has that type."""
    if get_origin(tp) is tuple:
        item = _reader(get_args(tp)[0])

        def read_items(raw: str, key: str) -> tuple:
            values = tuple(item(c, f"{key} entry") for c in map(str.strip, raw.split(",")) if c)
            if not values:
                raise ConfigError(f"{key} must not be empty")
            return values

        return read_items if item else None
    if tp not in _SCALARS:
        return None
    parse, what = _SCALARS[tp]

    def read(raw: str, key: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be {what}, got {raw!r}") from exc

    return read


@cache
def _keys(cls) -> dict[str, object]:
    """Key -> reader of every INI key of config dataclass `cls`."""
    hints = get_type_hints(cls)
    return {f.name: read for f in fields(cls) if (read := _reader(hints[f.name]))}


def _default_str(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _section(cls) -> dict[str, str]:
    """The INI keys of config dataclass `cls`, with its defaults."""
    default = cls()
    return {key: _default_str(getattr(default, key)) for key in _keys(cls)}


DEFAULTS: dict[str, dict[str, str]] = {
    "meta": {"version": str(SCHEMA_VERSION)},
    "world": {
        **_section(WorldConfig),
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
    "channel": _section(ChannelParams),
    # a tracker with no tunables (static) has no section
    **{cls.name: _section(cls) for cls in TRACKERS if _keys(cls)},
    "grid": {**_section(ExperimentGrid), "trackers": ",".join(ExperimentGrid().tracker_names)},
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
    except (OSError, configparser.Error) as exc:  # some parser messages span lines
        raise ConfigError(f"cannot read config {path}: {exc}".replace("\n", " ")) from exc
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


def _get(cfg, section: str, key: str, tp):
    """INI value section.key read as a field of type `tp`."""
    return _reader(tp)(cfg[section][key], f"{section}.{key}")


def _read(cfg, section: str, cls, **composite):
    """Config dataclass `cls` from its INI section; `composite` gives the
    fields that are not INI keys."""
    keys = _keys(cls).items()
    return cls(**{key: read(cfg[section][key], f"{section}.{key}") for key, read in keys}, **composite)


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


def build_tracker(cfg, name: str, key: str = "world.tracker"):
    """The config of the tracker called `name`, from that tracker's section;
    its own checks raise ValueError."""
    name = name.strip().lower()
    trackers = {cls.name: cls for cls in TRACKERS}
    if name not in trackers:
        raise ConfigError(f"{key} must be one of {', '.join(trackers)}, got {name!r}")
    return _read(cfg, name, trackers[name])


def _start(cfg, what: str) -> Vec2 | None:
    """The world.<what>_start_x_m/y_m point; None when both are blank."""
    x = _get(cfg, "world", f"{what}_start_x_m", float | None)
    y = _get(cfg, "world", f"{what}_start_y_m", float | None)
    if (x is None) != (y is None):
        raise ConfigError(f"set both or neither of world.{what}_start_x_m / {what}_start_y_m")
    return None if x is None else Vec2(x, y)


def build_mobility(cfg):
    name = cfg["world"]["mobility"].strip().lower()
    try:
        start = _start(cfg, "target")
        if start is not None and not within_extent(start):
            raise ConfigError(f"world.target_start_x_m/y_m must lie within +-{MAX_EXTENT_M:g} m, "
                              f"got ({start.x}, {start.y})")
        if name != "fixed_path" and cfg["world"]["fixed_path"].strip():
            raise ConfigError(f"world.fixed_path needs mobility=fixed_path, got {name!r}")
        if name == "random_waypoint":
            return RandomWaypoint(start=start)
        if name == "static":
            if start is None:
                raise ConfigError("mobility=static requires world.target_start_x_m/y_m")
            return FixedPath(((0.0, start),))  # a one-waypoint path stands still
        if name == "fixed_path":
            if start is not None:
                raise ConfigError("mobility=fixed_path starts at its first waypoint; "
                                  "leave world.target_start_x_m/y_m blank")
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
    try:
        start = _start(cfg, "robot")
        heading = math.radians(_get(cfg, "world", "robot_heading_deg", float))
        obstacles = tuple(
            Rect(*row) for row in _parse_points(cfg["world"]["obstacles"], "world.obstacles", 4)
        )
        world = _read(
            cfg,
            "world",
            WorldConfig,
            channel=_read(cfg, "channel", ChannelParams),
            tracker=build_tracker(cfg, cfg["world"]["tracker"]),
            mobility=build_mobility(cfg),
            obstacles=obstacles,
            robot_start=None if start is None else Pose(start, heading),
        )
        if start is None and heading:  # a blank start is the space center
            center = Vec2(world.width_m / 2.0, world.height_m / 2.0)
            world = replace(world, robot_start=Pose(center, heading))
        return world
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(cfg, base: WorldConfig) -> ExperimentGrid:
    try:
        names = _get(cfg, "grid", "trackers", tuple[str, ...])
        trackers = tuple(build_tracker(cfg, name, "grid.trackers") for name in names)
        return _read(cfg, "grid", ExperimentGrid, trackers=trackers, base=base)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_default_config(path: str | Path) -> None:
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    with open(path, "w") as fh:
        parser.write(fh)
