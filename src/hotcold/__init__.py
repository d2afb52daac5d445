"""Deterministic 2-D simulator and analysis toolkit for RSSI-only target following."""

from .channel import ChannelParams, RssiReading
from .engine import (
    FixedPath,
    MetricsReport,
    RandomWaypoint,
    Rect,
    StaticControl,
    WorldConfig,
    compute_metrics,
    run_simulation,
)
from .geometry import Pose, Vec2
from .tracker import HotColdConfig, HotColdState, TrackerDecision
from .trilateration import TrilaterationConfig, TrilaterationState

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "RssiReading",
    "FixedPath",
    "MetricsReport",
    "RandomWaypoint",
    "Rect",
    "StaticControl",
    "WorldConfig",
    "compute_metrics",
    "run_simulation",
    "Pose",
    "Vec2",
    "HotColdConfig",
    "HotColdState",
    "TrackerDecision",
    "TrilaterationConfig",
    "TrilaterationState",
    "__version__",
]
