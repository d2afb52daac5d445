"""Log-distance path-loss channel with log-normal shadowing.

The receiver-side signal indicator is

    rssi = tx_power + tx_gain + rx_gain - PL(d)
    PL(d) = 10*n*log10(d) + 20*log10(f) + 20*log10(4*pi/c) + X

with the frequency term anchored at the 1 m Friis reference and X a zero-mean
Gaussian shadowing sample in dB. All logarithms are base 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .geometry import require_finite_fields

SPEED_OF_LIGHT_M_S = 299_792_458.0

# The loss formula diverges as d -> 0; ranges below this are clamped. Far
# below the operating halt distance, so field behavior is unaffected.
MIN_DISTANCE_M = 0.1

# Bounds far beyond any radio link. They keep every signal sample finite,
# and every range inverted from one, 10**(log10(d) + X/(10*n)) with X the
# shadowing sample, finite and above zero.
MAX_ABS_DB = 1000.0
MIN_PATH_LOSS_EXPONENT = 0.5
MAX_PATH_LOSS_EXPONENT = 10.0
MAX_SHADOWING_SIGMA_DB = 100.0


@dataclass(frozen=True)
class ChannelParams:
    """Link parameters of the target transmitter / robot receiver pair."""

    tx_power_dbm: float = 0.0
    tx_gain_dbi: float = 0.0
    rx_gain_dbi: float = 2.0
    frequency_hz: float = 2.4e9
    path_loss_exponent: float = 2.8
    shadowing_sigma_db: float = 0.0
    rx_sensitivity_dbm: float = -94.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        for name in ("tx_power_dbm", "tx_gain_dbi", "rx_gain_dbi", "rx_sensitivity_dbm"):
            value = getattr(self, name)
            if abs(value) > MAX_ABS_DB:
                raise ValueError(f"{name} must be within +-{MAX_ABS_DB:g} dB, got {value}")
        if self.frequency_hz <= 0.0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz}")
        if not MIN_PATH_LOSS_EXPONENT <= self.path_loss_exponent <= MAX_PATH_LOSS_EXPONENT:
            raise ValueError(
                f"path-loss exponent must be in [{MIN_PATH_LOSS_EXPONENT:g}, "
                f"{MAX_PATH_LOSS_EXPONENT:g}], got {self.path_loss_exponent}"
            )
        if not 0.0 <= self.shadowing_sigma_db <= MAX_SHADOWING_SIGMA_DB:
            raise ValueError(
                f"shadowing sigma must be in [0, {MAX_SHADOWING_SIGMA_DB:g}] dB, "
                f"got {self.shadowing_sigma_db}"
            )
        if self.tx_power_dbm < self.rx_sensitivity_dbm:
            raise ValueError("transmit power below receiver sensitivity leaves no link budget")

    # Every sample needs the two derived constants below, so each is
    # computed on first use and kept.
    @cached_property
    def link_budget_dbm(self) -> float:
        """Transmit power plus both antenna gains."""
        return self.tx_power_dbm + self.tx_gain_dbi + self.rx_gain_dbi

    @cached_property
    def reference_loss_db(self) -> float:
        """Frequency-dependent loss at the 1 m reference distance, in dB."""
        return 20.0 * math.log10(self.frequency_hz) + 20.0 * math.log10(
            4.0 * math.pi / SPEED_OF_LIGHT_M_S
        )


class RssiReading(NamedTuple):
    """One received-signal sample; out-of-range readings never reach a tracker."""

    value_dbm: float
    in_range: bool


def path_loss(distance_m: float, params: ChannelParams, shadow_db: float = 0.0) -> float:
    """Path loss in dB at a given range, with an explicit shadowing sample."""
    if not math.isfinite(shadow_db):
        raise ValueError(f"non-finite shadowing sample {shadow_db}")
    if distance_m < MIN_DISTANCE_M:
        raise ValueError(f"range {distance_m} below the {MIN_DISTANCE_M} m formula floor")
    return (
        10.0 * params.path_loss_exponent * math.log10(distance_m)
        + params.reference_loss_db
        + shadow_db
    )


def rssi(target_x: float, target_y: float, robot_x: float, robot_y: float,
         params: ChannelParams, normal: float) -> RssiReading:
    """Sample the signal indicator for one broadcast from the target to the robot.

    `normal` is the broadcast's standard-normal draw; the shadowing sample is
    sigma times it, exactly 0 when sigma is 0. A run draws one per broadcast
    whatever sigma is, so runs that differ only in sigma share the same noise
    shape: in the grid, run r of every point has one seed and so shares it.
    """
    d = math.hypot(target_x - robot_x, target_y - robot_y)
    if d < MIN_DISTANCE_M:
        d = MIN_DISTANCE_M
    # path_loss inline, its terms in its order: d is clamped to its floor and
    # sigma times a drawn normal is finite, so its checks cannot fail here
    value = params.link_budget_dbm - (10.0 * params.path_loss_exponent * math.log10(d)
                                      + params.reference_loss_db + params.shadowing_sigma_db * normal)
    # tuple.__new__ builds the same RssiReading without the generated __new__'s frame
    return tuple.__new__(RssiReading, (value, value >= params.rx_sensitivity_dbm))


def noiseless_rssi(distance_m: float, params: ChannelParams) -> float:
    """Signal indicator at a given range with the shadowing term held at zero."""
    d = max(distance_m, MIN_DISTANCE_M)
    return params.link_budget_dbm - path_loss(d, params)


def invert_rssi_to_distance(value_dbm: float, params: ChannelParams) -> float:
    """Range estimate from a signal value; exact inverse of the noiseless model."""
    exponent = (params.link_budget_dbm - value_dbm - params.reference_loss_db) / (
        10.0 * params.path_loss_exponent
    )
    return 10.0**exponent
