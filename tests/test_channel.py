import math

import numpy as np
import pytest

from oracles import max_range_m

from hotcold.channel import (
    MIN_DISTANCE_M,
    SPEED_OF_LIGHT_M_S,
    ChannelParams,
    RssiReading,
    invert_rssi_to_distance,
    noiseless_rssi,
    path_loss,
    rssi,
)
from hotcold.engine import WorldConfig, init_world

PARAMS = ChannelParams()  # 0 dBm, 0/2 dBi, 2.4 GHz, n=2.8, -94 dBm


def test_reference_loss_constants():
    # frequency term and Friis constant evaluated independently
    assert 20.0 * math.log10(2.4e9) == pytest.approx(187.60, abs=0.01)
    assert 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT_M_S) == pytest.approx(-147.55, abs=0.01)
    assert PARAMS.reference_loss_db == pytest.approx(40.05, abs=0.01)


def test_path_loss_at_one_meter():
    assert path_loss(1.0, PARAMS, 0.0) == pytest.approx(40.05, abs=0.01)


def test_path_loss_doubling_distance():
    diff = path_loss(2.0, PARAMS, 0.0) - path_loss(1.0, PARAMS, 0.0)
    assert diff == pytest.approx(28.0 * math.log10(2.0), abs=1e-9)
    assert diff == pytest.approx(8.4289, abs=1e-4)


def test_path_loss_shadow_term_is_additive():
    assert path_loss(7.3, PARAMS, 5.0) - path_loss(7.3, PARAMS, 0.0) == pytest.approx(
        5.0, abs=1e-12
    )


def test_path_loss_rejects_below_floor():
    with pytest.raises(ValueError):
        path_loss(0.05, PARAMS)
    with pytest.raises(ValueError):
        path_loss(1.0, PARAMS, math.nan)


def test_path_loss_slope_is_ten_n_per_decade():
    for d in (0.5, 2.0, 9.0):
        assert path_loss(10.0 * d, PARAMS) - path_loss(d, PARAMS) == pytest.approx(
            10.0 * PARAMS.path_loss_exponent, abs=1e-9
        )


def test_rssi_at_halt_distance():
    # the 3 m halt-distance operating point
    assert noiseless_rssi(3.0, PARAMS) == pytest.approx(-51.41, abs=0.01)


def test_rssi_near_sensitivity_boundary():
    assert noiseless_rssi(99.6, PARAMS) == pytest.approx(-94.0, abs=0.01)
    assert rssi(0.0, 0.0, 99.5, 0.0, PARAMS, 0.3).in_range
    assert not rssi(0.0, 0.0, 99.7, 0.0, PARAMS, -1.2).in_range
    assert not rssi(0.0, 0.0, 150.0, 0.0, PARAMS, 0.0).in_range


def test_rssi_clamps_tiny_distances():
    at_zero = rssi(0.0, 0.0, 0.0, 0.0, PARAMS, 0.7)
    assert at_zero.value_dbm == noiseless_rssi(MIN_DISTANCE_M, PARAMS)


def test_invert_round_trip():
    assert invert_rssi_to_distance(noiseless_rssi(3.0, PARAMS), PARAMS) == pytest.approx(
        3.0, abs=1e-6
    )
    assert invert_rssi_to_distance(-38.05, PARAMS) == pytest.approx(1.0, abs=1e-3)
    for d in range(1, 101):
        d_hat = invert_rssi_to_distance(noiseless_rssi(float(d), PARAMS), PARAMS)
        assert abs(d_hat - d) / d < 1e-9


def test_max_range():
    assert max_range_m(PARAMS) == pytest.approx(99.6, abs=0.1)
    # sensitivity set to the signal level at 1 m leaves exactly 1 m of range
    snug = ChannelParams(rx_sensitivity_dbm=noiseless_rssi(1.0, PARAMS))
    assert max_range_m(snug) == pytest.approx(1.0, abs=1e-9)
    # one distance-doubling of margin doubles the range (slope 10n)
    wider = ChannelParams(rx_sensitivity_dbm=PARAMS.rx_sensitivity_dbm - 8.4289)
    assert max_range_m(wider) / max_range_m(PARAMS) == pytest.approx(2.0, abs=1e-4)


def test_monotone_in_distance_without_shadowing():
    values = [noiseless_rssi(d, PARAMS) for d in np.linspace(0.5, 120.0, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_rssi_zero_sigma_ignores_the_normal():
    for normal in (-3.0, 0.0, 2.5):
        assert rssi(0.0, 0.0, 10.0, 0.0, PARAMS, normal).value_dbm == noiseless_rssi(
            10.0, PARAMS
        )


def test_rssi_shadowing_is_sigma_times_the_normal():
    params = ChannelParams(shadowing_sigma_db=3.0)
    base = noiseless_rssi(10.0, params)
    for normal in (-2.1, 0.4, 1.3):
        value = rssi(0.0, 0.0, 10.0, 0.0, params, normal).value_dbm
        assert value == params.link_budget_dbm - path_loss(10.0, params, 3.0 * normal)
        assert value - base == pytest.approx(-3.0 * normal, abs=1e-9)


def test_run_shadowing_statistics():
    # a run's shadowing samples are sigma times the normals init_world draws
    normals = init_world(WorldConfig(duration_s=5e5, seed=11)).shadowing_normals
    samples = 3.0 * np.array(list(normals))
    assert samples.size == 10**6
    assert abs(samples.mean()) < 0.02
    assert abs(samples.std() - 3.0) < 0.02


def test_shadowing_distribution_kolmogorov_smirnov():
    from scipy import stats

    params = ChannelParams(shadowing_sigma_db=3.0)
    normals = np.random.default_rng(13).standard_normal(10**5).tolist()
    base = noiseless_rssi(10.0, params)
    deviates = np.array(
        [rssi(0.0, 0.0, 10.0, 0.0, params, n).value_dbm - base for n in normals]
    )
    assert stats.kstest(deviates / 3.0, "norm").pvalue > 0.01


def test_params_validation():
    for name in (
        "tx_power_dbm",
        "tx_gain_dbi",
        "rx_gain_dbi",
        "frequency_hz",
        "path_loss_exponent",
        "shadowing_sigma_db",
        "rx_sensitivity_dbm",
    ):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                ChannelParams(**{name: bad})
    with pytest.raises(ValueError):
        ChannelParams(frequency_hz=0.0)
    with pytest.raises(ValueError):
        ChannelParams(path_loss_exponent=0.0)
    with pytest.raises(ValueError):
        ChannelParams(shadowing_sigma_db=-0.5)
    with pytest.raises(ValueError):
        ChannelParams(tx_power_dbm=-100.0)
    for name in ("tx_power_dbm", "tx_gain_dbi", "rx_gain_dbi", "rx_sensitivity_dbm"):
        with pytest.raises(ValueError, match=name):
            ChannelParams(**{name: 1000.5})
        with pytest.raises(ValueError, match=name):
            ChannelParams(**{name: -1000.5})
    for value in (0.49, 10.01):
        with pytest.raises(ValueError, match="path-loss exponent"):
            ChannelParams(path_loss_exponent=value)
    with pytest.raises(ValueError, match="shadowing sigma"):
        ChannelParams(shadowing_sigma_db=100.5)
    # the bounds themselves are accepted
    ChannelParams(tx_power_dbm=1000.0, tx_gain_dbi=-1000.0, rx_gain_dbi=1000.0,
                  rx_sensitivity_dbm=-1000.0, path_loss_exponent=0.5, shadowing_sigma_db=100.0)
    ChannelParams(path_loss_exponent=10.0)


def test_rssi_reading_is_an_immutable_named_tuple():
    reading = rssi(0.0, 0.0, 10.0, 0.0, PARAMS, 0.5)
    assert reading == RssiReading(value_dbm=reading.value_dbm, in_range=True)
    assert reading._fields == ("value_dbm", "in_range")
    # the sampler builds its tuple without the class's constructor: the same
    # type and the same bits as the reading the constructor builds
    noisy = ChannelParams(shadowing_sigma_db=2.0)
    for distance, normal in ((10.0, 0.5), (1e4, -1.25)):  # in range, then out of it
        sample = rssi(distance, 0.0, 0.0, 0.0, noisy, normal)
        value = noisy.link_budget_dbm - path_loss(distance, noisy, 2.0 * normal)
        built = RssiReading(value, value >= noisy.rx_sensitivity_dbm)
        assert type(sample) is RssiReading
        assert [sample.value_dbm.hex(), sample.in_range] == [built.value_dbm.hex(), built.in_range]
        assert sample.in_range is (distance == 10.0)
    with pytest.raises(AttributeError):
        reading.value_dbm = 0.0
