"""Radar link budget and the Albersheim detection requirement.

Reference values were computed independently from the closed-form
expressions (Richards, "Fundamentals of Radar Signal Processing", ch. 6;
Skolnik, "Introduction to Radar Systems", 2nd ed., ch. 2) and frozen here.
"""

import math

import pytest
from numpy.testing import assert_allclose

from coexist.numerics import db_to_linear, linear_to_db
from coexist.radar_detection import (
    BOLTZMANN_J_PER_K,
    RadarSystem,
    RocPoint,
    Target,
    albersheim_snr_linear,
    effective_snr,
    max_range,
    noise_power_w,
    single_pulse_snr,
    snr_required_albersheim,
)


def _atc_radar() -> RadarSystem:
    # S-band terminal-area surveillance radar, ITU-R M.1464-1 Table 1 family
    return RadarSystem(
        tx_power_w=1.32e6,
        wavelength_m=0.107068735,
        peak_gain_dbi=33.5,
        prf_hz=1059.0,
        pulse_width_s=1.03e-6,
        if_bandwidth_hz=653e3,
        noise_figure_db=4.0,
        ambient_temp_k=290.0,
        scan_time_s=4.8,
        scan_solid_angle_sr=0.5263789013914324,
        system_loss_db=2.0,
    )


def test_boltzmann_is_exact_si():
    assert BOLTZMANN_J_PER_K == 1.380649e-23


def test_albersheim_reference_points():
    # A + 0.12AB + 1.7B with A = ln(0.62/pfa), B = ln(pd/(1-pd))
    assert_allclose(albersheim_snr_linear(0.9, 1e-6), 20.589407818780277, rtol=1e-13)
    assert_allclose(albersheim_snr_linear(0.85, 1e-6), 19.062520285950015, rtol=1e-13)
    assert_allclose(linear_to_db(albersheim_snr_linear(0.9, 1e-6)), 13.1364385585871, rtol=1e-13)
    assert_allclose(
        linear_to_db(albersheim_snr_linear(0.85, 1e-6)), 12.801803188585444, rtol=1e-13
    )


def test_albersheim_monotone_in_pd_and_pfa():
    assert albersheim_snr_linear(0.95, 1e-6) > albersheim_snr_linear(0.9, 1e-6)
    assert albersheim_snr_linear(0.9, 1e-8) > albersheim_snr_linear(0.9, 1e-6)


def test_albersheim_domain():
    with pytest.raises(ValueError):
        albersheim_snr_linear(0.9, 0.63)  # leading term would go negative
    with pytest.raises(ValueError):
        albersheim_snr_linear(0.0, 1e-6)
    with pytest.raises(ValueError):
        albersheim_snr_linear(0.9, 0.0)
    with pytest.raises(ValueError, match="no positive SNR"):
        albersheim_snr_linear(0.01, 1e-6)  # 0.12*A*B + 1.7*B outweighs A


def test_snr_required_albersheim_wraps_roc():
    roc = RocPoint(pd=0.9, pfa=1e-6)
    assert snr_required_albersheim(roc) == albersheim_snr_linear(0.9, 1e-6)


def test_roc_point_validation():
    with pytest.raises(ValueError):
        RocPoint(pd=1.0, pfa=1e-6)
    with pytest.raises(ValueError):
        RocPoint(pd=0.5, pfa=0.6)  # pfa must stay below pd
    with pytest.raises(ValueError, match="0.62"):
        RocPoint(pd=0.9, pfa=0.7)  # outside Albersheim's domain


def test_noise_power():
    radar = _atc_radar()
    n = noise_power_w(radar)
    assert_allclose(n, 6.567415019591216e-15, rtol=1e-13)
    assert_allclose(10.0 * math.log10(n * 1e3), -111.82605538147737, atol=1e-10)
    # F * k * T * B by hand
    assert_allclose(n, db_to_linear(4.0) * 1.380649e-23 * 290.0 * 653e3, rtol=1e-15)


def test_single_pulse_snr_at_reference_range():
    radar = _atc_radar()
    snr = single_pulse_snr(radar, Target(range_m=111e3, rcs_m2=1.0))
    assert_allclose(snr, 38.33392645543225, rtol=1e-12)
    assert_allclose(linear_to_db(snr), 15.835833053120849, rtol=1e-12)


def test_effective_snr_includes_scan_integration():
    radar = _atc_radar()
    target = Target(range_m=111e3, rcs_m2=1.0)
    eff = effective_snr(radar, target)
    assert_allclose(eff, 1311.0881541257606, rtol=1e-12)
    assert eff > single_pulse_snr(radar, target)


def test_max_range():
    radar = _atc_radar()
    roc = RocPoint(pd=0.9, pfa=1e-6)
    d = max_range(radar, roc, rcs_m2=1.0)
    assert_allclose(d, 313559.518008709, rtol=1e-12)
    # at the solved range the budget closes exactly
    assert_allclose(
        effective_snr(radar, Target(range_m=d, rcs_m2=1.0)),
        snr_required_albersheim(roc),
        rtol=1e-12,
    )
    # degraded ROC point tolerates a longer range
    assert max_range(radar, RocPoint(pd=0.85, pfa=1e-6), 1.0) > d


def test_radar_system_validation():
    with pytest.raises(ValueError):
        _radar_with(tx_power_w=-1.0)
    with pytest.raises(ValueError):
        # duty cycle >= 1 is unphysical for a pulsed radar
        _radar_with(pulse_width_s=1e-2, prf_hz=1000.0)


def _radar_with(**overrides):
    base = dict(
        tx_power_w=1.32e6,
        wavelength_m=0.107068735,
        peak_gain_dbi=33.5,
        prf_hz=1059.0,
        pulse_width_s=1.03e-6,
        if_bandwidth_hz=653e3,
        noise_figure_db=4.0,
        ambient_temp_k=290.0,
        scan_time_s=4.8,
        scan_solid_angle_sr=0.5263789013914324,
        system_loss_db=2.0,
    )
    base.update(overrides)
    return RadarSystem(**base)
