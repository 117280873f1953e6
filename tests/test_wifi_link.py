"""WiFi link under rotating-radar interference: SINR, MCS, duty cycling."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coexist.numerics import db_to_linear, linear_to_db
from coexist.propagation import AntennaPattern, PowerLawPathLoss
from coexist.protection_multi import MainSideLobePolicy, OptimalPolicy, RadarBlindPolicy
from coexist.protection_single import SecondaryUser
from coexist.radar_detection import RadarSystem
from coexist.wifi_link import (
    DEFAULT_80211N,
    McsEntry,
    McsTable,
    WifiLink,
    average_throughput,
    duty_factor,
    mcs_rate,
    radar_interference_w,
    throughput_trace,
    throughput_vs_time,
    wifi_noise_w,
    wifi_sinr,
)

# single-interferer keep-out scale for the 23.14 dB baseline budget
GAMMA_M = 3599.1757117122047


def _radar() -> RadarSystem:
    # 896 us PRI, 1 us pulses: 1/896 transmit duty cycle
    return RadarSystem(
        tx_power_w=1.32e6,
        wavelength_m=0.107068735,
        peak_gain_dbi=33.5,
        prf_hz=1116.0714285714287,
        pulse_width_s=1e-6,
        if_bandwidth_hz=653e3,
        noise_figure_db=4.0,
        ambient_temp_k=290.0,
        scan_time_s=4.8,
        scan_solid_angle_sr=0.5263789013914324,
        system_loss_db=2.0,
    )


def _su() -> SecondaryUser:
    return SecondaryUser(
        eirp_w=1.0,
        bandwidth_hz=20e6,
        antenna_gain_dbi=2.15,
    )


def _link() -> WifiLink:
    return WifiLink(link_loss_db=80.0, su=_su(), rx_noise_figure_db=8.0, rx_bandwidth_hz=20e6)


def _policy() -> OptimalPolicy:
    return OptimalPolicy(gamma=GAMMA_M, alpha=3.97)


def test_wifi_noise_floor():
    n = wifi_noise_w(_link())
    assert_allclose(n, 5.05255763485556e-13, rtol=1e-13)
    assert_allclose(10.0 * math.log10(n * 1e3), -92.96488723758829, atol=1e-10)


def test_interference_free_snr():
    # 1 W EIRP through 80 dB link loss over the noise floor above
    snr = wifi_sinr(_link(), 0.0)
    assert_allclose(linear_to_db(snr), 42.964887237588286, rtol=1e-12)
    with pytest.raises(ValueError):
        wifi_sinr(_link(), -1e-15)


def test_sinr_degrades_with_interference():
    link = _link()
    clean = wifi_sinr(link, 0.0)
    noisy = wifi_sinr(link, wifi_noise_w(link))  # INR = 0 dB halves the SINR
    assert_allclose(noisy, clean / 2.0, rtol=1e-12)


# IEEE 802.11n-2009, 20 MHz, single stream, 800 ns GI (MCS 0-7) with
# waterfall SNR thresholds
EXPECTED_MCS = [
    (0, "BPSK", "1/2", 6.5, 4.5),
    (1, "QPSK", "1/2", 13.0, 6.5),
    (2, "QPSK", "3/4", 19.5, 8.0),
    (3, "16-QAM", "1/2", 26.0, 10.5),
    (4, "16-QAM", "3/4", 39.0, 13.5),
    (5, "64-QAM", "2/3", 52.0, 17.5),
    (6, "64-QAM", "3/4", 58.5, 19.5),
    (7, "64-QAM", "5/6", 65.0, 21.5),
]


def test_default_mcs_table_rows():
    assert len(DEFAULT_80211N.entries) == 8
    for entry, want in zip(DEFAULT_80211N.entries, EXPECTED_MCS):
        assert tuple(entry) == want


def test_mcs_rate_boundaries():
    assert mcs_rate(4.4999) == 0.0
    assert mcs_rate(4.5) == 6.5
    assert mcs_rate(13.5) == 39.0
    assert mcs_rate(21.4999) == 58.5
    assert mcs_rate(21.5) == 65.0
    assert mcs_rate(100.0) == 65.0


def test_mcs_table_validation():
    with pytest.raises(ValueError):
        McsTable(entries=())
    rows = [McsEntry(0, "BPSK", "1/2", 6.5, 4.5), McsEntry(1, "QPSK", "1/2", 13.0, 4.0)]
    with pytest.raises(ValueError):
        McsTable(entries=tuple(rows))  # thresholds must increase


def test_peak_vs_averaged_interference_ratio():
    # averaging over the pulse train scales power by PW * PRF = 1/896
    radar, su = _radar(), _su()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    peak = radar_interference_w(radar, su, pattern, model, 5000.0, 0.0, mode="peak")
    avg = radar_interference_w(radar, su, pattern, model, 5000.0, 0.0, mode="averaged")
    assert_allclose(linear_to_db(avg / peak), -29.523080096621253, rtol=1e-12)
    assert_allclose(avg / peak, 1.0 / 896.0, rtol=1e-12)
    # exactly the schema's spellings: no case folding, no stripping
    for bad in ("rms", "Peak", " averaged"):
        with pytest.raises(ValueError):
            radar_interference_w(radar, su, pattern, model, 5000.0, 0.0, mode=bad)


def test_radar_interference_includes_receive_gain():
    # the terminal's own antenna gain applies on this receive path
    radar, su = _radar(), _su()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    got = radar_interference_w(radar, su, pattern, model, 5000.0, 0.0, mode="peak")
    want = (
        1.32e6
        * db_to_linear(2.15)
        * db_to_linear(33.5)
        * 259.0
        * 5000.0**-3.97
    )
    assert_allclose(got, want, rtol=1e-12)


def test_duty_factor_radar_blind():
    pattern = AntennaPattern(gmax_dbi=33.5)
    policy = RadarBlindPolicy(d_min_m=1000.0)
    assert duty_factor(policy, pattern, 999.0) == 0.0
    assert duty_factor(policy, pattern, 1000.0) == 1.0
    assert duty_factor(policy, pattern, 5000.0) == 1.0


def test_duty_factor_main_side_lobe():
    pattern = AntennaPattern(gmax_dbi=33.5)
    policy = MainSideLobePolicy(
        d_min_m=1000.0, beta=3.7, lobe_width_rad=math.radians(3.7)
    )
    assert duty_factor(policy, pattern, 500.0) == 0.0
    # between the rings the terminal mutes only while the main lobe passes
    assert_allclose(duty_factor(policy, pattern, 2000.0), 1.0 - 3.7 / 360.0, rtol=1e-12)
    assert_allclose(duty_factor(policy, pattern, 2000.0), 0.9897222222222222, rtol=1e-12)
    assert duty_factor(policy, pattern, 5000.0) == 1.0


def test_duty_factor_optimal_contour():
    pattern = AntennaPattern(gmax_dbi=33.5)
    duty = duty_factor(_policy(), pattern, 5000.0)
    assert_allclose(duty, 0.906982421875, rtol=1e-12)  # 4096-point azimuth grid
    assert duty_factor(_policy(), pattern, 1000.0) == 0.0  # inside everywhere
    assert duty_factor(_policy(), pattern, 5e5) == 1.0  # beyond the whole contour


def test_throughput_trace_shape_and_gating():
    radar, su, link = _radar(), _su(), _link()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    rows = throughput_trace(link, radar, pattern, model, _policy(), 5000.0,
                            mode="averaged", n_time_steps=64)
    assert len(rows) == 64
    times = [r[0] for r in rows]
    assert times[0] == 0.0
    assert_allclose(np.diff(times), 4.8 / 64.0, rtol=1e-12)
    # at 5 km the terminal sits inside the boresight contour: muted while
    # the beam points at it, transmitting off-axis
    rates = np.array([r[3] for r in rows])
    assert rates[0] == 0.0
    assert rates.max() > 0.0
    with pytest.raises(ValueError):
        throughput_trace(link, radar, pattern, model, _policy(), 5000.0, n_time_steps=4)


def test_throughput_vs_time_matches_trace():
    radar, link = _radar(), _link()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    full = throughput_trace(link, radar, pattern, model, _policy(), 5000.0, n_time_steps=32)
    pairs = throughput_vs_time(link, radar, pattern, model, _policy(), 5000.0, n_time_steps=32)
    assert [(r[0], r[3]) for r in full] == pairs


def test_average_throughput_peak_vs_averaged():
    radar, link = _radar(), _link()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    policy = _policy()
    # at 5 km, peak-power strobes crush every permitted time slot to zero
    # rate, while pulse-averaged interference leaves most slots usable
    assert average_throughput(link, radar, pattern, model, policy, 5000.0, mode="peak") == 0.0
    avg = average_throughput(link, radar, pattern, model, policy, 5000.0, mode="averaged")
    assert_allclose(avg, 32.271484375, rtol=1e-12)
    # far from the radar both modes saturate at the top MCS rate
    for mode in ("peak", "averaged"):
        assert average_throughput(link, radar, pattern, model, policy, 6e5, mode=mode) == 65.0
