"""WiFi-side view of the shared band: SINR under radar strobes, MCS rate
selection, transmission duty under a sharing policy, and scan-averaged
throughput.

The WiFi terminal sits at a fixed range and bearing from the radar.  As
the radar scans, the terminal sees the azimuth pattern sweep past at
theta(t) = 2*pi*t / T_scan; interference strobes when the main beam
points at it.  ``mode`` selects the instantaneous peak interference or
the pulse-train average (peak times duty cycle PW*f_R).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from .numerics import Record, db_to_linear, linear_to_db, np
from .propagation import Pattern, PathLossModel, attenuation, gain_linear, gain_linear_array
from .protection_single import SecondaryUser
from .protection_multi import (
    MainSideLobePolicy,
    OptimalPolicy,
    RadarBlindPolicy,
    SharingPolicy,
    optimal_contour,
    policy_profile,
)
from .radar_detection import BOLTZMANN_J_PER_K, RadarSystem

REFERENCE_TEMP_K = 290.0


class McsEntry(NamedTuple):
    mcs_index: int
    modulation: str
    coding_rate: str
    data_rate_mbps: float
    min_snr_db: float


class McsTable(Record):
    """Rate ladder: lowest SNR that sustains each modulation-and-coding step."""

    entries: Tuple[McsEntry, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("MCS table must have at least one entry")
        for prev, cur in zip(self.entries, self.entries[1:]):
            if not cur.min_snr_db > prev.min_snr_db:
                raise ValueError("min_snr_db must be strictly increasing")
            if not cur.data_rate_mbps > prev.data_rate_mbps:
                raise ValueError("data_rate_mbps must be strictly increasing")


DEFAULT_80211N = McsTable(
    entries=(
        McsEntry(0, "BPSK", "1/2", 6.5, 4.5),
        McsEntry(1, "QPSK", "1/2", 13.0, 6.5),
        McsEntry(2, "QPSK", "3/4", 19.5, 8.0),
        McsEntry(3, "16-QAM", "1/2", 26.0, 10.5),
        McsEntry(4, "16-QAM", "3/4", 39.0, 13.5),
        McsEntry(5, "64-QAM", "2/3", 52.0, 17.5),
        McsEntry(6, "64-QAM", "3/4", 58.5, 19.5),
        McsEntry(7, "64-QAM", "5/6", 65.0, 21.5),
    )
)
"""Single-stream 802.11n rates over 20 MHz with the 10% PER thresholds."""


class WifiLink(Record):
    """One WiFi AP-station link sharing the band with the radar.

    ``su.eirp_w`` is the full EIRP (transmit antenna gain already folded
    in), so the signal budget is eirp / link loss and ``su.antenna_gain_dbi``
    enters only on the radar-interference receive path.
    """

    _schema_section = "wifi"

    link_loss_db: float
    su: SecondaryUser
    rx_noise_figure_db: float
    rx_bandwidth_hz: float


def wifi_noise_w(link: WifiLink) -> float:
    """Receiver noise floor k*T0*NF*BW (watts)."""
    return (
        BOLTZMANN_J_PER_K
        * REFERENCE_TEMP_K
        * db_to_linear(link.rx_noise_figure_db)
        * link.rx_bandwidth_hz
    )


def radar_interference_w(
    radar: RadarSystem,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    distance_m: float,
    theta_deg: float,
    mode: str = "peak",
) -> float:
    """Radar power landing in the WiFi receiver from ``theta_deg`` off boresight.

    Peak mode is the in-pulse level P_T * G_SU * G(theta) * l(d); averaged
    mode scales it by the radar duty cycle PW * f_R, the mean over a pulse
    repetition interval.
    """
    return _radar_power_w(
        radar, su, gain_linear(pattern, theta_deg), model, distance_m, mode
    )


def _radar_power_w(
    radar: RadarSystem, su: SecondaryUser, gain: float | np.ndarray,
    model: PathLossModel, distance_m: float, mode: str,
) -> float | np.ndarray:
    """P_T * G_SU * gain * l(d), times PW * f_R if averaged; gain may be an array."""
    if not distance_m > 0.0:
        raise ValueError("distance_m must be positive")
    if mode not in ("peak", "averaged"):
        raise ValueError(f"mode must be 'peak' or 'averaged', got {mode!r}")
    power = (
        radar.tx_power_w
        * db_to_linear(su.antenna_gain_dbi)
        * gain
        * attenuation(model, distance_m)
    )
    if mode == "averaged":
        power = power * (radar.pulse_width_s * radar.prf_hz)
    return power


def wifi_sinr(link: WifiLink, radar_interference_w: float | np.ndarray) -> float | np.ndarray:
    """Linear SINR of the WiFi link under the given radar interference power(s)."""
    if np.any(np.asarray(radar_interference_w) < 0.0):
        raise ValueError("radar_interference_w must be non-negative")
    signal = link.su.eirp_w / db_to_linear(link.link_loss_db)
    return signal / (wifi_noise_w(link) + radar_interference_w)


def mcs_rate(sinr_db: float) -> float:
    """Data rate of the best ``DEFAULT_80211N`` MCS the SINR supports; 0 below the lowest step."""
    rate = 0.0
    for entry in DEFAULT_80211N.entries:
        if sinr_db >= entry.min_snr_db:
            rate = entry.data_rate_mbps
        else:
            break
    return rate


def duty_factor(
    policy: SharingPolicy, pattern: Pattern, distance_m: float
) -> float:
    """Fraction of a scan during which the policy permits transmission.

    With uniform rotation, time fraction equals the angular measure of
    {theta : distance >= d(theta)} / 2*pi.  The two piecewise-constant
    policies reduce to closed forms; the gain-shaped contour is measured
    on a dense azimuth grid.
    """
    if not distance_m > 0.0:
        raise ValueError("distance_m must be positive")
    if isinstance(policy, RadarBlindPolicy):
        return 1.0 if distance_m >= policy.d_min_m else 0.0
    if isinstance(policy, MainSideLobePolicy):
        if distance_m < policy.d_min_m:
            return 0.0
        if distance_m < policy.d_max_m:
            return 1.0 - policy.lobe_width_rad / (2.0 * math.pi)
        return 1.0
    if isinstance(policy, OptimalPolicy):
        return float(np.mean(distance_m >= optimal_contour(policy, pattern)))
    raise TypeError(f"unknown policy type {type(policy)!r}")


def throughput_trace(
    link: WifiLink,
    radar: RadarSystem,
    pattern: Pattern,
    model: PathLossModel,
    policy: SharingPolicy,
    distance_m: float,
    mode: str = "peak",
    n_time_steps: int = 512,
) -> List[Tuple[float, float, float, float]]:
    """One scan period of (time_s, azimuth_deg, sinr_db, rate_mbps) rows.

    theta(t) = 2*pi*t / T_scan over one rotation; at each step the link is
    gated by the policy contour (rate 0 while inside it) and otherwise
    rated via ``DEFAULT_80211N`` at the instantaneous SINR.
    """
    if n_time_steps < 8:
        raise ValueError("n_time_steps must be at least 8 per scan")
    t = np.arange(n_time_steps) * (radar.scan_time_s / n_time_steps)
    theta = 2.0 * math.pi * t / radar.scan_time_s
    gains = gain_linear_array(pattern, theta)
    power = _radar_power_w(radar, link.su, gains, model, distance_m, mode)
    sinr = wifi_sinr(link, power)
    d_required = policy_profile(policy, pattern)(theta)
    permitted = distance_m >= d_required
    rows = []
    for i in range(n_time_steps):
        sinr_db = linear_to_db(float(sinr[i]))
        rate = mcs_rate(sinr_db) if permitted[i] else 0.0
        rows.append((float(t[i]), float(np.degrees(theta[i])), sinr_db, rate))
    return rows


def throughput_vs_time(
    link: WifiLink,
    radar: RadarSystem,
    pattern: Pattern,
    model: PathLossModel,
    policy: SharingPolicy,
    distance_m: float,
    mode: str = "peak",
    n_time_steps: int = 512,
) -> List[Tuple[float, float]]:
    """(time_s, rate_mbps) samples over one scan period."""
    return [
        (t, rate)
        for (t, _az, _sinr, rate) in throughput_trace(
            link, radar, pattern, model, policy, distance_m, mode, n_time_steps
        )
    ]


def average_throughput(
    link: WifiLink,
    radar: RadarSystem,
    pattern: Pattern,
    model: PathLossModel,
    policy: SharingPolicy,
    distance_m: float,
    mode: str = "peak",
    n_time_steps: int = 512,
) -> float:
    """Scan-averaged throughput: the mean of the uniform time trace (Mbps)."""
    samples = throughput_vs_time(
        link, radar, pattern, model, policy, distance_m, mode, n_time_steps
    )
    return float(np.mean([rate for _t, rate in samples]))
