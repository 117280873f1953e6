"""Noise-limited rotating-radar detection budget.

Link budget for a pulsed surveillance radar (single-pulse and scan-averaged
SNR with noncoherent integration folded in) and Albersheim's empirical
single-pulse detection requirement (see Richards, "Fundamentals of Radar
Signal Processing", ch. 6; Skolnik, "Introduction to Radar Systems").

Conventions: gains and losses are stored in dB on the records (the way
datasheets quote them) and converted to linear exactly once inside each
formula; SNR values cross the API as linear ratios unless a name carries a
``_db`` suffix.
"""

from __future__ import annotations

import math
from .numerics import Record, db_to_linear

BOLTZMANN_J_PER_K = 1.380649e-23  # exact, 2019 SI
SPEED_OF_LIGHT_M_S = 299792458.0

FOUR_PI = 4.0 * math.pi


class RadarSystem(Record):
    """Parameter set of a rotating pulsed surveillance radar.

    The bundled fixture follows the terminal-area ATC radar family of
    ITU-R M.1464-1 (S-band, megawatt-class peak power, fan beam scanned
    in azimuth).
    """

    _schema_section = "radar"

    tx_power_w: float
    wavelength_m: float
    peak_gain_dbi: float
    prf_hz: float
    pulse_width_s: float
    if_bandwidth_hz: float
    noise_figure_db: float
    ambient_temp_k: float
    scan_time_s: float
    scan_solid_angle_sr: float
    system_loss_db: float

    def __post_init__(self) -> None:
        if not self.pulse_width_s * self.prf_hz < 1.0:
            raise ValueError("duty cycle pulse_width_s * prf_hz must stay below 1")


class Target(Record):
    """Point target: slant range and radar cross section."""

    range_m: float
    rcs_m2: float

    def __post_init__(self) -> None:
        if not self.range_m > 0.0:
            raise ValueError("range_m must be positive")
        if not self.rcs_m2 > 0.0:
            raise ValueError("rcs_m2 must be positive")


class RocPoint(Record):
    """Operating point on the receiver operating characteristic, in Albersheim's domain."""

    pd: float
    pfa: float

    def __post_init__(self) -> None:
        if not 0.0 < self.pfa < self.pd < 1.0:
            raise ValueError(
                f"ROC point requires 0 < pfa < pd < 1, got pd={self.pd}, pfa={self.pfa}"
            )
        albersheim_snr_linear(self.pd, self.pfa)


def noise_power_w(radar: RadarSystem) -> float:
    """Receiver noise floor F * k * T * B over the IF bandwidth, in watts."""
    return (
        db_to_linear(radar.noise_figure_db)
        * BOLTZMANN_J_PER_K
        * radar.ambient_temp_k
        * radar.if_bandwidth_hz
    )


def single_pulse_snr(radar: RadarSystem, target: Target) -> float:
    """Single-pulse SNR at the receiver input (linear).

    Standard monostatic radar equation,
    P_T G^2 lambda^2 sigma / ((4 pi)^3 d^4 N), with N the noise floor over
    the IF bandwidth.
    """
    gain = db_to_linear(radar.peak_gain_dbi)
    numerator = (
        radar.tx_power_w * gain * gain * radar.wavelength_m**2 * target.rcs_m2
    )
    denominator = FOUR_PI**3 * target.range_m**4 * noise_power_w(radar)
    return numerator / denominator


def effective_snr(radar: RadarSystem, target: Target) -> float:
    """Scan-averaged SNR with noncoherent integration folded in (linear).

    For a rotating radar the number of pulses on target per scan is the
    illumination time times the PRF; absorbing that count together with the
    beam-solid-angle bookkeeping into the link budget gives

        SNR_eff = (T_scan / Omega) * P_T G lambda^2 f_R sigma
                  / ((4 pi)^2 d^4 N L)

    with L the net system loss.  For a fan beam of azimuth and elevation
    widths theta_az and theta_el and aperture efficiency rho_A, with
    G = 4 pi rho_A / (theta_az theta_el), L = 1/rho_A and
    Omega = 2 pi theta_el, this reduces exactly to single_pulse_snr times
    the pulses-per-scan count.
    """
    gain = db_to_linear(radar.peak_gain_dbi)
    loss = db_to_linear(radar.system_loss_db)
    numerator = (
        (radar.scan_time_s / radar.scan_solid_angle_sr)
        * radar.tx_power_w
        * gain
        * radar.wavelength_m**2
        * radar.prf_hz
        * target.rcs_m2
    )
    denominator = (
        FOUR_PI**2 * target.range_m**4 * noise_power_w(radar) * loss
    )
    return numerator / denominator


def albersheim_snr_linear(pd: float, pfa: float) -> float:
    """Albersheim's empirical single-pulse SNR requirement (linear ratio).

    A + 0.12*A*B + 1.7*B with A = ln(0.62/P_FA), B = ln(P_D/(1-P_D)).
    Accurate to a fraction of a dB for 0.1 <= P_D <= 0.9 and
    P_FA <= 1e-3 (Albersheim 1981; Tufts & Cann 1983).  P_FA above 0.62
    makes the leading term negative and the approximation meaningless,
    so that domain is rejected, as is a P_D too low for a positive SNR.
    """
    if not 0.0 < pd < 1.0:
        raise ValueError("pd must lie in (0, 1)")
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie in (0, 1)")
    if pfa > 0.62:
        raise ValueError("Albersheim relation requires pfa <= 0.62")
    a = math.log(0.62 / pfa)
    b = math.log(pd / (1.0 - pd))
    snr = a + 0.12 * a * b + 1.7 * b
    if not snr > 0.0:
        raise ValueError(f"Albersheim relation gives no positive SNR at pd={pd}, pfa={pfa}")
    return snr


def snr_required_albersheim(roc: RocPoint) -> float:
    """SNR (linear) required to reach ``roc`` with a single pulse."""
    return albersheim_snr_linear(roc.pd, roc.pfa)


def max_range(radar: RadarSystem, roc: RocPoint, rcs_m2: float) -> float:
    """Largest range at which the scan-averaged SNR still meets ``roc``.

    Closed-form inversion of effective_snr for range:
    d = (numerator / (SNR_req * denominator-at-unit-range))**(1/4).
    """
    if not rcs_m2 > 0.0:
        raise ValueError("rcs_m2 must be positive")
    snr_req = snr_required_albersheim(roc)
    gain = db_to_linear(radar.peak_gain_dbi)
    loss = db_to_linear(radar.system_loss_db)
    numerator = (
        (radar.scan_time_s / radar.scan_solid_angle_sr)
        * radar.tx_power_w
        * gain
        * radar.wavelength_m**2
        * radar.prf_hz
        * rcs_m2
    )
    denominator = FOUR_PI**2 * noise_power_w(radar) * loss * snr_req
    return (numerator / denominator) ** 0.25

