"""Single-interferer coexistence: tolerable interference and keep-out range.

Given a radar operating with some SNR margin over its required detection
point, the margin converts into a maximum tolerable external interference
power I_max.  A single transmitter at azimuth theta then needs enough path
loss that its received power stays below I_max, which yields an
azimuth-dependent protection distance following the radar's gain pattern.

The frequency-dependent rejection (FDR) is always an explicit argument,
never derived here: the caller decides it, from ``fdr_cochannel`` for a
co-channel transmitter or ``fdr_general`` for an offset one.

``DeploymentField``, a Poisson field of such transmitters, sits beside
``SecondaryUser`` so that loading a scenario runs no ``protection_multi``.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .numerics import Record, linear_to_db, np
from .propagation import (
    FloatOrArray,
    PathLossModel,
    Pattern,
    PowerLawPathLoss,
    attenuation,
    gain_linear,
    invert_attenuation,
)
from .radar_detection import RadarSystem, albersheim_snr_linear, noise_power_w

INFINITE_DISTANCE = float("inf")
"""Sentinel protection distance when no interference at all is tolerable."""


class SecondaryUser(Record):
    """Co-channel secondary transmitter (EIRP convention).

    ``eirp_w`` already contains the transmit antenna gain;
    ``antenna_gain_dbi`` is applied only where this terminal *receives*
    (the radar-into-WiFi path), never on top of its EIRP.
    """

    _schema_section = "su"

    eirp_w: float
    bandwidth_hz: float
    antenna_gain_dbi: float


class DeploymentField(Record):
    """Poisson deployment: density, activity, and the outage cap."""

    _schema_section = "field"

    density_per_m2: float
    activity_prob: float
    outage_max: float

    @property
    def active_density_per_m2(self) -> float:
        """Thinned intensity: density times independent activity probability."""
        return self.density_per_m2 * self.activity_prob


class InterferenceBudget(Record):
    """Outcome of the SNR-margin-to-interference conversion."""

    i_max_w: float
    inr_db: float
    sinr_required_linear: float
    baseline_snr_linear: float


def max_tolerable_interference(
    radar: RadarSystem, baseline_snr: float, sinr_required: float
) -> InterferenceBudget:
    """Largest added interference keeping the radar at its degraded ROC point.

    The radar detects against noise N at baseline SNR; admitting
    interference I degrades the effective SINR to baseline * N / (N + I).
    Requiring that to stay above ``sinr_required`` gives
    I_max = N * (baseline/required - 1), floored at zero when the radar has
    no margin to give away.
    """
    if not baseline_snr > 0.0 or not sinr_required > 0.0:
        raise ValueError("SNR ratios must be positive")
    noise_w = noise_power_w(radar)
    i_max_w = noise_w * max(baseline_snr / sinr_required - 1.0, 0.0)
    return InterferenceBudget(
        i_max_w=i_max_w,
        inr_db=linear_to_db(i_max_w / noise_w),
        sinr_required_linear=sinr_required,
        baseline_snr_linear=baseline_snr,
    )


def inr_vs_performance_drop(
    radar: RadarSystem,
    baseline_snr: float,
    pd0: float,
    pfa: float,
    pd_drop_grid: Sequence[float],
) -> List[Tuple[float, float]]:
    """Tolerable INR as a function of accepted detection-probability drop.

    Each drop value lowers the target P_D from ``pd0``; the SNR the relaxed
    ROC point requires comes from the Albersheim relation, and the freed
    margin converts to an INR.  Larger accepted drops never reduce the
    tolerable INR.
    """
    results: List[Tuple[float, float]] = []
    for drop in pd_drop_grid:
        pd = pd0 - drop
        if not 0.0 < pd < 1.0:
            raise ValueError(f"pd0 - drop = {pd} outside (0, 1)")
        required = albersheim_snr_linear(pd, pfa)
        budget = max_tolerable_interference(radar, baseline_snr, required)
        results.append((float(drop), budget.inr_db))
    return results


def _check_fdr(fdr: float) -> None:
    if not fdr >= 1.0:
        raise ValueError("fdr must be >= 1")


def received_interference_w(
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    theta_deg: float,
    distance_m: float,
    fdr: float,
) -> float:
    """Interference power coupled into the radar IF from one transmitter.

    P_SU * G(theta) * l(d) / FDR: the secondary's EIRP, the radar antenna
    gain toward it, the path attenuation, and the victim-filter rejection.
    """
    if not distance_m > 0.0:
        raise ValueError("distance_m must be positive")
    _check_fdr(fdr)
    return (
        su.eirp_w
        * gain_linear(pattern, theta_deg)
        * attenuation(model, distance_m)
        / fdr
    )


def protection_distance(
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    budget: InterferenceBudget,
    theta_deg: FloatOrArray,
    fdr: float,
) -> FloatOrArray:
    """Minimum radar-to-transmitter separation at azimuth ``theta_deg``.

    Inverts the path-loss model at the attenuation that pins the received
    interference exactly at I_max.  ``theta_deg`` is a float or an array of
    azimuths, evaluated in one pass.  A zero-I_max budget admits nothing at
    any finite range and gives INFINITE_DISTANCE at every azimuth, keeping
    azimuth sweeps total.
    """
    return distance_at_gain(su, model, budget, gain_linear(pattern, theta_deg), fdr)


def distance_at_gain(
    su: SecondaryUser, model: PathLossModel, budget: InterferenceBudget,
    gain: FloatOrArray, fdr: float,
) -> FloatOrArray:
    """``protection_distance`` toward a linear radar gain already evaluated."""
    _check_fdr(fdr)
    if budget.i_max_w == 0.0:
        if np.ndim(gain):
            return np.full(np.shape(gain), INFINITE_DISTANCE)
        return INFINITE_DISTANCE
    target = fdr * budget.i_max_w / (su.eirp_w * gain)
    return invert_attenuation(model, target)


def single_user_gamma(
    su: SecondaryUser,
    model: PathLossModel,
    budget: InterferenceBudget,
    fdr: float,
) -> float:
    """Scale of the single-interferer keep-out contour d(theta) = gamma*G^(1/alpha).

    Under a power-law model the whole azimuth profile is one constant times
    G(theta)**(1/alpha); this returns that constant,
    (k0 * P_SU / (FDR * I_max))**(1/alpha).
    """
    if not isinstance(model, PowerLawPathLoss):
        raise TypeError("closed-form contour scale requires a power-law model")
    _check_fdr(fdr)
    if budget.i_max_w == 0.0:
        return INFINITE_DISTANCE
    return (model.k0 * su.eirp_w / (fdr * budget.i_max_w)) ** (1.0 / model.alpha)


def dbm(power_w: float) -> float:
    """Power in dBm (convenience for report output)."""
    if power_w <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(power_w * 1e3)
