"""Path-loss models, the statistical high-gain antenna pattern, and FDR.

Attenuation is carried as a linear power ratio l(r) <= 1 (the inverse of
path loss), so interference chains are plain products.  The antenna model
is the piecewise statistical envelope used for high-gain rotating radar
antennas (peak gain between 22 and 48 dBi), in the same family as the
ITU-R reference patterns for fixed radiolocation antennas.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .numerics import db_to_linear

INFINITE_REJECTION = float("inf")
"""Sentinel returned by fdr_general when the victim filter passes nothing."""


class OutOfRange(ValueError):
    """Requested inversion target lies outside the tabulated range."""


@dataclass(frozen=True)
class PowerLawPathLoss:
    """Attenuation l(r) = k0 * r**(-alpha), r in metres.

    alpha must exceed 2: the aggregate-interference integrals over a plane
    diverge otherwise.
    """

    k0: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.k0 > 0.0:
            raise ValueError("k0 must be positive")
        if not self.alpha > 2.0:
            raise ValueError(
                "alpha must exceed 2 for planar interference integrals to converge"
            )


@dataclass(frozen=True)
class TabulatedPathLoss:
    """Attenuation sampled at increasing distances, interpolated log-log.

    Outside the table the model extrapolates with the power law fitted to
    the two nearest samples, so tail-sensitive integrals remain defined.
    """

    distances_m: Tuple[float, ...]
    attenuations: Tuple[float, ...]

    def __post_init__(self) -> None:
        d = self.distances_m
        a = self.attenuations
        if len(d) != len(a) or len(d) < 2:
            raise ValueError("need matching distance/attenuation lists, length >= 2")
        if any(x <= 0.0 for x in d) or any(x <= 0.0 for x in a):
            raise ValueError("distances and attenuations must be positive")
        if any(d[i] >= d[i + 1] for i in range(len(d) - 1)):
            raise ValueError("distances must be strictly increasing")
        if any(a[i] <= a[i + 1] for i in range(len(a) - 1)):
            raise ValueError("attenuations must be strictly decreasing")

    @classmethod
    def from_csv(cls, path: str) -> "TabulatedPathLoss":
        """Load a two-column CSV with header ``distance_m,attenuation_db``."""
        distances = []
        attens = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [
                c.strip() for c in reader.fieldnames
            ] != ["distance_m", "attenuation_db"]:
                raise ValueError(
                    "expected CSV header 'distance_m,attenuation_db'"
                )
            for row in reader:
                distances.append(float(row["distance_m"]))
                attens.append(db_to_linear(float(row["attenuation_db"])))
        return cls(tuple(distances), tuple(attens))


PathLossModel = Union[PowerLawPathLoss, TabulatedPathLoss]


def _tabulated_attenuation(model: TabulatedPathLoss, distance_m: float) -> float:
    log_d = np.log(np.asarray(model.distances_m))
    log_a = np.log(np.asarray(model.attenuations))
    x = math.log(distance_m)
    if x < log_d[0]:
        slope = (log_a[1] - log_a[0]) / (log_d[1] - log_d[0])
        return math.exp(log_a[0] + slope * (x - log_d[0]))
    if x > log_d[-1]:
        slope = (log_a[-1] - log_a[-2]) / (log_d[-1] - log_d[-2])
        return math.exp(log_a[-1] + slope * (x - log_d[-1]))
    return math.exp(float(np.interp(x, log_d, log_a)))


def attenuation(model: PathLossModel, distance_m: float) -> float:
    """Linear attenuation l(distance); strictly decreasing in distance."""
    if not distance_m > 0.0:
        raise ValueError("distance_m must be positive")
    if isinstance(model, PowerLawPathLoss):
        return model.k0 * distance_m ** (-model.alpha)
    return _tabulated_attenuation(model, distance_m)


def invert_attenuation(
    model: PathLossModel, attenuation_target: float, extrapolate: bool = False
) -> float:
    """Distance at which the model's attenuation equals ``attenuation_target``.

    Monotonicity of both model variants makes the inverse unique.  For a
    tabulated model, targets outside the sampled attenuation span raise
    OutOfRange unless ``extrapolate`` is set, in which case the two-point
    power-law tails are inverted instead.
    """
    if not attenuation_target > 0.0:
        raise ValueError("attenuation_target must be positive")
    if isinstance(model, PowerLawPathLoss):
        return (model.k0 / attenuation_target) ** (1.0 / model.alpha)
    a_first, a_last = model.attenuations[0], model.attenuations[-1]
    if a_last <= attenuation_target <= a_first:
        log_a = np.log(np.asarray(model.attenuations[::-1]))
        log_d = np.log(np.asarray(model.distances_m[::-1]))
        return math.exp(float(np.interp(math.log(attenuation_target), log_a, log_d)))
    if not extrapolate:
        raise OutOfRange(
            f"target {attenuation_target} outside tabulated attenuation span "
            f"[{a_last}, {a_first}]"
        )
    log_d = np.log(np.asarray(model.distances_m))
    log_a = np.log(np.asarray(model.attenuations))
    if attenuation_target > a_first:
        slope = (log_a[1] - log_a[0]) / (log_d[1] - log_d[0])
        return math.exp(
            float(log_d[0] + (math.log(attenuation_target) - log_a[0]) / slope)
        )
    slope = (log_a[-1] - log_a[-2]) / (log_d[-1] - log_d[-2])
    return math.exp(
        float(log_d[-1] + (math.log(attenuation_target) - log_a[-1]) / slope)
    )


# --------------------------------------------------------------------------
# antenna patterns
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AntennaPattern:
    """Statistical azimuth gain envelope for high-gain rotating antennas.

    Valid for peak gains between 22 and 48 dBi.  The pattern is even in
    azimuth and piecewise: a parabolic main lobe out to theta_m, a
    near-in sidelobe plateau to theta_r, a 25 log10(theta) skirt to
    theta_b = 48 deg, and a constant back lobe beyond.  The main lobe and
    plateau join exactly; the remaining seams are a published property of
    the envelope (a few tenths of a dB).
    """

    gmax_dbi: float

    def __post_init__(self) -> None:
        if not 22.0 < self.gmax_dbi < 48.0:
            raise ValueError(
                f"statistical pattern is defined for 22 < gmax_dbi < 48, "
                f"got {self.gmax_dbi}"
            )

    @property
    def theta_m_deg(self) -> float:
        """Outer edge of the parabolic main-lobe branch, degrees."""
        return (
            50.0
            * math.sqrt(0.25 * self.gmax_dbi + 7.0)
            / 10.0 ** (self.gmax_dbi / 20.0)
        )

    @property
    def theta_r_deg(self) -> float:
        """Outer edge of the near-in sidelobe plateau, degrees."""
        return 250.0 / 10.0 ** (self.gmax_dbi / 20.0)

    @property
    def theta_b_deg(self) -> float:
        """Start of the constant back-lobe region, degrees."""
        return 48.0


@dataclass(frozen=True)
class ConstantGain:
    """Degenerate isotropic pattern; useful as an analytic reference."""

    gain_dbi: float


Pattern = Union[AntennaPattern, ConstantGain]


def _gain_dbi_abs(pattern: Pattern, abs_deg: float | np.ndarray) -> np.ndarray:
    """Gain in dBi at |theta| in degrees (float or array): the pattern's one formula."""
    if isinstance(pattern, ConstantGain):
        return np.full(np.shape(abs_deg), pattern.gain_dbi)
    a, g = abs_deg, pattern.gmax_dbi
    main = g - 0.0004 * 10.0 ** (g / 10.0) * a * a
    # clamped at theta_r > 0, below which the skirt is never selected
    skirt = 53.0 - 0.5 * g - 25.0 * np.log10(np.maximum(a, pattern.theta_r_deg))
    return np.where(
        a <= pattern.theta_m_deg,
        main,
        np.where(
            a <= pattern.theta_r_deg,
            0.75 * g - 7.0,
            np.where(a <= pattern.theta_b_deg, skirt, 11.0 - 0.5 * g),
        ),
    )


def gain_dbi(pattern: Pattern, theta_deg: float) -> float:
    """Antenna gain in dBi at azimuth ``theta_deg`` in [-180, 180]."""
    if not -180.0 <= theta_deg <= 180.0:
        raise ValueError("theta_deg must lie in [-180, 180]")
    return float(_gain_dbi_abs(pattern, abs(theta_deg)))


def gain_linear(pattern: Pattern, theta_deg: float) -> float:
    """Linear power gain at azimuth ``theta_deg``."""
    return db_to_linear(gain_dbi(pattern, theta_deg))


def gain_linear_rad(pattern: Pattern, theta_rad: float) -> float:
    """Linear power gain, azimuth in radians (wrapped to [-pi, pi])."""
    wrapped = math.remainder(theta_rad, 2.0 * math.pi)
    return gain_linear(pattern, math.degrees(wrapped))


def half_power_beamwidth_deg(pattern: AntennaPattern) -> float:
    """Full width of the main lobe between the -3 dB points, degrees."""
    half = math.sqrt(3.0 / (0.0004 * 10.0 ** (pattern.gmax_dbi / 10.0)))
    return 2.0 * half


def gain_linear_array(pattern: Pattern, theta_rad: np.ndarray) -> np.ndarray:
    """Vectorised linear gain over an array of azimuths in radians.

    Azimuths wrap modulo 2*pi, so dense sweep grids and scan-time traces
    can be evaluated in one shot.
    """
    theta_rad = np.asarray(theta_rad, dtype=float)
    # wrap by subtracting the nearest multiple of 2*pi: values already in
    # [-pi, pi] pass through bit-exact, so branch membership at the pattern
    # break points matches the scalar path instead of drifting by an ulp
    wrapped = theta_rad - 2.0 * np.pi * np.round(theta_rad / (2.0 * np.pi))
    return 10.0 ** (_gain_dbi_abs(pattern, np.abs(np.degrees(wrapped))) / 10.0)


# --------------------------------------------------------------------------
# frequency-dependent rejection
# --------------------------------------------------------------------------


def fdr_cochannel(interferer_bw_hz: float, victim_if_bw_hz: float) -> float:
    """Co-channel rejection: bandwidth ratio clamped at unity.

    A wideband interferer loses all power falling outside the victim's IF
    filter, so the surviving fraction is victim/interferer bandwidth; the
    rejection factor is the reciprocal, never below 1.
    """
    if not interferer_bw_hz > 0.0 or not victim_if_bw_hz > 0.0:
        raise ValueError("bandwidths must be positive")
    return max(interferer_bw_hz / victim_if_bw_hz, 1.0)


def fdr_general(
    tx_psd: Sequence[Tuple[float, float]],
    rx_filter: Sequence[Tuple[float, float]],
    delta_f_hz: float,
    n_grid: int = 65537,
) -> float:
    """General frequency-dependent rejection from sampled spectra.

    FDR(df) = integral P(f) df / integral P(f) |H(f + df)|^2-style response,
    both integrals by the trapezoid rule on a uniform grid spanning the
    transmit PSD support.  Samples are interpolated linearly and treated as
    zero outside their support.  Returns INFINITE_REJECTION when the victim
    filter rejects everything (disjoint spectra).
    """
    tx = np.asarray(tx_psd, dtype=float)
    rx = np.asarray(rx_filter, dtype=float)
    if tx.ndim != 2 or tx.shape[1] != 2 or tx.shape[0] < 2:
        raise ValueError("tx_psd must be a list of (freq_hz, density) pairs")
    if rx.ndim != 2 or rx.shape[1] != 2 or rx.shape[0] < 2:
        raise ValueError("rx_filter must be a list of (freq_hz, response) pairs")
    if np.any(tx[:, 1] < 0.0) or not np.any(tx[:, 1] > 0.0):
        raise ValueError("tx_psd must be non-negative with positive total power")
    if np.any(rx[:, 1] < 0.0) or np.any(rx[:, 1] > 1.0):
        raise ValueError("rx_filter response must lie in [0, 1]")
    grid = np.linspace(tx[0, 0], tx[-1, 0], n_grid)
    psd = np.interp(grid, tx[:, 0], tx[:, 1], left=0.0, right=0.0)
    resp = np.interp(grid + delta_f_hz, rx[:, 0], rx[:, 1], left=0.0, right=0.0)
    numerator = np.trapezoid(psd, grid)
    denominator = np.trapezoid(psd * resp, grid)
    if denominator <= 0.0 or denominator < numerator * 1e-15:
        return INFINITE_REJECTION
    return float(numerator / denominator)
