"""Path-loss models, the statistical high-gain antenna pattern, and FDR.

Attenuation is carried as a linear power ratio l(r) <= 1 (the inverse of
path loss), so interference chains are plain products.  The antenna model
is the piecewise statistical envelope used for high-gain rotating radar
antennas (peak gain between 22 and 48 dBi), in the same family as the
ITU-R reference patterns for fixed radiolocation antennas.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

from .numerics import Record, db_to_linear, np

INFINITE_REJECTION = float("inf")
"""Sentinel returned by fdr_general when the victim filter passes nothing."""

FDR_GRID_POINTS = 65537  # uniform frequency grid of fdr_general's trapezoid sums


class PowerLawPathLoss(Record):
    """Attenuation l(r) = k0 * r**(-alpha), r in metres.

    alpha must exceed 2: the aggregate-interference integrals over a plane
    diverge otherwise.
    """

    _schema_section = "pathloss"

    k0: float
    alpha: float


class TabulatedPathLoss(Record):
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
        if not all(map(math.isfinite, (*d, *a))):
            raise ValueError("distances and attenuations must be finite")
        if any(d[i] >= d[i + 1] for i in range(len(d) - 1)):
            raise ValueError("distances must be strictly increasing")
        if any(a[i] <= a[i + 1] for i in range(len(a) - 1)):
            raise ValueError("attenuations must be strictly decreasing")


PathLossModel = Union[PowerLawPathLoss, TabulatedPathLoss]
FloatOrArray = Union[float, "np.ndarray"]


def _log_log_interp(
    x: FloatOrArray, xs: Sequence[float], ys: Sequence[float]
) -> FloatOrArray:
    """Log-log interpolant through the samples (xs, ys) at x; xs increasing.

    Piecewise linear in (log x, log y) between the samples; beyond either
    end, the line through the two end samples.  Read forward (distance to
    attenuation) and reversed (attenuation to distance), the two readings
    are inverses of each other, tails included.  ``x`` is a float or an
    array; a float gives a float.
    """
    # math's log and exp for a float: numpy's differ from them in the last
    # ulp on some inputs, and scalar attenuations feed written results
    log, exp = (np.log, np.exp) if np.ndim(x) else (math.log, math.exp)
    log_x = np.log(np.asarray(xs))
    log_y = np.log(np.asarray(ys))
    u = log(x)
    # the two-point power-law tails, each anchored at its end sample
    head_slope = (log_y[1] - log_y[0]) / (log_x[1] - log_x[0])
    tail_slope = (log_y[-2] - log_y[-1]) / (log_x[-2] - log_x[-1])
    head = log_y[0] + head_slope * (u - log_x[0])
    tail = log_y[-1] + tail_slope * (u - log_x[-1])
    log_v = np.where(
        u < log_x[0], head, np.where(u > log_x[-1], tail, np.interp(u, log_x, log_y))
    )
    return exp(log_v)


def attenuation(model: PathLossModel, distance_m: float) -> float:
    """Linear attenuation l(distance); strictly decreasing in distance."""
    if not distance_m > 0.0:
        raise ValueError("distance_m must be positive")
    if isinstance(model, PowerLawPathLoss):
        return model.k0 * distance_m ** (-model.alpha)
    return _log_log_interp(distance_m, model.distances_m, model.attenuations)


def invert_attenuation(
    model: PathLossModel, attenuation_target: FloatOrArray
) -> FloatOrArray:
    """Distance at which the model's attenuation equals ``attenuation_target``.

    Monotonicity of both model variants makes the inverse unique.  A
    tabulated model is inverted with the same log-log interpolant that
    :func:`attenuation` reads, so targets outside the sampled span follow
    the two-point power-law tails.  Takes a float or an array of targets.
    """
    if not np.all(attenuation_target > 0.0):
        raise ValueError("attenuation_target must be positive")
    if isinstance(model, PowerLawPathLoss):
        return (model.k0 / attenuation_target) ** (1.0 / model.alpha)
    return _log_log_interp(
        attenuation_target, model.attenuations[::-1], model.distances_m[::-1]
    )


# --------------------------------------------------------------------------
# antenna patterns
# --------------------------------------------------------------------------


class AntennaPattern(Record):
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


class ConstantGain(Record):
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


def gain_dbi(pattern: Pattern, theta_deg: FloatOrArray) -> FloatOrArray:
    """Antenna gain in dBi at azimuth ``theta_deg`` in [-180, 180] (float or array)."""
    if not np.all(np.abs(theta_deg) <= 180.0):
        raise ValueError("theta_deg must lie in [-180, 180]")
    gain = _gain_dbi_abs(pattern, np.abs(theta_deg))
    return gain if np.ndim(theta_deg) else float(gain)


def gain_linear(pattern: Pattern, theta_deg: FloatOrArray) -> FloatOrArray:
    """Linear power gain at azimuth ``theta_deg`` (float or array)."""
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
) -> float:
    """General frequency-dependent rejection from sampled spectra.

    FDR(df) = integral P(f) df / integral P(f) |H(f + df)|^2-style response,
    both integrals by the trapezoid rule on a uniform grid of
    ``FDR_GRID_POINTS`` points spanning the transmit PSD support.  Samples
    are interpolated linearly and treated as zero outside their support.
    Returns INFINITE_REJECTION when the victim filter rejects everything
    (disjoint spectra).
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
    grid = np.linspace(tx[0, 0], tx[-1, 0], FDR_GRID_POINTS)
    psd = np.interp(grid, tx[:, 0], tx[:, 1], left=0.0, right=0.0)
    resp = np.interp(grid + delta_f_hz, rx[:, 0], rx[:, 1], left=0.0, right=0.0)
    numerator = np.trapezoid(psd, grid)
    denominator = np.trapezoid(psd * resp, grid)
    if denominator <= 0.0 or denominator < numerator * 1e-15:
        return INFINITE_REJECTION
    return float(numerator / denominator)
