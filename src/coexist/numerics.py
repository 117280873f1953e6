"""Shared deterministic numerics: Gaussian tails, root finding, quadrature.

Small, dependency-light building blocks used across the analysis modules.
The Gaussian tail pair comes from the standard library (``math.erfc``,
``statistics.NormalDist``); the root solver is plain bisection, chosen for
bit-for-bit reproducibility of solver outputs across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

N_PANELS_DEFAULT = 4096  # azimuth grid: dozens of samples across the main lobe

_STANDARD_NORMAL = NormalDist()


class NoSignChange(ValueError):
    """The supplied bracket does not straddle a sign change."""


class NoConvergence(RuntimeError):
    """Bisection failed to reach the requested tolerance within max_iter."""


class DegenerateFit(ValueError):
    """Regression input does not span more than a single abscissa."""


def q_tail(x: float) -> float:
    """Upper-tail probability Q(x) = P(Z > x) of the standard normal.

    Implemented as erfc(x/sqrt(2))/2 (Abramowitz & Stegun 26.2.29), which
    stays accurate deep into the tail (Q(40) underflows cleanly to 0.0
    instead of producing NaN).
    """
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse of :func:`q_tail` for scalar probabilities in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse requires 0 < p < 1, got {p}")
    return -_STANDARD_NORMAL.inv_cdf(p)


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to linear."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to decibels (-inf for zero)."""
    if value == 0.0:
        return float("-inf")
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class RootBracket:
    """Search interval and stopping rule for :func:`solve_root`.

    tol_rel is relative to the magnitude of the bracket endpoints, so the
    solver behaves sensibly for roots anywhere from metres to megametres.
    """

    lo: float
    hi: float
    tol_rel: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not self.tol_rel > 0.0:
            raise ValueError("tol_rel must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def solve_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Find the root of ``f`` inside ``bracket`` by bisection.

    Bisection rather than Brent: every equation this package solves is
    strictly monotone in the unknown, and halving is deterministic to the
    last bit for identical inputs, which the reproducibility contract of
    the CLI relies on.

    Raises NoSignChange when f(lo) and f(hi) have the same (nonzero) sign,
    NoConvergence when max_iter bisections do not shrink the interval to
    tol_rel.
    """
    lo, hi = bracket.lo, bracket.hi
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(
            f"f({lo}) = {flo} and f({hi}) = {fhi} have the same sign"
        )
    for _ in range(bracket.max_iter):
        mid = 0.5 * (lo + hi)
        scale = max(abs(lo), abs(hi), 1e-300)
        if (hi - lo) <= bracket.tol_rel * scale:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise NoConvergence(
        f"no convergence to tol_rel={bracket.tol_rel} in {bracket.max_iter} bisections"
    )


def periodic_rule(values: np.ndarray) -> float:
    """Integral over [0, 2*pi) of an integrand sampled at theta_i = 2*pi*i/n.

    The trapezoid rule on this wrapped grid; every azimuth integral uses it.
    """
    return float(np.sum(values)) * (TWO_PI / np.size(values))


def fit_power_law(
    samples: Iterable[Tuple[float, float]]
) -> Tuple[float, float]:
    """Least-squares fit of attenuation samples to l(r) = k0 * r**(-alpha).

    ``samples`` holds (distance_m, attenuation_linear) pairs, all strictly
    positive.  The fit is ordinary least squares on log-log axes,
    log l = log k0 - alpha * log r; returns (k0, alpha).
    """
    pts = [(float(r), float(l)) for r, l in samples]
    if len(pts) < 2:
        raise ValueError("need at least two samples")
    for r, l in pts:
        if r <= 0.0 or l <= 0.0:
            raise ValueError("distances and attenuations must be positive")
    log_r = np.log([r for r, _ in pts])
    log_l = np.log([l for _, l in pts])
    if np.ptp(log_r) == 0.0:
        raise DegenerateFit("all sample distances are identical")
    slope, intercept = np.polyfit(log_r, log_l, 1)
    return float(math.exp(intercept)), float(-slope)


def log_log_r_squared(x: Sequence[float], y: Sequence[float]) -> float:
    """Coefficient of determination of a straight-line fit in log-log axes."""
    lx = np.log10(np.asarray(x, dtype=float))
    ly = np.log10(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot
