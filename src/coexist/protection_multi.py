"""Aggregate interference from a Poisson field of secondary transmitters.

Transmitters form a planar Poisson point process outside an azimuth-
dependent keep-out contour d(theta) around the radar.  The aggregate
interference is a shot-noise field; Campbell's theorem gives its mean and
variance in closed form under a power-law attenuation l(r) = k0 r^-alpha,
and a Gaussian approximation turns an outage cap Pr{I > I_max} <= p into a
one-dimensional design equation for the contour scale.

Three knowledge regimes produce three contour families:

* ``OptimalPolicy``     -- full pattern knowledge, d(theta) = gamma * G^(1/alpha)
* ``RadarBlindPolicy``  -- no knowledge, constant d_min
* ``MainSideLobePolicy``-- lobe-level knowledge, two-ring contour d_min/d_max

plus a Monte Carlo sampler of the exact field to validate the Gaussian
design equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .numerics import (
    TWO_PI,
    RootBracket,
    periodic_rule,
    q_inverse,
    q_tail,
    solve_root,
)
from .propagation import (
    ConstantGain,
    Pattern,
    PathLossModel,
    PowerLawPathLoss,
    gain_linear_array,
)
from .protection_single import SecondaryUser
from . import _mc_kernels

WorkTooLarge = _mc_kernels.WorkTooLarge  # sample_aggregate raises it

MAX_NEWTON_STEPS = 64  # the contour scale settles in two to five; bisection after

DEFAULT_BETA_GRID_POINTS = 61  # optimize_beta's default grid, 1..16
GOLDEN_SECTION_STEPS = 80  # most refinement steps optimize_beta takes after its grid

OPTIMALITY_TOLERANCE = 1e-3  # largest relative area cut a perturbation may make
RIPPLE_AMPLITUDE = 0.05  # relative peak of each optimality-check perturbation


class TruncationTooSevere(ValueError):
    """The outer radius lies inside the contour or drops over 1% of the analytic mean."""


class ScaleNotFinite(ValueError):
    """The outage constraint puts the contour scale outside the float range."""


class OptimalityViolation(AssertionError):
    """A constraint-restored perturbation beat the supposedly optimal contour."""


@dataclass(frozen=True)
class DeploymentField:
    """Poisson deployment: density, activity, and the outage cap."""

    density_per_m2: float
    activity_prob: float
    outage_max: float

    def __post_init__(self) -> None:
        if not self.density_per_m2 > 0.0:
            raise ValueError("density_per_m2 must be positive")
        if not 0.0 < self.activity_prob <= 1.0:
            raise ValueError("activity_prob must lie in (0, 1]")
        if not 0.0 < self.outage_max < 0.5:
            raise ValueError("outage_max must lie in (0, 0.5)")

    @property
    def active_density_per_m2(self) -> float:
        """Thinned intensity: density times independent activity probability."""
        return self.density_per_m2 * self.activity_prob


@dataclass(frozen=True)
class CampbellStats:
    """First two moments of the aggregate interference."""

    mean_w: float
    variance_w2: float

    @property
    def std_w(self) -> float:
        return math.sqrt(self.variance_w2)


@dataclass(frozen=True)
class OptimalPolicy:
    """Full-knowledge contour d(theta) = gamma * G(theta)**(1/alpha)."""

    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not self.alpha > 2.0:
            raise ValueError("alpha must exceed 2")


@dataclass(frozen=True)
class RadarBlindPolicy:
    """No-knowledge contour: one constant keep-out distance."""

    d_min_m: float

    def __post_init__(self) -> None:
        if not self.d_min_m > 0.0:
            raise ValueError("d_min_m must be positive")


@dataclass(frozen=True)
class MainSideLobePolicy:
    """Two-ring contour: d_max across the main lobe, d_min elsewhere."""

    d_min_m: float
    beta: float
    lobe_width_rad: float

    def __post_init__(self) -> None:
        if not self.d_min_m > 0.0:
            raise ValueError("d_min_m must be positive")
        if not self.beta >= 1.0:
            raise ValueError("beta = d_max/d_min must be >= 1")
        _check_lobe_width(self.lobe_width_rad)

    @property
    def d_max_m(self) -> float:
        """Keep-out distance across the main lobe, beta * d_min_m."""
        return self.beta * self.d_min_m


SharingPolicy = Union[OptimalPolicy, RadarBlindPolicy, MainSideLobePolicy]


def _check_lobe_width(lobe_width_rad: float) -> None:
    if not 0.0 < lobe_width_rad < math.pi:
        raise ValueError("lobe_width_rad must lie in (0, pi)")


def default_lobe_width_rad(pattern: Pattern) -> float:
    """Default angular width of the 'main lobe' ring: out to the sidelobe skirt.

    The two-ring policy has to cover everything that radiates near peak
    gain -- the parabolic lobe plus the near-in plateau -- so the default
    window spans twice the plateau's outer edge.  Narrower windows leave
    plateau-level gain outside the d_max ring and inflate d_min instead.
    """
    if isinstance(pattern, ConstantGain):
        raise TypeError("a constant pattern has no lobe structure")
    return 2.0 * math.radians(pattern.theta_r_deg)


N_PANELS = 4096  # the one azimuth grid: dozens of panels across the main lobe
AZIMUTHS_RAD = np.linspace(0.0, TWO_PI, N_PANELS, endpoint=False)
AZIMUTHS_RAD.setflags(write=False)


@lru_cache(maxsize=32)
def gain_grid(pattern: Pattern) -> Tuple[np.ndarray, np.ndarray]:
    """Cached read-only (theta, linear gain) on ``AZIMUTHS_RAD``, the one azimuth grid."""
    gains = gain_linear_array(pattern, AZIMUTHS_RAD)
    gains.setflags(write=False)
    return AZIMUTHS_RAD, gains


def policy_profile(
    policy: SharingPolicy, pattern: Pattern
) -> Callable[[np.ndarray], np.ndarray]:
    """Contour d(theta) as a vectorised callable over azimuth in radians."""
    if isinstance(policy, OptimalPolicy):
        exponent = 1.0 / policy.alpha
        gamma = policy.gamma

        def profile(theta_rad):
            return gamma * gain_linear_array(pattern, np.asarray(theta_rad)) ** exponent

        return profile
    if isinstance(policy, RadarBlindPolicy):
        d_min = policy.d_min_m

        def profile(theta_rad):
            return np.full(np.shape(np.asarray(theta_rad)), d_min)

        return profile
    if isinstance(policy, MainSideLobePolicy):
        half = policy.lobe_width_rad / 2.0
        d_min, d_max = policy.d_min_m, policy.d_max_m

        def profile(theta_rad):
            wrapped = np.remainder(np.asarray(theta_rad) + np.pi, TWO_PI) - np.pi
            return np.where(np.abs(wrapped) <= half, d_max, d_min)

        return profile
    raise TypeError(f"unknown policy type {type(policy)!r}")


def optimal_contour(policy: OptimalPolicy, pattern: Pattern) -> np.ndarray:
    """The policy's contour on ``gain_grid``'s azimuths, from its cached gains."""
    return policy.gamma * gain_grid(pattern)[1] ** (1.0 / policy.alpha)


def _profile_on_grid(
    profile: Callable[[np.ndarray], np.ndarray], theta: np.ndarray
) -> np.ndarray:
    """The vectorised contour on the azimuth grid, checked for shape and sign."""
    values = np.asarray(profile(theta), dtype=float)
    if values.shape != theta.shape:
        raise ValueError(
            f"protection profile must map an azimuth array of shape {theta.shape} "
            f"to the same shape, got {values.shape}"
        )
    if np.any(values <= 0.0):
        raise ValueError("protection profile must be strictly positive")
    return values


def _prefactors(
    field: DeploymentField, su: SecondaryUser, model: PowerLawPathLoss, fdr: float
) -> Tuple[float, float]:
    plam = field.active_density_per_m2
    c_mu = plam * su.eirp_w * model.k0 / (fdr * (model.alpha - 2.0))
    c_sigma2 = (
        plam * su.eirp_w**2 * model.k0**2 / (fdr**2 * (2.0 * model.alpha - 2.0))
    )
    return c_mu, c_sigma2


def _require_power_law(model: PathLossModel) -> PowerLawPathLoss:
    if not isinstance(model, PowerLawPathLoss):
        raise TypeError(
            "Campbell closed forms require a PowerLawPathLoss "
            "(fit tabulated data first)"
        )
    return model


def _campbell_moments(
    gains: np.ndarray, d: np.ndarray, alpha: float, outer_radius_m: float | None = None
) -> Tuple[float, float]:
    """(int G d^(2-alpha), int G^2 d^(2-2*alpha)) for gains and contour d on one grid.

    With ``outer_radius_m`` set, the radial integrals stop at that radius.
    """
    radial_mean = d ** (2.0 - alpha)
    radial_var = d ** (2.0 - 2.0 * alpha)
    if outer_radius_m is not None:
        _check_outer_radius(d, outer_radius_m)
        radial_mean = radial_mean - outer_radius_m ** (2.0 - alpha)
        radial_var = radial_var - outer_radius_m ** (2.0 - 2.0 * alpha)
    return periodic_rule(gains * radial_mean), periodic_rule(gains**2 * radial_var)


def _check_outer_radius(d: np.ndarray, outer_radius_m: float) -> None:
    d_max = float(np.max(d))
    if not outer_radius_m > d_max:
        raise TruncationTooSevere(
            f"outer radius {outer_radius_m} m must exceed the profile everywhere "
            f"(it reaches {d_max} m)"
        )


def campbell_stats(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    profile: Callable[[np.ndarray], np.ndarray],
    fdr: float,
    outer_radius_m: float | None = None,
) -> CampbellStats:
    """Campbell mean and variance of the aggregate interference.

    mean = C_mu  * int G(theta)   * d(theta)^(2-alpha)   dtheta
    var  = C_s2  * int G(theta)^2 * d(theta)^(2-2*alpha) dtheta

    With ``outer_radius_m`` set, the radial integrals stop at that radius
    instead of extending to infinity -- the correct reference for a Monte
    Carlo sampler that truncates the field at the same radius.
    """
    model = _require_power_law(model)
    theta, gains = gain_grid(pattern)
    d = _profile_on_grid(profile, theta)
    m1, m2 = _campbell_moments(gains, d, model.alpha, outer_radius_m)
    c_mu, c_sigma2 = _prefactors(field, su, model, fdr)
    return CampbellStats(mean_w=c_mu * m1, variance_w2=c_sigma2 * m2)


def outage_probability(stats: CampbellStats, i_max_w: float) -> float:
    """Gaussian-approximation outage Pr{I_aggr > I_max}."""
    if stats.variance_w2 > 0.0:
        return q_tail((i_max_w - stats.mean_w) / stats.std_w)
    return 0.0 if stats.mean_w < i_max_w else 1.0


def _constraint(
    field: DeploymentField, su: SecondaryUser, model: PowerLawPathLoss, fdr: float,
    i_max_w: float,
) -> Callable[[float, float], float]:
    """t(m1, m2): the scale pinning a contour with Campbell moments (m1, m2) onto the cap.

    Solves a*t^(2-alpha) + b*t^(1-alpha) = I_max, a = C_mu*m1 and
    b = Qinv(p)*sqrt(C_s2*m2), by Newton's method in y = ln t.  Since
    outage_max < 0.5, b > 0 and g(y) = ln(a e^((2-alpha)y) + b e^((1-alpha)y))
    - ln I_max, a log-sum-exp of affine terms, is convex and strictly
    decreasing.  The iterates start at the larger of the roots of the two
    terms alone, which lies left of the root, so they rise monotonically
    onto it; the solve stops at the first step that no longer increases t.
    t is carried as t * exp(step), not exp(y), so it keeps full precision
    whatever its magnitude.  Should the steps not settle within
    MAX_NEWTON_STEPS, bisection finishes the solve between the last checked
    iterate and the t at which each term is at most I_max/2.

    t(m1, m2) raises ScaleNotFinite when the root lies outside the float range.
    """
    if not i_max_w > 0.0:
        raise ValueError("i_max_w must be positive")
    c_mu, c_sigma2 = _prefactors(field, su, model, fdr)
    q_p = q_inverse(field.outage_max)
    alpha = model.alpha

    def scale(m1: float, m2: float) -> float:
        a_coef, b_coef = c_mu * m1, q_p * math.sqrt(c_sigma2 * m2)
        try:
            lo = t = max(
                (a_coef / i_max_w) ** (1.0 / (alpha - 2.0)),
                (b_coef / i_max_w) ** (1.0 / (alpha - 1.0)),
            )
            for _ in range(MAX_NEWTON_STEPS):
                if not 0.0 < t < math.inf:
                    break
                mean = a_coef * t ** (2.0 - alpha)
                spread = b_coef * t ** (1.0 - alpha)
                total = mean + spread
                step = (
                    math.log(total / i_max_w) * total
                    / ((alpha - 2.0) * mean + (alpha - 1.0) * spread)
                )
                t_next = t * math.exp(step)
                if not t_next > t:
                    return t
                lo, t = t, t_next
            else:
                hi = max(
                    (2.0 * a_coef / i_max_w) ** (1.0 / (alpha - 2.0)),
                    (2.0 * b_coef / i_max_w) ** (1.0 / (alpha - 1.0)),
                )
                return solve_root(
                    lambda x: a_coef * x ** (2.0 - alpha) + b_coef * x ** (1.0 - alpha) - i_max_w,
                    RootBracket(lo=lo, hi=hi, tol_rel=1e-13, max_iter=400),
                )
        except OverflowError:
            pass
        raise ScaleNotFinite(
            f"contour scale is not finite: a*t^(2-alpha) + b*t^(1-alpha) = I_max "
            f"with a={a_coef:.6g}, b={b_coef:.6g}, I_max={i_max_w:.6g} W and "
            f"alpha={alpha:.6g} has no positive root in the float range"
        )

    return scale


def solve_optimal_profile(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    fdr: float,
    i_max_w: float,
) -> OptimalPolicy:
    """Area-minimal contour meeting the outage constraint with equality.

    Lagrange stationarity of the area objective under the Gaussian outage
    constraint forces d(theta) proportional to G(theta)**(1/alpha); the scale
    gamma solves A*gamma^(2-alpha) + B*gamma^(1-alpha) = I_max with
    A = C_mu * J and B = Qinv(p) * sqrt(C_s2 * J), J = int G^(2/alpha).
    """
    model = _require_power_law(model)
    j_integral = _optimal_moment(pattern, model.alpha)
    gamma = _constraint(field, su, model, fdr, i_max_w)(j_integral, j_integral)
    return OptimalPolicy(gamma=gamma, alpha=model.alpha)


def solve_radar_blind(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    fdr: float,
    i_max_w: float,
) -> RadarBlindPolicy:
    """Constant keep-out distance meeting the outage constraint with equality."""
    model = _require_power_law(model)
    d_min = _constraint(field, su, model, fdr, i_max_w)(*_blind_moments(pattern))
    return RadarBlindPolicy(d_min_m=d_min)


@lru_cache(maxsize=32)
def _blind_moments(pattern: Pattern) -> Tuple[float, float]:
    """(int G, int G^2): the Campbell moments of a constant unit contour."""
    _, gains = gain_grid(pattern)
    return periodic_rule(gains), periodic_rule(gains**2)


@lru_cache(maxsize=32)
def _optimal_moment(pattern: Pattern, alpha: float) -> float:
    """J = int G^(2/alpha): both Campbell moments, and twice the area, of G^(1/alpha)."""
    _, gains = gain_grid(pattern)
    return periodic_rule(gains ** (2.0 / alpha))


@lru_cache(maxsize=32)
def _split_gain_integrals(
    pattern: Pattern, lobe_width_rad: float
) -> Tuple[float, float, float, float]:
    """(main, side) integrals of G and G^2 over the lobe window and its complement.

    Cached: they do not depend on beta, which optimize_beta varies.
    """
    theta, gains = gain_grid(pattern)
    wrapped = np.remainder(theta + np.pi, TWO_PI) - np.pi
    in_main = np.abs(wrapped) <= lobe_width_rad / 2.0
    main, side = gains * in_main, gains * ~in_main
    return tuple(periodic_rule(v) for v in (main, side, main**2, side**2))


def solve_main_side(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    fdr: float,
    i_max_w: float,
    beta: float,
    lobe_width_rad: float,
) -> MainSideLobePolicy:
    """Two-ring contour with a fixed d_max/d_min ratio ``beta``.

    The lobe window (full width ``lobe_width_rad``, centred on boresight)
    is protected out to beta * d_min; splitting the Campbell integrals over
    the window and its complement reduces the constraint to the same
    declining one-dimensional equation in d_min.  beta = 1 is solved with
    the radar-blind moments, so it returns the radar-blind d_min exactly.
    """
    if not beta >= 1.0:
        raise ValueError("beta must be >= 1")
    d_min = _main_side_scale(field, su, pattern, model, fdr, i_max_w, lobe_width_rad)(beta)
    return MainSideLobePolicy(d_min_m=d_min, beta=beta, lobe_width_rad=lobe_width_rad)


def _main_side_scale(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    fdr: float,
    i_max_w: float,
    lobe_width_rad: float,
) -> Callable[[float], float]:
    """The two-ring d_min as a function of beta >= 1.

    The model check, the design equation's set-up and the split gain
    integrals do not depend on beta, so they are done here once; each call
    then costs one contour-scale solve.
    """
    model = _require_power_law(model)
    alpha = model.alpha
    scale = _constraint(field, su, model, fdr, i_max_w)
    main_g, side_g, main_g2, side_g2 = _split_gain_integrals(pattern, lobe_width_rad)

    def d_min_at(beta: float) -> float:
        if beta == 1.0:
            xi1, xi2 = _blind_moments(pattern)
        else:
            xi1 = side_g + beta ** (2.0 - alpha) * main_g
            xi2 = side_g2 + beta ** (2.0 - 2.0 * alpha) * main_g2
        return scale(xi1, xi2)

    return d_min_at


def _two_ring_area_m2(beta: float, lobe_width_rad: float, d_min_m: float) -> float:
    w = lobe_width_rad
    return (beta**2 * w / 2.0 + math.pi - w / 2.0) * d_min_m**2


def optimize_beta(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    fdr: float,
    i_max_w: float,
    lobe_width_rad: float,
    beta_grid: Sequence[float] | None = None,
) -> MainSideLobePolicy:
    """Pick the d_max/d_min ratio minimising the total two-ring area.

    Coarse scan over ``beta_grid`` (default 1..16) followed by golden-
    section refinement around the grid minimum; the area is unimodal in
    beta on high-gain patterns (small beta bloats the side ring, large
    beta bloats the main ring).
    """
    if beta_grid is None:
        beta_grid = np.linspace(1.0, 16.0, DEFAULT_BETA_GRID_POINTS)
    betas = [float(b) for b in beta_grid]
    if len(betas) < 3:
        raise ValueError("beta_grid needs at least 3 points")
    if any(b < 1.0 for b in betas):
        raise ValueError("beta values must be >= 1")
    if any(betas[i] >= betas[i + 1] for i in range(len(betas) - 1)):
        raise ValueError("beta_grid must be strictly increasing")

    _check_lobe_width(lobe_width_rad)
    d_min_at = _main_side_scale(field, su, pattern, model, fdr, i_max_w, lobe_width_rad)

    def area_at(beta: float) -> float:
        return _two_ring_area_m2(beta, lobe_width_rad, d_min_at(beta))

    i_best = int(np.argmin([area_at(b) for b in betas]))
    lo = betas[max(i_best - 1, 0)]
    hi = betas[min(i_best + 1, len(betas) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = area_at(x1), area_at(x2)
    for _ in range(GOLDEN_SECTION_STEPS):
        if hi - lo <= 1e-7 * max(1.0, hi):
            break
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = area_at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = area_at(x2)
    beta_opt = 0.5 * (lo + hi)
    return MainSideLobePolicy(
        d_min_m=d_min_at(beta_opt), beta=beta_opt, lobe_width_rad=lobe_width_rad
    )


def beta_scan_solves(beta_grid: Sequence[float] | None = None) -> int:
    """Most contour-scale solves of ``optimize_beta``: grid, golden section, chosen beta."""
    n_grid = DEFAULT_BETA_GRID_POINTS if beta_grid is None else len(beta_grid)
    return n_grid + 2 + GOLDEN_SECTION_STEPS + 1


def protected_area_m2(policy: SharingPolicy, pattern: Pattern) -> float:
    """Total keep-out area enclosed by the policy's contour."""
    if isinstance(policy, RadarBlindPolicy):
        return math.pi * policy.d_min_m**2
    if isinstance(policy, MainSideLobePolicy):
        return _two_ring_area_m2(policy.beta, policy.lobe_width_rad, policy.d_min_m)
    if isinstance(policy, OptimalPolicy):
        return policy.gamma**2 * _optimal_moment(pattern, policy.alpha) / 2.0
    raise TypeError(f"unknown policy type {type(policy)!r}")


def rescale_to_constraint(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    profile: Callable[[np.ndarray], np.ndarray],
    fdr: float,
    i_max_w: float,
) -> float:
    """Scale factor t pinning t*d(theta) onto the outage constraint.

    Uniform scaling changes the Campbell mean by t^(2-alpha) and the
    standard deviation by t^(1-alpha), so restoring equality is the same
    declining scalar equation the policy solvers use.
    """
    model = _require_power_law(model)
    theta, gains = gain_grid(pattern)
    m1, m2 = _campbell_moments(gains, _profile_on_grid(profile, theta), model.alpha)
    return _constraint(field, su, model, fdr, i_max_w)(m1, m2)


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the random-perturbation optimality check."""

    n_trials: int
    worst_area_reduction: float
    tolerance: float


def verify_local_optimality(
    policy: OptimalPolicy,
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    fdr: float,
    i_max_w: float,
    n_perturbations: int = 100,
    seed: int = 0,
) -> OptimalityReport:
    """Empirical check that the solved contour is a local area minimum.

    Each trial deforms the contour with a random low-order Fourier ripple
    of relative peak ``RIPPLE_AMPLITUDE``, rescales it back onto the outage
    constraint, and compares areas.  If any constraint-restored deformation
    undercuts the solved area by more than ``OPTIMALITY_TOLERANCE``
    (relative), OptimalityViolation is raised.
    """
    model = _require_power_law(model)
    theta, gains = gain_grid(pattern)
    # the policy's own contour (its exponent, not the model's): a policy
    # built with the wrong exponent must fail this check, not be silently
    # replaced by the correct shape
    d0 = _profile_on_grid(policy_profile(policy, pattern), theta)
    area0 = periodic_rule(d0**2) / 2.0
    scale = _constraint(field, su, model, fdr, i_max_w)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(n_perturbations):
        ripple = np.zeros_like(theta)
        for k in range(1, 5):
            a_k, b_k = rng.standard_normal(2)
            ripple += a_k * np.cos(k * theta) + b_k * np.sin(k * theta)
        peak = float(np.max(np.abs(ripple)))
        if peak == 0.0:
            continue
        d_eps = d0 * (1.0 + RIPPLE_AMPLITUDE * ripple / peak)
        t = scale(*_campbell_moments(gains, d_eps, model.alpha))
        area_eps = t**2 * periodic_rule(d_eps**2) / 2.0
        reduction = 1.0 - area_eps / area0
        if reduction > worst:
            worst = reduction
        if reduction > OPTIMALITY_TOLERANCE:
            raise OptimalityViolation(
                f"perturbation {trial} (seed {seed}) reduced the area by "
                f"{reduction:.3e} (> {OPTIMALITY_TOLERANCE:.1e})"
            )
    return OptimalityReport(
        n_trials=n_perturbations,
        worst_area_reduction=worst,
        tolerance=OPTIMALITY_TOLERANCE,
    )


def sample_aggregate(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    fdr: float,
    profile: Callable[[np.ndarray], np.ndarray],
    outer_radius_m: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Monte Carlo samples of the aggregate interference power.

    Each sample realises the Poisson field on the annulus between the
    keep-out contour and ``outer_radius_m`` (points are drawn outside the
    smallest keep-out distance and thinned against the contour, which
    realises the annulus process exactly) and sums
    P_SU * G(theta) * l(r) / FDR over the points.  Gain and contour are
    tabulated on ``gain_grid``'s panels, piecewise constant, so the field
    sampled is the one the Campbell quadrature integrates.  The bins that
    share the modal (gain, contour) pair are sampled as one field with no
    azimuth draw; the other bins as a second, independent field whose
    points draw a bin and read its tables.

    Raises ``WorkTooLarge`` before sampling when the
    expected drawn points or the bytes of the sums exceed the kernel's
    caps.

    The truncated field misses analytic mean mass proportional to
    outer_radius^(2-alpha); if that exceeds 1% of the untruncated mean the
    radius is rejected as TruncationTooSevere.  Compare results against
    ``campbell_stats(..., outer_radius_m=...)``, which integrates over the
    same annulus.

    Deterministic for a fixed (seed, n_samples) and prefix-stable in
    n_samples: samples are generated in blocks whose size depends on the
    scenario but not on ``n_samples`` (about 65k expected points per
    block), each block seeded independently from a SeedSequence derived
    from ``seed``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    model = _require_power_law(model)
    alpha = model.alpha
    theta, gain_tab = gain_grid(pattern)
    prof_tab = _profile_on_grid(profile, theta)
    _check_outer_radius(prof_tab, outer_radius_m)
    # the mean beyond the radius is R^(2-alpha) * int G, whatever the contour
    mean_full, _ = _campbell_moments(gain_tab, prof_tab, alpha)
    tail_share = outer_radius_m ** (2.0 - alpha) * _blind_moments(pattern)[0] / mean_full
    if tail_share > 0.01:
        raise TruncationTooSevere(
            f"outer radius {outer_radius_m} m leaves {tail_share:.2%} "
            "of the analytic mean outside the sampled annulus (cap: 1%)"
        )
    lam_disk = field.active_density_per_m2 * math.pi * outer_radius_m**2
    c_point = su.eirp_w * model.k0 * outer_radius_m ** (-alpha) / fdr
    dnorm2_tab = (prof_tab / outer_radius_m) ** 2
    return _mc_kernels.sample_sums(
        lam_disk=lam_disk,
        dnorm2_tab=dnorm2_tab,
        gain_tab=gain_tab,
        c_point=c_point,
        half_neg=-alpha / 2.0,
        n_samples=n_samples,
        seed=seed,
    )
