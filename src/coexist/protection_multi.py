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
    N_PANELS_DEFAULT,
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

PROFILE_TABLE_SIZE = 16384

OPTIMALITY_TOLERANCE = 1e-3  # largest relative area cut a perturbation may make
RIPPLE_AMPLITUDE = 0.05  # relative peak of each optimality-check perturbation


class ConvergenceViolation(ValueError):
    """Attenuation exponent too shallow for planar Campbell integrals."""


class TruncationTooSevere(ValueError):
    """Monte Carlo outer radius discards more than 1% of the analytic mean."""


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
    """First two moments of the aggregate interference, plus the prefactors."""

    mean_w: float
    variance_w2: float
    c_mu: float
    c_sigma2: float

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
    d_max_m: float
    beta: float
    lobe_width_rad: float

    def __post_init__(self) -> None:
        if not self.d_min_m > 0.0:
            raise ValueError("d_min_m must be positive")
        if not self.beta >= 1.0:
            raise ValueError("beta = d_max/d_min must be >= 1")
        if not 0.0 < self.lobe_width_rad < math.pi:
            raise ValueError("lobe_width_rad must lie in (0, pi)")
        if not math.isclose(self.d_max_m, self.beta * self.d_min_m, rel_tol=1e-9):
            raise ValueError("d_max_m must equal beta * d_min_m")


SharingPolicy = Union[OptimalPolicy, RadarBlindPolicy, MainSideLobePolicy]


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


@lru_cache(maxsize=32)
def gain_grid(
    pattern: Pattern, n_panels: int = N_PANELS_DEFAULT
) -> Tuple[np.ndarray, np.ndarray]:
    """Cached read-only (theta, linear gain) on the uniform n_panels azimuth grid."""
    theta = np.linspace(0.0, TWO_PI, n_panels, endpoint=False)
    gains = gain_linear_array(pattern, theta)
    theta.setflags(write=False)
    gains.setflags(write=False)
    return theta, gains


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
    if model.alpha <= 2.0:
        raise ConvergenceViolation("alpha must exceed 2")
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
        if not outer_radius_m > float(np.max(d)):
            raise ValueError("outer_radius_m must exceed the profile everywhere")
        radial_mean = radial_mean - outer_radius_m ** (2.0 - alpha)
        radial_var = radial_var - outer_radius_m ** (2.0 - 2.0 * alpha)
    return periodic_rule(gains * radial_mean), periodic_rule(gains**2 * radial_var)


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
    return CampbellStats(
        mean_w=c_mu * m1, variance_w2=c_sigma2 * m2, c_mu=c_mu, c_sigma2=c_sigma2
    )


def outage_probability(stats: CampbellStats, i_max_w: float) -> float:
    """Gaussian-approximation outage Pr{I_aggr > I_max}."""
    if stats.variance_w2 > 0.0:
        return q_tail((i_max_w - stats.mean_w) / stats.std_w)
    return 0.0 if stats.mean_w < i_max_w else 1.0


def _scale_onto_constraint(
    field: DeploymentField, su: SecondaryUser, model: PowerLawPathLoss, fdr: float,
    i_max_w: float, m1: float, m2: float,
) -> float:
    """Scale t pinning a contour with Campbell moments (m1, m2) onto the outage cap.

    Solves a*t^(2-alpha) + b*t^(1-alpha) = I_max, a = C_mu*m1 and
    b = Qinv(p)*sqrt(C_s2*m2); the left-hand side strictly decreases in t.
    """
    if not i_max_w > 0.0:
        raise ValueError("i_max_w must be positive")
    alpha = model.alpha
    c_mu, c_sigma2 = _prefactors(field, su, model, fdr)
    a_coef = c_mu * m1
    b_coef = q_inverse(field.outage_max) * math.sqrt(c_sigma2 * m2)

    def f(x: float) -> float:
        return a_coef * x ** (2.0 - alpha) + b_coef * x ** (1.0 - alpha) - i_max_w

    guess = (a_coef / i_max_w) ** (1.0 / (alpha - 2.0))
    lo = guess / 2.0
    hi = guess * 2.0
    for _ in range(200):
        if f(lo) > 0.0:
            break
        lo /= 8.0
    for _ in range(200):
        if f(hi) < 0.0:
            break
        hi *= 8.0
    return solve_root(f, RootBracket(lo=lo, hi=hi, tol_rel=1e-13, max_iter=400))


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
    _, gains = gain_grid(pattern)
    j_integral = periodic_rule(gains ** (2.0 / model.alpha))
    gamma = _scale_onto_constraint(
        field, su, model, fdr, i_max_w, j_integral, j_integral
    )
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
    _, gains = gain_grid(pattern)
    d_min = _scale_onto_constraint(
        field, su, model, fdr, i_max_w, periodic_rule(gains), periodic_rule(gains**2)
    )
    return RadarBlindPolicy(d_min_m=d_min)


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
    declining one-dimensional equation in d_min.  beta = 1 collapses to the
    radar-blind solution exactly.
    """
    if not beta >= 1.0:
        raise ValueError("beta must be >= 1")
    model = _require_power_law(model)
    alpha = model.alpha
    main_g, side_g, main_g2, side_g2 = _split_gain_integrals(pattern, lobe_width_rad)
    xi1 = side_g + beta ** (2.0 - alpha) * main_g
    xi2 = side_g2 + beta ** (2.0 - 2.0 * alpha) * main_g2
    d_min = _scale_onto_constraint(field, su, model, fdr, i_max_w, xi1, xi2)
    return MainSideLobePolicy(
        d_min_m=d_min, d_max_m=beta * d_min, beta=beta, lobe_width_rad=lobe_width_rad
    )


def _two_ring_area_m2(policy: MainSideLobePolicy) -> float:
    w = policy.lobe_width_rad
    return (
        policy.beta**2 * w / 2.0 + math.pi - w / 2.0
    ) * policy.d_min_m**2


def optimize_beta(
    field: DeploymentField,
    su: SecondaryUser,
    pattern: Pattern,
    model: PathLossModel,
    fdr: float,
    i_max_w: float,
    lobe_width_rad: float,
    beta_grid: Sequence[float] | None = None,
) -> Tuple[float, MainSideLobePolicy]:
    """Pick the d_max/d_min ratio minimising the total two-ring area.

    Coarse scan over ``beta_grid`` (default 1..16) followed by golden-
    section refinement around the grid minimum; the area is unimodal in
    beta on high-gain patterns (small beta bloats the side ring, large
    beta bloats the main ring).
    """
    if beta_grid is None:
        beta_grid = np.linspace(1.0, 16.0, 61)
    betas = [float(b) for b in beta_grid]
    if len(betas) < 3:
        raise ValueError("beta_grid needs at least 3 points")
    if any(b < 1.0 for b in betas):
        raise ValueError("beta values must be >= 1")
    if any(betas[i] >= betas[i + 1] for i in range(len(betas) - 1)):
        raise ValueError("beta_grid must be strictly increasing")

    def area_at(beta: float) -> float:
        return _two_ring_area_m2(
            solve_main_side(
                field, su, pattern, model, fdr, i_max_w, beta, lobe_width_rad
            )
        )

    areas = [area_at(b) for b in betas]
    i_best = int(np.argmin(areas))
    lo = betas[max(i_best - 1, 0)]
    hi = betas[min(i_best + 1, len(betas) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = area_at(x1), area_at(x2)
    for _ in range(80):
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
    if beta_opt < 1.0:
        beta_opt = 1.0
    policy = solve_main_side(
        field, su, pattern, model, fdr, i_max_w, beta_opt, lobe_width_rad
    )
    return beta_opt, policy


def profile_area_m2(profile: Callable[[np.ndarray], np.ndarray]) -> float:
    """Enclosed area of a polar contour, int d(theta)^2 / 2 dtheta."""
    theta = np.linspace(0.0, TWO_PI, N_PANELS_DEFAULT, endpoint=False)
    return periodic_rule(_profile_on_grid(profile, theta) ** 2) / 2.0


def protected_area_m2(
    policy: SharingPolicy, pattern: Pattern, model: PathLossModel
) -> float:
    """Total keep-out area enclosed by the policy's contour."""
    if isinstance(policy, RadarBlindPolicy):
        return math.pi * policy.d_min_m**2
    if isinstance(policy, MainSideLobePolicy):
        return _two_ring_area_m2(policy)
    if isinstance(policy, OptimalPolicy):
        model = _require_power_law(model)
        _, gains = gain_grid(pattern)
        return policy.gamma**2 * periodic_rule(gains ** (2.0 / policy.alpha)) / 2.0
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
    return _scale_onto_constraint(field, su, model, fdr, i_max_w, m1, m2)


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
        m1, m2 = _campbell_moments(gains, d_eps, model.alpha)
        t = _scale_onto_constraint(field, su, model, fdr, i_max_w, m1, m2)
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
    tabulated on ``PROFILE_TABLE_SIZE`` azimuth bins, and a point reads the
    bin it falls in, as the Campbell quadrature does.

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
    theta_tab, gain_tab = gain_grid(pattern, PROFILE_TABLE_SIZE)
    prof_tab = _profile_on_grid(profile, theta_tab)
    mean_full, _ = _campbell_moments(gain_tab, prof_tab, alpha)
    mean_kept, _ = _campbell_moments(gain_tab, prof_tab, alpha, outer_radius_m)
    tail_share = 1.0 - mean_kept / mean_full
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
