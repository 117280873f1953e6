"""Campbell moments, protection-contour solvers, and the field sampler.

Closed-form reference values for the isotropic cases are exact; the
high-gain-pattern cases were cross-checked against adaptive quadrature of
the same integrals (values agree to ~1e-4, limited by the fixed 4096-panel
azimuth grid) and then frozen at the library's own output for regression.
"""

import contextlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coexist.numerics import periodic_rule
from coexist.propagation import (
    AntennaPattern,
    ConstantGain,
    PowerLawPathLoss,
    TabulatedPathLoss,
    gain_linear_array,
)
from coexist.protection_multi import (
    CampbellStats,
    DeploymentField,
    MainSideLobePolicy,
    OptimalPolicy,
    OptimalityViolation,
    RadarBlindPolicy,
    TruncationTooSevere,
    _campbell_moments,
    azimuths_rad,
    campbell_stats,
    default_lobe_width_rad,
    gain_grid,
    optimize_beta,
    outage_probability,
    policy_profile,
    protected_area_m2,
    rescale_to_constraint,
    sample_aggregate,
    solve_main_side,
    solve_optimal_profile,
    solve_radar_blind,
    verify_local_optimality,
)
from coexist.protection_single import SecondaryUser

FDR = 30.627871362940276  # 20 MHz into a 653 kHz IF filter
I_MAX_W = 5.260429348225767e-16  # ROC (0.90, 1e-6) degraded to (0.85, 1e-6)


def _su() -> SecondaryUser:
    return SecondaryUser(
        eirp_w=1.0,
        bandwidth_hz=20e6,
        antenna_gain_dbi=2.15,
    )


def _field() -> DeploymentField:
    return DeploymentField(density_per_m2=1e-6, activity_prob=1.0, outage_max=0.1)


def _pattern() -> AntennaPattern:
    return AntennaPattern(gmax_dbi=33.5)


def _model() -> PowerLawPathLoss:
    return PowerLawPathLoss(k0=259.0, alpha=3.97)


def _const_profile(d0):
    return lambda theta: np.full(np.shape(np.asarray(theta)), d0)


# ------------------------------------------------------------- dataclasses


def test_deployment_field_validation():
    assert _field().active_density_per_m2 == 1e-6
    assert DeploymentField(2e-6, 0.5, 0.1).active_density_per_m2 == 1e-6
    with pytest.raises(ValueError):
        DeploymentField(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        DeploymentField(1e-6, 1.5, 0.1)
    with pytest.raises(ValueError):
        # the Gaussian design equation is declining only for outage < 1/2
        DeploymentField(1e-6, 1.0, 0.5)


def test_policy_validation():
    with pytest.raises(ValueError):
        OptimalPolicy(gamma=0.0, alpha=4.0)
    with pytest.raises(ValueError):
        OptimalPolicy(gamma=1.0, alpha=2.0)
    with pytest.raises(ValueError):
        RadarBlindPolicy(d_min_m=0.0)
    with pytest.raises(ValueError):
        MainSideLobePolicy(d_min_m=1e3, beta=0.5, lobe_width_rad=0.1)
    with pytest.raises(ValueError):
        MainSideLobePolicy(d_min_m=1e3, beta=3.0, lobe_width_rad=4.0)


def test_default_lobe_width():
    w = default_lobe_width_rad(_pattern())
    assert_allclose(math.degrees(w), 10.567445199183233, rtol=1e-13)
    with pytest.raises(TypeError):
        default_lobe_width_rad(ConstantGain(gain_dbi=0.0))


def test_policy_profiles():
    pattern = _pattern()
    theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)

    opt = OptimalPolicy(gamma=1e5, alpha=3.97)
    assert_allclose(
        policy_profile(opt, pattern)(theta),
        1e5 * gain_linear_array(pattern, theta) ** (1.0 / 3.97),
        rtol=1e-14,
    )

    blind = RadarBlindPolicy(d_min_m=1234.0)
    assert np.all(policy_profile(blind, pattern)(theta) == 1234.0)

    ms = MainSideLobePolicy(d_min_m=1e3, beta=4.0, lobe_width_rad=0.2)
    prof = policy_profile(ms, pattern)
    # window is centred on boresight and wraps across 2*pi
    assert prof(np.array([0.0]))[0] == 4e3
    assert prof(np.array([0.09]))[0] == 4e3
    assert prof(np.array([0.11]))[0] == 1e3
    assert prof(np.array([2.0 * np.pi - 0.09]))[0] == 4e3
    assert prof(np.array([np.pi]))[0] == 1e3


# --------------------------------------------------------- Campbell moments


def test_campbell_isotropic_closed_form():
    # isotropic 0 dBi, l(r) = r^-6, unit EIRP, no rejection: the angular
    # integrals collapse to 2*pi and the moments are elementary
    field = DeploymentField(5.6e-4, 1.0, 0.1)
    su = _su()
    iso = ConstantGain(gain_dbi=0.0)
    model = PowerLawPathLoss(k0=1.0, alpha=6.0)
    d0, r_out = 1000.0, 3250.0
    stats = campbell_stats(field, su, iso, model, _const_profile(d0), 1.0, outer_radius_m=r_out)
    plam = field.active_density_per_m2
    mean_exact = plam / 4.0 * 2.0 * math.pi * (d0**-4.0 - r_out**-4.0)
    var_exact = plam / 10.0 * 2.0 * math.pi * (d0**-10.0 - r_out**-10.0)
    assert_allclose(stats.mean_w, mean_exact, rtol=1e-12)
    assert_allclose(stats.variance_w2, var_exact, rtol=1e-12)
    assert_allclose(stats.std_w, math.sqrt(var_exact), rtol=1e-12)
    # and the same values via the quadrature oracle, frozen
    assert_allclose(stats.mean_w, 8.717614375113106e-16, rtol=1e-12)
    assert_allclose(stats.std_w, 1.8757817061299817e-17, rtol=1e-12)


def test_campbell_untruncated_grows():
    field = DeploymentField(5.6e-4, 1.0, 0.1)
    iso = ConstantGain(gain_dbi=0.0)
    model = PowerLawPathLoss(k0=1.0, alpha=6.0)
    full = campbell_stats(field, _su(), iso, model, _const_profile(1000.0), 1.0)
    trunc = campbell_stats(
        field, _su(), iso, model, _const_profile(1000.0), 1.0, outer_radius_m=3250.0
    )
    assert full.mean_w > trunc.mean_w
    assert full.variance_w2 > trunc.variance_w2


def test_campbell_pattern_vs_quadrature_oracle():
    # high-gain pattern, constant 2 km contour, 24 km truncation; the
    # adaptive-quadrature references are 2.1797496517828334e-10 W and
    # 2.678699129984175e-10 W (mean, std)
    stats = campbell_stats(
        _field(), _su(), _pattern(), _model(), _const_profile(2000.0), FDR,
        outer_radius_m=24000.0,
    )
    assert_allclose(stats.mean_w, 2.1797496517828334e-10, rtol=2e-4)
    assert_allclose(stats.std_w, 2.678699129984175e-10, rtol=2e-4)


def test_campbell_scaling_in_density_and_eirp():
    # mean is linear in density and EIRP; variance linear in density,
    # quadratic in EIRP -- straight from the shot-noise formulas
    base = campbell_stats(_field(), _su(), _pattern(), _model(), _const_profile(2e3), FDR)
    double_lam = campbell_stats(
        DeploymentField(2e-6, 1.0, 0.1), _su(), _pattern(), _model(), _const_profile(2e3), FDR
    )
    su4 = SecondaryUser(4.0, 20e6, 2.15)
    quad_p = campbell_stats(_field(), su4, _pattern(), _model(), _const_profile(2e3), FDR)
    assert_allclose(double_lam.mean_w, 2.0 * base.mean_w, rtol=1e-13)
    assert_allclose(double_lam.variance_w2, 2.0 * base.variance_w2, rtol=1e-13)
    assert_allclose(quad_p.mean_w, 4.0 * base.mean_w, rtol=1e-13)
    assert_allclose(quad_p.variance_w2, 16.0 * base.variance_w2, rtol=1e-13)


def test_campbell_requires_power_law():
    tab = TabulatedPathLoss((100.0, 1000.0), (1e-2, 1e-5))
    with pytest.raises(TypeError):
        campbell_stats(_field(), _su(), _pattern(), tab, _const_profile(2e3), FDR)


def test_campbell_rejects_profile_beyond_outer_radius():
    with pytest.raises(ValueError):
        campbell_stats(
            _field(), _su(), _pattern(), _model(), _const_profile(2000.0), FDR,
            outer_radius_m=1500.0,
        )


def test_campbell_rejects_scalar_profile():
    # profiles are vectorised over the azimuth grid; a callable that returns
    # one number for the whole grid is refused, not evaluated point by point
    with pytest.raises(ValueError, match="shape"):
        campbell_stats(_field(), _su(), _pattern(), _model(), lambda theta: 2000.0, FDR)
    with pytest.raises(ValueError, match="shape"):
        campbell_stats(
            _field(), _su(), _pattern(), _model(), lambda theta: np.full(7, 2000.0), FDR
        )


def test_outage_probability():
    stats = CampbellStats(mean_w=1.0, variance_w2=4.0)
    assert_allclose(outage_probability(stats, 1.0 + 2.0 * 1.2815515655446006), 0.1, rtol=1e-10)
    assert outage_probability(stats, 1e9) == 0.0
    # degenerate zero-variance field: outage is a step at the mean
    step = CampbellStats(mean_w=1.0, variance_w2=0.0)
    assert outage_probability(step, 2.0) == 0.0
    assert outage_probability(step, 0.5) == 1.0


# ------------------------------------------------------------------ solvers


def test_radar_blind_solver():
    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    policy = solve_radar_blind(field, su, pattern, model, FDR, I_MAX_W)
    assert_allclose(policy.d_min_m, 1427679.5416629429, rtol=1e-9)
    # the solved contour sits exactly on the outage constraint
    stats = campbell_stats(field, su, pattern, model, policy_profile(policy, pattern), FDR)
    assert_allclose(outage_probability(stats, I_MAX_W), field.outage_max, rtol=1e-9)


def test_optimal_solver():
    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    policy = solve_optimal_profile(field, su, pattern, model, FDR, I_MAX_W)
    assert_allclose(policy.gamma, 339723.664147945, rtol=1e-9)
    assert policy.alpha == model.alpha
    stats = campbell_stats(field, su, pattern, model, policy_profile(policy, pattern), FDR)
    assert_allclose(outage_probability(stats, I_MAX_W), field.outage_max, rtol=1e-9)


def test_main_side_solver_and_beta_collapse():
    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    w = default_lobe_width_rad(pattern)
    policy = solve_main_side(field, su, pattern, model, FDR, I_MAX_W, 4.0, w)
    assert_allclose(policy.d_max_m, 4.0 * policy.d_min_m, rtol=1e-12)
    stats = campbell_stats(field, su, pattern, model, policy_profile(policy, pattern), FDR)
    assert_allclose(outage_probability(stats, I_MAX_W), field.outage_max, rtol=1e-9)
    # beta = 1 removes the two-ring structure entirely
    collapsed = solve_main_side(field, su, pattern, model, FDR, I_MAX_W, 1.0, w)
    blind = solve_radar_blind(field, su, pattern, model, FDR, I_MAX_W)
    assert collapsed.d_min_m == blind.d_min_m
    assert collapsed.d_max_m == blind.d_min_m


def test_optimize_beta():
    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    w = default_lobe_width_rad(pattern)
    policy = optimize_beta(field, su, pattern, model, FDR, I_MAX_W, w)
    assert_allclose(policy.beta, 4.939173621966182, rtol=1e-9)
    assert_allclose(policy.d_min_m, 433343.5470272076, rtol=1e-9)
    assert_allclose(policy.d_max_m, 2140359.0167260454, rtol=1e-9)
    # optimum beats its neighbours
    area_opt = protected_area_m2(policy, pattern)
    for other in (policy.beta * 0.8, policy.beta * 1.25):
        neighbour = solve_main_side(field, su, pattern, model, FDR, I_MAX_W, other, w)
        assert protected_area_m2(neighbour, pattern) > area_opt


def test_policy_area_ordering():
    # more knowledge never costs area: optimal <= two-ring <= blind
    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    w = default_lobe_width_rad(pattern)
    blind = solve_radar_blind(field, su, pattern, model, FDR, I_MAX_W)
    opt = solve_optimal_profile(field, su, pattern, model, FDR, I_MAX_W)
    ms = optimize_beta(field, su, pattern, model, FDR, I_MAX_W, w)
    a_blind = protected_area_m2(blind, pattern)
    a_ms = protected_area_m2(ms, pattern)
    a_opt = protected_area_m2(opt, pattern)
    assert a_opt < a_ms < a_blind
    assert_allclose(a_blind / a_opt, 11.507836689054937, rtol=1e-9)


def test_protected_area_closed_forms():
    pattern, model = _pattern(), _model()
    blind = RadarBlindPolicy(d_min_m=2e3)
    assert_allclose(protected_area_m2(blind, pattern), math.pi * 4e6, rtol=1e-12)
    ms = MainSideLobePolicy(d_min_m=1e3, beta=5.0, lobe_width_rad=0.3)
    # two rings: (beta^2 w/2) + (pi - w/2), all times d_min^2
    want = (25.0 * 0.15 + math.pi - 0.15) * 1e6
    assert_allclose(protected_area_m2(ms, pattern), want, rtol=1e-12)
    opt = OptimalPolicy(gamma=1e5, alpha=3.97)
    # area of the gamma G^(1/alpha) contour equals its direct integral,
    # int d(theta)^2 / 2 on the azimuth grid
    d = policy_profile(opt, pattern)(azimuths_rad())
    assert_allclose(protected_area_m2(opt, pattern), periodic_rule(d**2) / 2.0, rtol=1e-12)


def test_rescale_to_constraint():
    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    opt = solve_optimal_profile(field, su, pattern, model, FDR, I_MAX_W)
    prof = policy_profile(opt, pattern)
    # the solved contour needs no rescale
    assert_allclose(
        rescale_to_constraint(field, su, pattern, model, prof, FDR, I_MAX_W), 1.0, rtol=1e-9
    )
    # a half-size copy of the same shape must come back scaled by exactly 2
    half = lambda theta: 0.5 * prof(theta)
    assert_allclose(
        rescale_to_constraint(field, su, pattern, model, half, FDR, I_MAX_W), 2.0, rtol=1e-9
    )


def test_local_optimality_report():
    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    opt = solve_optimal_profile(field, su, pattern, model, FDR, I_MAX_W)
    report = verify_local_optimality(
        opt, field, su, pattern, model, FDR, I_MAX_W, n_perturbations=25, seed=0
    )
    assert report.n_trials == 25
    assert report.worst_area_reduction <= report.tolerance


def test_local_optimality_catches_wrong_exponent():
    # same contour family with exponent 1/(alpha+1) instead of 1/alpha,
    # rescaled onto the constraint: ripples toward the true shape shrink
    # the area, so the check must throw
    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    wrong_shape = OptimalPolicy(gamma=1.0, alpha=model.alpha + 1.0)
    t = rescale_to_constraint(
        field, su, pattern, model, policy_profile(wrong_shape, pattern), FDR, I_MAX_W
    )
    wrong = OptimalPolicy(gamma=t, alpha=model.alpha + 1.0)
    with pytest.raises(OptimalityViolation):
        verify_local_optimality(
            wrong, field, su, pattern, model, FDR, I_MAX_W, n_perturbations=25, seed=0
        )


# ------------------------------------------------------------- Monte Carlo


def test_sampler_deterministic_per_seed():
    field = DeploymentField(1e-4, 1.0, 0.1)
    iso = ConstantGain(gain_dbi=0.0)
    model = PowerLawPathLoss(k0=1.0, alpha=6.0)
    kwargs = dict(fdr=1.0, profile=_const_profile(1000.0), outer_radius_m=4000.0)
    a = sample_aggregate(field, _su(), iso, model, n_samples=500, seed=7, **kwargs)
    b = sample_aggregate(field, _su(), iso, model, n_samples=500, seed=7, **kwargs)
    c = sample_aggregate(field, _su(), iso, model, n_samples=500, seed=8, **kwargs)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (500,)
    assert np.all(a >= 0.0)


def test_sampler_chunk_prefix_stable():
    # growing the sample count extends the stream without rewriting it
    field = DeploymentField(1e-4, 1.0, 0.1)
    iso = ConstantGain(gain_dbi=0.0)
    model = PowerLawPathLoss(k0=1.0, alpha=6.0)
    kwargs = dict(fdr=1.0, profile=_const_profile(1000.0), outer_radius_m=4000.0)
    short = sample_aggregate(field, _su(), iso, model, n_samples=250, seed=3, **kwargs)
    long = sample_aggregate(field, _su(), iso, model, n_samples=750, seed=3, **kwargs)
    assert np.array_equal(short, long[:250])


def _directional_case() -> dict:
    # optimal contour under the high-gain pattern: gain and keep-out tables
    # both vary with azimuth (0.36-3.5 km contour, ~2k points per sample)
    pattern, model = _pattern(), _model()
    profile = policy_profile(OptimalPolicy(gamma=500.0, alpha=model.alpha), pattern)
    return dict(field=_field(), su=_su(), pattern=pattern, model=model, fdr=1.0,
                profile=profile, outer_radius_m=25e3)


def _points_per_sample(case: dict) -> float:
    return case["field"].active_density_per_m2 * math.pi * case["outer_radius_m"] ** 2


def test_sampler_directional_deterministic_per_seed():
    from coexist import _mc_kernels

    case = _directional_case()
    assert 200 * _points_per_sample(case) > 3 * _mc_kernels.BLOCK_POINTS
    a = sample_aggregate(**case, n_samples=200, seed=7)
    b = sample_aggregate(**case, n_samples=200, seed=7)
    c = sample_aggregate(**case, n_samples=200, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (200,)
    assert np.all(a > 0.0)


def test_sampler_directional_prefix_stable():
    # 100 samples end inside a block; 300 span several blocks
    from coexist import _mc_kernels

    case = _directional_case()
    assert 300 * _points_per_sample(case) > 3 * _mc_kernels.BLOCK_POINTS
    short = sample_aggregate(**case, n_samples=100, seed=3)
    long = sample_aggregate(**case, n_samples=300, seed=3)
    assert np.array_equal(short, long[:100])


def test_sampler_slices_through_samples(monkeypatch):
    # slices far smaller than a sample: every sample's sum is pieced together
    # from several slices, and the moments must not notice
    from coexist import _mc_kernels

    monkeypatch.setattr(_mc_kernels, "SLICE_POINTS", 1000)
    case = _directional_case()
    x = sample_aggregate(**case, n_samples=2000, seed=11)
    assert np.array_equal(x, sample_aggregate(**case, n_samples=2000, seed=11))
    stats = campbell_stats(case["field"], case["su"], case["pattern"], case["model"],
                           case["profile"], 1.0, outer_radius_m=case["outer_radius_m"])
    se_mean = stats.std_w / math.sqrt(x.size)
    assert abs(x.mean() - stats.mean_w) < 5.0 * se_mean


def test_sampler_matches_campbell_moments():
    # 4000 samples of a dense isotropic field: sample mean within 5 standard
    # errors of the Campbell mean (approximately 5-sigma test, determinate
    # because the seed is fixed)
    field = DeploymentField(1e-4, 1.0, 0.1)
    iso = ConstantGain(gain_dbi=0.0)
    model = PowerLawPathLoss(k0=1.0, alpha=6.0)
    prof = _const_profile(1000.0)
    stats = campbell_stats(field, _su(), iso, model, prof, 1.0, outer_radius_m=4000.0)
    x = sample_aggregate(
        field, _su(), iso, model, 1.0, prof, 4000.0, n_samples=4000, seed=11
    )
    se_mean = stats.std_w / math.sqrt(x.size)
    assert abs(x.mean() - stats.mean_w) < 5.0 * se_mean


def test_sampler_rejects_severe_truncation():
    # outer radius barely past the contour discards far more than 1% of the
    # analytic mean
    field = DeploymentField(1e-4, 1.0, 0.1)
    iso = ConstantGain(gain_dbi=0.0)
    model = PowerLawPathLoss(k0=1.0, alpha=6.0)
    with pytest.raises(TruncationTooSevere):
        sample_aggregate(
            field, _su(), iso, model, 1.0, _const_profile(1000.0), 1100.0,
            n_samples=100, seed=0,
        )
    # the share left out is (d/R)^(alpha-2): 1% at R = 1000 m * 100^(1/4)
    cap = 1000.0 * 100.0**0.25
    for radius, refused in ((cap * (1 - 1e-9), True), (cap * (1 + 1e-9), False)):
        with pytest.raises(TruncationTooSevere) if refused else contextlib.nullcontext():
            sample_aggregate(
                field, _su(), iso, model, 1.0, _const_profile(1000.0), radius,
                n_samples=10, seed=0,
            )


def test_sampler_split_matches_campbell():
    # the bulk (modal back-lobe bins) and the remainder are sampled as two
    # fields; together they must realise the whole field: (a) a constant
    # contour, remainder not thinned; (b) the optimal contour, remainder
    # thinned.  40k samples: mean within 5 SE, variance within 5%
    from coexist import _mc_kernels
    from coexist.protection_multi import gain_grid

    field, su, pattern, model = _field(), _su(), _pattern(), _model()
    theta, gains = gain_grid(pattern)
    optimal = policy_profile(OptimalPolicy(gamma=500.0, alpha=model.alpha), pattern)
    for profile, thinned in ((_const_profile(2000.0), False), (optimal, True)):
        dnorm2 = (profile(theta) / 24e3) ** 2
        _, (bulk, rest) = _mc_kernels._split(1.0, dnorm2, gains)
        assert (rest.dnorm2_tab is not None) == thinned
        stats = campbell_stats(field, su, pattern, model, profile, 1.0,
                               outer_radius_m=24e3)
        x = sample_aggregate(field, su, pattern, model, 1.0, profile, 24e3,
                             n_samples=40_000, seed=0)
        se_mean = stats.std_w / math.sqrt(x.size)
        assert abs(x.mean() - stats.mean_w) < 5.0 * se_mean
        assert abs(x.var(ddof=1) / stats.variance_w2 - 1.0) < 0.05


def test_sampler_reads_the_quadrature_grid(monkeypatch):
    # the kernel samples the field the Campbell integrals integrate: its
    # gain table is gain_grid's, and its contour table the profile on the
    # same azimuths
    from coexist import _mc_kernels
    from coexist.config import load_scenario
    from coexist.propagation import fdr_cochannel
    from coexist.protection_multi import gain_grid

    scenario = load_scenario("type_b_radar")
    mc = scenario.raw["mc"]
    pattern, outer = scenario.pattern, mc["outer_radius_m"]
    fdr = fdr_cochannel(scenario.su.bandwidth_hz, scenario.radar.if_bandwidth_hz)
    theta, gains = gain_grid(pattern)
    seen = []
    monkeypatch.setattr(_mc_kernels, "sample_sums", lambda **kw: seen.append(kw))
    for policy in (
        RadarBlindPolicy(d_min_m=mc["profile"]["distance_m"]),
        OptimalPolicy(gamma=500.0, alpha=scenario.pathloss.alpha),
    ):
        profile = policy_profile(policy, pattern)
        sample_aggregate(
            scenario.field, scenario.su, pattern, scenario.pathloss, fdr, profile,
            outer, n_samples=10, seed=0,
        )
        tables = seen.pop()
        assert np.array_equal(tables["gain_tab"], gains)
        assert np.array_equal(tables["dnorm2_tab"], (profile(theta) / outer) ** 2)


# sample_sums outputs of constant tables, recorded before the bulk/remainder
# split; a constant pair of tables must keep this stream bit for bit
_DENSE_SUMS = [
    "0x1.f39fc0bfeadbcp-51", "0x1.f754b75144bdap-51", "0x1.e91a60e49e367p-51",
    "0x1.e32bbc4091398p-51", "0x1.f2cb6e975c4cbp-51", "0x1.fd548bd14ae17p-51",
    "0x1.02c927e701435p-50", "0x1.f7530c2f6b367p-51", "0x1.f769da9b16bf6p-51",
    "0x1.f74c5a915fb58p-51", "0x1.f249e8f9f1739p-51", "0x1.efee326b5d71bp-51",
    "0x1.fd046c771f720p-51", "0x1.feef9ec20bd3dp-51", "0x1.f8084d63123b2p-51",
    "0x1.ef9d2822477a3p-51", "0x1.fc2a83a5c90adp-51", "0x1.fed868ed04208p-51",
    "0x1.e9b4a6853363fp-51", "0x1.e33a230e74687p-51", "0x1.f2c4ea6e4f380p-51",
    "0x1.f2a4aafe1c08ep-51", "0x1.f4bf177cfe74ep-51", "0x1.f7dabd7e9081dp-51",
    "0x1.f5ebb1eeb6b0fp-51", "0x1.f38db849a2b1fp-51", "0x1.f957606192796p-51",
    "0x1.0039ab0c022e7p-50", "0x1.f4301029b731cp-51", "0x1.fdc20aaac8c98p-51",
    "0x1.ee89187c8d559p-51", "0x1.0388ed070c2b3p-50", "0x1.f08346722819ap-51",
    "0x1.e98309ebc2e12p-51", "0x1.046a84bf6560ap-50", "0x1.051d9c6ff28dcp-50",
    "0x1.ee09861889ff9p-51", "0x1.0133ab2b0dffap-50", "0x1.f0d4c21930d85p-51",
    "0x1.fcaf206b17fd5p-51",
]
_SMALL_SUMS = [
    "0x1.61f61a4973eb6p+5", "0x1.ac5a548a07b0ap+4", "0x1.6c244813e598cp+4",
    "0x1.08c376329f6fap+6", "0x1.ac77a63aee6d4p+4", "0x1.a974e8dc6c29ep+5",
    "0x1.c226def1acf82p+4", "0x1.a39546f279f25p+4", "0x1.0fcc442ac49c8p+4",
    "0x1.e1b04f26dab53p+4", "0x1.cdf3532362c40p+5", "0x1.653dc6997692cp+3",
]


def test_sampler_constant_tables_stream_is_pinned():
    from coexist import _mc_kernels

    # criterion 7's dense tail field: 3 samples per block, 14 blocks
    dense = _mc_kernels.sample_sums(
        lam_disk=5.6e-4 * math.pi * 3250.0**2,
        dnorm2_tab=np.full(16384, (1000.0 / 3250.0) ** 2),
        gain_tab=np.ones(16384),
        c_point=3250.0**-6.0,
        half_neg=-3.0,
        n_samples=40,
        seed=3,
    )
    assert [float(s).hex() for s in dense] == _DENSE_SUMS
    same = sample_aggregate(
        DeploymentField(5.6e-4, 1.0, 0.1), _su(), ConstantGain(gain_dbi=0.0),
        PowerLawPathLoss(k0=1.0, alpha=6.0), 1.0, _const_profile(1000.0), 3250.0,
        n_samples=40, seed=3,
    )
    assert np.array_equal(same, dense)
    # a non-integer exponent, and a scale (c_point * g0) whose rounding shows
    small = _mc_kernels.sample_sums(
        lam_disk=20.0,
        dnorm2_tab=np.full(16, 0.25),
        gain_tab=np.full(16, 2.5),
        c_point=0.3,
        half_neg=-1.985,
        n_samples=12,
        seed=7,
    )
    assert [float(s).hex() for s in small] == _SMALL_SUMS


@pytest.mark.parametrize("gmax", [None, 33.5])
@pytest.mark.parametrize("outer", [None, 5e4])
def test_constant_contour_moments_are_the_full_arrays_bit_for_bit(gmax, outer):
    # a constant contour takes each power once; the moments must be those of
    # the elementwise powers over the whole grid, to the bit
    pattern = ConstantGain(gain_dbi=0.0) if gmax is None else AntennaPattern(gmax_dbi=gmax)
    _, gains = gain_grid(pattern)
    rng = np.random.default_rng(7)
    for d0, alpha in zip(10.0 ** rng.uniform(0.0, 4.5, 200), rng.uniform(2.0001, 10.0, 200)):
        d = np.full(gains.shape, d0)
        radial_mean, radial_var = d ** (2.0 - alpha), d ** (2.0 - 2.0 * alpha)
        if outer is not None:
            radial_mean = radial_mean - outer ** (2.0 - alpha)
            radial_var = radial_var - outer ** (2.0 - 2.0 * alpha)
        expected = (periodic_rule(gains * radial_mean), periodic_rule(gains**2 * radial_var))
        assert _campbell_moments(gains, d, alpha, outer) == expected
