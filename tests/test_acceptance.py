"""Release acceptance suite: the headline numbers this library must hit.

One test per criterion.  Each prints a single ``criterion N: PASS/FAIL``
line carrying the measured values (pytest is configured with -rP so these
lines appear in the run report) and then asserts the same condition.

Scenario under test throughout: the S-band terminal-area surveillance
radar family of ITU-R M.1464-1 sharing with 1 W / 20 MHz IEEE 802.11n
secondaries over a 2.8 GHz power-law propagation fit.
"""

import math
import time

import numpy as np

from coexist._mc_kernels import resolve_backend
from coexist.numerics import db_to_linear, linear_to_db, log_log_r_squared, q_inverse
from coexist.propagation import (
    AntennaPattern,
    ConstantGain,
    PowerLawPathLoss,
    fdr_cochannel,
    fdr_general,
    gain_dbi,
    half_power_beamwidth_deg,
)
from coexist.protection_multi import (
    DeploymentField,
    OptimalPolicy,
    OptimalityViolation,
    campbell_stats,
    default_lobe_width_rad,
    optimize_beta,
    policy_profile,
    protected_area_m2,
    rescale_to_constraint,
    sample_aggregate,
    solve_optimal_profile,
    solve_radar_blind,
    verify_local_optimality,
)
from coexist.protection_single import (
    SecondaryUser,
    dbm,
    inr_vs_performance_drop,
    max_tolerable_interference,
    protection_distance,
    single_user_gamma,
)
from coexist.radar_detection import RadarSystem, RocPoint, snr_required_albersheim
from coexist.wifi_link import (
    DEFAULT_80211N,
    WifiLink,
    average_throughput,
    radar_interference_w,
)

RADAR = RadarSystem(
    tx_power_w=1.32e6,
    wavelength_m=0.107068735,
    peak_gain_dbi=33.5,
    prf_hz=1059.0,
    pulse_width_s=1.03e-6,
    if_bandwidth_hz=653e3,
    noise_figure_db=4.0,
    ambient_temp_k=290.0,
    scan_time_s=4.8,
    scan_solid_angle_sr=0.5263789013914324,
    system_loss_db=2.0,
)
# same radar transmitting 1 us pulses on an 896 us repetition interval,
# the waveform used for the WiFi-side interference studies
RADAR_896 = RADAR.replace(prf_hz=1.0 / 896e-6, pulse_width_s=1e-6)

SU = SecondaryUser(
    eirp_w=1.0,
    bandwidth_hz=20e6,
    antenna_gain_dbi=2.15,
)
PATTERN = AntennaPattern(gmax_dbi=33.5)
MODEL = PowerLawPathLoss(k0=259.0, alpha=3.97)
FIELD = DeploymentField(density_per_m2=1e-6, activity_prob=1.0, outage_max=0.1)
FDR = fdr_cochannel(20e6, 653e3)
BUDGET = max_tolerable_interference(
    RADAR,
    snr_required_albersheim(RocPoint(pd=0.90, pfa=1e-6)),
    snr_required_albersheim(RocPoint(pd=0.85, pfa=1e-6)),
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _const_profile(d0):
    return lambda theta: np.full(np.shape(np.asarray(theta)), d0)


def test_criterion_1_roc_to_snr():
    got_90 = linear_to_db(snr_required_albersheim(RocPoint(pd=0.90, pfa=1e-6)))
    got_85 = linear_to_db(snr_required_albersheim(RocPoint(pd=0.85, pfa=1e-6)))
    ok = abs(got_90 - 13.14) <= 0.01 and abs(got_85 - 12.80) <= 0.01
    _report(
        1,
        ok,
        f"required SNR {got_90:.4f} dB (want 13.14+-0.01), "
        f"{got_85:.4f} dB (want 12.80+-0.01)",
    )


def test_criterion_2_interference_budget():
    inr = BUDGET.inr_db
    i_max_dbm = dbm(BUDGET.i_max_w)
    rows = inr_vs_performance_drop(RADAR, db_to_linear(30.57), 0.90, 1e-6, [0.05])
    inr_high = rows[0][1]
    ok = (
        abs(inr - (-10.9)) <= 0.1
        and abs(i_max_dbm - (-122.6)) <= 0.5
        and abs(inr_high - 17.7) <= 0.05
    )
    _report(
        2,
        ok,
        f"INR {inr:.4f} dB (want -10.9+-0.1), I_max {i_max_dbm:.4f} dBm "
        f"(want -122.6+-0.5), 30.57 dB baseline 5% drop INR {inr_high:.4f} dB "
        f"(want 17.7+-0.05)",
    )


def test_criterion_3_antenna_model():
    hpbw = half_power_beamwidth_deg(PATTERN)
    theta_m = PATTERN.theta_m_deg
    eps = 1e-9
    jump_db = abs(gain_dbi(PATTERN, theta_m - eps) - gain_dbi(PATTERN, theta_m + eps))
    ok = abs(hpbw - 3.7) <= 0.1 and jump_db <= 0.01
    _report(
        3,
        ok,
        f"3-dB beamwidth {hpbw:.4f} deg (want 3.7+-0.1), branch step at "
        f"theta_M {jump_db:.2e} dB (want <=0.01)",
    )


def test_criterion_4_frequency_dependent_rejection():
    exact = fdr_cochannel(20e6, 653e3)
    tx = [(-10e6, 1.0), (10e6, 1.0)]
    rx = [(-326.5e3, 1.0), (326.5e3, 1.0)]
    general = fdr_general(tx, rx, 0.0)
    ok = abs(exact - 30.6) <= 0.1 and abs(general / exact - 1.0) <= 0.02
    _report(
        4,
        ok,
        f"FDR {exact:.4f} (want 30.6+-0.1), flat-spectrum quadrature "
        f"{general:.4f} ({abs(general / exact - 1.0) * 100:.3f}% off, want <=2%)",
    )


def test_criterion_5_single_interferer_contour():
    d_side = protection_distance(SU, PATTERN, MODEL, BUDGET, 90.0, FDR)
    thetas = np.linspace(-180.0, 180.0, 721)
    d = protection_distance(SU, PATTERN, MODEL, BUDGET, thetas, FDR)
    gains = np.array([db_to_linear(gain_dbi(PATTERN, t)) for t in thetas])
    scale = d / gains ** (1.0 / MODEL.alpha)
    shape_dev = float(np.max(np.abs(scale / scale[360] - 1.0)))
    ok = 7e3 <= d_side <= 13e3 and shape_dev <= 1e-9
    _report(
        5,
        ok,
        f"side-lobe distance {d_side / 1e3:.3f} km (want 7..13), contour vs "
        f"G^(1/alpha) max deviation {shape_dev:.2e} (want <=1e-9)",
    )


def test_criterion_6_protection_table():
    i_max = BUDGET.i_max_w
    blind = solve_radar_blind(FIELD, SU, PATTERN, MODEL, FDR, i_max)
    optimal = solve_optimal_profile(FIELD, SU, PATTERN, MODEL, FDR, i_max)
    main_side = optimize_beta(
        FIELD, SU, PATTERN, MODEL, FDR, i_max,
        lobe_width_rad=default_lobe_width_rad(PATTERN),
    )

    contour = policy_profile(optimal, PATTERN)(np.linspace(-np.pi, np.pi, 14401))
    opt_min, opt_max = float(np.min(contour)), float(np.max(contour))

    area_blind = protected_area_m2(blind, PATTERN) / 1e6  # km^2
    area_opt = protected_area_m2(optimal, PATTERN) / 1e6
    area_ms = protected_area_m2(main_side, PATTERN) / 1e6
    ratio = area_blind / area_opt

    def within(got, want, tol):
        return abs(got / want - 1.0) <= tol

    ok = (
        within(blind.d_min_m, 1403e3, 0.10)
        and within(opt_min, 239e3, 0.15)
        and within(opt_max, 2331e3, 0.15)
        and within(main_side.d_min_m, 437e3, 0.15)
        and within(main_side.d_max_m, 2140e3, 0.15)
        and within(area_opt, 0.54e6, 0.20)
        and within(area_ms, 0.98e6, 0.20)
        and within(area_blind, 6.2e6, 0.20)
        and within(ratio, 11.5, 0.30)
    )
    _report(
        6,
        ok,
        f"blind d_min {blind.d_min_m / 1e3:.1f} km (want 1403+-10%); optimal "
        f"{opt_min / 1e3:.1f}/{opt_max / 1e3:.1f} km (want 239/2331+-15%); "
        f"main-side {main_side.d_min_m / 1e3:.1f}/{main_side.d_max_m / 1e3:.1f} km "
        f"(want 437/2140+-15%); areas {area_opt / 1e6:.3f}/{area_ms / 1e6:.3f}/"
        f"{area_blind / 1e6:.3f} Mkm^2 (want 0.54/0.98/6.2+-20%); "
        f"area ratio {ratio:.2f} (want 11.5+-30%)",
    )


def test_criterion_7_monte_carlo_agreement():
    n = 100_000
    t0 = time.perf_counter()

    # moments: directional gain, heavy-tailed per-point powers
    profile_a = _const_profile(2000.0)
    stats_a = campbell_stats(FIELD, SU, PATTERN, MODEL, profile_a, 1.0,
                             outer_radius_m=24e3)
    samples_a = sample_aggregate(FIELD, SU, PATTERN, MODEL, 1.0, profile_a,
                                 24e3, n, seed=1)
    mean_err = abs(float(np.mean(samples_a)) / stats_a.mean_w - 1.0)
    var_err = abs(float(np.var(samples_a, ddof=1)) / stats_a.variance_w2 - 1.0)

    # tail: dense isotropic field, near-Gaussian aggregate
    field_b = DeploymentField(density_per_m2=5.6e-4, activity_prob=1.0,
                              outage_max=0.1)
    pattern_b = ConstantGain(gain_dbi=0.0)
    model_b = PowerLawPathLoss(k0=1.0, alpha=6.0)
    profile_b = _const_profile(1000.0)
    stats_b = campbell_stats(field_b, SU, pattern_b, model_b, profile_b, 1.0,
                             outer_radius_m=3250.0)
    samples_b = sample_aggregate(field_b, SU, pattern_b, model_b, 1.0,
                                 profile_b, 3250.0, n, seed=3)
    z99 = 2.5758293035489004
    tail_checks = []
    for p in (0.05, 0.10, 0.20):
        i_max = stats_b.mean_w + q_inverse(p) * stats_b.std_w
        empirical = float(np.mean(samples_b > i_max))
        ci = z99 * math.sqrt(p * (1.0 - p) / n)
        tail_checks.append((p, empirical, ci, abs(empirical - p) <= ci))
    elapsed = time.perf_counter() - t0

    ok = (
        mean_err <= 0.02
        and var_err <= 0.05
        and all(c[3] for c in tail_checks)
        and elapsed < 60.0
    )
    tails = ", ".join(
        f"p={p}: {emp:.4f}+-{ci:.4f}" for p, emp, ci, _ in tail_checks
    )
    _report(
        7,
        ok,
        f"mean err {mean_err * 100:.3f}% (want <=2%), variance err "
        f"{var_err * 100:.3f}% (want <=5%), tails within 99% CI [{tails}], "
        f"{elapsed:.1f} s on the {resolve_backend()} kernel (want <60)",
    )


def test_criterion_8_contour_optimality():
    i_max = BUDGET.i_max_w
    t0 = time.perf_counter()
    optimal = solve_optimal_profile(FIELD, SU, PATTERN, MODEL, FDR, i_max)
    report = verify_local_optimality(
        optimal, FIELD, SU, PATTERN, MODEL, FDR, i_max,
        n_perturbations=100, seed=0,
    )

    # negative control: same outage constraint, wrong contour exponent
    wrong_shape = OptimalPolicy(gamma=optimal.gamma, alpha=MODEL.alpha + 1.0)
    t = rescale_to_constraint(
        FIELD, SU, PATTERN, MODEL, policy_profile(wrong_shape, PATTERN), FDR, i_max
    )
    wrong = OptimalPolicy(gamma=optimal.gamma * t, alpha=MODEL.alpha + 1.0)
    area_opt = protected_area_m2(optimal, PATTERN)
    area_wrong = protected_area_m2(wrong, PATTERN)
    caught = False
    try:
        verify_local_optimality(
            wrong, FIELD, SU, PATTERN, MODEL, FDR, i_max,
            n_perturbations=100, seed=0,
        )
    except OptimalityViolation:
        caught = True
    elapsed = time.perf_counter() - t0

    ok = (
        report.n_trials == 100
        and report.worst_area_reduction <= 1e-3
        and area_wrong > area_opt
        and caught
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"worst area reduction over {report.n_trials} perturbations "
        f"{report.worst_area_reduction:.2e} (want <=1e-3), wrong-exponent area "
        f"+{(area_wrong / area_opt - 1.0) * 100:.2f}% (want >0) and flagged="
        f"{caught}, {elapsed:.1f} s (want <60)",
    )


def test_criterion_9_throughput_model():
    expected_rows = [
        (0, "BPSK", "1/2", 6.5, 4.5),
        (1, "QPSK", "1/2", 13.0, 6.5),
        (2, "QPSK", "3/4", 19.5, 8.0),
        (3, "16-QAM", "1/2", 26.0, 10.5),
        (4, "16-QAM", "3/4", 39.0, 13.5),
        (5, "64-QAM", "2/3", 52.0, 17.5),
        (6, "64-QAM", "3/4", 58.5, 19.5),
        (7, "64-QAM", "5/6", 65.0, 21.5),
    ]
    rows_ok = len(DEFAULT_80211N.entries) == 8 and all(
        tuple(entry) == want
        for entry, want in zip(DEFAULT_80211N.entries, expected_rows)
    )

    peak = radar_interference_w(RADAR_896, SU, PATTERN, MODEL, 5e3, 0.0, "peak")
    averaged = radar_interference_w(RADAR_896, SU, PATTERN, MODEL, 5e3, 0.0, "averaged")
    ratio_db = linear_to_db(averaged / peak)

    budget = max_tolerable_interference(
        RADAR_896,
        db_to_linear(23.14),
        snr_required_albersheim(RocPoint(pd=0.85, pfa=1e-6)),
    )
    gamma = single_user_gamma(SU, MODEL, budget, FDR)
    policy = OptimalPolicy(gamma=gamma, alpha=MODEL.alpha)
    boundary = float(
        np.min(policy_profile(policy, PATTERN)(np.linspace(-np.pi, np.pi, 4097)))
    )
    link = WifiLink(link_loss_db=80.0, su=SU, rx_noise_figure_db=8.0,
                    rx_bandwidth_hz=20e6)

    grid = np.geomspace(500.0, 600e3, 61)
    rate = {
        mode: [
            average_throughput(link, RADAR_896, PATTERN, MODEL, policy, d, mode)
            for d in grid
        ]
        for mode in ("peak", "averaged")
    }
    zero_to_boundary = all(
        rate["peak"][i] == 0.0 and rate["averaged"][i] == 0.0
        for i, d in enumerate(grid)
        if d <= boundary
    )
    zero_range = {
        mode: max(d for d, r in zip(grid, rate[mode]) if r == 0.0)
        for mode in ("peak", "averaged")
    }
    plateau = rate["peak"][-1] == 65.0 and rate["averaged"][-1] == 65.0

    ok = (
        rows_ok
        and abs(ratio_db - (-29.5)) <= 0.1
        and zero_to_boundary
        and zero_range["peak"] > zero_range["averaged"]
        and plateau
    )
    _report(
        9,
        ok,
        f"MCS rows exact={rows_ok}, averaged/peak {ratio_db:.4f} dB (want "
        f"-29.5+-0.1), zero to {boundary / 1e3:.2f} km boundary="
        f"{zero_to_boundary}, zero-rate range peak {zero_range['peak'] / 1e3:.1f} km"
        f" > averaged {zero_range['averaged'] / 1e3:.1f} km, 65 Mbps plateau="
        f"{plateau}",
    )


def test_criterion_10_density_scaling_law():
    densities = np.geomspace(1e-7, 1e-3, 9)
    d_mins = [
        solve_radar_blind(
            FIELD.replace(density_per_m2=float(pl)), SU, PATTERN, MODEL, FDR,
            BUDGET.i_max_w,
        ).d_min_m
        for pl in densities
    ]
    r2 = log_log_r_squared(densities, d_mins)
    ok = r2 > 0.999
    _report(
        10,
        ok,
        f"log-log R^2 of d_min vs density over 4 decades {r2:.7f} (want >0.999)",
    )
