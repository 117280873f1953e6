"""Interference budget and single-interferer keep-out distances."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coexist.numerics import db_to_linear
from coexist.propagation import (
    AntennaPattern,
    PowerLawPathLoss,
    TabulatedPathLoss,
    fdr_cochannel,
    gain_linear,
)
from coexist.protection_single import (
    INFINITE_DISTANCE,
    InterferenceBudget,
    SecondaryUser,
    dbm,
    inr_vs_performance_drop,
    max_tolerable_interference,
    protection_distance,
    received_interference_w,
    single_user_gamma,
)
from coexist.radar_detection import RadarSystem, albersheim_snr_linear, noise_power_w

IF_BW_HZ = 653e3
FDR = fdr_cochannel(20e6, IF_BW_HZ)  # the co-channel rejection of _wifi_su()


def _atc_radar() -> RadarSystem:
    return RadarSystem(
        tx_power_w=1.32e6,
        wavelength_m=0.107068735,
        peak_gain_dbi=33.5,
        prf_hz=1059.0,
        pulse_width_s=1.03e-6,
        if_bandwidth_hz=IF_BW_HZ,
        noise_figure_db=4.0,
        ambient_temp_k=290.0,
        scan_time_s=4.8,
        scan_solid_angle_sr=0.5263789013914324,
        system_loss_db=2.0,
    )


def _wifi_su() -> SecondaryUser:
    return SecondaryUser(
        eirp_w=1.0,
        bandwidth_hz=20e6,
        antenna_gain_dbi=2.15,
    )


def _pipeline_budget(radar: RadarSystem) -> InterferenceBudget:
    # nominal ROC (0.90, 1e-6) degraded to (0.85, 1e-6)
    return max_tolerable_interference(
        radar,
        albersheim_snr_linear(0.9, 1e-6),
        albersheim_snr_linear(0.85, 1e-6),
    )


def test_interference_budget_reference():
    budget = _pipeline_budget(_atc_radar())
    assert_allclose(budget.i_max_w, 5.260429348225767e-16, rtol=1e-13)
    assert_allclose(budget.inr_db, -10.963732697982158, rtol=1e-12)
    assert_allclose(dbm(budget.i_max_w), -122.78978807945953, rtol=1e-12)


def test_budget_closes_the_sinr_equation():
    # with I = I_max the degraded requirement is met with equality:
    # baseline * N / (N + I_max) == required
    radar = _atc_radar()
    budget = _pipeline_budget(radar)
    n = noise_power_w(radar)
    sinr = budget.baseline_snr_linear * n / (n + budget.i_max_w)
    assert_allclose(sinr, budget.sinr_required_linear, rtol=1e-12)


def test_budget_high_margin_case():
    # a radar running 30.57 dB over a requirement relaxed by a 5% pd drop
    radar = _atc_radar()
    budget = max_tolerable_interference(
        radar, db_to_linear(30.57), albersheim_snr_linear(0.85, 1e-6)
    )
    assert_allclose(budget.inr_db, 17.694978382073074, rtol=1e-12)


def test_budget_no_margin_floors_at_zero():
    radar = _atc_radar()
    req = albersheim_snr_linear(0.9, 1e-6)
    budget = max_tolerable_interference(radar, req, req * 2.0)
    assert budget.i_max_w == 0.0
    assert budget.inr_db == float("-inf")
    with pytest.raises(ValueError):
        max_tolerable_interference(radar, -1.0, req)


def test_inr_vs_performance_drop_frozen():
    radar = _atc_radar()
    rows = inr_vs_performance_drop(
        radar, albersheim_snr_linear(0.9, 1e-6), 0.9, 1e-6, [0.01, 0.02, 0.05]
    )
    drops = [r[0] for r in rows]
    inrs = [r[1] for r in rows]
    assert drops == [0.01, 0.02, 0.05]
    assert_allclose(
        inrs,
        [-17.60305144558287, -14.692498177160632, -10.963732697982158],
        rtol=1e-12,
    )
    # monotone: accepting more degradation never shrinks the budget
    assert inrs == sorted(inrs)
    with pytest.raises(ValueError):
        inr_vs_performance_drop(radar, 20.0, 0.9, 1e-6, [0.95])


def test_protection_distance_reference_azimuths():
    radar = _atc_radar()
    su = _wifi_su()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    budget = _pipeline_budget(radar)
    bore = protection_distance(su, pattern, model, budget, 0.0, FDR)
    back = protection_distance(su, pattern, model, budget, 90.0, FDR)
    assert_allclose(bore, 84330.6270101234, rtol=1e-12)
    assert_allclose(back, 8656.061671503163, rtol=1e-12)
    with pytest.raises(ValueError, match="fdr must be >= 1"):
        protection_distance(su, pattern, model, budget, 0.0, 0.5)
    # boresight/backlobe ratio equals the gain ratio to the 1/alpha
    assert_allclose(
        bore / back,
        (gain_linear(pattern, 0.0) / gain_linear(pattern, 90.0)) ** (1.0 / 3.97),
        rtol=1e-12,
    )


def test_received_interference_closes_at_the_boundary():
    radar = _atc_radar()
    su = _wifi_su()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    budget = _pipeline_budget(radar)
    for theta in (0.0, 5.0, 30.0, 90.0, 180.0):
        d = protection_distance(su, pattern, model, budget, theta, FDR)
        got = received_interference_w(su, pattern, model, theta, d, FDR)
        assert_allclose(got, budget.i_max_w, rtol=1e-12)


def test_profile_follows_gain_to_one_over_alpha():
    su = _wifi_su()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    budget = _pipeline_budget(_atc_radar())
    gamma = single_user_gamma(su, model, budget, FDR)
    assert_allclose(gamma, 12082.494719683102, rtol=1e-12)
    theta = np.linspace(-180.0, 180.0, 361)
    d = np.array([protection_distance(su, pattern, model, budget, t, FDR) for t in theta])
    want = gamma * np.array([gain_linear(pattern, t) for t in theta]) ** (1.0 / model.alpha)
    assert_allclose(d, want, rtol=1e-12)
    # one array call gives the per-azimuth scalar calls, to the last ulp or so
    d_array = protection_distance(su, pattern, model, budget, theta, FDR)
    assert_allclose(d_array, d, rtol=4e-16)
    # and so does a tabulated model, inverted past both ends of its table
    table = TabulatedPathLoss((1e3, 5e3, 2e4), (3e-14, 1e-15, 3e-17))
    scalar = [protection_distance(su, pattern, table, budget, t, FDR) for t in theta]
    assert min(scalar) < 1e3 < 2e4 < max(scalar)
    d_array = protection_distance(su, pattern, table, budget, theta, FDR)
    assert_allclose(d_array, scalar, rtol=4e-16)


def test_zero_budget_yields_infinite_distance():
    su = _wifi_su()
    pattern = AntennaPattern(gmax_dbi=33.5)
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    budget = InterferenceBudget(
        i_max_w=0.0, inr_db=float("-inf"), sinr_required_linear=20.0, baseline_snr_linear=20.0
    )
    assert protection_distance(su, pattern, model, budget, 0.0, FDR) == INFINITE_DISTANCE
    theta = np.linspace(-180.0, 180.0, 7)
    d = protection_distance(su, pattern, model, budget, theta, FDR)
    assert d.shape == theta.shape and np.all(d == INFINITE_DISTANCE)
    assert single_user_gamma(su, model, budget, FDR) == INFINITE_DISTANCE


def test_dbm_helper():
    assert_allclose(dbm(1.0), 30.0, rtol=1e-15)
    assert_allclose(dbm(1e-3), 0.0, atol=1e-12)
    assert dbm(0.0) == float("-inf")
