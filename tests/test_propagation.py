"""Path-loss models, statistical antenna envelope, frequency rejection."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coexist.numerics import db_to_linear
from coexist.propagation import (
    INFINITE_REJECTION,
    AntennaPattern,
    ConstantGain,
    PowerLawPathLoss,
    TabulatedPathLoss,
    attenuation,
    fdr_cochannel,
    fdr_general,
    gain_dbi,
    gain_linear,
    gain_linear_array,
    gain_linear_rad,
    half_power_beamwidth_deg,
    invert_attenuation,
)


# ---------------------------------------------------------------- path loss


def test_power_law_attenuation():
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    assert_allclose(attenuation(model, 1000.0), 259.0 * 1000.0**-3.97, rtol=1e-15)
    assert attenuation(model, 2000.0) < attenuation(model, 1000.0)
    with pytest.raises(ValueError):
        attenuation(model, 0.0)


def test_power_law_validation():
    with pytest.raises(ValueError):
        PowerLawPathLoss(k0=0.0, alpha=3.97)
    with pytest.raises(ValueError):
        PowerLawPathLoss(k0=1.0, alpha=2.0)  # planar integrals diverge


def test_power_law_inversion_roundtrip():
    model = PowerLawPathLoss(k0=259.0, alpha=3.97)
    for d in (10.0, 1234.5, 8.4e5):
        assert_allclose(invert_attenuation(model, attenuation(model, d)), d, rtol=1e-12)


def test_tabulated_interpolates_log_log():
    # samples taken from an exact power law: log-log interpolation must
    # reproduce the law everywhere, including between samples
    k0, alpha = 100.0, 3.0
    d = (100.0, 300.0, 1000.0, 3000.0, 10000.0)
    model = TabulatedPathLoss(d, tuple(k0 * x**-alpha for x in d))
    for x in (100.0, 550.0, 999.0, 2500.0, 10000.0):
        assert_allclose(attenuation(model, x), k0 * x**-alpha, rtol=1e-12)
    # two-point power-law extrapolation beyond the table
    assert_allclose(attenuation(model, 20000.0), k0 * 20000.0**-3.0, rtol=1e-12)
    assert_allclose(attenuation(model, 50.0), k0 * 50.0**-3.0, rtol=1e-12)


def test_tabulated_inversion_and_out_of_range():
    k0, alpha = 100.0, 3.0
    d = (100.0, 1000.0, 10000.0)
    model = TabulatedPathLoss(d, tuple(k0 * x**-alpha for x in d))
    target = k0 * 500.0**-alpha
    assert_allclose(invert_attenuation(model, target), 500.0, rtol=1e-12)
    # targets beyond either end of the table follow the two-point tails
    for outside in (20000.0, 50.0):
        assert_allclose(invert_attenuation(model, k0 * outside**-alpha), outside, rtol=1e-12)
    # on a table that is no single power law the inverse still undoes
    # attenuation() everywhere, inside the table and past both ends
    bent = TabulatedPathLoss((50.0, 200.0, 1500.0, 9000.0), (3e-3, 1e-5, 2e-8, 1e-11))
    for x in (1.0, 10.0, 50.0, 120.0, 200.0, 700.0, 9000.0, 2e4, 1e7):
        assert_allclose(invert_attenuation(bent, attenuation(bent, x)), x, rtol=1e-12)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedPathLoss((100.0,), (0.5,))
    with pytest.raises(ValueError):
        TabulatedPathLoss((100.0, 100.0), (0.5, 0.4))
    with pytest.raises(ValueError):
        TabulatedPathLoss((100.0, 200.0), (0.4, 0.5))  # not decreasing


def test_tabulated_from_csv(tmp_path):
    p = tmp_path / "loss.csv"
    p.write_text("distance_m,attenuation_db\n100,-20\n1000,-50\n10000,-80\n")
    model = TabulatedPathLoss.from_csv(str(p))
    assert_allclose(attenuation(model, 1000.0), db_to_linear(-50.0), rtol=1e-12)
    bad = tmp_path / "bad.csv"
    bad.write_text("d,a\n1,2\n")
    with pytest.raises(ValueError):
        TabulatedPathLoss.from_csv(str(bad))


# ------------------------------------------------------------ antenna model


def test_pattern_reference_geometry():
    pattern = AntennaPattern(gmax_dbi=33.5)
    assert_allclose(pattern.theta_m_deg, 4.143597539976903, rtol=1e-13)
    assert_allclose(pattern.theta_r_deg, 5.283722599591616, rtol=1e-13)
    assert pattern.theta_b_deg == 48.0
    assert_allclose(half_power_beamwidth_deg(pattern), 3.660670398237035, rtol=1e-13)


def test_pattern_branch_values():
    pattern = AntennaPattern(gmax_dbi=33.5)
    assert gain_dbi(pattern, 0.0) == 33.5
    # near-in sidelobe plateau: 0.75 G - 7
    assert gain_dbi(pattern, 5.0) == 0.75 * 33.5 - 7.0
    # 25 log10 skirt
    assert_allclose(gain_dbi(pattern, 20.0), 53.0 - 0.5 * 33.5 - 25.0 * math.log10(20.0), rtol=1e-15)
    # constant back lobe: 11 - G/2
    assert gain_dbi(pattern, 120.0) == 11.0 - 0.5 * 33.5
    assert gain_dbi(pattern, 180.0) == -5.75


def test_pattern_even_in_azimuth():
    pattern = AntennaPattern(gmax_dbi=33.5)
    for theta in (0.5, 3.0, 5.0, 20.0, 90.0, 179.0):
        assert gain_dbi(pattern, -theta) == gain_dbi(pattern, theta)


def test_pattern_main_lobe_plateau_join():
    # the parabolic branch meets the plateau exactly at theta_m
    pattern = AntennaPattern(gmax_dbi=33.5)
    tm = pattern.theta_m_deg
    inside = gain_dbi(pattern, tm)  # parabolic branch (boundary included)
    outside = gain_dbi(pattern, tm * (1.0 + 1e-12))  # plateau branch
    assert_allclose(inside, 0.75 * 33.5 - 7.0, atol=1e-12)
    assert abs(inside - outside) < 1e-9


def test_pattern_half_power_point():
    pattern = AntennaPattern(gmax_dbi=33.5)
    half = half_power_beamwidth_deg(pattern) / 2.0
    assert_allclose(gain_dbi(pattern, half), 33.5 - 3.0, atol=1e-12)


def test_pattern_domain_limits():
    with pytest.raises(ValueError):
        AntennaPattern(gmax_dbi=22.0)
    with pytest.raises(ValueError):
        AntennaPattern(gmax_dbi=48.0)
    pattern = AntennaPattern(gmax_dbi=33.5)
    with pytest.raises(ValueError):
        gain_dbi(pattern, 181.0)


def test_gain_linear_and_rad_agree():
    pattern = AntennaPattern(gmax_dbi=33.5)
    assert_allclose(gain_linear(pattern, 0.0), 2238.72113856834, rtol=1e-13)
    assert_allclose(gain_linear(pattern, 120.0), 0.26607250597988097, rtol=1e-13)
    for theta in (0.0, 2.0, 10.0, 170.0):
        assert_allclose(
            gain_linear_rad(pattern, math.radians(theta)),
            gain_linear(pattern, theta),
            rtol=1e-13,
        )
    # radian helper wraps full turns
    assert_allclose(
        gain_linear_rad(pattern, math.radians(10.0) + 4.0 * math.pi),
        gain_linear(pattern, 10.0),
        rtol=1e-12,
    )


def test_gain_linear_array_matches_scalar():
    pattern = AntennaPattern(gmax_dbi=33.5)
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    got = gain_linear_array(pattern, theta)
    want = np.array([gain_linear_rad(pattern, t) for t in theta])
    assert_allclose(got, want, rtol=1e-12)


def test_gain_array_consistent_at_branch_boundaries():
    # azimuths already in [-pi, pi] must pass through the vector path's wrap
    # untouched, or points an ulp from a pattern break (e.g. exactly 48 deg)
    # land on a different branch than the scalar path picks; a flip at the
    # back-lobe boundary is a 7e-3 relative error, so ulp-scale tolerance
    # pins the branch choice while allowing libm-vs-numpy rounding noise
    pattern = AntennaPattern(gmax_dbi=33.5)
    boundary = np.radians(
        [-180.0, -48.0, -pattern.theta_r_deg, -pattern.theta_m_deg, 0.0,
         pattern.theta_m_deg, pattern.theta_r_deg, 48.0, 180.0]
    )
    theta = np.concatenate([boundary, np.linspace(-np.pi, np.pi, 601)])
    got = gain_linear_array(pattern, theta)
    want = np.array([gain_linear_rad(pattern, t) for t in theta])
    assert_allclose(got, want, rtol=1e-14)


def test_constant_gain_pattern():
    iso = ConstantGain(gain_dbi=2.15)
    assert gain_dbi(iso, 0.0) == 2.15
    assert gain_dbi(iso, 137.0) == 2.15
    assert_allclose(
        gain_linear_array(iso, np.array([0.0, 1.0, 5.0])),
        db_to_linear(2.15),
        rtol=1e-15,
    )


# ---------------------------------------------------------------------- FDR


def test_fdr_cochannel_reference():
    fdr = fdr_cochannel(20e6, 653e3)
    assert_allclose(fdr, 30.627871362940276, rtol=1e-13)
    assert_allclose(10.0 * math.log10(fdr), 14.861168143889072, rtol=1e-12)
    # a narrowband interferer inside a wide victim filter loses nothing
    assert fdr_cochannel(653e3, 20e6) == 1.0
    with pytest.raises(ValueError):
        fdr_cochannel(0.0, 653e3)


def test_fdr_general_flat_spectra_matches_cochannel():
    # rectangular 20 MHz transmit PSD against a rectangular 653 kHz victim
    # filter: the sampled-spectrum estimate lands within 1e-3 of the exact
    # bandwidth ratio (trapezoid edges account for the residual)
    tx = [(-10e6, 1.0), (10e6, 1.0)]
    rx = [(-326.5e3, 1.0), (326.5e3, 1.0)]
    got = fdr_general(tx, rx, delta_f_hz=0.0)
    assert_allclose(got, 30.627871362940276, rtol=1e-3)


def test_fdr_general_offset_and_disjoint():
    tx = [(-10e6, 1.0), (10e6, 1.0)]
    rx = [(-326.5e3, 1.0), (326.5e3, 1.0)]
    on_tune = fdr_general(tx, rx, delta_f_hz=0.0)
    shifted = fdr_general(tx, rx, delta_f_hz=5e6)
    assert_allclose(shifted, on_tune, rtol=1e-6)  # still fully inside the PSD
    assert fdr_general(tx, rx, delta_f_hz=50e6) == INFINITE_REJECTION


def test_fdr_general_validation():
    with pytest.raises(ValueError):
        fdr_general([(0.0, 1.0)], [(-1.0, 1.0), (1.0, 1.0)], 0.0)
    with pytest.raises(ValueError):
        fdr_general([(-1.0, 0.0), (1.0, 0.0)], [(-1.0, 1.0), (1.0, 1.0)], 0.0)
    with pytest.raises(ValueError):
        fdr_general([(-1.0, 1.0), (1.0, 1.0)], [(-1.0, 2.0), (1.0, 1.0)], 0.0)
