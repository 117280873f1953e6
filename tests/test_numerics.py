"""Gaussian tails, bisection, periodic quadrature, sample variance, log-log fitting."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coexist.numerics import (
    DegenerateFit,
    NoConvergence,
    NoSignChange,
    RootBracket,
    db_to_linear,
    fit_power_law,
    linear_to_db,
    log_log_r_squared,
    periodic_rule,
    q_inverse,
    q_tail,
    sample_variance_in_place,
    solve_root,
)


def test_q_tail_reference_values():
    # Abramowitz & Stegun 26.2: Q(0) = 1/2, Q(1.2815515655) = 0.1
    assert q_tail(0.0) == 0.5
    assert_allclose(q_tail(1.2815515655446006), 0.1, rtol=1e-12)
    assert_allclose(q_tail(1.2816), 0.09999150009767516, rtol=1e-13)
    # deep tail underflows cleanly instead of going NaN
    assert q_tail(40.0) == 0.0
    # symmetry: Q(-x) = 1 - Q(x)
    assert_allclose(q_tail(-1.0) + q_tail(1.0), 1.0, rtol=1e-14)


def test_q_inverse_roundtrip():
    for p in (1e-9, 1e-6, 0.05, 0.1, 0.2, 0.5, 0.9):
        assert_allclose(q_tail(q_inverse(p)), p, rtol=1e-10)
    assert_allclose(q_inverse(0.1), 1.2815515655446006, rtol=1e-13)
    assert_allclose(q_inverse(1e-6), 4.753424308822899, rtol=1e-13)
    assert_allclose(q_inverse(0.05), 1.644853626951473, rtol=1e-13)
    assert_allclose(q_inverse(0.2), 0.8416212335729143, rtol=1e-13)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
def test_q_inverse_domain(bad):
    with pytest.raises(ValueError):
        q_inverse(bad)


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert_allclose(db_to_linear(3.0), 1.9952623149688795, rtol=1e-15)
    assert_allclose(linear_to_db(2.0), 3.010299956639812, rtol=1e-15)
    assert linear_to_db(0.0) == float("-inf")
    for v in (0.01, 1.0, 2238.72113856834):
        assert_allclose(db_to_linear(linear_to_db(v)), v, rtol=1e-14)


def test_solve_root_cosine():
    root = solve_root(math.cos, RootBracket(1.0, 2.0))
    assert_allclose(root, math.pi / 2.0, rtol=1e-12)


def test_solve_root_endpoint_hits():
    # exact zero at an endpoint short-circuits
    assert solve_root(lambda x: x - 1.0, RootBracket(1.0, 2.0)) == 1.0
    assert solve_root(lambda x: x - 2.0, RootBracket(1.0, 2.0)) == 2.0


def test_solve_root_no_sign_change():
    with pytest.raises(NoSignChange):
        solve_root(lambda x: x * x + 1.0, RootBracket(-1.0, 1.0))


def test_solve_root_no_convergence():
    with pytest.raises(NoConvergence):
        solve_root(math.cos, RootBracket(1.0, 2.0, tol_rel=1e-12, max_iter=3))


@pytest.mark.parametrize(
    "lo,hi,tol,it",
    [(2.0, 1.0, 1e-12, 200), (1.0, 1.0, 1e-12, 200), (1.0, 2.0, 0.0, 200), (1.0, 2.0, 1e-12, 0)],
)
def test_root_bracket_validation(lo, hi, tol, it):
    with pytest.raises(ValueError):
        RootBracket(lo, hi, tol_rel=tol, max_iter=it)


def test_periodic_rule_trig_exact():
    # trapezoid on a wrapped uniform grid integrates trig polynomials exactly
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    assert_allclose(periodic_rule(2.0 + np.sin(theta)), 4.0 * math.pi, rtol=1e-14)
    assert_allclose(periodic_rule(np.cos(theta) ** 2), math.pi, rtol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 127, 128, 129, 4097, 100_003])
def test_sample_variance_in_place_is_np_var_bit_for_bit(n):
    # lengths about numpy's pairwise-summation blocks, values spanning decades
    rng = np.random.default_rng(n)
    x = rng.random(n) * 10.0 ** rng.integers(-20, 5, n)
    mean, original = float(np.mean(x)), x.copy()
    assert sample_variance_in_place(x, mean) == float(np.var(original, ddof=1))
    assert np.array_equal(x, np.square(original - mean))  # overwritten, not copied


def test_fit_power_law_recovers_exact():
    k0, alpha = 259.0, 3.97
    r = np.geomspace(100.0, 1e5, 24)
    samples = [(ri, k0 * ri ** (-alpha)) for ri in r]
    k0_hat, alpha_hat = fit_power_law(samples)
    assert_allclose(k0_hat, k0, rtol=1e-10)
    assert_allclose(alpha_hat, alpha, rtol=1e-12)


def test_fit_power_law_errors():
    with pytest.raises(ValueError):
        fit_power_law([(100.0, 0.5)])
    with pytest.raises(ValueError):
        fit_power_law([(100.0, 0.5), (200.0, -0.1)])
    with pytest.raises(DegenerateFit):
        fit_power_law([(100.0, 0.5), (100.0, 0.4)])


def test_log_log_r_squared():
    x = np.geomspace(1.0, 1e4, 12)
    assert_allclose(log_log_r_squared(x, 3.0 * x**-2.5), 1.0, rtol=1e-12)
    noisy = 3.0 * x**-2.5 * np.array([1.0, 1.5, 0.6, 1.2, 0.8, 1.4, 0.7, 1.3, 0.9, 1.1, 0.5, 1.6])
    assert log_log_r_squared(x, noisy) < 0.999
