"""Property tests for the contour-scale solve behind every field policy.

``_constraint`` solves a*t^(2-alpha) + b*t^(1-alpha) = I_max by Newton's
method.  Each draw fixes the root t*, the share of I_max the mean
term takes there, alpha and I_max, and builds Campbell moments with those
coefficients, so a, b, t and I_max each span many decades.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coexist.numerics import RootBracket, q_inverse, solve_root  # noqa: E402
from coexist.propagation import PowerLawPathLoss  # noqa: E402
import coexist.protection_multi as protection_multi  # noqa: E402
from coexist.protection_multi import (  # noqa: E402
    DeploymentField,
    ScaleNotFinite,
    _prefactors,
    _constraint,
)
from coexist.protection_single import SecondaryUser  # noqa: E402

# fixed example sequence and no example database: the suite stays
# deterministic and writes nothing
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

EPS = 2.0**-52
RESIDUAL_ULPS = 16  # the float residual itself carries a few ulps of rounding

FIELD = DeploymentField(density_per_m2=1e-6, activity_prob=1.0, outage_max=0.1)
SU = SecondaryUser(
    eirp_w=1.0,
    bandwidth_hz=20e6,
    antenna_gain_dbi=2.15,
)

alphas = st.floats(min_value=2.0, max_value=8.0, exclude_min=True)
log10_roots = st.floats(min_value=-2.0, max_value=8.0)
# the mean term's share of I_max at the root; away from 0 and 1 so that both
# terms set the slope and the root is well conditioned even at alpha -> 2
mean_shares = st.floats(min_value=0.01, max_value=0.99)
log10_i_max = st.floats(min_value=-20.0, max_value=-6.0)


def _moments(model, t_root, share, i_max_w):
    """Campbell moments (m1, m2) whose equation has its root at ``t_root``."""
    c_mu, c_sigma2 = _prefactors(FIELD, SU, model, 1.0)
    a = share * i_max_w * t_root ** (model.alpha - 2.0)
    b = (1.0 - share) * i_max_w * t_root ** (model.alpha - 1.0)
    return a / c_mu, (b / q_inverse(FIELD.outage_max)) ** 2 / c_sigma2


def _equation(model, m1, m2, i_max_w):
    """f(t) = a*t^(2-alpha) + b*t^(1-alpha) - I_max, coefficients as the solver forms them."""
    c_mu, c_sigma2 = _prefactors(FIELD, SU, model, 1.0)
    a = c_mu * m1
    b = q_inverse(FIELD.outage_max) * math.sqrt(c_sigma2 * m2)
    alpha = model.alpha
    return lambda t: a * t ** (2.0 - alpha) + b * t ** (1.0 - alpha) - i_max_w


@PROPERTY
@given(
    alpha=alphas,
    log10_root=log10_roots,
    share=mean_shares,
    log10_i=log10_i_max,
    i_factor=st.floats(min_value=1.0 + 1e-6, max_value=1e3),
)
def test_scale_solves_the_constraint(alpha, log10_root, share, log10_i, i_factor):
    model = PowerLawPathLoss(k0=1.0, alpha=alpha)
    t_root, i_max_w = 10.0**log10_root, 10.0**log10_i
    m1, m2 = _moments(model, t_root, share, i_max_w)
    t = _constraint(FIELD, SU, model, 1.0, i_max_w)(m1, m2)

    f = _equation(model, m1, m2, i_max_w)
    assert abs(f(t)) <= RESIDUAL_ULPS * EPS * i_max_w

    # the bisection reference; both terms fall in t, and their sum meets
    # I_max at t_root up to rounding, so [t_root / 2, 2 * t_root] brackets it
    reference = solve_root(
        f, RootBracket(lo=t_root / 2.0, hi=2.0 * t_root, tol_rel=1e-15, max_iter=400)
    )
    assert abs(t - reference) <= 1e-13 * reference

    # a looser cap admits a closer contour
    looser = _constraint(FIELD, SU, model, 1.0, i_max_w * i_factor)(m1, m2)
    assert looser < t


def test_scale_just_above_alpha_two_is_finite():
    # the mean term's own root (a/I)^(1/(alpha-2)) underflows to 0 here; the
    # spread term's root still starts the solve left of the finite root
    model = PowerLawPathLoss(k0=1.0, alpha=2.0 + 1e-9)
    m1, m2 = _moments(model, 1e3, 0.5, 1e-12)
    t = _constraint(FIELD, SU, model, 1.0, 1e-12)(m1, m2)
    assert abs(t / 1e3 - 1.0) <= 1e-9


@pytest.mark.parametrize("steps", [0, 1, 2])
@pytest.mark.parametrize(
    "alpha, t_root, share, i_max_w",
    [(2.5, 1e3, 0.5, 1e-12), (3.5, 2e5, 0.01, 1e-14), (6.0, 40.0, 0.99, 1e-8)],
)
def test_bisection_finishes_an_unsettled_newton_solve(
    monkeypatch, steps, alpha, t_root, share, i_max_w
):
    model = PowerLawPathLoss(k0=1.0, alpha=alpha)
    m1, m2 = _moments(model, t_root, share, i_max_w)
    newton = _constraint(FIELD, SU, model, 1.0, i_max_w)(m1, m2)
    monkeypatch.setattr(protection_multi, "MAX_NEWTON_STEPS", steps)
    finished = _constraint(FIELD, SU, model, 1.0, i_max_w)(m1, m2)
    assert abs(finished - newton) <= 1e-13 * newton


def test_scale_outside_float_range_raises():
    # a cap 1e288 times tighter moves the root from 1 km to about 1e579 m
    model = PowerLawPathLoss(k0=1.0, alpha=2.5)
    m1, m2 = _moments(model, 1e3, 0.5, 1e-12)
    with pytest.raises(ScaleNotFinite, match="contour scale is not finite"):
        _constraint(FIELD, SU, model, 1.0, 1e-300)(m1, m2)
