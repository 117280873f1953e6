"""Property tests: the contour scale and the Campbell moments follow their scaling laws.

* The design equation a*t^(2-alpha) + b*t^(1-alpha) = I_max has a
  proportional to the density lambda and b to sqrt(lambda).  The mean term
  alone gives t ~ lambda^(1/(alpha-2)), the spread term alone
  t ~ lambda^(1/(2*alpha-2)), so the secant elasticity
  ln(t2/t1) / ln(lambda2/lambda1) of every solved scale lies between them.
* Campbell's mean is linear in lambda*p*P*k0/FDR and its variance in
  lambda*p*P^2*k0^2/FDR^2 (p the activity probability, P the EIRP); with a
  constant contour d they go as d^(2-alpha) and d^(2-2*alpha).
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coexist.propagation import AntennaPattern, PowerLawPathLoss  # noqa: E402
from coexist.protection_multi import (  # noqa: E402
    DeploymentField,
    RadarBlindPolicy,
    campbell_stats,
    policy_profile,
    solve_optimal_profile,
    solve_radar_blind,
)
from coexist.protection_single import SecondaryUser  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# the elasticity's error is that of ln(t2/t1), a few 1e-13, over a ratio of
# at least a quarter decade; the moment ratios carry a few ulps per factor
ELASTICITY_TOL = 1e-9
RATIO_RTOL = 1e-12

PATTERN = AntennaPattern(gmax_dbi=33.5)
FDR = 30.627871362940276
I_MAX_W = 5.260429348225767e-16
SU = SecondaryUser(
    eirp_w=1.0,
    bandwidth_hz=20e6,
    antenna_gain_dbi=2.15,
)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(
        lambda x: 10.0**x
    )


@PROPERTY
@given(
    alpha=st.floats(min_value=2.5, max_value=6.0),
    outage_max=st.floats(min_value=0.005, max_value=0.45),
    log10_density=st.floats(min_value=-9.0, max_value=-4.0),
    decades=st.floats(min_value=0.25, max_value=3.0),
)
def test_contour_scale_elasticity_in_density_is_bounded(
    alpha, outage_max, log10_density, decades
):
    model = PowerLawPathLoss(k0=259.0, alpha=alpha)
    densities = (10.0**log10_density, 10.0 ** (log10_density + decades))
    fields = [DeploymentField(d, 1.0, outage_max) for d in densities]
    args = (SU, PATTERN, model, FDR, I_MAX_W)
    blind = [solve_radar_blind(f, *args).d_min_m for f in fields]
    optimal = [solve_optimal_profile(f, *args).gamma for f in fields]
    lo, hi = 1.0 / (2.0 * alpha - 2.0), 1.0 / (alpha - 2.0)
    for t1, t2 in (blind, optimal):
        elasticity = math.log(t2 / t1) / math.log(densities[1] / densities[0])
        assert lo - ELASTICITY_TOL <= elasticity <= hi + ELASTICITY_TOL


@PROPERTY
@given(
    alpha=st.floats(min_value=2.2, max_value=6.0),
    activity=st.tuples(
        st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.01, max_value=1.0)
    ),
    density_f=log_uniform(1e-3, 1e3),
    eirp_f=log_uniform(1e-3, 1e3),
    k0_f=log_uniform(1e-3, 1e3),
    fdr_f=log_uniform(1e-3, 1e3),
    d_f=log_uniform(1e-2, 1e2),
)
def test_campbell_moments_scale_in_closed_form(
    alpha, activity, density_f, eirp_f, k0_f, fdr_f, d_f
):
    p1, p2 = activity
    field = DeploymentField(density_per_m2=1e-6, activity_prob=p1, outage_max=0.1)
    model = PowerLawPathLoss(k0=259.0, alpha=alpha)
    d = 2000.0
    base = campbell_stats(
        field, SU, PATTERN, model, policy_profile(RadarBlindPolicy(d), PATTERN), FDR
    )
    scaled = campbell_stats(
        DeploymentField(field.density_per_m2 * density_f, p2, 0.1),
        SU.replace(eirp_w=SU.eirp_w * eirp_f),
        PATTERN,
        PowerLawPathLoss(k0=model.k0 * k0_f, alpha=alpha),
        policy_profile(RadarBlindPolicy(d * d_f), PATTERN),
        FDR * fdr_f,
    )
    field_f = density_f * (p2 / p1)
    mean_f = field_f * eirp_f * k0_f / fdr_f * d_f ** (2.0 - alpha)
    var_f = field_f * eirp_f**2 * k0_f**2 / fdr_f**2 * d_f ** (2.0 - 2.0 * alpha)
    assert scaled.mean_w / base.mean_w == pytest.approx(mean_f, rel=RATIO_RTOL)
    assert scaled.variance_w2 / base.variance_w2 == pytest.approx(var_f, rel=RATIO_RTOL)
