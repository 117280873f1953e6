"""Property tests: the main-side-lobe beta search gives the scalar scan's result bit for bit.

``optimize_beta`` does its beta-independent set-up once and then solves
each beta.  The reference here is the plain scan: one ``solve_main_side``
per grid point, the argmin, then the same golden section, each area from
``protected_area_m2``.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coexist.propagation import AntennaPattern, PowerLawPathLoss  # noqa: E402
from coexist.protection_multi import (  # noqa: E402
    DeploymentField,
    default_lobe_width_rad,
    optimize_beta,
    protected_area_m2,
    solve_main_side,
)
from coexist.protection_single import SecondaryUser  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

FDR = 30.627871362940276
I_MAX_W = 5.260429348225767e-16
SU = SecondaryUser(
    eirp_w=1.0,
    bandwidth_hz=20e6,
    antenna_gain_dbi=2.15,
)


def _reference_scan(field, pattern, model, lobe_width, betas):
    """(beta, d_min_m) of a per-beta scalar scan and optimize_beta's golden section."""

    def area(beta):
        policy = solve_main_side(field, SU, pattern, model, FDR, I_MAX_W, beta, lobe_width)
        return protected_area_m2(policy, pattern)

    i_best = int(np.argmin([area(b) for b in betas]))
    lo, hi = betas[max(i_best - 1, 0)], betas[min(i_best + 1, len(betas) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = area(x1), area(x2)
    for _ in range(80):
        if hi - lo <= 1e-7 * max(1.0, hi):
            break
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = area(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = area(x2)
    beta = max(0.5 * (lo + hi), 1.0)
    policy = solve_main_side(field, SU, pattern, model, FDR, I_MAX_W, beta, lobe_width)
    return beta, policy.d_min_m


@st.composite
def beta_grids(draw):
    """None (the default grid) or a strictly increasing grid from 1 or above."""
    if draw(st.booleans()):
        return None
    start = draw(st.sampled_from([1.0, 1.0, 1.5, 2.0]))
    stop = start + draw(st.floats(min_value=0.5, max_value=40.0))
    count = draw(st.integers(min_value=3, max_value=90))
    if draw(st.booleans()):
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


@PROPERTY
@given(
    log10_density=st.floats(min_value=-9.0, max_value=-3.0),
    outage_max=st.floats(min_value=0.005, max_value=0.45),
    alpha=st.floats(min_value=2.2, max_value=6.0),
    gmax_dbi=st.floats(min_value=22.5, max_value=47.5),
    beta_grid=beta_grids(),
)
def test_beta_scan_is_the_scalar_scan(log10_density, outage_max, alpha, gmax_dbi, beta_grid):
    field = DeploymentField(
        density_per_m2=10.0**log10_density, activity_prob=1.0, outage_max=outage_max
    )
    pattern = AntennaPattern(gmax_dbi=gmax_dbi)
    model = PowerLawPathLoss(k0=259.0, alpha=alpha)
    lobe_width = default_lobe_width_rad(pattern)
    betas = [float(b) for b in (np.linspace(1.0, 16.0, 61) if beta_grid is None else beta_grid)]

    policy = optimize_beta(
        field, SU, pattern, model, FDR, I_MAX_W, lobe_width, beta_grid=beta_grid
    )
    reference = _reference_scan(field, pattern, model, lobe_width, betas)
    assert (policy.beta.hex(), policy.d_min_m.hex()) == tuple(x.hex() for x in reference)

