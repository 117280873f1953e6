"""Property tests for the antenna-gain core over random azimuths and peak gains.

Every gain function evaluates the statistical envelope through one
vectorised core, so the scalar and array paths, the two signs of the
azimuth, and the branches either side of each pattern break must all agree.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coexist.numerics import linear_to_db  # noqa: E402
from coexist.propagation import (  # noqa: E402
    AntennaPattern,
    gain_dbi,
    gain_linear_array,
    gain_linear_rad,
)

# fixed example sequence and no example database: the suite stays
# deterministic and writes nothing
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

peak_gains = st.floats(min_value=22.0, max_value=48.0, exclude_min=True, exclude_max=True)
azimuths_deg = st.floats(min_value=-180.0, max_value=180.0)
azimuths_rad = st.floats(min_value=-math.pi, max_value=math.pi)


@PROPERTY
@given(gmax=peak_gains, theta=azimuths_deg)
def test_gain_is_even_in_azimuth(gmax, theta):
    pattern = AntennaPattern(gmax_dbi=gmax)
    assert gain_dbi(pattern, theta) == gain_dbi(pattern, -theta)


@PROPERTY
@given(gmax=peak_gains, theta=azimuths_rad)
def test_scalar_and_array_paths_agree(gmax, theta):
    pattern = AntennaPattern(gmax_dbi=gmax)
    scalar_db = linear_to_db(gain_linear_rad(pattern, theta))
    array_db = linear_to_db(float(gain_linear_array(pattern, np.array([theta]))[0]))
    assert abs(scalar_db - array_db) <= 1e-12
    # gain_dbi runs one formula for floats and arrays: equal to the bit
    theta_deg = math.degrees(theta)
    both_signs = gain_dbi(pattern, np.array([theta_deg, -theta_deg]))
    assert both_signs[0] == both_signs[1] == gain_dbi(pattern, theta_deg)


@PROPERTY
@given(gmax=peak_gains)
def test_steps_across_pattern_breaks_stay_small(gmax):
    # the main lobe meets the plateau exactly; the plateau/skirt and
    # skirt/back-lobe seams are a few hundredths of a dB
    pattern = AntennaPattern(gmax_dbi=gmax)
    for edge in (pattern.theta_m_deg, pattern.theta_r_deg, pattern.theta_b_deg):
        step = gain_dbi(pattern, math.nextafter(edge, 180.0)) - gain_dbi(pattern, edge)
        assert abs(step) < 0.5
