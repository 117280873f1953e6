"""Property test: the log-spaced sweep grid is ``np.geomspace``'s, bit for bit.

``resolve_grid`` builds a log grid from ``np.linspace`` of the endpoints'
logarithms and ``np.power``, the steps ``np.geomspace`` takes for a
positive start, with both endpoints pinned to the given values.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coexist.config import resolve_grid  # noqa: E402

positive = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300, allow_subnormal=True),
    st.integers(min_value=1, max_value=10**12),
)


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(start=positive, stop=positive, count=st.integers(min_value=1, max_value=300))
@example(start=1e-7, stop=1e-3, count=9)  # the fixture's density sweep
@example(start=1e-7, stop=1e-3, count=1)
@example(start=1e-7, stop=1e-3, count=2)
@example(start=1, stop=10**12, count=13)
@example(start=5e-324, stop=1e300, count=7)
def test_log_grid_is_geomspace_bit_for_bit(start, stop, count):
    if not start < stop:
        start, stop = stop, start
    if start == stop:
        stop = stop * 2
    spec = {"start": start, "stop": stop, "count": count, "spacing": "log"}
    grid = resolve_grid(spec, "sweeps.density_per_m2")
    assert all(type(v) is float for v in grid)
    assert _bits(grid) == _bits(np.geomspace(start, stop, count))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    start=st.floats(min_value=-1e12, max_value=1e12),
    width=st.floats(min_value=1e-6, max_value=1e12),
    count=st.integers(min_value=1, max_value=300),
)
def test_linear_grid_is_linspace_bit_for_bit(start, width, count):
    stop = start + width
    if not start < stop:
        return
    grid = resolve_grid({"start": start, "stop": stop, "count": count}, "sweeps.theta_deg")
    assert all(type(v) is float for v in grid)
    assert _bits(grid) == _bits(np.linspace(start, stop, count))
