"""Property tests: the Monte Carlo kernel is deterministic and prefix-stable.

For random (seed, n_samples) pairs, the same call returns the same sums,
and a shorter run is the prefix of a longer one, also when the runs end in
different blocks.  One test shrinks ``BLOCK_POINTS`` and ``SLICE_POINTS``
so that small draws cross many block and slice boundaries; the other keeps
the production sizes, with a field dense enough that a few dozen samples
span several blocks.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coexist import _mc_kernels  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**63 - 1)
sizes = st.integers(1, 40)


@st.composite
def tables(draw):
    """(dnorm2_tab, gain_tab) on 16 bins: each constant or directional, or a plateau.

    A plateau holds one (gain, contour) pair on all but 1-5 bins, with a
    constant or a varying contour on the others, so the kernel's bulk and
    remainder fields are both non-empty.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dnorm2 = rng.uniform(0.0, 0.5, 16)
    gains = rng.uniform(0.1, 10.0, 16)
    if draw(st.booleans()):
        plateau = np.ones(16, dtype=bool)
        plateau[rng.choice(16, draw(st.integers(1, 5)), replace=False)] = False
        gains[plateau] = rng.uniform(0.1, 10.0)
        if draw(st.booleans()):
            dnorm2[:] = dnorm2[0]
        else:
            dnorm2[plateau] = rng.uniform(0.0, 0.5)
        return dnorm2, gains
    if draw(st.booleans()):
        dnorm2[:] = dnorm2[0]
    if draw(st.booleans()):
        gains[:] = gains[0]
    return dnorm2, gains


def _draw(dnorm2, gains, lam_disk, half_neg, n, seed):
    return _mc_kernels.sample_sums(
        lam_disk=lam_disk,
        dnorm2_tab=dnorm2,
        gain_tab=gains,
        c_point=1.0,
        half_neg=half_neg,
        n_samples=n,
        seed=seed,
    )


def _check(tabs, lam_disk, half_neg, seed, n, extra):
    short = _draw(*tabs, lam_disk, half_neg, n, seed)
    again = _draw(*tabs, lam_disk, half_neg, n, seed)
    longer = _draw(*tabs, lam_disk, half_neg, n + extra, seed)
    assert short.shape == (n,)
    assert np.array_equal(short, again)
    assert np.array_equal(short, longer[:n])


@PROPERTY
@given(
    tabs=tables(),
    lam_disk=st.floats(4.0, 64.0),
    half_neg=st.sampled_from([-2.0, -1.985, -3.0]),
    seed=seeds,
    n=sizes,
    extra=sizes,
)
def test_small_blocks_and_slices(tabs, lam_disk, half_neg, seed, n, extra):
    # 64 expected points per block: 1-16 samples per block; 50-point slices
    # cut through samples
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_mc_kernels, "BLOCK_POINTS", 64)
        patch.setattr(_mc_kernels, "SLICE_POINTS", 50)
        _check(tabs, lam_disk, half_neg, seed, n, extra)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(tabs=tables(), seed=seeds, n=st.integers(1, 20), extra=st.integers(1, 20))
def test_production_block_size(tabs, seed, n, extra):
    # ~8k points per sample on the annulus: 8 samples per 65k-point block
    lam_disk = 8192.0 / (1.0 - float(np.min(tabs[0])))
    _check(tabs, lam_disk, -1.985, seed, n, extra)
