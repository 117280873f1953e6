"""Monte Carlo kernel for the aggregate-interference sampler.

A vectorised numpy kernel samples the Poisson field.  It is deterministic
for a fixed (seed, n_samples) pair and prefix-stable: samples come in
blocks of a size that depends on the scenario but never on
``n_samples``, and every block seeds its own generator from a
SeedSequence-derived 32-bit state, so sample i never depends on how many
samples were requested.

Geometry convention: v = r^2/R^2 on the disk of radius R, and a point
survives thinning iff v >= (d(theta)/R)^2 with d the keep-out contour.
Each survivor adds c_point * G(theta) * v^(-alpha/2) to its sample's sum,
where c_point folds the per-transmitter EIRP, path-loss scale, R^-alpha,
and FDR.

Blocks hold whole samples, about ``BLOCK_POINTS`` expected points each,
and points are generated in slices of at most ``SLICE_POINTS``, so memory
stays bounded however dense the field.  No point can survive inside the
smallest keep-out distance d_lo, so points are drawn only on the annulus:
a Poisson count of mean lam_disk * (1 - (d_lo/R)^2) with v uniform on
((d_lo/R)^2, 1], an exact thinning of the same field.  The per-point
survival test runs only where the contour is not constant.  The azimuth
is a uniform table index (``Generator.integers``) and the tables are read
at that index: the piecewise-constant gain and contour the Campbell
quadrature integrates.  Generators are ``numpy.random.Generator(PCG64)``.

The kernel skips the angular draw when both tables are constant, so the
azimuth stream depends on whether the tables are constant; determinism
holds per (seed, table shape).
"""

from __future__ import annotations

import importlib.util

import numpy as np

BLOCK_POINTS = 1 << 16  # expected points per block
SLICE_POINTS = 1 << 18  # most points the kernel holds at once

# reported by the benchmark's info line; numba is looked up, never imported
HAS_NUMBA = importlib.util.find_spec("numba") is not None


def resolve_backend() -> str:
    """Name of the kernel that samples the field (echoed by validate-mc)."""
    return "numpy"


def _block(
    rng,
    lam_ann,
    dn2_lo,
    dnorm2_tab,
    gain_tab,
    dn2_const,
    gain_const,
    k_pow,
    half_neg,
    out,
):
    """Fill ``out`` with one block's per-sample sums of G(theta) * v^(-alpha/2).

    Points are drawn on the annulus v in (dn2_lo, 1], in slices of at most
    ``SLICE_POINTS``; a slice may cut through a sample, whose share of each
    slice is added to its sum.
    """
    counts = rng.poisson(lam_ann, out.shape[0])
    ends = np.cumsum(counts)
    total = int(ends[-1])
    n_tab = dnorm2_tab.shape[0]
    out[:] = 0.0
    for lo in range(0, total, SLICE_POINTS):
        hi = min(lo + SLICE_POINTS, total)
        # samples first..last-1 own points lo..hi-1; seg is each one's share
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        seg = np.minimum(ends[first:last], hi) - np.maximum(
            ends[first:last] - counts[first:last], lo
        )
        v = rng.random(hi - lo)
        v *= dn2_lo - 1.0
        v += 1.0
        if not (dn2_const and gain_const):
            j = rng.integers(0, n_tab, hi - lo)
            if not dn2_const:
                keep = v >= dnorm2_tab[j]
                kept_before = np.concatenate(([0], np.cumsum(keep)))
                seg = np.diff(kept_before[np.cumsum(seg)], prepend=0)
                v = v[keep]
                j = j[keep]
        if k_pow > 0:
            np.reciprocal(v, out=v)
            p = v if k_pow == 1 else v * v
            for _ in range(k_pow - 2):
                p *= v
        else:
            p = np.power(v, half_neg, out=v)
        if not gain_const:
            p *= gain_tab[j]
        nonempty = seg > 0
        starts = np.cumsum(seg) - seg
        out[first:last][nonempty] += np.add.reduceat(p, starts[nonempty])
    return out


def sample_sums(
    lam_disk: float,
    dnorm2_tab: np.ndarray,
    gain_tab: np.ndarray,
    c_point: float,
    half_neg: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Draw ``n_samples`` aggregate-interference sums."""
    dnorm2_tab = np.ascontiguousarray(dnorm2_tab, dtype=np.float64)
    gain_tab = np.ascontiguousarray(gain_tab, dtype=np.float64)
    if gain_tab.shape[0] != dnorm2_tab.shape[0]:
        raise ValueError("tables must have equal length")
    dn2_const = bool(np.all(dnorm2_tab == dnorm2_tab[0]))
    gain_const = bool(np.all(gain_tab == gain_tab[0]))
    k_pow = int(round(-half_neg)) if -half_neg == round(-half_neg) else 0
    dn2_lo = float(np.min(dnorm2_tab))
    lam_ann = float(lam_disk) * (1.0 - dn2_lo)
    per_block = max(1, int(BLOCK_POINTS // max(lam_ann, 1.0)))
    n_blocks = (n_samples + per_block - 1) // per_block
    block_seeds = np.random.SeedSequence(seed).generate_state(n_blocks, dtype=np.uint32)
    # the last block is drawn whole and cut, so sample i never depends on
    # n_samples
    sums = np.empty(n_blocks * per_block, dtype=np.float64)
    for b in range(n_blocks):
        rng = np.random.Generator(np.random.PCG64(int(block_seeds[b])))
        _block(
            rng,
            lam_ann,
            dn2_lo,
            dnorm2_tab,
            gain_tab,
            dn2_const,
            gain_const,
            k_pow,
            float(half_neg),
            sums[b * per_block:(b + 1) * per_block],
        )
    scale = float(c_point) * (float(gain_tab[0]) if gain_const else 1.0)
    return scale * sums[:n_samples]
