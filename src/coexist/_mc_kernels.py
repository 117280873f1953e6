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
and FDR.  Gain and contour are tables over equal azimuth bins: the
piecewise-constant functions the Campbell quadrature integrates.

The field is split into two independent Poisson fields (the superposition
and colouring theorems; Kingman, *Poisson Processes*, 1993).  The bulk is
every bin that holds the modal (gain, contour) pair (g0, d0): a Poisson
count of mean lam_disk * (bulk share of bins) * (1 - (d0/R)^2) with v
uniform on ((d0/R)^2, 1], with no azimuth draw, no table read and no
thinning.  The remainder is every other bin: a uniform index over those
bins (``Generator.integers``), drawn on the annulus outside their
smallest keep-out distance and, where their contour is not constant,
thinned against it, an exact thinning of the same field.  The
remainder's gains are taken relative to g0, so one float per sample
holds both fields' sums, and the sums are scaled by c_point * g0 at the
end.  A constant pair of tables has an empty remainder and draws the
bulk alone.

Blocks hold whole samples, about ``BLOCK_POINTS`` expected points each,
and each field's points are generated in slices of at most
``SLICE_POINTS``, so memory stays bounded however dense the field.  Each
block draws from its own ``numpy.random.Generator(PCG64)`` in a fixed
order: bulk counts, bulk points, remainder counts, remainder points.

Before it allocates anything, ``sample_sums`` predicts its work, the
expected drawn points and the bytes of the sums array, and raises
``WorkTooLarge`` above ``MAX_DRAWN_POINTS`` or ``MAX_SUMS_BYTES``.
"""

from __future__ import annotations

import importlib.util
from typing import NamedTuple

from .numerics import np

BLOCK_POINTS = 1 << 16  # expected points per block
SLICE_POINTS = 1 << 18  # most points the kernel holds at once
# work caps of one sample_sums call: about 10^10 points take minutes at a
# few ns each; 256 MiB of sums hold 33.5M samples
MAX_DRAWN_POINTS = 10**10
MAX_SUMS_BYTES = 1 << 28

# reported by the benchmark's info line; numba is looked up, never imported
HAS_NUMBA = importlib.util.find_spec("numba") is not None


class WorkTooLarge(ValueError):
    """A run would draw more points or hold more sums than the caps allow.

    ``per_sample`` is set when one sample alone exceeds the point cap, so
    the field rather than the sample count is the cause.
    """

    def __init__(self, message: str, per_sample: bool):
        super().__init__(message)
        self.per_sample = per_sample


def resolve_backend() -> str:
    """Name of the kernel that samples the field (echoed by validate-mc)."""
    return "numpy"


class _Field(NamedTuple):
    """One Poisson field on the annulus v in (dn2_lo, 1] and its expected count.

    The bulk has no tables.  The remainder has its gains relative to g0,
    and its contour unless that is constant.
    """

    lam: float
    dn2_lo: float
    dnorm2_tab: np.ndarray | None = None
    gain_tab: np.ndarray | None = None


def _split(lam_disk: float, dnorm2_tab: np.ndarray, gain_tab: np.ndarray):
    """(g0, fields): the bulk at the modal (gain, contour) pair, then any remainder.

    The modal gain is found first and the modal contour among its bins,
    two 1-D ``np.unique`` calls (a row-wise unique is two orders slower).
    """
    n_tab = gain_tab.shape[0]
    values, counts = np.unique(gain_tab, return_counts=True)
    g0 = float(values[np.argmax(counts)])
    in_g0 = gain_tab == g0
    values, counts = np.unique(dnorm2_tab[in_g0], return_counts=True)
    dn2_0 = float(values[np.argmax(counts)])
    rest = ~in_g0 | (dnorm2_tab != dn2_0)
    n_rest = int(np.count_nonzero(rest))
    fields = [_Field(lam_disk * ((n_tab - n_rest) / n_tab) * (1.0 - dn2_0), dn2_0)]
    if n_rest:
        rest_dn2 = dnorm2_tab[rest]
        lo = float(np.min(rest_dn2))
        lam = lam_disk * (n_rest / n_tab) * (1.0 - lo)
        # a constant contour keeps every point of the annulus: no thinning
        thin = None if np.all(rest_dn2 == lo) else rest_dn2
        fields.append(_Field(lam, lo, thin, gain_tab[rest] / g0))
    return g0, fields


def check_work(points_per_sample: float, n_samples: int, n_sums: int) -> None:
    """Raise WorkTooLarge if a run exceeds ``MAX_DRAWN_POINTS`` or ``MAX_SUMS_BYTES``.

    ``points_per_sample`` is the expected number of drawn points per sample
    and ``n_sums`` the length of the sums array (whole blocks).
    """
    points = points_per_sample * n_samples
    if points > MAX_DRAWN_POINTS:
        raise WorkTooLarge(
            f"{n_samples} samples of {points_per_sample:.3g} expected points each "
            f"draw {points:.3g} (cap: {MAX_DRAWN_POINTS:.3g} per run)",
            per_sample=points_per_sample > MAX_DRAWN_POINTS,
        )
    if 8 * n_sums > MAX_SUMS_BYTES:
        raise WorkTooLarge(
            f"{n_samples} samples need {8 * n_sums} bytes of sums "
            f"(cap: {MAX_SUMS_BYTES})",
            per_sample=False,
        )


def _add_field(rng, field: _Field, k_pow: int, half_neg: float, out: np.ndarray):
    """Add one field's share of G(theta)/g0 * v^(-alpha/2) to each sample's sum.

    Points are drawn on the annulus v in (dn2_lo, 1], in slices of at most
    ``SLICE_POINTS``; a slice may cut through a sample, whose share of each
    slice is added to its sum.
    """
    counts = rng.poisson(field.lam, out.shape[0])
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for lo in range(0, total, SLICE_POINTS):
        hi = min(lo + SLICE_POINTS, total)
        # samples first..last-1 own points lo..hi-1; seg is each one's share
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        seg = np.minimum(ends[first:last], hi) - np.maximum(
            ends[first:last] - counts[first:last], lo
        )
        v = rng.random(hi - lo)
        v *= field.dn2_lo - 1.0
        v += 1.0
        if field.gain_tab is not None:
            j = rng.integers(0, field.gain_tab.shape[0], hi - lo)
            if field.dnorm2_tab is not None:
                keep = v >= field.dnorm2_tab[j]
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
        if field.gain_tab is not None:
            p *= field.gain_tab[j]
        nonempty = seg > 0
        starts = np.cumsum(seg) - seg
        out[first:last][nonempty] += np.add.reduceat(p, starts[nonempty])


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
    g0, fields = _split(float(lam_disk), dnorm2_tab, gain_tab)
    k_pow = int(round(-half_neg)) if -half_neg == round(-half_neg) else 0
    lam_total = sum(field.lam for field in fields)
    per_block = max(1, int(BLOCK_POINTS // max(lam_total, 1.0)))
    n_blocks = (n_samples + per_block - 1) // per_block
    check_work(lam_total, n_samples, n_blocks * per_block)
    block_seeds = np.random.SeedSequence(seed).generate_state(n_blocks, dtype=np.uint32)
    # the last block is drawn whole and cut, so sample i never depends on
    # n_samples
    sums = np.zeros(n_blocks * per_block, dtype=np.float64)
    for b in range(n_blocks):
        rng = np.random.Generator(np.random.PCG64(int(block_seeds[b])))
        out = sums[b * per_block:(b + 1) * per_block]
        for field in fields:
            _add_field(rng, field, k_pow, float(half_neg), out)
    return (float(c_point) * g0) * sums[:n_samples]
