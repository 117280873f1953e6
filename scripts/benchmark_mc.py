#!/usr/bin/env python3
"""Benchmark the Monte Carlo aggregation kernel.

Runs two Poisson-field interference sampling workloads and reports
per-sample and per-point throughput; a point is one drawn on the annulus
outside the keep-out distance, which is what the kernel samples.  Each
run's mean and variance must lie within 5 standard errors of the
analytic Campbell moments.  Exits 1 if either misses.

Usage:
    python scripts/benchmark_mc.py [--samples N] [--repeat K] [--seed S]
"""

import argparse
import math
import time

import numpy as np

from coexist.propagation import AntennaPattern, ConstantGain, PowerLawPathLoss
from coexist.protection_multi import DeploymentField, campbell_stats, sample_aggregate
from coexist.protection_single import SecondaryUser

SU = SecondaryUser(
    eirp_w=1.0,
    bandwidth_hz=20e6,
    antenna_gain_dbi=2.15,
    antenna_height_m=3.0,
    noise_figure_db=8.0,
)

# (label, field, pattern, model, keep-out distance, outer radius)
WORKLOADS = [
    (
        "sparse field, directional gain (~1.8k points/sample)",
        DeploymentField(density_per_m2=1e-6, activity_prob=1.0, outage_max=0.1),
        AntennaPattern(gmax_dbi=33.5),
        PowerLawPathLoss(k0=259.0, alpha=3.97),
        2000.0,
        24e3,
    ),
    (
        "dense field, isotropic gain (~18.6k points/sample)",
        DeploymentField(density_per_m2=5.6e-4, activity_prob=1.0, outage_max=0.1),
        ConstantGain(gain_dbi=0.0),
        PowerLawPathLoss(k0=1.0, alpha=6.0),
        1000.0,
        3250.0,
    ),
]


def _profile(d0):
    return lambda theta: np.full(np.shape(np.asarray(theta)), d0)


def _run(workload, n_samples, seed):
    _, field, pattern, model, d0, outer = workload
    t0 = time.perf_counter()
    samples = sample_aggregate(
        field, SU, pattern, model, 1.0, _profile(d0), outer,
        n_samples, seed,
    )
    return time.perf_counter() - t0, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=20_000,
                        help="Monte Carlo samples per run (default 20000)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions; best is reported (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for workload in WORKLOADS:
        label, field, pattern, model, d0, outer = workload
        expected_points = (
            field.density_per_m2 * np.pi * (outer**2 - d0**2) * field.activity_prob
        )
        print(f"{label}")
        print(f"  {args.samples} samples, ~{expected_points:,.0f} points each")

        analytic = campbell_stats(
            field, SU, pattern, model, _profile(d0), 1.0, outer_radius_m=outer
        )

        # warm once (grid caches, first-touch allocations) before timing
        _run(workload, min(args.samples, 100), args.seed)
        best, samples = min(
            (_run(workload, args.samples, args.seed) for _ in range(args.repeat)),
            key=lambda pair: pair[0],
        )
        per_sample = best / args.samples * 1e6
        per_point = best / (args.samples * expected_points) * 1e9
        print(
            f"  {best:7.3f} s   {per_sample:8.2f} us/sample   "
            f"{per_point:6.2f} ns/point"
        )

        n = len(samples)
        mean, var = float(np.mean(samples)), float(np.var(samples, ddof=1))
        centered = samples - mean
        se_mean = math.sqrt(var / n)
        se_var = math.sqrt(max(float(np.mean(centered**4)) - var**2, 0.0) / n)
        z_mean = abs(mean - analytic.mean_w) / se_mean
        z_var = abs(var - analytic.variance_w2) / se_var
        ok = max(z_mean, z_var) < 5.0
        print(
            f"  vs analytic: mean {z_mean:.2f} SE, "
            f"variance {z_var:.2f} SE ({'OK' if ok else 'MISMATCH'})"
        )
        print()
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
