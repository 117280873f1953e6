#!/usr/bin/env python3
"""Time the package import, scenario loading, every subcommand and the MC kernel.

Writes ``BENCH_<label>.json`` at the repository root with:

- ``import_s``: wall time of ``import coexist.cli`` in a fresh interpreter
  (min and median over ``--repeat`` processes);
- ``load_scenario_s``: per bundled fixture, the first load in the process
  (it reads and compiles the schema) and the min and median of repeated
  loads;
- ``commands_s``: per subcommand and fixture, the in-process time of
  ``coexist.cli.main`` (load, run, write into a temporary directory) and its
  exit code; a command that needs a section the fixture lacks exits 4;
- ``protect_multi_policies_s``: the same for ``protect-multi`` on
  ``type_b_radar`` under each field policy (``--policy``), since the policies
  solve very different numbers of contour scales;
- ``write_s``: per subcommand and fixture, the time spent inside the CLI's
  output writers (``_OutputTracker.table`` and ``.summary``), measured in
  separate runs in which only those two methods are wrapped by a clock;
- ``kernel``: per Monte Carlo workload (a sparse field under the directional
  pattern, about 1.8k drawn points per sample, and a dense isotropic field,
  about 16.8k), the time of ``sample_aggregate`` per drawn point (min and median
  ns; the kernel draws only the annulus outside the keep-out distance, so a
  point is one drawn there) and how far the sample mean and variance lie
  from the analytic Campbell moments, in standard errors.  Each workload
  runs in its own fresh interpreter.

The script exits 1 if either kernel workload misses its Campbell moments by
5 standard errors or more; the record is written either way.

It measures whichever ``coexist`` Python imports, so the same script can
time another checkout:

    PYTHONPATH=src python scripts/bench.py --label after
    PYTHONPATH=/path/to/other/src python scripts/bench.py --label before
"""

import argparse
import contextlib
import functools
import io
import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ("type_b_radar", "wifi_sharing")
COMMANDS = (
    "detect",
    "imax",
    "protect-single",
    "protect-multi",
    "throughput",
    "validate-mc",
    "fit-pathloss",
)
FIELD_POLICIES = ("optimal", "radar-blind", "main-side-lobe")
KERNEL_SAMPLES = 20_000
KERNEL_SEED = 0
MAX_Z = 5.0  # Campbell check: standard errors the sample moments may miss by
_IMPORT = (
    "import time; t = time.perf_counter(); import coexist.cli; "
    "print(time.perf_counter() - t)"
)


def _summary(times):
    return {"min": min(times), "median": statistics.median(times)}


def time_import(repeat):
    times = [
        float(subprocess.run(
            [sys.executable, "-c", _IMPORT], capture_output=True, text=True, check=True
        ).stdout)
        for _ in range(repeat)
    ]
    return _summary(times)


def time_loads(repeat):
    from coexist.config import load_scenario

    result = {}
    for name in FIXTURES:
        t0 = time.perf_counter()
        load_scenario(name)
        first = time.perf_counter() - t0
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            load_scenario(name)
            times.append(time.perf_counter() - t0)
        result[name] = {"first": first, **_summary(times)}
    return result


def _time_main(argv, repeat, spent=None):
    """Exit code and time summary of ``coexist.cli.main(argv + --out ...)``.

    With ``spent``, a list that a clock fills during each run, the time
    of a run is the sum of that list instead of its wall time.
    """
    from coexist.cli import main

    times, codes = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeat):
            out = Path(tmp) / str(i)
            if spent is not None:
                spent.clear()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):
                codes.add(main([*argv, "--out", str(out)]))
            times.append(time.perf_counter() - t0 if spent is None else sum(spent))
    (code,) = codes
    return {"exit": code, **_summary(times)}


def time_commands(repeat):
    return {
        f"{command}/{name}": _time_main([command, "--config", name], repeat)
        for command in COMMANDS
        for name in FIXTURES
    }


def time_policies(repeat):
    return {
        policy: _time_main(
            ["protect-multi", "--config", "type_b_radar", "--policy", policy], repeat
        )
        for policy in FIELD_POLICIES
    }


@contextlib.contextmanager
def _clocked_writers():
    """Wrap ``_OutputTracker.table`` and ``.summary``; yields the list of their call times."""
    from coexist.cli import _OutputTracker

    spent = []
    originals = {name: getattr(_OutputTracker, name) for name in ("table", "summary")}

    def clocked(method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - t0)

        return wrapper

    for name, method in originals.items():
        setattr(_OutputTracker, name, clocked(method))
    try:
        yield spent
    finally:
        for name, method in originals.items():
            setattr(_OutputTracker, name, method)


def time_writes(repeat):
    with _clocked_writers() as spent:
        return {
            f"{command}/{name}": _time_main([command, "--config", name], repeat, spent)
            for command in COMMANDS
            for name in FIXTURES
        }


def _kernel_workloads():
    from coexist.propagation import AntennaPattern, ConstantGain, PowerLawPathLoss
    from coexist.protection_multi import DeploymentField

    # name: (field, pattern, model, keep-out distance, outer radius)
    return {
        "directional": (
            DeploymentField(density_per_m2=1e-6, activity_prob=1.0, outage_max=0.1),
            AntennaPattern(gmax_dbi=33.5),
            PowerLawPathLoss(k0=259.0, alpha=3.97),
            2000.0,
            24e3,
        ),
        "dense": (
            DeploymentField(density_per_m2=5.6e-4, activity_prob=1.0, outage_max=0.1),
            ConstantGain(gain_dbi=0.0),
            PowerLawPathLoss(k0=1.0, alpha=6.0),
            1000.0,
            3250.0,
        ),
    }


def _constant_profile(d0):
    return lambda theta: np.full(np.shape(theta), d0)


def _moment_misses(samples, analytic):
    """Distances of the sample mean and variance from Campbell's, in standard errors."""
    n = len(samples)
    mean, var = float(np.mean(samples)), float(np.var(samples, ddof=1))
    fourth = float(np.mean((samples - mean) ** 4))
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt(max(fourth - var**2, 0.0) / n)
    return (
        abs(mean - analytic.mean_w) / se_mean,
        abs(var - analytic.variance_w2) / se_var,
    )


def _time_kernel_workload(name, repeat):
    from coexist.protection_multi import campbell_stats, sample_aggregate
    from coexist.protection_single import SecondaryUser

    su = SecondaryUser(
        eirp_w=1.0,
        bandwidth_hz=20e6,
        antenna_gain_dbi=2.15,
        antenna_height_m=3.0,
        noise_figure_db=8.0,
    )
    field, pattern, model, d0, outer = _kernel_workloads()[name]
    profile = _constant_profile(d0)
    args = (field, su, pattern, model, 1.0, profile, outer)
    points = field.active_density_per_m2 * math.pi * (outer**2 - d0**2)
    sample_aggregate(*args, 100, KERNEL_SEED)  # warm caches and allocations
    ns_per_point = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        samples = sample_aggregate(*args, KERNEL_SAMPLES, KERNEL_SEED)
        elapsed = time.perf_counter() - t0
        ns_per_point.append(elapsed / (KERNEL_SAMPLES * points) * 1e9)
    analytic = campbell_stats(
        field, su, pattern, model, profile, 1.0, outer_radius_m=outer
    )
    z_mean, z_var = _moment_misses(samples, analytic)
    return {
        "samples": KERNEL_SAMPLES,
        "drawn_points_per_sample": points,
        "ns_per_point": _summary(ns_per_point),
        "z_mean": z_mean,
        "z_variance": z_var,
        "moments_ok": max(z_mean, z_var) < MAX_Z,
    }


def time_kernel(repeat):
    # each workload in a fresh interpreter: the kernel's arrays are freed and
    # allocated again per slice, so the dense field's time per point depends
    # on the allocation sizes the process freed before it (glibc raises its
    # mmap threshold to the largest freed mmap), e.g. a directional run
    context = multiprocessing.get_context("spawn")
    result = {}
    for name in _kernel_workloads():
        with context.Pool(1) as pool:
            result[name] = pool.apply(_time_kernel_workload, (name, repeat))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=7, help="runs per measurement")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    record = {
        "label": args.label,
        "repeat": args.repeat,
        "unit": "s",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "import_s": time_import(args.repeat),
        "load_scenario_s": time_loads(max(args.repeat, 50)),
        "commands_s": time_commands(args.repeat),
        "protect_multi_policies_s": time_policies(args.repeat),
        "write_s": time_writes(args.repeat),
        "kernel": time_kernel(args.repeat),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}")
    misses = [n for n, entry in record["kernel"].items() if not entry["moments_ok"]]
    for name in misses:
        entry = record["kernel"][name]
        print(
            f"kernel {name}: sample moments miss Campbell's by "
            f"{entry['z_mean']:.2f} (mean) and {entry['z_variance']:.2f} "
            f"(variance) standard errors, limit {MAX_Z}",
            file=sys.stderr,
        )
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
