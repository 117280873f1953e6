#!/usr/bin/env python3
"""Time the package import, scenario loading, every subcommand and the MC kernel.

Writes ``BENCH_<label>.json`` at the repository root with:

- ``import_s``: wall time of ``import coexist.cli`` in a fresh interpreter
  (min and median over ``--repeat`` processes);
- ``setup_s``: per bundled fixture, the same for ``import coexist.cli`` plus
  ``load_scenario``, unscaled; the benchmark's ``setup_s`` times this pair;
- ``setup_modules``: per bundled fixture, the ``coexist`` modules that this
  fresh import and load ran (a module LazyLoader has not run yet is left out);
- ``fresh_commands_s``: per subcommand and fixture, the wall time and exit
  code of ``python -m coexist.cli`` in a fresh process, as a user runs it
  (interpreter start, imports, compiling ``src`` where no bytecode is cached,
  the run and its writes);
- ``load_scenario_s``: per bundled fixture, loaded by its file path, the
  first load in a fresh worker (it also reads and compiles the schema) and
  the min and median of ``LOAD_CALLS`` x ``--repeat`` (at least 50) more,
  spread over fresh workers, and of their three stages: ``read_parse``
  (resolving, reading and ``json.loads``), ``schema`` (the compiled check
  of the parsed document) and ``build`` (the rest: the records);
- ``commands_s``: per subcommand and fixture, the in-process time of
  ``load_scenario`` on the fixture's file plus ``run_command`` into a
  temporary directory, the op the benchmark times (``coexist.cli.main``
  would add building its argument parser, about as long again as a whole
  ``protect-single``), and the exit code ``main`` would return, from
  ``coexist.cli.EXIT_CODES``; a command that needs a section the fixture
  lacks exits 4;
- ``protect_multi_policies_s``: the same for ``protect-multi`` on
  ``type_b_radar`` under each field policy (``run_command``'s ``policy``),
  since the policies solve very different numbers of contour scales;
- ``write_s``: per subcommand and fixture, the time spent inside the CLI's
  output writers, measured in separate runs in which only
  ``_OutputTracker.table``, ``.summary`` and ``.write`` are wrapped by a
  clock: their sum, and under ``table``, ``summary`` and ``write`` each one's
  own time (``write`` reads 0 for a tree whose ``table`` and ``summary``
  write their files as they format them);
- ``commands_json_s`` and ``write_json_s``: the same as ``commands_s`` and
  ``write_s`` with ``fmt="json"``, for the subcommands and fixtures that
  write a table (``TABLE_RUNS``);
- ``kernel``: per Monte Carlo workload (a sparse field under the directional
  pattern, about 1.8k drawn points per sample, and a dense isotropic field,
  about 16.8k), the time of ``sample_aggregate`` per drawn point (min and median
  ns; the kernel draws only the annulus outside the keep-out distance, so a
  point is one drawn there) and how far the sample mean and variance lie
  from the analytic Campbell moments, in standard errors.  Each workload
  runs in its own fresh interpreter.

The script exits 1 if a kernel workload misses its Campbell moments by
5 standard errors or more; the record is written either way.

Every in-process measurement runs in spawned workers that import
``coexist`` from ``--src`` (this checkout's ``src`` by default).  With
``--baseline`` a second checkout's ``src`` is timed in the same run, in
workers of its own, and ``BENCH_<baseline-label>.json`` is written too.  The
two trees alternate per measurement and per repeat (the one that goes first
alternates as well), so drift in the host's speed falls on both alike.  A
process can run a few percent fast or slow for its whole life (where its
memory landed, say), so each tree's repeats are spread over fresh workers,
``WORKER_REPEATS`` repeats to a worker, each warmed by one untimed run.  Each
interleaved measurement (``import_s``, ``setup_s``, ``fresh_commands_s``,
``commands_s``, ``protect_multi_policies_s``, ``write_s`` and their JSON
twins) then also records ``wins`` (per writer too): in how many of the
repeats that tree took less time than the other, ties counting for neither.
A median alone moves by 10% between runs of the same code, so the wins say
whether a move is real:

    python scripts/bench.py --label after
    python scripts/bench.py --label after \
        --baseline /path/to/other/src --baseline-label before

A run with ``--baseline`` set to the same ``src`` as ``--src`` (an A/A run)
shows the noise: how far the medians and wins of identical trees stray.
"""

import argparse
import contextlib
import functools
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
from types import SimpleNamespace
from typing import NamedTuple

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
# the subcommand and fixture pairs that write a table; the others write only
# summary.json, or exit 4 for a section the fixture lacks
TABLE_RUNS = (
    ("imax", "type_b_radar"),
    ("protect-single", "type_b_radar"),
    ("protect-single", "wifi_sharing"),
    ("protect-multi", "type_b_radar"),
    ("throughput", "wifi_sharing"),
    ("validate-mc", "type_b_radar"),
)
KERNEL_WORKLOADS = ("directional", "dense")
KERNEL_SAMPLES = 20_000
KERNEL_SEED = 0
WORKER_REPEATS = 3  # in-process repeats per fresh worker
LOAD_CALLS = 6  # calls of _load_stages per tree and fixture, WORKER_REPEATS to a worker
MAX_Z = 5.0  # Campbell check: standard errors the sample moments may miss by
_IMPORT = (
    "import time; t = time.perf_counter(); import coexist.cli; "
    "print(time.perf_counter() - t)"
)
# the clock stops before the run modules are listed: LazyLoader's unrun
# modules are listed by type(), which does not run them
_SETUP = (
    "import json, sys, time, types; t = time.perf_counter(); import coexist.cli; "
    "from coexist.config import load_scenario; load_scenario(sys.argv[1]); "
    "seconds = time.perf_counter() - t; "
    "run = sorted(n for n, m in sys.modules.items() "
    "if n.split('.')[0] == 'coexist' and type(m) is types.ModuleType); "
    "print(json.dumps([seconds, run]))"
)


def _summary(times):
    return {"min": min(times), "median": statistics.median(times)}


def _summaries(runs):
    """``_summary`` per tree label, with ``wins`` when more than one tree ran.

    ``runs`` maps each label to its times, repeat by repeat; a tree wins a
    repeat when its time is below every other tree's in that repeat.
    """
    result = {label: _summary(times) for label, times in runs.items()}
    if len(runs) > 1:
        for label, times in runs.items():
            others = [other for key, other in runs.items() if key != label]
            result[label]["wins"] = sum(
                all(t < o[i] for o in others) for i, t in enumerate(times)
            )
    return result


class Run(NamedTuple):
    """A subcommand on a bundled fixture, with ``run_command`` keyword options."""

    command: str
    fixture: str
    options: tuple = ()  # (keyword, value) pairs, say (("policy", "optimal"),)

    def argv(self):
        """The same run as ``python -m coexist.cli`` arguments, less ``--out``."""
        flags = {"fmt": "--format", "policy": "--policy"}
        return [
            self.command, "--config", self.fixture,
            *(arg for key, value in self.options for arg in (flags[key], value)),
        ]


class Tree(NamedTuple):
    """A checkout's label and ``src`` directory."""

    label: str
    src: str


def _prepend_path(src):
    sys.path.insert(0, src)


def _coexist_src():
    import coexist

    return str(Path(coexist.__file__).resolve().parents[1])


def _spawn(src):
    """A one-process spawned pool whose ``coexist`` is the one in ``src``."""
    pool = multiprocessing.get_context("spawn").Pool(
        1, initializer=_prepend_path, initargs=(src,)
    )
    found = pool.apply(_coexist_src)
    if found != src:
        pool.terminate()
        raise SystemExit(f"the worker imported coexist from {found}, not from {src}")
    return pool


def _in_turn(trees, i):
    """The trees in the order of turn ``i``: the one that goes first alternates."""
    return trees if i % 2 == 0 else trees[::-1]


def _alternate(trees, repeat, run):
    """Per tree label, ``repeat`` results of ``run(tree)``, the trees taking turns."""
    results = {tree.label: [] for tree in trees}
    for i in range(repeat):
        for tree in _in_turn(trees, i):
            results[tree.label].append(run(tree))
    return results


def _alternate_in_workers(trees, repeat, task, args):
    """Per tree label, ``repeat`` results of ``task(*args)`` in fresh spawned workers.

    Each tree gets a new worker every ``WORKER_REPEATS`` repeats, warmed by
    one untimed call; the trees take turns in spawning and in each repeat.
    """
    results = {tree.label: [] for tree in trees}
    for start in range(0, repeat, WORKER_REPEATS):
        pools = {}
        try:
            for tree in _in_turn(trees, start // WORKER_REPEATS):
                pools[tree.label] = _spawn(tree.src)
                pools[tree.label].apply(task, args)
            for i in range(start, min(start + WORKER_REPEATS, repeat)):
                for tree in _in_turn(trees, i):
                    results[tree.label].append(pools[tree.label].apply(task, args))
        finally:
            for pool in pools.values():
                pool.terminate()
    return results


def _fresh(src, args, check=True):
    """``python args`` in a fresh interpreter whose ``coexist`` is the one in ``src``."""
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=check,
    )


def time_import(trees, repeat):
    return _summaries(
        _alternate(trees, repeat, lambda tree: float(_fresh(tree.src, ["-c", _IMPORT]).stdout))
    )


def time_setup(trees, repeat):
    """Per tree and fixture: the set-up's time summary, and the modules it ran."""
    result = {tree.label: {} for tree in trees}
    modules = {tree.label: {} for tree in trees}
    for name in FIXTURES:
        runs = _alternate(
            trees, repeat, lambda tree: json.loads(_fresh(tree.src, ["-c", _SETUP, name]).stdout)
        )
        times = {label: [seconds for seconds, _ in pairs] for label, pairs in runs.items()}
        for label, summary in _summaries(times).items():
            result[label][name] = summary
            (modules[label][name],) = {tuple(run) for _, run in runs[label]}
    return result, modules


def _first_load(name):
    """Seconds of the first load of fixture ``name``'s file in this process."""
    from coexist import config

    path = config.fixture_path(name)
    t0 = time.perf_counter()
    config.load_scenario(path)
    return time.perf_counter() - t0


def _load_stages(name, repeat):
    """Per stage, the seconds of ``repeat`` loads of fixture ``name``'s file.

    The stages are marked inside each real load: ``json.loads`` and the
    compiled validator's ``first_error`` are wrapped by a clock, and
    restored after.
    """
    from coexist import config

    path = config.fixture_path(name)
    marks = {}

    def marked(key, function):
        def wrapper(*args, **kwargs):
            try:
                return function(*args, **kwargs)
            finally:
                marks[key] = time.perf_counter()

        return wrapper

    checker = SimpleNamespace(first_error=marked("checked", config._validator().first_error))
    stages = {"total": [], "read_parse": [], "schema": [], "build": []}
    real_loads, real_validator = json.loads, config._validator
    json.loads = marked("parsed", json.loads)
    config._validator = lambda path="": real_validator(path) if path else checker
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            config.load_scenario(path)
            t1 = time.perf_counter()
            stages["total"].append(t1 - t0)
            stages["read_parse"].append(marks["parsed"] - t0)
            stages["schema"].append(marks["checked"] - marks["parsed"])
            stages["build"].append(t1 - marks["checked"])
    finally:
        json.loads, config._validator = real_loads, real_validator
    return stages


def time_loads(trees, repeat):
    """Per tree and fixture: the first load, and the stages of ``LOAD_CALLS`` x ``repeat`` more."""
    result = {tree.label: {} for tree in trees}
    for i, name in enumerate(FIXTURES):
        first = {}
        for tree in _in_turn(trees, i):  # a fresh worker's first load compiles the schema
            pool = _spawn(tree.src)
            try:
                first[tree.label] = pool.apply(_first_load, (name,))
            finally:
                pool.terminate()
        runs = _alternate_in_workers(trees, LOAD_CALLS, _load_stages, (name, repeat))
        for label, calls in runs.items():
            stages = {stage: [t for call in calls for t in call[stage]] for stage in calls[0]}
            split = {stage: _summary(times) for stage, times in stages.items() if stage != "total"}
            result[label][name] = {"first": first[label], **_summary(stages["total"]), **split}
    return result


def _run_in_process(run, clocked):
    """Exit code, seconds and writer seconds of one ``load_scenario`` + ``run_command`` run.

    The run loads its fixture's file and writes into a new temporary
    directory; its exit code is the one ``coexist.cli.main`` would return.
    With ``clocked``, the seconds are those spent inside the output writers,
    and the writer seconds split them by writer name; otherwise the writer
    seconds are empty.
    """
    from coexist import cli, config

    path = config.fixture_path(run.fixture)
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(tempfile.TemporaryDirectory())
        spent = stack.enter_context(_clocked_writers()) if clocked else {}
        t0 = time.perf_counter()
        try:
            cli.run_command(config.load_scenario(path), run.command, out, **dict(run.options))
            code = 0
        except Exception as exc:
            code = next(rc for kind, rc in cli.EXIT_CODES if isinstance(exc, kind))
        elapsed = time.perf_counter() - t0
    per_writer = {name: sum(times) for name, times in spent.items()}
    return code, sum(per_writer.values()) if clocked else elapsed, per_writer


def _run_fresh(src, run):
    """Exit code, wall seconds and (no) writer seconds of ``run`` as ``python -m coexist.cli``."""
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        argv = ["-m", "coexist.cli", *run.argv(), "--out", out]
        code = _fresh(src, argv, check=False).returncode
        return code, time.perf_counter() - t0, {}


def time_runs(trees, named_runs, repeat, clocked=False, fresh=False):
    """Per tree label and key of ``named_runs``: exit code and time summary of its ``Run``.

    With ``clocked``, each writer's own summary sits under its name as well.
    With ``fresh``, each run is a new ``python -m coexist.cli`` process.
    """
    result = {tree.label: {} for tree in trees}
    for key, run in named_runs.items():
        if fresh:
            runs = _alternate(trees, repeat, lambda tree: _run_fresh(tree.src, run))
        else:
            runs = _alternate_in_workers(trees, repeat, _run_in_process, (run, clocked))
        times = {label: [t for _, t, _ in triples] for label, triples in runs.items()}
        for label, summary in _summaries(times).items():
            (code,) = {code for code, _, _ in runs[label]}
            result[label][key] = {"exit": code, **summary}
        for name in runs[trees[0].label][0][2]:
            times = {label: [w[name] for _, _, w in triples] for label, triples in runs.items()}
            for label, summary in _summaries(times).items():
                result[label][key][name] = summary
    return result


@contextlib.contextmanager
def _clocked_writers():
    """Wrap ``_OutputTracker.table``, ``.summary`` and ``.write``; yields their times by name."""
    from coexist.cli import _OutputTracker

    names = ("table", "summary", "write")
    spent = {name: [] for name in names}
    # a writer the tree's _OutputTracker lacks keeps no times
    originals = {n: getattr(_OutputTracker, n) for n in names if hasattr(_OutputTracker, n)}

    def clocked(method, times):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        return wrapper

    for name, method in originals.items():
        setattr(_OutputTracker, name, clocked(method, spent[name]))
    try:
        yield spent
    finally:
        for name, method in originals.items():
            setattr(_OutputTracker, name, method)


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
    from coexist.config import load_scenario
    from coexist.protection_multi import campbell_stats, sample_aggregate

    # the timed tree's own record, whatever fields its version carries
    su = load_scenario("type_b_radar").su
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


def time_kernel(trees, repeat):
    # each workload in a fresh interpreter per tree: the kernel's arrays are
    # freed and allocated again per slice, so the dense field's time per
    # point depends on the allocation sizes the process freed before it
    # (glibc raises its mmap threshold to the largest freed mmap), e.g. a
    # directional run
    result = {tree.label: {} for tree in trees}
    for i, name in enumerate(KERNEL_WORKLOADS):
        for tree in _in_turn(trees, i):
            pool = _spawn(tree.src)
            try:
                result[tree.label][name] = pool.apply(
                    _time_kernel_workload, (name, repeat)
                )
            finally:
                pool.terminate()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=7, help="runs per measurement")
    parser.add_argument(
        "--src", default=str(ROOT / "src"), help="src directory to time"
    )
    parser.add_argument(
        "--baseline", help="a second checkout's src directory, timed in the same run"
    )
    parser.add_argument(
        "--baseline-label", help="names BENCH_<baseline-label>.json (with --baseline)"
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sides = {args.label: args.src}
    if args.baseline is not None:
        if args.baseline_label in (None, args.label):
            parser.error("--baseline needs a --baseline-label other than --label")
        sides[args.baseline_label] = args.baseline
    sides = {label: str(Path(src).resolve()) for label, src in sides.items()}

    records = {
        label: {
            "label": label,
            "repeat": args.repeat,
            "unit": "s",
            "interleaved_with": [other for other in sides if other != label],
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
            },
        }
        for label in sides
    }
    trees = [Tree(label, src) for label, src in sides.items()]
    commands = {f"{c}/{n}": Run(c, n) for c in COMMANDS for n in FIXTURES}
    policies = {
        p: Run("protect-multi", "type_b_radar", (("policy", p),)) for p in FIELD_POLICIES
    }
    json_runs = {f"{c}/{n}": Run(c, n, (("fmt", "json"),)) for c, n in TABLE_RUNS}
    measured = {
        "import_s": time_import(trees, args.repeat),
        **dict(zip(("setup_s", "setup_modules"), time_setup(trees, args.repeat))),
        "fresh_commands_s": time_runs(trees, commands, args.repeat, fresh=True),
        "load_scenario_s": time_loads(trees, max(args.repeat, 50)),
        "commands_s": time_runs(trees, commands, args.repeat),
        "protect_multi_policies_s": time_runs(trees, policies, args.repeat),
        "write_s": time_runs(trees, commands, args.repeat, clocked=True),
        "commands_json_s": time_runs(trees, json_runs, args.repeat),
        "write_json_s": time_runs(trees, json_runs, args.repeat, clocked=True),
    }
    measured["kernel"] = time_kernel(trees, args.repeat)

    status = 0
    for label, record in records.items():
        for key, per_tree in measured.items():
            record[key] = per_tree[label]
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {path.name}")
        for name, entry in record["kernel"].items():
            if not entry["moments_ok"]:
                status = 1
                print(
                    f"{label} kernel {name}: sample moments miss Campbell's by "
                    f"{entry['z_mean']:.2f} (mean) and {entry['z_variance']:.2f} "
                    f"(variance) standard errors, limit {MAX_Z}",
                    file=sys.stderr,
                )
    return status


if __name__ == "__main__":
    sys.exit(main())
