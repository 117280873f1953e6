"""Benchmark entry point: one workload, one run, every metric by name and unit.

Run from the root of a checkout:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics: set-up time (median
of fresh interpreters importing ``coexist.cli`` and loading the workload's
first scenario, half before and half after the workload) and the
closed-loop figures of a child process that runs the workload alone, so its
peak memory is its own.  Times are scaled to a reference host speed by a
calibration computation timed next to them (see ``calibration.py``).  With
``--trace 1`` it reports the per-layer metrics: import times from
``python -X importtime`` and span timings from a traced child run, unscaled.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the machine, the resolved
Monte Carlo backend and the check details.  The program is used from
``src/`` of the checkout and nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 5  # before the workload child and again after it
SETUP_CALIBRATION_SAMPLES = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Times the set-up, then calibrates in the same process (see calibration.py)
# and prints the set-up time scaled to the reference host speed.
SETUP_SNIPPET = """
import statistics, sys, time
t0 = time.perf_counter()
import coexist.cli
from coexist.config import load_scenario
load_scenario(sys.argv[1])
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibration import Calibrator
calibrator = Calibrator()
mix = statistics.median(calibrator.sample() for _ in range(int(sys.argv[3])))
print(seconds * calibrator.reference_s / mix)
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONHOME", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(THREAD_CAPS)
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a Python child from the checkout root and wait for it to end."""
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def setup_seconds(scenario: Path) -> list[float]:
    """Scaled times of fresh interpreters to import coexist.cli and load ``scenario``."""
    args = ["-c", SETUP_SNIPPET, str(scenario), str(HERE), str(SETUP_CALIBRATION_SAMPLES)]
    return [
        float(run_child(args, 60).stdout.strip().splitlines()[-1]) for _ in range(SETUP_REPEATS)
    ]


def import_seconds() -> dict[str, float]:
    """Cumulative import time of coexist.cli and of scipy.special, from -X importtime."""
    totals: dict[str, list[float]] = {"import.total_s": [], "import.scipy_s": []}
    for _ in range(IMPORT_REPEATS):
        stderr = run_child(["-X", "importtime", "-c", "import coexist.cli"], 60).stderr
        cumulative = {}
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _self, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
        if "coexist.cli" not in cumulative:
            raise BenchError("-X importtime did not report coexist.cli")
        totals["import.total_s"].append(cumulative["coexist.cli"])
        totals["import.scipy_s"].append(cumulative.get("scipy.special", 0.0))
    return {name: statistics.median(values) for name, values in totals.items()}


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "coexist" / "cli.py").is_file():
        raise BenchError(f"no coexist sources under {ROOT / 'src'}; run from a checkout")
    declared = declared_metrics(args.trace)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    first = wl.first_scenario(ROOT, args.workload, args.seed, work / "inputs")

    # set-up is timed before and after the workload, in two of the host's phases
    setup = [] if args.trace else setup_seconds(first)
    measured = import_seconds() if args.trace else {}
    proc = run_child([
        str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work),
    ])
    try:
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"workload child printed no result: {exc}") from exc
    measured.update(child["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setup + setup_seconds(first))

    missing = sorted(set(declared) - set(measured))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    info = dict(child["info"])
    info.update({
        "thread_caps": THREAD_CAPS,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": unit} for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
