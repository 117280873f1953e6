#!/usr/bin/env python3
"""Time the package import, scenario loading and every subcommand.

Writes ``BENCH_<label>.json`` at the repository root with:

- ``import_s``: wall time of ``import coexist.cli`` in a fresh interpreter
  (min and median over ``--repeat`` processes);
- ``load_scenario_s``: per bundled fixture, the first load in the process
  (it reads and compiles the schema) and the min and median of repeated
  loads;
- ``commands_s``: per subcommand and fixture, the in-process time of
  ``coexist.cli.main`` (load, run, write into a temporary directory) and its
  exit code; a command that needs a section the fixture lacks exits 4.

It measures whichever ``coexist`` Python imports, so the same script can
time another checkout:

    PYTHONPATH=src python scripts/bench.py --label after
    PYTHONPATH=/path/to/other/src python scripts/bench.py --label before
"""

import argparse
import contextlib
import io
import json
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


def time_commands(repeat):
    from coexist.cli import main

    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for name in FIXTURES:
                times, codes = [], set()
                for i in range(repeat):
                    out = Path(tmp) / f"{command}-{name}-{i}"
                    t0 = time.perf_counter()
                    with contextlib.redirect_stderr(io.StringIO()):
                        codes.add(main([command, "--config", name, "--out", str(out)]))
                    times.append(time.perf_counter() - t0)
                (code,) = codes
                result[f"{command}/{name}"] = {"exit": code, **_summary(times)}
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
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
