"""Workload definitions and deterministic input generation.

Nothing here imports ``coexist``: inputs are built from the bundled fixture
files and the workload seed, so the program only ever sees scenario files
and CLI-style options.  The same (workload, seed) always yields the same
scenario files and per-op seeds.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("mc-directional", "mc-dense", "study-suite")

# Samples per validate-mc op.  A --trace 0 run times 100 ops (the p90 needs
# 10 beyond it) and reruns them until its time is up, so in a 30 s run each
# op should take about a twentieth of a second or less, for five reruns or
# more: 300 directional samples (~1.8k points each; fewer would drop the
# kernel's share of op time below 90%) take 0.04-0.06 s, 60 dense samples
# (~1.1M points, ~9 MB per chunk array) about 0.05 s.
MC_SAMPLES = {"mc-directional": 300, "mc-dense": 60}

# Parts of the host-speed calibration mix (calibration.py) timed next to each
# workload's ops: the kinds of work its op does.  On a contended host, each
# mix's time tracked its workload's op time best of the parts' combinations.
CALIBRATION_PARTS = {
    # random draws, arithmetic on cache-sized arrays, fresh chunk arrays
    "mc-directional": ("numpy", "draws", "page_faults"),
    # memory-heavy: arithmetic on fresh ~9 MB chunk arrays
    "mc-dense": ("numpy", "page_faults"),
    # root finders, loops and schema checks in Python over small arrays
    "study-suite": ("interpreter", "numpy"),
}

# The seven runs of one analytic study pass: (kind, scenario, command, policy).
STUDY_RUNS = (
    ("detect", "radar", "detect", None),
    ("imax", "radar", "imax", None),
    ("protect-single", "radar", "protect-single", None),
    ("protect-multi-optimal", "radar", "protect-multi", "optimal"),
    ("protect-multi-main-side-lobe", "radar", "protect-multi", "main-side-lobe"),
    ("protect-multi-radar-blind", "radar", "protect-multi", "radar-blind"),
    ("throughput", "wifi", "throughput", None),
)

# Ranges the study-suite seed draws from, per pass (log-uniform where the
# quantity spans decades), stratified over blocks of STUDY_STRATA passes:
# a --trace 0 run times the fewest whole passes that hold 100 ops, 15.
STUDY_STRATA = 15
DENSITY_RANGE = (3e-7, 3e-6)
OUTAGE_RANGE = (0.05, 0.2)
SU_DISTANCE_RANGE = (1e3, 2e4)


def fixture_path(root: Path, name: str) -> Path:
    """Bundled fixture ``name`` in the checkout at ``root``."""
    return root / "src" / "coexist" / "fixtures" / f"{name}.json"


def fixture(root: Path, name: str) -> dict:
    return json.loads(fixture_path(root, name).read_text())


def dense_scenario(root: Path) -> dict:
    """Criterion-7 tail field: isotropic gain, alpha 6, 5.6e-4 /m^2, 1 km to 3.25 km."""
    base = fixture(root, "type_b_radar")
    return {
        "radar": base["radar"],
        "su": base["su"],
        "pathloss": {"type": "power_law", "k0": 1.0, "alpha": 6.0},
        "antenna_pattern": {"constant_gain_dbi": 0.0},
        "field": {"density_per_m2": 5.6e-4, "activity_prob": 1.0, "outage_max": 0.1},
        "mc": {
            "seed": 0,
            "samples": MC_SAMPLES["mc-dense"],
            "outer_radius_m": 3250.0,
            "profile": {"type": "constant", "distance_m": 1000.0},
        },
        "output": {"format": "csv"},
    }


def write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash with SHA-512 inside random, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def op_seed(workload: str, seed: int, index: int) -> int:
    """MC seed of op ``index``; op 0 is the warm-up whose seed the final op replays."""
    return _rng(workload, seed, index).randrange(2**31)


def _study_units(seed: int, index: int) -> list[float]:
    """Three uniform [0, 1) numbers for study pass ``index``.

    Pass 0 (the warm-up) draws them freely.  Later passes come in blocks of
    STUDY_STRATA; within a block each number falls once into each of
    STUDY_STRATA equal strata, in a seeded random order per number, so every
    run's timed passes cover the ranges evenly and their cost varies less
    between seeds than independent draws would let it.
    """
    rng = _rng("study-suite", seed, index)
    offsets = [rng.random() for _ in range(3)]
    if index == 0:
        return offsets
    block, slot = divmod(index - 1, STUDY_STRATA)
    units = []
    for k, offset in enumerate(offsets):
        order = list(range(STUDY_STRATA))
        random.Random(f"study-suite:{seed}:block{block}:{k}").shuffle(order)
        units.append((order[slot] + offset) / STUDY_STRATA)
    return units


def study_draw(seed: int, index: int) -> dict:
    """Field density, outage cap and WiFi distance for study pass ``index``."""
    u_density, u_outage, u_distance = _study_units(seed, index)
    lo, hi = DENSITY_RANGE
    density = 10.0 ** (math.log10(lo) + u_density * math.log10(hi / lo))
    outage = OUTAGE_RANGE[0] + u_outage * (OUTAGE_RANGE[1] - OUTAGE_RANGE[0])
    lo, hi = SU_DISTANCE_RANGE
    distance = 10.0 ** (math.log10(lo) + u_distance * math.log10(hi / lo))
    return {"density_per_m2": density, "outage_max": outage, "su_distance_m": distance}


def study_scenarios(root: Path, draw: dict) -> dict:
    """The radar and WiFi scenarios of one study pass, as dicts."""
    radar = fixture(root, "type_b_radar")
    radar["field"] = dict(
        radar["field"],
        density_per_m2=draw["density_per_m2"],
        outage_max=draw["outage_max"],
    )
    wifi = fixture(root, "wifi_sharing")
    wifi["wifi"] = dict(wifi["wifi"], su_distance_m=draw["su_distance_m"])
    return {"radar": radar, "wifi": wifi}


def write_study_pass(root: Path, inputs: Path, seed: int, index: int) -> dict:
    """Write pass ``index``'s scenario files; returns the draw and their paths."""
    draw = study_draw(seed, index)
    paths = {
        key: write_json(inputs / f"pass{index}_{key}.json", scenario)
        for key, scenario in study_scenarios(root, draw).items()
    }
    return {"draw": draw, "paths": paths}


def mc_scenario_path(root: Path, workload: str, inputs: Path) -> Path:
    """Scenario file of an MC workload: the unmodified fixture, or the dense field."""
    if workload == "mc-directional":
        return fixture_path(root, "type_b_radar")
    return write_json(inputs / "mc_dense.json", dense_scenario(root))


def first_scenario(root: Path, workload: str, seed: int, inputs: Path) -> Path:
    """The scenario file a run loads first (what ``setup_s`` loads)."""
    if workload == "study-suite":
        return write_study_pass(root, inputs, seed, 0)["paths"]["radar"]
    return mc_scenario_path(root, workload, inputs)
