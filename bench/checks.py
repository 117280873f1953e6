"""Output checks that decide whether an op failed.

The checks use only the files an op wrote and the scenario the benchmark
generated.  The Campbell reference moments are computed here from the
scenario, with this file's own copy of the statistical antenna envelope,
not by calling the program.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

MAX_RATE_MBPS = 65.0
OUTAGE_REL_TOL = 1e-6
REFERENCE_REL_TOL = 1e-9
ANALYTIC_REL_TOL = 1e-3  # program's 4096-panel quadrature vs the fine grid here
POOLED_Z_MAX = 5.0
AREA_ORDER_REL_SLACK = 1e-9  # last-digit noise of the bisection solvers
GRID_POINTS = 1 << 20


class CheckFailed(Exception):
    """An op's outputs are missing or wrong."""


def read_summary(out_dir: Path) -> tuple[bytes, dict]:
    """Raw bytes and parsed payload of an op's summary.json."""
    path = out_dir / "summary.json"
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CheckFailed("no summary.json written") from None
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckFailed(f"summary.json is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("results"), dict):
        raise CheckFailed("summary.json has no results object")
    return raw, payload


def _number(results: dict, key: str) -> float:
    value = results.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckFailed(f"results.{key} is not a number: {value!r}")
    if not math.isfinite(value):
        raise CheckFailed(f"results.{key} is not finite: {value!r}")
    return float(value)


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


# --------------------------------------------------------------------------
# Monte Carlo workloads
# --------------------------------------------------------------------------


def _envelope_gain(gmax_dbi: float, theta_deg: np.ndarray) -> np.ndarray:
    """Linear gain of the statistical high-gain envelope (main lobe, plateau, skirt, back)."""
    a = np.abs(theta_deg)
    theta_m = 50.0 * math.sqrt(0.25 * gmax_dbi + 7.0) / 10.0 ** (gmax_dbi / 20.0)
    theta_r = 250.0 / 10.0 ** (gmax_dbi / 20.0)
    with np.errstate(divide="ignore"):
        skirt = 53.0 - 0.5 * gmax_dbi - 25.0 * np.log10(a)
    g_db = np.select(
        [a <= theta_m, a <= theta_r, a <= 48.0],
        [gmax_dbi - 0.0004 * 10.0 ** (gmax_dbi / 10.0) * a * a, 0.75 * gmax_dbi - 7.0, skirt],
        11.0 - 0.5 * gmax_dbi,
    )
    return 10.0 ** (g_db / 10.0)


def truncated_moments(scenario: dict) -> tuple[float, float]:
    """Campbell mean and variance of the field on the sampled annulus.

    Constant keep-out d and outer radius R separate the integrals:
    mean = lam P k0 / FDR * int G * (d^(2-a) - R^(2-a)) / (a-2),
    var  = lam P^2 k0^2 / FDR^2 * int G^2 * (d^(2-2a) - R^(2-2a)) / (2a-2).
    """
    field, su, loss, mc = scenario["field"], scenario["su"], scenario["pathloss"], scenario["mc"]
    if mc["profile"]["type"] != "constant":
        raise ValueError("reference moments need a constant keep-out profile")
    lam = field["density_per_m2"] * field["activity_prob"]
    power = su["eirp_w"]
    k0, alpha = loss["k0"], loss["alpha"]
    fdr = max(su["bandwidth_hz"] / scenario["radar"]["if_bandwidth_hz"], 1.0)
    d, outer = mc["profile"]["distance_m"], mc["outer_radius_m"]
    pattern = scenario.get("antenna_pattern", {})
    if "constant_gain_dbi" in pattern:
        g = 10.0 ** (pattern["constant_gain_dbi"] / 10.0)
        int_g, int_g2 = 2.0 * math.pi * g, 2.0 * math.pi * g * g
    else:
        step = 360.0 / GRID_POINTS
        theta = -180.0 + (np.arange(GRID_POINTS) + 0.5) * step
        gains = _envelope_gain(scenario["radar"]["peak_gain_dbi"], theta)
        dtheta = math.radians(step)
        int_g = float(np.sum(gains)) * dtheta
        int_g2 = float(np.sum(gains * gains)) * dtheta
    radial_mean = (d ** (2.0 - alpha) - outer ** (2.0 - alpha)) / (alpha - 2.0)
    radial_var = (d ** (2.0 - 2.0 * alpha) - outer ** (2.0 - 2.0 * alpha)) / (2.0 * alpha - 2.0)
    mean = lam * power * k0 / fdr * int_g * radial_mean
    var = lam * (power * k0 / fdr) ** 2 * int_g2 * radial_var
    return mean, var


def check_mc_op(out_dir: Path, payload: dict, seed: int, samples: int,
                moments: tuple[float, float]) -> tuple[float, float]:
    """Per-op checks of a validate-mc run; returns its (mean, variance) estimates."""
    if payload.get("command") != "validate-mc":
        raise CheckFailed(f"summary command is {payload.get('command')!r}")
    if payload.get("seed") != seed:
        raise CheckFailed(f"summary seed {payload.get('seed')} != {seed}")
    results = payload["results"]
    if results.get("n_samples") != samples:
        raise CheckFailed(f"n_samples {results.get('n_samples')} != {samples}")
    mean, var = moments
    for key, expected in (("mean_analytic_w", mean), ("variance_analytic_w2", var)):
        value = _number(results, key)
        if not _rel_close(value, expected, ANALYTIC_REL_TOL):
            raise CheckFailed(f"results.{key} = {value!r}, reference {expected!r}")
    est_mean = _number(results, "mean_empirical_w")
    est_var = _number(results, "variance_empirical_w2")
    if not (est_mean > 0.0 and est_var > 0.0):
        raise CheckFailed("empirical moments must be positive")
    quantiles = payload.get("config", {}).get("mc", {}).get("i_max_quantiles", [0.05, 0.1, 0.2])
    table = out_dir / "validate_mc.csv"
    try:
        with table.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError:
        raise CheckFailed("no validate_mc.csv written") from None
    if len(rows) != len(quantiles):
        raise CheckFailed(f"validate_mc.csv has {len(rows)} rows, expected {len(quantiles)}")
    for row in rows:
        prob = float(row["empirical_prob"])
        if not 0.0 <= prob <= 1.0:
            raise CheckFailed(f"empirical exceedance {prob} outside [0, 1]")
    return est_mean, est_var


def pooled_z(estimates: list[tuple[float, float]], moments: tuple[float, float]) -> tuple[float, float]:
    """|z| of the pooled mean and variance, with standard errors from op-level spread."""
    if len(estimates) < 2:
        raise CheckFailed("pooled check needs at least two ops")
    k = len(estimates)
    zs = []
    for values, truth in zip(zip(*estimates), moments):
        se = statistics.stdev(values) / math.sqrt(k)
        zs.append(abs(statistics.fmean(values) - truth) / se if se > 0.0 else math.inf)
    return zs[0], zs[1]


# --------------------------------------------------------------------------
# study-suite
# --------------------------------------------------------------------------


def check_study_op(out_dir: Path, payload: dict, command: str, draw: dict | None) -> None:
    """Per-op checks of one analytic study run.

    ``draw`` holds the generated field and WiFi values, or None for the
    unmodified fixtures.
    """
    if payload.get("command") != command:
        raise CheckFailed(f"summary command is {payload.get('command')!r}, expected {command!r}")
    results = payload["results"]
    if command == "protect-multi":
        cap = draw["outage_max"] if draw else payload["config"]["field"]["outage_max"]
        outage = _number(results, "outage_probability")
        if not abs(outage - cap) <= OUTAGE_REL_TOL * cap:
            raise CheckFailed(f"outage_probability {outage!r} != outage_max {cap!r}")
        if not _number(results, "area_m2") > 0.0:
            raise CheckFailed("area_m2 must be positive")
    elif command == "throughput":
        rates = [_number(results, "avg_rate_peak_mbps"), _number(results, "avg_rate_averaged_mbps")]
        table = out_dir / "throughput_sweep.csv"
        if table.exists():
            with table.open(newline="") as fh:
                for row in csv.DictReader(fh):
                    rates += [float(row["avg_rate_peak_mbps"]), float(row["avg_rate_averaged_mbps"])]
        for rate in rates:
            if not 0.0 <= rate <= MAX_RATE_MBPS:
                raise CheckFailed(f"average throughput {rate} Mbps outside [0, {MAX_RATE_MBPS}]")


def check_area_order(areas: dict[str, float]) -> None:
    """Protected areas must order optimal <= main-side-lobe <= radar-blind."""
    opt = areas["protect-multi-optimal"]
    msl = areas["protect-multi-main-side-lobe"]
    blind = areas["protect-multi-radar-blind"]
    slack = 1.0 + AREA_ORDER_REL_SLACK
    if not (opt <= msl * slack and msl <= blind * slack):
        raise CheckFailed(f"areas out of order: optimal {opt}, main-side-lobe {msl}, radar-blind {blind}")


def compare_reference(actual, expected, where: str = "results") -> None:
    """Recursive equality, numbers to REFERENCE_REL_TOL relative."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            raise CheckFailed(f"{where}: keys differ from the reference")
        for key in expected:
            compare_reference(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            raise CheckFailed(f"{where}: {actual!r} is not a number")
        if not (actual == expected or _rel_close(actual, expected, REFERENCE_REL_TOL)):
            raise CheckFailed(f"{where}: {actual!r} != reference {expected!r}")
    elif actual != expected:
        raise CheckFailed(f"{where}: {actual!r} != reference {expected!r}")
