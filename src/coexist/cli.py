"""Command-line front end: run coexistence studies from JSON scenarios.

Each subcommand maps one study to machine-readable artifacts in --out:
data tables (CSV by default, JSON with --format json) plus a summary.json
that echoes the fully resolved configuration, the library version, and
the seed, so every run is auditable and byte-for-byte reproducible.  Every
JSON file is exactly what ``json.dumps(x, indent=2, sort_keys=True)``
writes, with numpy scalars written as Python values and non-finite floats
as the strings "nan", "inf" and "-inf"; ``_json_text`` writes it in one pass.

``main`` exits 0 on success, else with the ``EXIT_CODES`` entry of the error.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from itertools import chain, takewhile
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from . import __version__, protection_multi, wifi_link
from .config import (
    MissingSection,
    ParseError,
    Scenario,
    ValidationError,
    check_analytic_work,
    check_field,
    load_scenario,
    resolve_grid,
)
from .numerics import (
    db_to_linear,
    fit_power_law,
    linear_to_db,
    log_log_r_squared,
    np,
    q_inverse,
)
from .propagation import (
    AntennaPattern,
    ConstantGain,
    PowerLawPathLoss,
    TabulatedPathLoss,
    fdr_cochannel,
    gain_dbi,
)
from .protection_single import (
    DeploymentField,
    InterferenceBudget,
    dbm,
    distance_at_gain,
    inr_vs_performance_drop,
    max_tolerable_interference,
    protection_distance,
    single_user_gamma,
)
from .radar_detection import (
    Target,
    effective_snr,
    max_range,
    noise_power_w,
    single_pulse_snr,
    snr_required_albersheim,
)

# a failed run's exit code: that of the first class its error is an instance of
EXIT_CODES = ((ParseError, 2), (ValidationError, 3), (MissingSection, 4), (Exception, 5))

POLICY_CHOICES = ("optimal", "radar-blind", "main-side-lobe", "single-user")


@functools.cache
def azimuth_grid_deg() -> np.ndarray:
    """The read-only half-degree azimuth grid, 721 points from -180 to 180.

    The default protect-single table and the protect-multi contour share it;
    being read-only, its CSV text can be built once.
    """
    grid = np.linspace(-180.0, 180.0, 721)
    grid.flags.writeable = False
    return grid


_encode_str = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    if value - value == 0.0:  # finite
        return float.__repr__(value)
    if value != value:
        return '"nan"'
    return '"inf"' if value > 0.0 else '"-inf"'


# the text of a value of exactly one of these types; subclasses take the long way
_JSON_LEAF: Dict[type, Callable[[Any], str]] = {
    str: _encode_str,
    float: _json_float,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(obj: Any, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, numpy scalars as Python values.

    ``obj`` sits at line break and indent ``newline``.  NaN and the
    infinities are written as "nan", "inf" and "-inf", tuples as lists.
    Keys must be str.  A leaf in a container is written without a call here.
    """
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [
            _encode_str(k) + ": "
            + (leaf(v) if (leaf := _JSON_LEAF.get(type(v := obj[k]))) else _json_text(v, inner))
            for k in sorted(obj)
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        items = [
            leaf(v) if (leaf := _JSON_LEAF.get(type(v))) else _json_text(v, inner) for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind in _JSON_LEAF:
        return _JSON_LEAF[kind](obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _json_text(obj.item(), newline)
    # a subclass (np.str_ among them) is written as its base
    for base in (str, float, int, dict, list, tuple):
        if isinstance(obj, base):
            leaf = _JSON_LEAF.get(base)
            return leaf(obj) if leaf else _json_text(base(obj), newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# cells that are no numpy scalar, told apart without loading numpy
_PLAIN_CELLS = frozenset((str, float, int, bool, type(None)))


def _format_cell(value: Any) -> str:
    if type(value) not in _PLAIN_CELLS and isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@functools.cache
def _azimuth_grid_text() -> tuple[str, ...]:
    return tuple(map(float.__repr__, azimuth_grid_deg().tolist()))


def _column_text(column: Sequence[Any], float_text: Callable, cell_text: Callable) -> Any:
    """``cell_text`` over one column, with the same text by cheaper routes.

    ``float_text`` must agree with ``cell_text`` on a Python float.  The
    finite ``azimuth_grid_deg()`` itself (by identity) is formatted once per
    process, any other 1-D float64 array once per distinct bit pattern
    (contours repeat a few dozen values over 721 rows; bit patterns keep -0.0
    apart from 0.0).  An all-float list skips the per-cell call.
    """
    if type(column) is not list and type(column) is not tuple:  # naming np loads numpy
        if column is azimuth_grid_deg():
            return _azimuth_grid_text()
        if isinstance(column, np.ndarray):
            if column.dtype == np.float64 and column.ndim == 1:
                # np.unique(keys, return_inverse=True), without its Python overhead
                keys = column.view(np.int64)
                ordered = np.sort(keys)
                bits = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
                text = list(map(float_text, bits.view(np.float64).tolist()))
                return np.array(text, dtype=object)[np.searchsorted(bits, keys)].tolist()
            column = column.tolist()
    if set(map(type, column)) <= {float}:
        return map(float_text, column)
    return map(cell_text, column)


def _rows_text(cells: List[Any], n_rows: int, sep: str, row_end: str, last_end: str) -> str:
    """Each row's cells joined by ``sep`` and ended by ``row_end`` (the last by ``last_end``)."""
    width = 2 * len(cells)
    parts = [sep] * (width * n_rows)  # one join: no string per row
    if not parts:
        return ""
    for j, column in enumerate(cells):
        parts[2 * j :: width] = column
    parts[width - 1 :: width] = [row_end] * n_rows
    parts[-1] = last_end
    return "".join(parts)


class _OutputTracker:
    """Formats a run's artifacts and keeps their bytes until ``write`` writes them."""

    def __init__(self, out_dir: Path, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.files: Dict[Path, bytes] = {}

    def table(
        self, name: str, columns: Sequence[str], data: Sequence[Sequence[Any]]
    ) -> Path:
        """Keep one table given column by column: ``data[j]`` holds column j."""
        if len(data) != len(columns):
            raise ValueError(f"table {name}: {len(columns)} columns, {len(data)} given")
        if len(set(map(len, data))) > 1:
            raise ValueError(f"table {name}: columns differ in length")
        n_rows = len(data[0]) if data else 0
        if self.fmt == "json":
            path = self.out_dir / f"{name}.json"
            # _json_text's layout, each row's cells joined as text at depth 3
            cell = "\n      "
            cells = [_column_text(c, _json_float, lambda v: _json_text(v, cell)) for c in data]
            rows = _rows_text(cells, n_rows, "," + cell, "\n    ],\n    [" + cell, "\n    ]")
            rows_text = f"[\n    [{cell}{rows}\n  ]" if rows else "[]"
            columns_text = _json_text(list(columns), "\n  ")
            text = f'{{\n  "columns": {columns_text},\n  "rows": {rows_text}\n}}\n'
        else:
            path = self.out_dir / f"{name}.csv"
            cells = [_column_text(c, float.__repr__, _format_cell) for c in data]
            text = ",".join(columns) + "\n" + _rows_text(cells, n_rows, ",", "\n", "\n")
        self.files[path] = text.encode()
        return path

    def summary(self, payload: Dict[str, Any]) -> Path:
        path = self.out_dir / "summary.json"
        self.files[path] = (_json_text(payload) + "\n").encode()
        return path

    def write(self) -> None:
        """Make ``out_dir`` and its missing parents, then write each kept file.

        A file is written by ``os.write`` until every byte is written.  On any
        failure, each file written so far (the one cut short included) and
        each directory made is removed (deepest first, each only if empty).
        """
        out_dir = self.out_dir
        made = list(takewhile(lambda p: not p.is_dir(), chain([out_dir], out_dir.parents)))
        written: List[Path] = []
        try:
            for path in reversed(made):
                path.mkdir(exist_ok=True)
            for path, data in self.files.items():
                view = memoryview(data)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
                written.append(path)
                try:
                    while view:
                        view = view[os.write(fd, view):]
                finally:
                    os.close(fd)
        except BaseException:
            for path in written:
                path.unlink(missing_ok=True)
            for path in made:
                try:
                    path.rmdir()
                except OSError:
                    pass
            raise


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------


def _budget(scenario: Scenario) -> InterferenceBudget:
    detection = scenario.require("detection")
    baseline_roc, degraded_roc = scenario.roc
    if "baseline_snr_db" in detection:
        baseline_linear = db_to_linear(detection["baseline_snr_db"])
    else:
        baseline_linear = snr_required_albersheim(baseline_roc)
    required_linear = snr_required_albersheim(degraded_roc)
    return max_tolerable_interference(scenario.radar, baseline_linear, required_linear)


def _cochannel_fdr(scenario: Scenario) -> float:
    # the CLI studies are co-channel; offset channels take fdr_general in the library
    return fdr_cochannel(scenario.su.bandwidth_hz, scenario.radar.if_bandwidth_hz)


def _power_law(scenario: Scenario, needs: str) -> PowerLawPathLoss:
    """The scenario's path-loss model, which ``needs`` takes only as a power law."""
    model = scenario.pathloss
    if not isinstance(model, PowerLawPathLoss):
        raise ValidationError(f"pathloss.type: {needs} needs a power-law model")
    return model


def _lobe_width_rad(scenario: Scenario, cfg: Dict[str, Any]) -> float:
    if "lobe_width_deg" in cfg:
        return math.radians(cfg["lobe_width_deg"])
    if isinstance(scenario.pattern, ConstantGain):
        raise ValidationError(
            "policy.lobe_width_deg: a constant pattern has no main lobe to default it to"
        )
    return protection_multi.default_lobe_width_rad(scenario.pattern)


def _solve_policy(
    scenario: Scenario,
    field: DeploymentField,
    cfg: Dict[str, Any],
    i_max_w: float,
    fdr: float,
) -> tuple[protection_multi.SharingPolicy, Dict[str, Any]]:
    """Solve the requested policy for ``field``; returns (policy, result scalars).

    The schema bounds every density and the temperature, so a contour
    scale (a/I_max)^(1/(alpha-2)) or an area beyond the float range comes
    from an alpha near 2.  It names ``pathloss.alpha`` for the scenario's
    field, and ``sweeps.density_per_m2`` for a swept density, which can
    reach past the float range where the scenario's own does not.
    """
    if not i_max_w > 0.0:
        raise ValidationError(
            "detection.degraded: needs at least the baseline SNR, which leaves "
            "no interference budget for a deployment-field policy"
        )
    kind = cfg["type"]
    pathloss = _power_law(scenario, f"the {kind} policy")
    args = (field, scenario.su, scenario.pattern, pathloss, fdr, i_max_w)
    try:
        if kind == "radar-blind":
            policy: protection_multi.SharingPolicy = protection_multi.solve_radar_blind(*args)
            results = {"d_min_m": policy.d_min_m}
        elif kind == "optimal":
            policy = protection_multi.solve_optimal_profile(*args)
            contour = protection_multi.optimal_contour(policy, scenario.pattern)
            results = {
                "gamma_m": policy.gamma,
                "d_min_m": float(np.min(contour)),
                "d_max_m": float(np.max(contour)),
            }
        elif kind == "main-side-lobe":
            lobe_width = _lobe_width_rad(scenario, cfg)
            if "beta" in cfg:
                policy = protection_multi.solve_main_side(
                    *args, beta=cfg["beta"], lobe_width_rad=lobe_width
                )
            else:
                policy = protection_multi.optimize_beta(
                    *args, lobe_width_rad=lobe_width, beta_grid=_beta_grid(cfg)
                )
            results = {
                "beta": policy.beta,
                "lobe_width_deg": math.degrees(lobe_width),
                "d_min_m": policy.d_min_m,
                "d_max_m": policy.d_max_m,
            }
        else:
            raise ValidationError(
                f"policy.type: {kind!r} is not a deployment-field policy"
            )
        area = protection_multi.protected_area_m2(policy, scenario.pattern)
    except (protection_multi.ScaleNotFinite, OverflowError) as exc:
        name = "pathloss.alpha" if field is scenario.field else "sweeps.density_per_m2"
        raise ValidationError(
            f"{name}: the contour scale (a/I_max)^(1/(alpha-2)) or the area it bounds "
            f"at a density of {field.density_per_m2!r} per m2 leaves the float range "
            f"as alpha nears 2 ({exc})"
        ) from None
    results["area_m2"] = area
    results["area_km2"] = area / 1e6
    return policy, results


def _beta_grid(cfg: Dict[str, Any]) -> list[float] | None:
    if "beta_grid" in cfg:
        return resolve_grid(cfg["beta_grid"], "policy.beta_grid")
    return None


def _gating_policy(
    scenario: Scenario, cfg: Dict[str, Any], budget: InterferenceBudget, fdr: float
) -> tuple[protection_multi.SharingPolicy, Dict[str, Any]]:
    """Policy used to gate WiFi transmissions, including single-user sharing."""
    if cfg["type"] == "single-user":
        model = _power_law(scenario, "single-user gating")
        gamma = single_user_gamma(scenario.su, model, budget, fdr)
        policy = protection_multi.OptimalPolicy(gamma=gamma, alpha=model.alpha)
        return policy, {"gamma_m": gamma}
    field = scenario.require("field")
    return _solve_policy(scenario, field, cfg, budget.i_max_w, fdr)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _cmd_detect(scenario: Scenario, tracker: _OutputTracker) -> Dict[str, Any]:
    target_cfg = scenario.require("target")
    scenario.require("detection")
    baseline, degraded = scenario.roc
    radar = scenario.radar
    target = Target(range_m=target_cfg["range_m"], rcs_m2=target_cfg["rcs_m2"])
    noise = noise_power_w(radar)
    results = {
        "noise_power_w": noise,
        "noise_power_dbm": dbm(noise),
        "single_pulse_snr_db": linear_to_db(single_pulse_snr(radar, target)),
        "effective_snr_db": linear_to_db(effective_snr(radar, target)),
        "snr_required_baseline_db": linear_to_db(snr_required_albersheim(baseline)),
        "snr_required_degraded_db": linear_to_db(snr_required_albersheim(degraded)),
        "max_range_baseline_m": max_range(radar, baseline, target.rcs_m2),
        "max_range_degraded_m": max_range(radar, degraded, target.rcs_m2),
    }
    if "distance_m" in scenario.sweeps:
        grid = resolve_grid(scenario.sweeps["distance_m"], "sweeps.distance_m")
        probes = [Target(range_m=d, rcs_m2=target.rcs_m2) for d in grid]
        tracker.table(
            "detect_sweep",
            ("distance_m", "single_pulse_snr_db", "effective_snr_db"),
            (
                grid,
                [linear_to_db(single_pulse_snr(radar, p)) for p in probes],
                [linear_to_db(effective_snr(radar, p)) for p in probes],
            ),
        )
    return results


def _cmd_imax(scenario: Scenario, tracker: _OutputTracker) -> Dict[str, Any]:
    budget = _budget(scenario)
    noise = noise_power_w(scenario.radar)
    results = {
        "baseline_snr_db": linear_to_db(budget.baseline_snr_linear),
        "snr_required_db": linear_to_db(budget.sinr_required_linear),
        "noise_power_w": noise,
        "noise_power_dbm": dbm(noise),
        "i_max_w": budget.i_max_w,
        "i_max_dbm": dbm(budget.i_max_w),
        "inr_db": budget.inr_db,
    }
    if "pd_drop" in scenario.sweeps:
        baseline_roc = scenario.roc[0]
        grid = resolve_grid(scenario.sweeps["pd_drop"], "sweeps.pd_drop")
        try:
            sweep = inr_vs_performance_drop(
                scenario.radar,
                budget.baseline_snr_linear,
                baseline_roc.pd,
                baseline_roc.pfa,
                grid,
            )
        except ValueError as exc:
            raise ValidationError(f"sweeps.pd_drop: {exc}") from None
        tracker.table("imax_sweep", ("pd_drop", "inr_db"), tuple(zip(*sweep)))
    return results


def _cmd_protect_single(scenario: Scenario, tracker: _OutputTracker) -> Dict[str, Any]:
    budget = _budget(scenario)
    fdr = _cochannel_fdr(scenario)

    def distance_at(theta_deg):
        return protection_distance(
            scenario.su, scenario.pattern, scenario.pathloss, budget, theta_deg, fdr
        )

    results: Dict[str, Any] = {
        "i_max_w": budget.i_max_w,
        "i_max_dbm": dbm(budget.i_max_w),
        "inr_db": budget.inr_db,
        "fdr": fdr,
        "fdr_db": linear_to_db(fdr),
        "boresight_distance_m": distance_at(0.0),
    }
    if isinstance(scenario.pattern, AntennaPattern):
        results["sidelobe_distance_m"] = distance_at(90.0)
    if "theta_deg" in scenario.sweeps:
        spec = scenario.sweeps["theta_deg"]
        grid = np.array(resolve_grid(spec, "sweeps.theta_deg"))
    else:
        grid = azimuth_grid_deg()
    gains_dbi = gain_dbi(scenario.pattern, grid)
    distances = distance_at_gain(
        scenario.su, scenario.pathloss, budget, db_to_linear(gains_dbi), fdr
    )
    tracker.table(
        "protect_single",
        ("theta_deg", "gain_dbi", "protection_distance_m"),
        (grid, gains_dbi, distances),
    )
    return results


def _cmd_protect_multi(scenario: Scenario, tracker: _OutputTracker) -> Dict[str, Any]:
    budget = _budget(scenario)
    fdr = _cochannel_fdr(scenario)
    cfg = scenario.require("policy")
    if cfg["type"] == "single-user":
        raise ValidationError(
            "policy.type: 'single-user' has no deployment field; "
            "use protect-single or pick a field policy"
        )
    field = scenario.require("field")
    grid = None
    if "density_per_m2" in scenario.sweeps:
        # a density point costs its policy's contour-scale solves; check before any runs
        solves = 1
        if cfg["type"] == "main-side-lobe" and "beta" not in cfg:
            solves = protection_multi.beta_scan_solves(_beta_grid(cfg))
        grid = resolve_grid(
            scenario.sweeps["density_per_m2"], "sweeps.density_per_m2", solves, "solves"
        )
    policy, results = _solve_policy(scenario, field, cfg, budget.i_max_w, fdr)
    profile = protection_multi.policy_profile(policy, scenario.pattern)
    stats = protection_multi.campbell_stats(
        field,
        scenario.su,
        scenario.pattern,
        scenario.pathloss,
        profile,
        fdr,
    )
    results.update(
        {
            "policy": cfg["type"],
            "i_max_w": budget.i_max_w,
            "i_max_dbm": dbm(budget.i_max_w),
            "fdr": fdr,
            "aggregate_mean_w": stats.mean_w,
            "aggregate_std_w": stats.std_w,
            "outage_probability": protection_multi.outage_probability(stats, budget.i_max_w),
        }
    )

    tracker.table(
        "protect_multi_contour",
        ("theta_deg", "distance_m"),
        (azimuth_grid_deg(), profile(np.radians(azimuth_grid_deg()))),
    )

    if grid is not None:
        solved = [
            _solve_policy(
                scenario,
                field.replace(density_per_m2=density),
                cfg,
                budget.i_max_w,
                fdr,
            )[1]
            for density in grid
        ]
        tracker.table(
            "protect_multi_sweep",
            ("density_per_m2", "d_min_m", "area_m2"),
            (grid, [r["d_min_m"] for r in solved], [r["area_m2"] for r in solved]),
        )
    return results


def _cmd_throughput(scenario: Scenario, tracker: _OutputTracker) -> Dict[str, Any]:
    wifi_cfg = scenario.require("wifi")
    budget = _budget(scenario)
    fdr = _cochannel_fdr(scenario)
    cfg = scenario.require("policy")
    policy, policy_results = _gating_policy(scenario, cfg, budget, fdr)
    link = wifi_link.WifiLink(
        link_loss_db=wifi_cfg["link_loss_db"],
        su=scenario.su,
        rx_noise_figure_db=wifi_cfg["rx_noise_figure_db"],
        rx_bandwidth_hz=wifi_cfg["rx_bandwidth_hz"],
    )
    mode = wifi_cfg.get("mode", "peak")
    n_steps = wifi_cfg.get("n_time_steps", 512)
    su_distance = wifi_cfg["su_distance_m"]
    # refuse an oversized trace or sweep before either runs
    check_analytic_work("wifi.n_time_steps", n_steps)
    grid = None
    if "distance_m" in scenario.sweeps:
        spec = scenario.sweeps["distance_m"]
        grid = resolve_grid(spec, "sweeps.distance_m", n_steps)

    common = (scenario.radar, scenario.pattern, scenario.pathloss, policy)
    trace = wifi_link.throughput_trace(link, *common, su_distance, mode, n_steps)
    tracker.table(
        "throughput_trace",
        ("time_s", "azimuth_deg", "sinr_db", "rate_mbps"),
        tuple(zip(*trace)),
    )

    def boresight_dbm(rate_mode: str) -> float:
        return dbm(
            wifi_link.radar_interference_w(
                scenario.radar, scenario.su, scenario.pattern, scenario.pathloss,
                su_distance, 0.0, rate_mode,
            )
        )

    def avg_rate(distance_m: float, rate_mode: str) -> float:
        return wifi_link.average_throughput(link, *common, distance_m, rate_mode, n_steps)

    results: Dict[str, Any] = {
        "policy": cfg["type"],
        "mode": mode,
        "su_distance_m": su_distance,
        "noise_power_w": wifi_link.wifi_noise_w(link),
        "noise_power_dbm": dbm(wifi_link.wifi_noise_w(link)),
        "interference_free_snr_db": linear_to_db(wifi_link.wifi_sinr(link, 0.0)),
        "boresight_interference_peak_dbm": boresight_dbm("peak"),
        "boresight_interference_averaged_dbm": boresight_dbm("averaged"),
        "duty_factor": wifi_link.duty_factor(policy, scenario.pattern, su_distance),
        "avg_rate_peak_mbps": avg_rate(su_distance, "peak"),
        "avg_rate_averaged_mbps": avg_rate(su_distance, "averaged"),
    }
    results.update(policy_results)

    if grid is not None:
        tracker.table(
            "throughput_sweep",
            (
                "distance_m",
                "duty_factor",
                "avg_rate_peak_mbps",
                "avg_rate_averaged_mbps",
            ),
            (
                grid,
                [wifi_link.duty_factor(policy, scenario.pattern, d) for d in grid],
                [avg_rate(d, "peak") for d in grid],
                [avg_rate(d, "averaged") for d in grid],
            ),
        )
    return results


def _cmd_validate_mc(scenario: Scenario, tracker: _OutputTracker) -> Dict[str, Any]:
    mc = scenario.require("mc")
    field = scenario.require("field")
    model = _power_law(scenario, "validate-mc")
    fdr = _cochannel_fdr(scenario)
    seed = mc["seed"]
    n_samples = mc["samples"]
    outer_radius = mc["outer_radius_m"]

    profile_cfg = mc["profile"]
    if profile_cfg["type"] == "constant":
        policy: protection_multi.SharingPolicy = protection_multi.RadarBlindPolicy(
            d_min_m=profile_cfg["distance_m"]
        )
    else:
        policy = protection_multi.OptimalPolicy(gamma=profile_cfg["gamma"], alpha=model.alpha)
    profile = protection_multi.policy_profile(policy, scenario.pattern)

    try:
        stats = protection_multi.campbell_stats(
            field,
            scenario.su,
            scenario.pattern,
            model,
            profile,
            fdr,
            outer_radius_m=outer_radius,
        )
        samples = protection_multi.sample_aggregate(
            field,
            scenario.su,
            scenario.pattern,
            model,
            fdr,
            profile,
            outer_radius,
            n_samples,
            seed,
        )
    except protection_multi.TruncationTooSevere as exc:
        raise ValidationError(f"mc.outer_radius_m: {exc}") from None
    except protection_multi.WorkTooLarge as exc:
        key = "field.density_per_m2" if exc.per_sample else "mc.samples"
        raise ValidationError(f"{key}: {exc}") from None
    mean_emp = float(np.mean(samples))
    var_emp = float(np.var(samples, ddof=1))
    quantiles = mc.get("i_max_quantiles", [0.05, 0.1, 0.2])
    z99 = 2.5758293035489004  # two-sided 99% normal quantile
    i_max = [stats.mean_w + q_inverse(p) * stats.std_w for p in quantiles]
    empirical = [float(np.mean(samples > level)) for level in i_max]
    half_width = [z99 * math.sqrt(p * (1.0 - p) / n_samples) for p in quantiles]
    within = [abs(e - p) <= h for e, p, h in zip(empirical, quantiles, half_width)]
    tracker.table(
        "validate_mc",
        (
            "outage_target",
            "i_max_w",
            "analytic_prob",
            "empirical_prob",
            "ci99_halfwidth",
            "within_ci",
        ),
        (quantiles, i_max, quantiles, empirical, half_width, within),
    )
    return {
        "backend": "numpy",
        "n_samples": n_samples,
        "outer_radius_m": outer_radius,
        "mean_analytic_w": stats.mean_w,
        "mean_empirical_w": mean_emp,
        "mean_rel_error": mean_emp / stats.mean_w - 1.0,
        "variance_analytic_w2": stats.variance_w2,
        "variance_empirical_w2": var_emp,
        "variance_rel_error": var_emp / stats.variance_w2 - 1.0,
        "exceedance_all_within_ci99": all(within),
    }


def _cmd_fit_pathloss(scenario: Scenario, tracker: _OutputTracker) -> Dict[str, Any]:
    model = scenario.pathloss
    if not isinstance(model, TabulatedPathLoss):
        raise MissingSection(
            "scenario is missing tabulated pathloss samples required here"
        )
    distances = np.asarray(model.distances_m)
    attens = np.asarray(model.attenuations)
    k0, alpha = fit_power_law(zip(distances, attens))
    r2 = log_log_r_squared(distances, attens)
    tracker.table(
        "fit_pathloss",
        ("distance_m", "attenuation_db", "fit_attenuation_db"),
        (
            distances,
            [linear_to_db(a) for a in attens.tolist()],
            [linear_to_db(k0 * d ** (-alpha)) for d in distances.tolist()],
        ),
    )
    return {
        "k0": k0,
        "alpha": alpha,
        "r_squared": r2,
        "n_samples": int(len(distances)),
    }


# name: (handler, --help text, whether it takes --policy)
_COMMANDS: Dict[str, tuple[Callable[[Scenario, _OutputTracker], Dict[str, Any]], str, bool]] = {
    "detect": (_cmd_detect, "radar noise floor, SNR budgets, and detection ranges", False),
    "imax": (_cmd_imax, "tolerable interference level and INR for a ROC degradation", False),
    "protect-single": (
        _cmd_protect_single, "azimuth profile of the single-interferer keep-out distance", False
    ),
    "protect-multi": (_cmd_protect_multi, "deployment-field protection contours and areas", True),
    "throughput": (_cmd_throughput, "WiFi throughput under radar strobes and policy gating", True),
    "validate-mc": (
        _cmd_validate_mc, "Monte Carlo validation of the aggregate-interference model", False
    ),
    "fit-pathloss": (_cmd_fit_pathloss, "power-law fit of tabulated propagation data", False),
}


def run_command(
    scenario: Scenario,
    command: str,
    out_dir: str | Path,
    fmt: str | None = None,
    seed: int | None = None,
    samples: int | None = None,
    policy: str | None = None,
) -> Dict[str, Any]:
    """Execute one command, writing its artifacts into ``out_dir``.

    The overrides are written into a copy of ``scenario.raw``; the command
    reads that document and summary.json echoes it.  Returns the summary
    payload.  The command only formats its artifacts, and they are written
    once it has returned: a failed command leaves the disk as it was, and a
    failed write removes every file it wrote and every directory it made.
    """
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    # overrides bypass the scenario file, so check each one given against its schema
    fields = ("mc.seed", "mc.samples", "policy.type", "output.format")
    overrides = {f: v for f, v in zip(fields, (seed, samples, policy, fmt)) if v is not None}
    for path, value in overrides.items():
        check_field(path, value)
    raw = scenario.raw
    fmt = overrides.setdefault("output.format", raw.get("output", {}).get("format", "csv"))

    # the sections no override writes are shared with scenario.raw; a section
    # an override writes is copied, so scenario.raw stays as loaded
    merged = dict(raw)
    for path, value in overrides.items():
        section, key = path.split(".")
        merged[section] = {**merged.get(section, {}), key: value}
    # a section the overrides create must be whole, or the echo cannot be replayed
    for section, value in merged.items():
        if section not in raw:
            check_field(section, value)

    tracker = _OutputTracker(Path(out_dir), fmt)
    results = _COMMANDS[command][0](scenario.replace(raw=merged), tracker)
    payload = {
        "command": command,
        "version": __version__,
        "seed": merged.get("mc", {}).get("seed", 0),
        "config": merged,
        "results": results,
    }
    tracker.summary(payload)
    tracker.write()
    return payload


def _build_parser() -> argparse.ArgumentParser:
    # imported here, not at module level: library callers of run_command
    # never parse arguments, and argparse (with gettext) is a few ms to import
    import argparse

    parser = argparse.ArgumentParser(
        prog="coexist",
        description="Radar/WiFi spectrum-sharing coexistence studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, takes_policy) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--samples", type=int, help="override mc.samples")
        p.add_argument(
            "--format", choices=["csv", "json"], dest="fmt", help="table format"
        )
        if takes_policy:
            p.add_argument(
                "--policy", choices=list(POLICY_CHOICES), help="override policy.type"
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run_command(
            load_scenario(args.config),
            args.command,
            args.out,
            fmt=args.fmt,
            seed=args.seed,
            samples=args.samples,
            policy=getattr(args, "policy", None),
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
