"""Scenario configuration: JSON ingestion, strict validation, unit conversion.

Config files use human conventions (dB, degrees, frequency); conversion to
the library's internal units (linear ratios, radians, wavelength) happens
here, once, at the boundary.  The schema is strict: unknown keys are
rejected so typos fail loudly instead of silently falling back to
defaults.

``schema/scenario.json`` is compiled once per process by ``_schema`` (a
validator for exactly the keywords the schema uses; numpy is the only
runtime dependency).  A violation is reported as ``"<path>: <message>"``
for the error with the smallest dotted path, worded as jsonschema words it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dataclass_field
from importlib import resources
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from ._schema import Validator, compile_schema, integer_paths
from .numerics import db_to_linear
from .propagation import (
    AntennaPattern,
    ConstantGain,
    Pattern,
    PathLossModel,
    PowerLawPathLoss,
    TabulatedPathLoss,
)
from .protection_single import SecondaryUser
from .protection_multi import DeploymentField
from .radar_detection import SPEED_OF_LIGHT_M_S, RadarSystem, RocPoint


# analytic work cap of one run: grid points times the WiFi trace steps or
# contour-scale solves each point costs (the MC kernel's own caps are in
# _mc_kernels); a million is a 32 MB list of floats, or seconds of either
MAX_ANALYTIC_WORK = 10**6


class ParseError(ValueError):
    """Config file missing or not parseable as JSON."""


class ValidationError(ValueError):
    """Config parsed but violates the schema or a domain invariant."""


class MissingSection(ValueError):
    """Scenario lacks a section the requested command needs."""


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: raw config echo plus constructed domain objects."""

    raw: Dict[str, Any]
    radar: RadarSystem
    su: SecondaryUser
    pathloss: PathLossModel
    pattern: Pattern
    detection: Optional[Dict[str, Any]] = None
    target: Optional[Dict[str, float]] = None
    field: Optional[DeploymentField] = None
    policy: Dict[str, Any] = dataclass_field(default_factory=dict)
    wifi: Dict[str, Any] = dataclass_field(default_factory=dict)
    mc: Dict[str, Any] = dataclass_field(default_factory=dict)
    sweeps: Dict[str, Any] = dataclass_field(default_factory=dict)
    output_format: str = "csv"

    def require(self, section: str) -> Any:
        value = getattr(self, section, None)
        if not value:
            raise MissingSection(
                f"scenario is missing the '{section}' section required here"
            )
        return value

    def roc_pair(self) -> tuple[RocPoint, RocPoint]:
        det = self.require("detection")
        baseline = RocPoint(**det["baseline"])
        degraded = RocPoint(**det["degraded"])
        return baseline, degraded


@functools.cache
def _load_schema() -> Dict[str, Any]:
    # read once per process; callers only read the returned dict
    with resources.files("coexist.schema").joinpath("scenario.json").open() as fh:
        return json.load(fh)


@functools.cache
def _validator(path: str = "") -> Validator:
    """The compiled schema node at dotted ``path`` ("" is the whole scenario)."""
    schema = node = _load_schema()
    for key in filter(None, path.split(".")):
        node = node["properties"][key]
    return compile_schema(node, root=schema)


@functools.cache
def _integer_paths() -> tuple:
    return tuple(integer_paths(_load_schema()))


def _linear(path: str, value_db: float) -> float:
    """``db_to_linear``, naming the field whose value overflows a float."""
    try:
        return db_to_linear(value_db)
    except OverflowError:
        raise ValidationError(
            f"{path}: {value_db!r} dB is beyond the float range as a linear ratio"
        ) from None


def _normalise(raw: Dict[str, Any]) -> None:
    """Make integral floats in integer fields ints.

    JSON Schema counts 1e6 as an integer, but the program needs an int there.
    """
    for *parents, key in _integer_paths():
        node = raw
        for name in parents:
            node = node.get(name) if node.__class__ is dict else None
        if node.__class__ is dict and node.get(key).__class__ is float:
            if node[key].is_integer():
                node[key] = int(node[key])


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled scenario fixture (e.g. 'type_b_radar')."""
    if not name.endswith(".json"):
        name = name + ".json"
    path = resources.files("coexist.fixtures").joinpath(name)
    with resources.as_file(path) as concrete:
        return Path(concrete)


def _resolve_path(path: str | Path) -> Path:
    p = Path(path)
    try:
        if p.exists():
            return p
        # fall back to bundled fixtures so `--config type_b_radar` works anywhere
        candidate = fixture_path(str(path))
        if candidate.exists():
            return candidate
    except (FileNotFoundError, ModuleNotFoundError):
        pass
    except OSError as exc:  # say, a name too long for the file system
        raise ParseError(f"cannot read config file {path}: {exc.strerror}") from None
    raise ParseError(f"config file not found: {path}")


def _build_radar(cfg: Dict[str, Any]) -> RadarSystem:
    has_freq = "frequency_hz" in cfg
    has_wl = "wavelength_m" in cfg
    if has_freq == has_wl:
        raise ValidationError(
            "radar: exactly one of frequency_hz or wavelength_m is required"
        )
    wavelength = (
        cfg["wavelength_m"] if has_wl else SPEED_OF_LIGHT_M_S / cfg["frequency_hz"]
    )
    # rotating fan-beam default: the scan covers a 2*pi band of el-beamwidth height
    solid_angle = cfg.get(
        "scan_solid_angle_sr", 2.0 * math.pi * math.radians(cfg["el_beamwidth_deg"])
    )
    return RadarSystem(
        tx_power_w=cfg["tx_power_w"],
        wavelength_m=wavelength,
        peak_gain_dbi=cfg["peak_gain_dbi"],
        prf_hz=cfg["prf_hz"],
        pulse_width_s=cfg["pulse_width_s"],
        if_bandwidth_hz=cfg["if_bandwidth_hz"],
        noise_figure_db=cfg["noise_figure_db"],
        ambient_temp_k=cfg["ambient_temp_k"],
        scan_time_s=cfg["scan_time_s"],
        scan_solid_angle_sr=solid_angle,
        system_loss_db=cfg["system_loss_db"],
    )


def _build_pathloss(cfg: Dict[str, Any], scenario_dir: Path) -> PathLossModel:
    if cfg["type"] == "power_law":
        return PowerLawPathLoss(k0=cfg["k0"], alpha=cfg["alpha"])
    if "csv_path" in cfg:
        # a relative path names a file beside the scenario, wherever it runs
        try:
            return TabulatedPathLoss.from_csv(scenario_dir / cfg["csv_path"])
        except (OSError, ValueError, OverflowError) as exc:
            raise ValidationError(f"pathloss.csv_path: {exc}") from exc
    distances = tuple(float(row[0]) for row in cfg["samples"])
    attens = tuple(
        _linear(f"pathloss.samples.{i}.1", float(row[1]))
        for i, row in enumerate(cfg["samples"])
    )
    return TabulatedPathLoss(distances_m=distances, attenuations=attens)


def load_scenario(path: str | Path) -> Scenario:
    """Load, schema-validate, and build a scenario from a JSON config file.

    Raises ParseError for an unreadable or undecodable file, or JSON nested
    deeper than ``json.loads`` can parse, and ValidationError
    (naming the offending field) for schema or invariant violations.
    """
    concrete = _resolve_path(path)
    try:
        text = concrete.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {concrete}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer beyond Python's digit limit
        raise ParseError(f"config is not valid JSON ({concrete}): {exc}") from exc
    except RecursionError:
        raise ParseError(f"config nests deeper than JSON can be read ({concrete})") from None

    err = _validator().first_error(raw)
    if err is not None:
        where = ".".join(str(p) for p in err[0]) or "<root>"
        raise ValidationError(f"{where}: {err[1]}")
    _normalise(raw)

    def build(section: str, builder, *args):
        try:
            return builder(*args)
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(f"{section}: {exc}") from exc

    radar = build("radar", _build_radar, raw["radar"])
    su = build("su", lambda c: SecondaryUser(**c), raw["su"])
    pathloss = build("pathloss", _build_pathloss, raw["pathloss"], concrete.parent)

    pattern_cfg = raw.get("antenna_pattern", {})
    if "constant_gain_dbi" in pattern_cfg:
        pattern: Pattern = ConstantGain(gain_dbi=pattern_cfg["constant_gain_dbi"])
    else:
        pattern = build(
            "radar.peak_gain_dbi",
            lambda g: AntennaPattern(gmax_dbi=g),
            radar.peak_gain_dbi,
        )

    deployment = None
    if "field" in raw:
        deployment = build("field", lambda c: DeploymentField(**c), raw["field"])

    detection = raw.get("detection")
    if detection is not None:
        for key in ("baseline", "degraded"):
            build(f"detection.{key}", lambda c: RocPoint(**c), detection[key])

    return Scenario(
        raw=raw,
        radar=radar,
        su=su,
        pathloss=pathloss,
        pattern=pattern,
        detection=detection,
        target=raw.get("target"),
        field=deployment,
        policy=dict(raw.get("policy", {})),
        wifi=dict(raw.get("wifi", {})),
        mc=dict(raw.get("mc", {})),
        sweeps=dict(raw.get("sweeps", {})),
        output_format=raw.get("output", {}).get("format", "csv"),
    )


def check_field(path: str, value: Any) -> None:
    """Validate one value against the schema entry at dotted ``path``.

    For values that bypass the scenario file, such as CLI overrides.
    """
    err = _validator(path).first_error(value)
    if err is not None:
        raise ValidationError(f"{path}: {err[1]}")


def check_analytic_work(path: str, points: int, steps: int = 1, unit: str = "time steps") -> None:
    """Refuse ``points`` x ``steps`` (``unit``) above ``MAX_ANALYTIC_WORK``, naming ``path``."""
    if points * steps > MAX_ANALYTIC_WORK:
        split = f" ({points} points x {steps} {unit})" if steps != 1 else ""
        raise ValidationError(
            f"{path}: {points * steps} evaluations{split} exceed the analytic "
            f"work cap of {MAX_ANALYTIC_WORK}"
        )


def resolve_grid(
    spec: Dict[str, Any], name: str, steps: int = 1, unit: str = "time steps"
) -> list[float]:
    """Materialise the grid spec at dotted path ``name`` into sorted floats.

    ``steps`` is the work each point costs, in ``unit``; the grid is checked
    against the analytic work cap before it is built.
    """
    if "values" in spec:
        check_analytic_work(f"{name}.values", len(spec["values"]), steps, unit)
        values = [float(v) for v in spec["values"]]
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise ValidationError(f"{name}.values must be strictly increasing")
        return values
    start, stop, count = spec["start"], spec["stop"], spec["count"]
    check_analytic_work(f"{name}.count", count, steps, unit)
    if not start < stop:
        raise ValidationError(f"{name}: start must be below stop")
    if spec.get("spacing", "linear") == "log":
        if not start > 0:
            raise ValidationError(f"{name}: log spacing requires start > 0")
        return [float(v) for v in np.geomspace(start, stop, count)]
    return [float(v) for v in np.linspace(start, stop, count)]
