"""Scenario configuration: JSON ingestion, strict validation, record building.

Config files use human conventions (dB, degrees, frequency), and so do the
records built here; each formula converts the fields it reads (``cli``
converts ``policy.lobe_width_deg`` and ``detection.baseline_snr_db``).  The
schema is strict: unknown keys are rejected so typos fail loudly instead of
silently falling back to defaults.

``schema/scenario.json`` is compiled once per process by ``_schema`` (a
validator for exactly the keywords the schema uses; numpy is the only
runtime dependency).  A violation is reported as ``"<path>: <message>"``
for the error with the smallest dotted path, worded as jsonschema words it.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import stat
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ._schema import Validator, compile_schema, integer_paths
from .numerics import Record, db_to_linear, np
from .propagation import (
    AntennaPattern,
    ConstantGain,
    Pattern,
    PathLossModel,
    PowerLawPathLoss,
    TabulatedPathLoss,
)
from .protection_single import DeploymentField, SecondaryUser
from .radar_detection import SPEED_OF_LIGHT_M_S, RadarSystem, RocPoint


# analytic work cap of one run: grid points times the WiFi trace steps or
# contour-scale solves each point costs (the MC kernel's own caps are in
# _mc_kernels); a million is a 32 MB list of floats, or seconds of either
MAX_ANALYTIC_WORK = 10**6

# the package's own files (the schema, the fixtures) sit beside this module
_PACKAGE = Path(__file__).parent


class ParseError(ValueError):
    """Config file missing, not a regular file, or not parseable as JSON."""


class ValidationError(ValueError):
    """Config parsed but violates the schema or a domain invariant."""


class MissingSection(ValueError):
    """Scenario lacks a section the requested command needs."""


class Scenario(Record):
    """A validated scenario: its document and the records built from it.

    ``raw`` is the parsed, normalised document that summary.json echoes.
    The records are ``radar``, ``su``, ``pathloss``, ``pattern``, the
    deployment ``field`` and the ``roc`` pair (baseline, degraded) of
    ``detection``; the last two are None where ``raw`` lacks the section.
    """

    raw: Dict[str, Any]
    radar: RadarSystem
    su: SecondaryUser
    pathloss: PathLossModel
    pattern: Pattern
    field: Optional[DeploymentField] = None
    roc: Optional[Tuple[RocPoint, RocPoint]] = None

    @property
    def sweeps(self) -> Dict[str, Any]:
        return self.raw.get("sweeps", {})

    def require(self, section: str) -> Any:
        """The ``field`` record, or another section of ``raw``; MissingSection if absent."""
        value = self.field if section == "field" else self.raw.get(section)
        if not value:
            raise MissingSection(f"scenario is missing the '{section}' section required here")
        return value


@functools.cache
def _load_schema() -> Dict[str, Any]:
    # read once per process; callers only read the returned dict
    return json.loads((_PACKAGE / "schema" / "scenario.json").read_text())


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
    return _PACKAGE / "fixtures" / name


# the errnos for which ``Path.exists`` reports a path missing rather than raising
_MISSING_ERRNOS = frozenset((errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP))


def _stat_mode(candidate: Path, path: str | Path) -> Optional[int]:
    """``candidate``'s mode, or None where ``Path.exists`` calls it missing."""
    try:
        return os.stat(candidate).st_mode
    except ValueError:  # a NUL byte in the name
        return None
    except OSError as exc:
        if exc.errno in _MISSING_ERRNOS:
            return None
        # say, a name too long for the file system
        raise ParseError(f"cannot read config file {path}: {exc.strerror}") from None


def _resolve_path(path: str | Path) -> Path:
    candidate = Path(path)
    mode = _stat_mode(candidate, path)
    if mode is None:
        # fall back to bundled fixtures so `--config type_b_radar` works anywhere
        candidate = fixture_path(str(path))
        mode = _stat_mode(candidate, path)
        if mode is None:
            raise ParseError(f"config file not found: {path}")
    # refused before it is opened: a FIFO blocks a read, /dev/zero never ends one
    if not stat.S_ISREG(mode):
        raise ParseError(f"config is not a regular file: {path}")
    return candidate


# the radar keys that give one quantity two ways: a radar gives exactly one of each pair
_EITHER_RADAR_KEY = (("frequency_hz", "wavelength_m"), ("el_beamwidth_deg", "scan_solid_angle_sr"))


def _build_radar(cfg: Dict[str, Any]) -> RadarSystem:
    for first, second in _EITHER_RADAR_KEY:
        if (first in cfg) == (second in cfg):
            raise ValidationError(f"radar.{second}: exactly one of {first} or {second} is required")
    wavelength = (
        cfg["wavelength_m"] if "wavelength_m" in cfg else SPEED_OF_LIGHT_M_S / cfg["frequency_hz"]
    )
    if "scan_solid_angle_sr" in cfg:
        solid_angle = cfg["scan_solid_angle_sr"]
    else:  # a rotating fan beam: the scan covers a 2*pi band of el-beamwidth height
        solid_angle = 2.0 * math.pi * math.radians(cfg["el_beamwidth_deg"])
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


def _build_pathloss(cfg: Dict[str, Any]) -> PathLossModel:
    if cfg["type"] == "power_law":
        return PowerLawPathLoss(k0=cfg["k0"], alpha=cfg["alpha"])
    distances = tuple(float(row[0]) for row in cfg["samples"])
    attens = tuple(
        _linear(f"pathloss.samples.{i}.1", float(row[1]))
        for i, row in enumerate(cfg["samples"])
    )
    return TabulatedPathLoss(distances_m=distances, attenuations=attens)


def load_scenario(path: str | Path) -> Scenario:
    """Load, schema-validate, and build a scenario from a JSON config file.

    Raises ParseError for a missing, non-regular, unreadable or undecodable
    file, or JSON nested deeper than ``json.loads`` can parse, and
    ValidationError (naming the offending field) for schema or invariant
    violations.
    """
    concrete = _resolve_path(path)
    try:
        text = concrete.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {concrete}: {exc}") from exc
    if "\r" in text:  # newlines as text mode reads them: JSON error positions count the same
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
    pathloss = build("pathloss", _build_pathloss, raw["pathloss"])

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

    roc = None
    if "detection" in raw:
        roc = tuple(
            build(f"detection.{key}", lambda c: RocPoint(**c), raw["detection"][key])
            for key in ("baseline", "degraded")
        )

    return Scenario(
        raw=raw, radar=radar, su=su, pathloss=pathloss, pattern=pattern, field=deployment, roc=roc
    )


# values that are no numpy scalar, told apart without loading numpy
_PLAIN_TYPES = frozenset((float, int, bool, str, type(None)))


def check_field(path: str, value: Any) -> None:
    """Validate one value against the schema entry at dotted ``path``.

    For values that bypass the scenario file, such as CLI overrides and the
    fields of the records bound to a section; a numpy scalar is checked as
    the Python number it holds.
    """
    if type(value) not in _PLAIN_TYPES and isinstance(value, np.generic):
        value = value.item()
    validator = _validator(path)
    if not validator.is_valid(value):  # one predicate call for each record field of a load
        raise ValidationError(f"{path}: {validator.first_error(value)[1]}")


Record._check_field = staticmethod(check_field)  # bound once, not imported per record


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
        # np.geomspace's arithmetic for a positive start, bit for bit, without its overhead
        logs = np.linspace(np.log10(float(start)), np.log10(float(stop)), count)
        return [float(start), *np.power(10.0, logs[1:-1]).tolist(), float(stop)][:count]
    return np.linspace(start, stop, count).tolist()
