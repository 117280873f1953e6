"""Scenario loading: schema validation, unit conversion, bundled fixtures."""

import copy
import json
import math
import os
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from coexist.config import (
    MissingSection,
    ParseError,
    Scenario,
    ValidationError,
    _resolve_path,
    fixture_path,
    load_scenario,
    resolve_grid,
)
from coexist.propagation import (
    AntennaPattern,
    ConstantGain,
    PowerLawPathLoss,
    TabulatedPathLoss,
)

MINIMAL = {
    "radar": {
        "tx_power_w": 1.32e6,
        "frequency_hz": 2.8e9,
        "peak_gain_dbi": 33.5,
        "prf_hz": 1059.0,
        "pulse_width_s": 1.03e-6,
        "if_bandwidth_hz": 653e3,
        "noise_figure_db": 4.0,
        "ambient_temp_k": 290.0,
        "scan_time_s": 4.8,
        "el_beamwidth_deg": 4.8,
        "system_loss_db": 2.0,
    },
    "su": {
        "eirp_w": 1.0,
        "bandwidth_hz": 20e6,
        "antenna_gain_dbi": 2.15,
    },
    "pathloss": {"type": "power_law", "k0": 259.0, "alpha": 3.97},
}


def _write(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _variant(**section_overrides):
    doc = copy.deepcopy(MINIMAL)
    for key, value in section_overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


# ------------------------------------------------------------------ happy path


def test_bundled_fixture_loads():
    scenario = load_scenario(fixture_path("type_b_radar"))
    radar = scenario.radar
    assert radar.tx_power_w == 1.32e6
    assert radar.if_bandwidth_hz == 653e3
    assert radar.peak_gain_dbi == 33.5
    # wavelength derived from the 2.8 GHz carrier
    assert_allclose(radar.wavelength_m, 299792458.0 / 2.8e9, rtol=1e-15)
    assert isinstance(scenario.pattern, AntennaPattern)
    assert scenario.pattern.gmax_dbi == 33.5
    assert scenario.pathloss == PowerLawPathLoss(k0=259.0, alpha=3.97)
    assert scenario.field is not None and scenario.field.outage_max == 0.1
    baseline, degraded = scenario.roc
    assert (baseline.pd, baseline.pfa) == (0.9, 1e-6)
    assert (degraded.pd, degraded.pfa) == (0.85, 1e-6)
    assert scenario.raw["output"] == {"format": "csv"}


def test_bundled_fixture_names_resolve():
    for name in ("type_b_radar", "wifi_sharing"):
        assert fixture_path(name).exists()
    # the loader also accepts the bare fixture name directly
    scenario = load_scenario("wifi_sharing")
    assert scenario.raw["wifi"]["link_loss_db"] == 80.0


def test_scan_solid_angle_defaults_to_fan_beam(tmp_path):
    scenario = load_scenario(_write(tmp_path, _variant()))
    # fan beam swept full circle in azimuth: Omega = 2*pi*theta_el
    assert_allclose(scenario.radar.scan_solid_angle_sr, 2.0 * math.pi * math.radians(4.8), rtol=1e-15)
    doc = _variant()
    doc["radar"]["scan_solid_angle_sr"] = 0.25
    assert load_scenario(_write(tmp_path, doc)).radar.scan_solid_angle_sr == 0.25


def test_explicit_wavelength(tmp_path):
    doc = _variant()
    del doc["radar"]["frequency_hz"]
    doc["radar"]["wavelength_m"] = 0.107068735
    scenario = load_scenario(_write(tmp_path, doc))
    assert scenario.radar.wavelength_m == 0.107068735


@pytest.mark.parametrize(
    "frequency_hz, wavelength_m", [(1e6, 299.792458), (3e12, 9.993081933333333e-05)]
)
def test_each_frequency_bound_gives_an_accepted_wavelength(tmp_path, frequency_hz, wavelength_m):
    # the radar record checks the wavelength derived from frequency_hz, so
    # both ends of the frequency band must map inside wavelength_m's bounds
    doc = _variant()
    doc["radar"]["frequency_hz"] = frequency_hz
    assert load_scenario(_write(tmp_path, doc)).radar.wavelength_m == wavelength_m


def test_tabulated_pathloss_inline(tmp_path):
    doc = _variant(pathloss={
        "type": "tabulated",
        "samples": [[100.0, -40.0], [1000.0, -70.0], [10000.0, -100.0]],
    })
    scenario = load_scenario(_write(tmp_path, doc))
    assert isinstance(scenario.pathloss, TabulatedPathLoss)
    assert scenario.pathloss.distances_m == (100.0, 1000.0, 10000.0)


def test_constant_gain_override(tmp_path):
    doc = _variant(antenna_pattern={"constant_gain_dbi": 0.0})
    scenario = load_scenario(_write(tmp_path, doc))
    assert scenario.pattern == ConstantGain(gain_dbi=0.0)


# ---------------------------------------------------------------- error paths


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        load_scenario("/nonexistent/config.json")


def _resolve_by_exists(path):
    """The resolution ``_resolve_path`` replaces: ``Path.exists``, then ``Path.is_file``."""
    try:
        for candidate in (Path(path), fixture_path(str(path))):
            if candidate.exists():
                if not candidate.is_file():
                    raise ParseError(f"config is not a regular file: {path}")
                return candidate
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc.strerror}") from None
    raise ParseError(f"config file not found: {path}")


def _resolved(resolve, path):
    """The path ``resolve`` returns, or the message of its ParseError."""
    try:
        return resolve(path)
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_resolve_path_agrees_with_exists_then_is_file(tmp_path, monkeypatch):
    # one stat per candidate, the fixture fallback built only on a miss; the
    # errnos Path.exists ignores, a NUL byte, a symlink loop, a file used as
    # a directory, non-regular files and a too-long name all end as before
    monkeypatch.chdir(tmp_path)
    regular = tmp_path / "scenario.json"
    regular.write_text("{}")
    os.mkfifo("fifo.json")
    os.symlink("loop", "loop")
    os.symlink("nowhere", "dangling")
    os.mkdir("type_b_radar.json")  # shadows the bundled fixture of that file name
    paths = [
        regular, str(regular), f"{regular}/", f"{regular}/x", "scenario.json",
        tmp_path / "missing.json", tmp_path, "", ".", "fifo.json", "loop", "loop/x",
        "dangling", "type_b_radar", "type_b_radar.json", "wifi_sharing", Path("wifi_sharing"),
        "a\x00b", "wifi_sharing\x00", "x" * 5000, "/dev/zero", "/nonexistent/config.json",
    ]
    outcomes = [(_resolved(_resolve_path, p), _resolved(_resolve_by_exists, p)) for p in paths]
    assert [new for new, old in outcomes] == [old for new, old in outcomes]
    errors = [new for new, _ in outcomes if isinstance(new, str)]
    for start in ("config file not found", "config is not a regular file", "cannot read config"):
        assert any(error.startswith(f"ParseError: {start}") for error in errors), start


def test_empty_and_malformed_files(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_scenario(empty)
    broken = tmp_path / "broken.json"
    broken.write_text('{"radar": ')
    with pytest.raises(ParseError):
        load_scenario(broken)


def test_unknown_key_rejected(tmp_path):
    doc = _variant()
    doc["radar"]["transmit_power_w"] = 1.0  # typo'd field name
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, doc))
    doc = _variant()
    doc["turbo"] = True
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, doc))


def test_negative_tx_power_names_the_field(tmp_path):
    doc = _variant()
    doc["radar"]["tx_power_w"] = -5.0
    with pytest.raises(ValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert "radar.tx_power_w" in str(err.value)


def test_missing_required_section(tmp_path):
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, _variant(pathloss=None)))


def test_frequency_wavelength_exactly_one(tmp_path):
    doc = _variant()
    doc["radar"]["wavelength_m"] = 0.107
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, doc))  # both given
    doc = _variant()
    del doc["radar"]["frequency_hz"]
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, doc))  # neither given


def test_domain_violation_reports_section(tmp_path):
    # passes the schema but violates a dataclass invariant: pathloss
    # exponents at or below 2 diverge
    doc = _variant(pathloss={"type": "power_law", "k0": 259.0, "alpha": 2.0})
    with pytest.raises(ValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert "pathloss" in str(err.value)


def test_require_raises_missing_section(tmp_path):
    scenario = load_scenario(_write(tmp_path, _variant()))
    with pytest.raises(MissingSection):
        scenario.require("detection")
    assert isinstance(scenario, Scenario)


# ----------------------------------------------------------------- sweep grids


def test_resolve_grid_variants():
    lin = resolve_grid({"start": 0.0, "stop": 10.0, "count": 5, "spacing": "linear"}, "x")
    assert lin == [0.0, 2.5, 5.0, 7.5, 10.0]
    log = resolve_grid({"start": 1e-7, "stop": 1e-3, "count": 5, "spacing": "log"}, "x")
    assert_allclose(log, [1e-7, 1e-6, 1e-5, 1e-4, 1e-3], rtol=1e-12)
    explicit = resolve_grid({"values": [1.0, 2.0, 5.0]}, "x")
    assert explicit == [1.0, 2.0, 5.0]


def test_resolve_grid_errors():
    with pytest.raises(ValidationError):
        resolve_grid({"values": [2.0, 1.0]}, "x")  # not increasing
    with pytest.raises(ValidationError):
        resolve_grid({"start": 0.0, "stop": 10.0, "count": 5, "spacing": "log"}, "x")
