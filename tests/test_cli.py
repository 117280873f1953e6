"""End-to-end tests for the command-line interface.

Every test drives ``coexist.cli.main`` in-process with a real scenario file
(the bundled fixtures or a mutated copy written to tmp_path) and inspects
the artifacts on disk.  Frozen numbers are the same oracles used by the
library-level tests; the CLI must reproduce them exactly.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import coexist
from coexist import _mc_kernels
from coexist.cli import main
from coexist.config import fixture_path


def _variant(tmp_path, base, mutate, name="scenario.json"):
    """Copy a bundled fixture, apply ``mutate(cfg)``, write it under tmp_path."""
    cfg = json.loads(fixture_path(base).read_text())
    mutate(cfg)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def _csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# happy paths on the bundled fixtures
# ---------------------------------------------------------------------------


def test_detect_summary(tmp_path):
    out = tmp_path / "out"
    rc = main(["detect", "--config", str(fixture_path("type_b_radar")), "--out", str(out)])
    assert rc == 0

    summary = _summary(out)
    assert set(summary) == {"command", "version", "seed", "config", "results"}
    assert summary["command"] == "detect"
    assert summary["version"] == coexist.__version__
    assert summary["seed"] == 42  # mc.seed from the scenario
    assert summary["config"]["radar"]["tx_power_w"] == 1320000.0

    results = summary["results"]
    assert_allclose(results["noise_power_w"], 6.567415019591216e-15, rtol=1e-12)
    assert_allclose(results["noise_power_dbm"], -111.82605538147737, rtol=1e-12)
    assert_allclose(results["single_pulse_snr_db"], 15.835833053120849, rtol=1e-12)
    assert_allclose(results["effective_snr_db"], 31.17631893492723, rtol=1e-12)
    assert_allclose(results["snr_required_baseline_db"], 13.1364385585871, rtol=1e-12)
    assert_allclose(results["snr_required_degraded_db"], 12.801803188585444, rtol=1e-12)
    assert_allclose(results["max_range_baseline_m"], 313559.518008709, rtol=1e-12)
    assert_allclose(results["max_range_degraded_m"], 319658.21680870716, rtol=1e-12)
    # no distance sweep in this scenario -> summary is the only artifact
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


def test_detect_distance_sweep_matches_summary(tmp_path):
    def add_sweep(cfg):
        cfg["sweeps"]["distance_m"] = {"values": [50000.0, 111000.0, 200000.0]}

    config = _variant(tmp_path, "type_b_radar", add_sweep)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 0

    header, rows = _csv_rows(out / "detect_sweep.csv")
    assert header == ["distance_m", "single_pulse_snr_db", "effective_snr_db"]
    assert len(rows) == 3
    # the target in the scenario sits at 111 km; its sweep row must agree
    # with the headline numbers to the last digit
    results = _summary(out)["results"]
    row = rows[1]
    assert float(row[0]) == 111000.0
    assert float(row[1]) == results["single_pulse_snr_db"]
    assert float(row[2]) == results["effective_snr_db"]


def test_imax_summary_and_sweep(tmp_path):
    out = tmp_path / "out"
    rc = main(["imax", "--config", "type_b_radar", "--out", str(out)])
    assert rc == 0  # bare fixture names resolve without a path

    results = _summary(out)["results"]
    assert_allclose(results["baseline_snr_db"], 13.1364385585871, rtol=1e-12)
    assert_allclose(results["snr_required_db"], 12.801803188585444, rtol=1e-12)
    assert_allclose(results["i_max_w"], 5.260429348225767e-16, rtol=1e-12)
    assert_allclose(results["i_max_dbm"], -122.78978807945953, rtol=1e-12)
    assert_allclose(results["inr_db"], -10.963732697982158, rtol=1e-12)

    header, rows = _csv_rows(out / "imax_sweep.csv")
    assert header == ["pd_drop", "inr_db"]
    assert len(rows) == 6
    by_drop = {float(r[0]): float(r[1]) for r in rows}
    # a 5% detection drop reproduces the headline INR
    assert by_drop[0.05] == results["inr_db"]
    assert_allclose(by_drop[0.01], -17.60305144558287, rtol=1e-12)


def test_protect_single_summary_and_table(tmp_path):
    out = tmp_path / "out"
    assert main(["protect-single", "--config", "type_b_radar", "--out", str(out)]) == 0

    results = _summary(out)["results"]
    assert_allclose(results["fdr"], 30.627871362940276, rtol=1e-12)
    assert_allclose(results["fdr_db"], 14.861168143889072, rtol=1e-12)
    assert_allclose(results["boresight_distance_m"], 84330.6270101234, rtol=1e-12)
    assert_allclose(results["sidelobe_distance_m"], 8656.061671503163, rtol=1e-12)

    header, rows = _csv_rows(out / "protect_single.csv")
    assert header == ["theta_deg", "gain_dbi", "protection_distance_m"]
    assert len(rows) == 721  # default half-degree grid over [-180, 180]
    by_theta = {float(r[0]): float(r[2]) for r in rows}
    assert by_theta[0.0] == results["boresight_distance_m"]
    assert by_theta[90.0] == results["sidelobe_distance_m"]
    assert by_theta[-180.0] == by_theta[180.0]  # even pattern, even contour


def test_protect_multi_default_policy(tmp_path):
    out = tmp_path / "out"
    assert main(["protect-multi", "--config", "type_b_radar", "--out", str(out)]) == 0

    results = _summary(out)["results"]
    assert results["policy"] == "main-side-lobe"
    assert_allclose(results["beta"], 4.939173621966182, rtol=1e-9)
    assert_allclose(results["d_min_m"], 433343.5470272076, rtol=1e-9)
    assert_allclose(results["d_max_m"], 2140359.0167260454, rtol=1e-9)
    assert_allclose(results["lobe_width_deg"], 10.567445199183233, rtol=1e-12)
    assert_allclose(results["area_m2"], 995096619713.7368, rtol=1e-9)
    assert results["area_km2"] == results["area_m2"] / 1e6
    # the solver pins the outage constraint exactly at the target
    assert abs(results["outage_probability"] - 0.1) < 1e-6

    header, rows = _csv_rows(out / "protect_multi_contour.csv")
    assert header == ["theta_deg", "distance_m"]
    assert len(rows) == 721
    distances = np.array([float(r[1]) for r in rows])
    assert_allclose(distances.min(), results["d_min_m"], rtol=1e-12)
    assert_allclose(distances.max(), results["d_max_m"], rtol=1e-12)
    # behind the radar the main-lobe window is closed
    assert float(rows[0][1]) == distances.min()

    header, rows = _csv_rows(out / "protect_multi_sweep.csv")
    assert header == ["density_per_m2", "d_min_m", "area_m2"]
    assert len(rows) == 9
    d_mins = [float(r[1]) for r in rows]
    assert all(a < b for a, b in zip(d_mins, d_mins[1:]))  # denser -> farther


def test_protect_multi_policy_override(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "protect-multi",
            "--config",
            "type_b_radar",
            "--out",
            str(out),
            "--policy",
            "radar-blind",
        ]
    )
    assert rc == 0

    summary = _summary(out)
    assert summary["config"]["policy"]["type"] == "radar-blind"
    results = summary["results"]
    assert results["policy"] == "radar-blind"
    assert_allclose(results["d_min_m"], 1427679.5416629429, rtol=1e-9)
    assert_allclose(results["area_m2"], np.pi * results["d_min_m"] ** 2, rtol=1e-12)
    assert abs(results["outage_probability"] - 0.1) < 1e-6

    _, rows = _csv_rows(out / "protect_multi_contour.csv")
    assert {r[1] for r in rows} == {repr(results["d_min_m"])}  # circle


def test_throughput_summary_and_tables(tmp_path):
    out = tmp_path / "out"
    assert main(["throughput", "--config", "wifi_sharing", "--out", str(out)]) == 0

    summary = _summary(out)
    assert summary["seed"] == 0  # scenario has no mc section
    results = summary["results"]
    assert results["policy"] == "single-user"
    assert results["mode"] == "peak"
    assert results["su_distance_m"] == 5000.0
    assert_allclose(results["noise_power_w"], 5.05255763485556e-13, rtol=1e-12)
    assert_allclose(results["interference_free_snr_db"], 42.964887237588286, rtol=1e-12)
    assert_allclose(results["gamma_m"], 3599.1757117122047, rtol=1e-12)
    assert_allclose(results["duty_factor"], 0.906982421875, rtol=1e-12)
    assert results["avg_rate_peak_mbps"] == 0.0  # boresight strobes kill peak mode here
    assert_allclose(results["avg_rate_averaged_mbps"], 32.271484375, rtol=1e-12)
    # peak and averaged boresight interference differ by the duty cycle
    assert_allclose(
        results["boresight_interference_peak_dbm"]
        - results["boresight_interference_averaged_dbm"],
        29.523080096621253,
        rtol=1e-12,
    )

    header, rows = _csv_rows(out / "throughput_trace.csv")
    assert header == ["time_s", "azimuth_deg", "sinr_db", "rate_mbps"]
    assert len(rows) == 512
    assert float(rows[0][0]) == 0.0
    # 5 km is inside the peak-mode zero-rate zone at every azimuth, which is
    # exactly why avg_rate_peak_mbps above is 0.0
    assert all(float(r[3]) == 0.0 for r in rows)
    sinr = [float(r[2]) for r in rows]
    assert max(sinr) > min(sinr)  # the scan still modulates the SINR

    header, rows = _csv_rows(out / "throughput_sweep.csv")
    assert header == [
        "distance_m",
        "duty_factor",
        "avg_rate_peak_mbps",
        "avg_rate_averaged_mbps",
    ]
    assert len(rows) == 61
    # far enough out both modes settle at the top MCS rate
    assert float(rows[-1][2]) == 65.0
    assert float(rows[-1][3]) == 65.0


def test_fit_pathloss_recovers_power_law(tmp_path):
    distances = [float(d) for d in np.geomspace(1000.0, 100000.0, 8)]
    samples = [[d, 10.0 * np.log10(259.0 * d**-3.97)] for d in distances]

    def use_table(cfg):
        cfg["pathloss"] = {"type": "tabulated", "samples": samples}

    config = _variant(tmp_path, "type_b_radar", use_table)
    out = tmp_path / "out"
    assert main(["fit-pathloss", "--config", str(config), "--out", str(out)]) == 0

    results = _summary(out)["results"]
    assert_allclose(results["k0"], 259.0, rtol=1e-9)
    assert_allclose(results["alpha"], 3.97, rtol=1e-9)
    assert results["r_squared"] > 1.0 - 1e-12
    assert results["n_samples"] == 8

    header, rows = _csv_rows(out / "fit_pathloss.csv")
    assert header == ["distance_m", "attenuation_db", "fit_attenuation_db"]
    assert len(rows) == 8
    for row in rows:
        assert_allclose(float(row[1]), float(row[2]), atol=1e-9)


# ---------------------------------------------------------------------------
# reproducibility and overrides
# ---------------------------------------------------------------------------


def test_validate_mc_reruns_are_byte_identical(tmp_path, monkeypatch):
    args = ["validate-mc", "--config", "type_b_radar", "--seed", "42", "--samples", "200"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    # the sampler has one kernel; a leftover backend variable changes nothing
    monkeypatch.setenv("COEXIST_BACKEND", "numba")
    assert main(args + ["--out", str(out2)]) == 0

    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert names == ["summary.json", "validate_mc.csv"]
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    summary = _summary(out1)
    assert summary["seed"] == 42
    assert summary["config"]["mc"]["seed"] == 42
    assert summary["config"]["mc"]["samples"] == 200  # override echoed back
    results = summary["results"]
    assert results["n_samples"] == 200
    # the backend that actually ran, never the "auto" placeholder
    assert results["backend"] == _mc_kernels.resolve_backend()
    assert isinstance(results["exceedance_all_within_ci99"], bool)

    header, rows = _csv_rows(out1 / "validate_mc.csv")
    assert header == [
        "outage_target",
        "i_max_w",
        "analytic_prob",
        "empirical_prob",
        "ci99_halfwidth",
        "within_ci",
    ]
    assert [float(r[0]) for r in rows] == [0.05, 0.1, 0.2]
    assert all(r[5] in ("true", "false") for r in rows)

    # a different seed must change the empirical numbers
    out3 = tmp_path / "c"
    assert main(args[:-2] + ["--seed", "43", "--samples", "200", "--out", str(out3)]) == 0
    assert not filecmp.cmp(out1 / "summary.json", out3 / "summary.json", shallow=False)


def test_format_json_tables(tmp_path):
    out = tmp_path / "out"
    rc = main(["imax", "--config", "type_b_radar", "--out", str(out), "--format", "json"])
    assert rc == 0

    assert sorted(p.name for p in out.iterdir()) == ["imax_sweep.json", "summary.json"]
    table = json.loads((out / "imax_sweep.json").read_text())
    assert table["columns"] == ["pd_drop", "inr_db"]
    assert len(table["rows"]) == 6
    assert _summary(out)["config"]["output"]["format"] == "json"


def test_unknown_format_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["imax", "--config", "type_b_radar", "--out", str(tmp_path), "--format", "xml"])


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["detect", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"radar": ')
    rc = main(["detect", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_schema_violation_exits_3(tmp_path, capsys):
    def break_power(cfg):
        cfg["radar"]["tx_power_w"] = -5.0

    config = _variant(tmp_path, "type_b_radar", break_power)
    rc = main(["detect", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "radar.tx_power_w" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_number_exits_3(tmp_path, capsys, value):
    # json.dumps writes these as the Infinity / -Infinity / NaN literals,
    # which json.loads accepts; the loader must reject them by field name
    def poison(cfg):
        cfg["field"]["density_per_m2"] = value

    config = _variant(tmp_path, "type_b_radar", poison)
    assert "Infinity" in config.read_text() or "NaN" in config.read_text()
    rc = main(["protect-multi", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "field.density_per_m2" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    src = str(Path(coexist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, coexist.cli; print('scipy' in sys.modules, 'numba' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize(
    "flag, value, field",
    [("--samples", "0", "mc.samples"), ("--samples", "-3", "mc.samples"),
     ("--seed", "-1", "mc.seed")],
)
def test_override_outside_schema_exits_3(tmp_path, capsys, flag, value, field):
    out = tmp_path / "o"
    rc = main(["validate-mc", "--config", "type_b_radar", flag, value, "--out", str(out)])
    assert rc == 3
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"values": [1.0, 3.0, 2.0]},
         "policy.beta_grid.values must be strictly increasing"),
        ({"start": 4.0, "stop": 2.0, "count": 5},
         "policy.beta_grid: start must be below stop"),
        ({"values": [1.0, 2.0]}, "policy.beta_grid.values:"),
        ({"start": 1.0, "stop": 8.0, "count": 2}, "policy.beta_grid.count:"),
        ({"values": [0.5, 2.0, 3.0]}, "policy.beta_grid.values.0:"),
        ({"start": 0.5, "stop": 8.0, "count": 5}, "policy.beta_grid.start:"),
    ],
)
def test_bad_beta_grid_exits_3(tmp_path, capsys, grid, message):
    def set_grid(cfg):
        cfg["policy"] = {"type": "main-side-lobe", "beta_grid": grid}

    config = _variant(tmp_path, "type_b_radar", set_grid)
    rc = main(["protect-multi", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert message in err
    assert "sweeps." not in err


@pytest.mark.parametrize(
    "grid, field",
    [
        ({"values": [0.0, 190.0]}, "sweeps.theta_deg.values.1:"),
        ({"start": -200.0, "stop": 0.0, "count": 5}, "sweeps.theta_deg.start:"),
        ({"start": 0.0, "stop": 180.5, "count": 5}, "sweeps.theta_deg.stop:"),
    ],
)
def test_theta_sweep_outside_circle_exits_3(tmp_path, capsys, grid, field):
    def set_sweep(cfg):
        cfg["sweeps"]["theta_deg"] = grid

    config = _variant(tmp_path, "type_b_radar", set_sweep)
    rc = main(["protect-single", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("drops", [[0.01, 0.95], [-0.2, 0.1]])
def test_pd_drop_sweep_outside_unit_interval_exits_3(tmp_path, capsys, drops):
    # the fixture's baseline pd is 0.9: 0.9 - 0.95 < 0 and 0.9 + 0.2 > 1
    def set_sweep(cfg):
        cfg["sweeps"]["pd_drop"] = {"values": drops}

    config = _variant(tmp_path, "type_b_radar", set_sweep)
    rc = main(["imax", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "sweeps.pd_drop: pd0 - drop =" in capsys.readouterr().err


def test_mc_backend_key_exits_3(tmp_path, capsys):
    def pick_backend(cfg):
        cfg["mc"]["backend"] = "numpy"

    config = _variant(tmp_path, "type_b_radar", pick_backend)
    rc = main(["validate-mc", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: mc:")
    assert "backend" in err


def test_unknown_key_exits_3(tmp_path, capsys):
    def add_typo(cfg):
        cfg["radar"]["tx_powr_w"] = 1.0

    config = _variant(tmp_path, "type_b_radar", add_typo)
    rc = main(["detect", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_missing_section_exits_4(tmp_path, capsys):
    # wifi_sharing has no target section, type_b_radar has no wifi section
    rc = main(["detect", "--config", "wifi_sharing", "--out", str(tmp_path / "a")])
    assert rc == 4
    rc = main(["throughput", "--config", "type_b_radar", "--out", str(tmp_path / "b")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 2


def test_fit_pathloss_needs_tabulated_data(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["fit-pathloss", "--config", "type_b_radar", "--out", str(out)])
    assert rc == 4
    assert "tabulated" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_single_user_policy_rejected_for_field_study(tmp_path, capsys):
    rc = main(
        [
            "protect-multi",
            "--config",
            "type_b_radar",
            "--out",
            str(tmp_path / "o"),
            "--policy",
            "single-user",
        ]
    )
    assert rc == 3
    assert "single-user" in capsys.readouterr().err


def test_failed_run_removes_partial_outputs(tmp_path, capsys):
    # the contour table is written before the density sweep runs; a density
    # the schema accepts but the solver cannot bracket (its scale overflows)
    # must fail the run AND remove the table that was already on disk
    def poison_sweep(cfg):
        cfg["sweeps"]["density_per_m2"] = {"values": [1e-6, 1e300]}

    config = _variant(tmp_path, "type_b_radar", poison_sweep)
    out = tmp_path / "out"
    rc = main(["protect-multi", "--config", str(config), "--out", str(out)])
    assert rc == 5
    assert "bracket requires lo < hi" in capsys.readouterr().err
    assert out.is_dir()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, base, sweep, grid, field",
    [
        ("throughput", "wifi_sharing", "distance_m", {"values": [-100.0, 5000.0]},
         "sweeps.distance_m.values.0:"),
        ("detect", "type_b_radar", "distance_m",
         {"start": 0.0, "stop": 5000.0, "count": 3}, "sweeps.distance_m.start:"),
        ("protect-multi", "type_b_radar", "density_per_m2", {"values": [-1e-6, 1e-6]},
         "sweeps.density_per_m2.values.0:"),
        ("protect-multi", "type_b_radar", "density_per_m2",
         {"start": -1e-6, "stop": 1e-6, "count": 3}, "sweeps.density_per_m2.start:"),
    ],
)
def test_non_positive_sweep_exits_3(tmp_path, capsys, command, base, sweep, grid, field):
    def set_sweep(cfg):
        cfg["sweeps"][sweep] = grid

    config = _variant(tmp_path, base, set_sweep)
    out = tmp_path / "o"
    rc = main([command, "--config", str(config), "--out", str(out)])
    assert rc == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_unread_beta_sweep_exits_3(tmp_path, capsys):
    # no command reads a beta sweep, so the schema refuses one instead of
    # running and silently ignoring it
    def set_sweep(cfg):
        cfg["sweeps"]["beta"] = {"values": [1.0, 2.0, 4.0]}

    config = _variant(tmp_path, "type_b_radar", set_sweep)
    rc = main(["protect-multi", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sweeps:")
    assert "'beta' was unexpected" in err
