"""End-to-end tests for the command-line interface.

Every test drives ``coexist.cli.main`` in-process with a real scenario file
(the bundled fixtures or a mutated copy written to tmp_path) and inspects
the artifacts on disk.  Frozen numbers are the same oracles used by the
library-level tests; the CLI must reproduce them exactly.
"""

import copy
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import coexist
from coexist import _mc_kernels, cli, protection_multi
from coexist.cli import main, run_command
from coexist.config import (
    MissingSection,
    ParseError,
    ValidationError,
    fixture_path,
    load_scenario,
    resolve_grid,
)
from coexist.radar_detection import RocPoint


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


def test_protect_multi_with_a_fixed_beta(tmp_path):
    def results(name, *argv, beta=None):
        config = "type_b_radar"
        if beta is not None:
            config = _variant(
                tmp_path, config, lambda cfg: _set(cfg, ("policy", "beta"), beta), f"{name}.json"
            )
        out = tmp_path / name
        assert main(["protect-multi", "--config", str(config), "--out", str(out), *argv]) == 0
        return _summary(out)["results"]

    optimal = results("optimal")
    # the optimised beta, given: the same solve, to the last bit
    at_optimum = results("at-optimum", beta=optimal["beta"])
    for key in ("d_min_m", "d_max_m", "area_m2"):
        assert at_optimum[key] == optimal[key]
    # beta 1 closes the window: a circle, the radar-blind policy's
    blind, flat = results("blind", "--policy", "radar-blind"), results("flat", beta=1.0)
    assert flat["d_min_m"] == flat["d_max_m"] == blind["d_min_m"]
    assert flat["area_km2"] == blind["area_km2"]
    # any other beta meets the same outage target with more area
    other = results("other", beta=3.0)
    assert other["area_m2"] > optimal["area_m2"]
    assert abs(other["outage_probability"] - 0.1) < 1e-9


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


# every command and fixture that runs: the other pairs exit 4 (a section the
# fixture lacks) and protect-multi on wifi_sharing exits 3 (its single-user policy)
RUNNING_PAIRS = [
    ("detect", "type_b_radar", None),
    ("imax", "type_b_radar", None),
    ("imax", "wifi_sharing", None),
    ("protect-single", "type_b_radar", None),
    ("protect-single", "wifi_sharing", None),
    ("protect-multi", "type_b_radar", None),
    ("protect-multi", "type_b_radar", "optimal"),
    ("protect-multi", "type_b_radar", "radar-blind"),
    ("throughput", "wifi_sharing", None),
    ("validate-mc", "type_b_radar", None),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, base, policy", RUNNING_PAIRS)
def test_every_json_file_is_what_json_dumps_writes(tmp_path, command, base, policy, fmt):
    from test_writer_properties import reference_json

    samples = 300 if command == "validate-mc" else None
    payload = run_command(
        load_scenario(base), command, tmp_path, fmt=fmt, samples=samples, policy=policy
    )
    written = sorted(tmp_path.iterdir())
    assert {p.suffix for p in written} <= {".json", f".{fmt}"}
    for path in written:
        if path.suffix == ".json":
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "summary.json").read_text() == reference_json(payload)


def test_unknown_format_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["imax", "--config", "type_b_radar", "--out", str(tmp_path), "--format", "xml"])


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def _assert_parse_error(config, tmp_path, capsys):
    """``config`` exits 2 with one error line, and load_scenario raises ParseError."""
    out = tmp_path / "o"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err[:200]
    assert not out.exists()
    with pytest.raises(ParseError):
        load_scenario(config)


def test_missing_config_file_exits_2(tmp_path, capsys):
    # a name too long for the file system raised OSError from Path.exists()
    for config in (tmp_path / "nope.json", "x" * 5000):
        _assert_parse_error(config, tmp_path, capsys)


def test_non_regular_config_exits_2(tmp_path, capsys):
    # a FIFO blocked the read forever and /dev/zero read without end; the
    # path is refused before it is opened, naming it
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    configs = [fifo, tmp_path] + [Path("/dev/zero")] * os.path.exists("/dev/zero")
    for config in configs:
        _assert_parse_error(config, tmp_path, capsys)
        main(["detect", "--config", str(config), "--out", str(tmp_path / "o")])
        assert capsys.readouterr().err == f"error: config is not a regular file: {config}\n"


def test_malformed_json_exits_2(tmp_path, capsys):
    contents = [
        b'{"radar": ',
        # these exited 1 with a traceback: RecursionError, ValueError (an int
        # past Python's digit limit) and UnicodeDecodeError
        b"[" * 200_000 + b"]" * 200_000,
        b'{"mc": {"seed": ' + b"1" * 5000 + b"}}",
        b'{"radar": "\xff"}',
    ]
    for i, content in enumerate(contents):
        bad = tmp_path / f"bad{i}.json"
        bad.write_bytes(content)
        _assert_parse_error(bad, tmp_path, capsys)


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


def _fresh_interpreter(code, *args):
    """Stdout of ``code``, argv ``args``, in a fresh interpreter on this checkout's coexist."""
    src = str(Path(coexist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


# the modules a run loads only if it computes on arrays (numpy) or never (scipy, numba)
NUMPY_FREE_RUNS = """
import json, sys
from coexist import cli
out, invalid = sys.argv[1:]
runs = [
    ("detect", "type_b_radar"), ("imax", "type_b_radar"), ("imax", "wifi_sharing"),
    ("detect", out + "/missing.json"), ("imax", invalid), ("detect", "wifi_sharing"),
]
codes = [
    cli.main([cmd, "--config", cfg, "--out", f"{out}/{i}"]) for i, (cmd, cfg) in enumerate(runs)
]
heavy = [name for name in ("numpy._core", "scipy", "numba") if name in sys.modules]
cli.main(["protect-single", "--config", "type_b_radar", "--out", out + "/protect-single"])
print(json.dumps({"codes": codes, "heavy": heavy, "numpy_later": "numpy._core" in sys.modules}))
"""


def test_detect_imax_and_failed_runs_never_load_numpy(tmp_path):
    # numpy is loaded at its first use, and these runs compute without arrays;
    # protect-single does use it, so the check is not vacuous
    def invalid(cfg):
        cfg["radar"]["tx_power_w"] = -1.0

    config = _variant(tmp_path, "type_b_radar", invalid)
    loaded = json.loads(_fresh_interpreter(NUMPY_FREE_RUNS, str(tmp_path), str(config)))
    assert loaded == {"codes": [0, 0, 0, 2, 3, 4], "heavy": [], "numpy_later": True}


def test_the_numpy_handle_is_numpy_itself():
    code = (
        "import sys, coexist; lazy = 'numpy._core' not in sys.modules\n"
        "import numpy\n"
        "from coexist.numerics import np\n"
        "print(lazy, np is numpy is sys.modules['numpy'], np.arange(3).sum(), type(np).__name__)"
    )
    assert _fresh_interpreter(code).split() == ["True", "True", "3", "module"]


def test_numpy_imported_first_is_the_handle():
    code = (
        "import importlib.util, numpy, coexist\n"
        "print(coexist.numerics.np is numpy, type(numpy).__name__,\n"
        "      isinstance(numpy.__spec__.loader, importlib.util.LazyLoader))"
    )
    assert _fresh_interpreter(code).split() == ["True", "module", "False"]


def test_importing_coexist_without_numpy_fails():
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "try:\n"
        "    import coexist\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)"
    )
    assert _fresh_interpreter(code).strip() == "numpy"


def test_a_numpy_scalar_field_is_checked_as_its_number():
    # numpy loaded after coexist, by the caller: the README's quick start
    code = (
        "from coexist.config import ValidationError\n"
        "from coexist.protection_single import DeploymentField\n"
        "import numpy as np\n"
        "def refusal(density):\n"
        "    try:\n"
        "        DeploymentField(density_per_m2=density, activity_prob=1.0, outage_max=0.1)\n"
        "    except ValidationError as exc:\n"
        "        return str(exc)\n"
        "print(refusal(np.float64(1e-6)))\n"
        "print(refusal(np.float64(2.0)))\n"
        "print(refusal(2.0))"
    )
    accepted, refused, refused_float = _fresh_interpreter(code).splitlines()
    assert accepted == "None"
    assert refused == refused_float == "field.density_per_m2: 2.0 is greater than the maximum of 1"


def test_importing_coexist_reads_no_schema():
    # the schema is read and compiled on first use: by a load, an override or a record
    code = "import coexist, coexist.config as c; print(c._load_schema.cache_info().currsize)"
    assert _fresh_interpreter(code).strip() == "0"


LEAN_IMPORT = """
import json, sys
import coexist.cli
from coexist.config import load_scenario
load_scenario("type_b_radar")
load_scenario("wifi_sharing")
modules = sorted(sys.modules)  # before the walk: isinstance reads the numpy handle's __class__
classes = {
    f"{value.__module__}.{value.__name__}": hasattr(value, "__dataclass_fields__")
    for name, module in list(sys.modules.items())
    if name.startswith("coexist")
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__.startswith("coexist")
}
print(json.dumps({"modules": modules, "classes": classes}))
"""


def test_import_and_load_pull_in_no_unneeded_module():
    # the stdlib modules that only one function needs are imported inside it
    # (statistics in q_inverse, argparse in cli._build_parser), the CLI
    # writes its tables without csv, the records are not dataclasses and
    # numpy is loaded at its first use, so none of these is loaded to run a
    # command
    loaded = json.loads(_fresh_interpreter(LEAN_IMPORT))
    unneeded = ("dataclasses", "statistics", "decimal", "fractions", "copy", "csv", "numpy._core")
    assert [name for name in unneeded if name in loaded["modules"]] == []
    assert "coexist.config.Scenario" in loaded["classes"]
    assert [name for name, generated in loaded["classes"].items() if generated] == []


# the field, Monte Carlo and WiFi modules, listed where they have been run:
# until then each is absent or LazyLoader's module, whose type() does not run it
DEFERRED_MODULES = """
import json, sys, types
from coexist import cli
from coexist.config import load_scenario
out = sys.argv[1]
names = ("coexist.protection_multi", "coexist.wifi_link", "coexist._mc_kernels")

def run_modules():
    return [name for name in names if type(sys.modules.get(name)) is types.ModuleType]

load_scenario("type_b_radar")
load_scenario("wifi_sharing")
points = {"import and load": run_modules()}
runs = [
    ("detect", "type_b_radar"), ("imax", "wifi_sharing"), ("protect-single", "type_b_radar"),
    ("protect-multi", "type_b_radar", "--policy", "single-user"), ("throughput", "type_b_radar"),
]
codes = [
    cli.main([cmd, "--config", cfg, *rest, "--out", f"{out}/{i}"])
    for i, (cmd, cfg, *rest) in enumerate(runs)
]
points["single-radar and failed runs"] = run_modules()
codes.append(cli.main(["protect-multi", "--config", "type_b_radar", "--out", out + "/multi"]))
points["protect-multi"] = run_modules()
codes.append(cli.main(["throughput", "--config", "wifi_sharing", "--out", out + "/throughput"]))
points["throughput"] = run_modules()
print(json.dumps({"codes": codes, "run": points}))
"""


def test_single_radar_runs_never_run_the_field_mc_or_wifi_modules(tmp_path):
    # loading a scenario, detect, imax, protect-single and runs that exit 3
    # or 4 before any field or WiFi computation need none of them;
    # protect-multi runs the field module and its kernel and throughput the
    # WiFi one, so the check is not vacuous
    loaded = json.loads(_fresh_interpreter(DEFERRED_MODULES, str(tmp_path)))
    assert loaded["codes"] == [0, 0, 0, 3, 4, 0, 0]
    assert loaded["run"] == {
        "import and load": [],
        "single-radar and failed runs": [],
        "protect-multi": ["coexist.protection_multi", "coexist._mc_kernels"],
        "throughput": ["coexist.protection_multi", "coexist.wifi_link", "coexist._mc_kernels"],
    }


@pytest.mark.parametrize(
    "flag, value, field",
    [("--samples", "0", "mc.samples"), ("--samples", "-3", "mc.samples"),
     # one sample has no sample variance
     ("--samples", "1", "mc.samples"),
     ("--seed", "-1", "mc.seed"),
     # argparse's choices refuse these two, so only a library caller can pass them
     ("--format", "xml", "output.format"), ("--policy", "bogus", "policy.type")],
)
def test_override_outside_schema_exits_3(tmp_path, capsys, flag, value, field):
    out = tmp_path / "o"
    option = {"--samples": "samples", "--seed": "seed", "--format": "fmt", "--policy": "policy"}
    if flag in ("--samples", "--seed"):
        rc = main(["validate-mc", "--config", "type_b_radar", flag, value, "--out", str(out)])
        assert rc == 3
        assert f"error: {field}:" in capsys.readouterr().err
        assert not out.exists()
        value = int(value)
    scenario = load_scenario("type_b_radar")
    for command in ("detect", "protect-single", "validate-mc"):
        with pytest.raises(ValidationError, match=f"^{field}: "):
            run_command(scenario, command, out, **{option[flag]: value})
        assert not out.exists()


@pytest.mark.parametrize(
    "error, rc",
    [(ParseError, 2), (ValidationError, 3), (MissingSection, 4), (RuntimeError, 5),
     (RecursionError, 5)],
)
def test_exit_code_is_the_first_matching_entry(tmp_path, capsys, monkeypatch, error, rc):
    def fail(scenario, tracker):
        raise error("handler failed")

    monkeypatch.setitem(cli._COMMANDS, "detect", (fail, "", False))
    assert main(["detect", "--config", "type_b_radar", "--out", str(tmp_path / "o")]) == rc
    assert capsys.readouterr().err == "error: handler failed\n"


def _refuse_to_sample(*args, **kwargs):
    raise AssertionError("sampling started before the work check")


@pytest.mark.parametrize(
    "caps, samples, field",
    [
        # 2000 samples of ~1.8k points each: over a 10^6-point cap
        ({"MAX_DRAWN_POINTS": 10**6}, "2000", "mc.samples"),
        # one sample alone is over a 1000-point cap: the field is the cause
        ({"MAX_DRAWN_POINTS": 1000}, "2", "field.density_per_m2"),
        # 2000 samples need 16 KB of sums
        ({"MAX_SUMS_BYTES": 8 * 1024}, "2000", "mc.samples"),
    ],
)
def test_work_over_the_cap_exits_3(tmp_path, capsys, monkeypatch, caps, samples, field):
    for name, value in caps.items():
        monkeypatch.setattr(_mc_kernels, name, value)
    monkeypatch.setattr(_mc_kernels, "_add_field", _refuse_to_sample)
    out = tmp_path / "o"
    rc = main(["validate-mc", "--config", "type_b_radar", "--samples", samples,
               "--out", str(out)])
    assert rc == 3
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("margin, rc", [(1.01, 0), (0.99, 3)])
def test_work_prediction_is_the_expected_point_count(tmp_path, monkeypatch, margin, rc):
    # the fixture draws density * pi * (R^2 - d^2) points per sample on average
    cfg = json.loads(fixture_path("type_b_radar").read_text())
    field, mc = cfg["field"], cfg["mc"]
    per_sample = (field["density_per_m2"] * field["activity_prob"] * np.pi
                  * (mc["outer_radius_m"] ** 2 - mc["profile"]["distance_m"] ** 2))
    monkeypatch.setattr(_mc_kernels, "MAX_DRAWN_POINTS", margin * 200 * per_sample)
    args = ["validate-mc", "--config", "type_b_radar", "--samples", "200"]
    assert main(args + ["--out", str(tmp_path / "o")]) == rc


def test_work_check_needs_no_allocation():
    # a trillion samples are refused by arithmetic alone
    with pytest.raises(_mc_kernels.WorkTooLarge) as caught:
        _mc_kernels.check_work(1.8e3, 10**12, 10**12)
    assert not caught.value.per_sample
    with pytest.raises(_mc_kernels.WorkTooLarge) as caught:
        _mc_kernels.check_work(2.0 * _mc_kernels.MAX_DRAWN_POINTS, 1, 1)
    assert caught.value.per_sample
    _mc_kernels.check_work(1.8e3, 10**6, 10**6)


# the peak resident size of a big validate-mc run over the resident size it
# starts from, once a small run has imported and loaded all it needs.  The
# peak is Linux's VmHWM of this process image, not ru_maxrss: a child's
# ru_maxrss also holds its parent's resident size from before the exec
VALIDATE_MC_PEAK = """
import json, sys
from coexist import cli
config, out, n_samples = sys.argv[1:]

def kib(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(field + ":"))

argv = ["validate-mc", "--config", config, "--out"]
codes = [cli.main([*argv, out + "/1", "--samples", "1000"])]
resident = kib("VmRSS")
codes.append(cli.main([*argv, out + "/2", "--samples", n_samples]))
print(json.dumps({"codes": codes, "growth": 1024 * (kib("VmHWM") - resident)}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak from /proc")
def test_validate_mc_holds_one_copy_of_its_samples(tmp_path):
    # a near-empty field makes the sums all the memory a run needs: one
    # float64 array of them (whole blocks of 65536 samples, as a sample
    # draws under one point) and a boolean exceedance mask; a second copy,
    # from scaling the sums or from np.var, would double the growth
    n_samples = 3_000_000
    config = _variant(
        tmp_path, "type_b_radar", lambda cfg: _set(cfg, ("field", "density_per_m2"), 1e-12)
    )
    loaded = json.loads(
        _fresh_interpreter(VALIDATE_MC_PEAK, str(config), str(tmp_path), str(n_samples))
    )
    assert loaded["codes"] == [0, 0]
    block = _mc_kernels.BLOCK_POINTS
    sums_bytes = 8 * block * -(-n_samples // block)
    assert 0.9 * sums_bytes < loaded["growth"] < 1.3 * sums_bytes


def _refuse_to_trace(*args, **kwargs):
    raise AssertionError("the trace started before the work check")


@pytest.mark.parametrize(
    "command, base, sweeps, cap, field",
    [
        # 512 steps fit, but 61 sweep distances x 512 steps do not
        ("throughput", "wifi_sharing", {}, 61 * 512 - 1, "sweeps.distance_m.count"),
        ("throughput", "wifi_sharing", {}, 100, "wifi.n_time_steps"),
        ("imax", "type_b_radar", {"pd_drop": {"values": [0.01, 0.02, 0.05, 0.1]}},
         3, "sweeps.pd_drop.values"),
        ("protect-single", "type_b_radar",
         {"theta_deg": {"start": -90.0, "stop": 90.0, "count": 4}},
         3, "sweeps.theta_deg.count"),
    ],
)
def test_analytic_work_over_the_cap_exits_3(
    tmp_path, capsys, monkeypatch, command, base, sweeps, cap, field
):
    monkeypatch.setattr("coexist.config.MAX_ANALYTIC_WORK", cap)
    monkeypatch.setattr("coexist.wifi_link.throughput_trace", _refuse_to_trace)
    config = _variant(tmp_path, base, lambda cfg: cfg["sweeps"].update(sweeps))
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 3
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_analytic_cap_admits_work_at_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr("coexist.config.MAX_ANALYTIC_WORK", 61 * 512)
    assert main(["throughput", "--config", "wifi_sharing", "--out", str(tmp_path)]) == 0


def _refuse_to_solve(*args, **kwargs):
    raise AssertionError("a policy solve started before the work check")


@pytest.mark.parametrize(
    "policy, solver, per_point",
    [
        # the fixture's beta scan: 61 grid betas, 2 + 80 golden-section
        # solves and one for the chosen beta
        ({}, "optimize_beta", 144),
        ({"beta_grid": {"values": [1.0, 2.0, 4.0, 8.0]}}, "optimize_beta", 87),
        ({"beta": 3.0}, "solve_main_side", 1),
        ({"type": "optimal"}, "solve_optimal_profile", 1),
        ({"type": "radar-blind"}, "solve_radar_blind", 1),
    ],
)
def test_density_sweep_counts_the_solves_of_each_point(
    tmp_path, capsys, monkeypatch, policy, solver, per_point
):
    # type_b_radar sweeps 9 densities; one evaluation under the cap is refused
    monkeypatch.setattr("coexist.config.MAX_ANALYTIC_WORK", 9 * per_point - 1)
    monkeypatch.setattr(f"coexist.protection_multi.{solver}", _refuse_to_solve)
    config = _variant(tmp_path, "type_b_radar", lambda cfg: cfg["policy"].update(policy))
    out = tmp_path / "o"
    assert main(["protect-multi", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: sweeps.density_per_m2.count: {9 * per_point} evaluations"
    )
    if per_point > 1:
        assert f"(9 points x {per_point} solves)" in err
    assert not out.exists()


def test_density_sweep_at_the_cap_runs(tmp_path, monkeypatch):
    monkeypatch.setattr("coexist.config.MAX_ANALYTIC_WORK", 9 * 144)
    assert main(["protect-multi", "--config", "type_b_radar", "--out", str(tmp_path)]) == 0


def test_analytic_work_check_needs_no_allocation():
    # a billion-point grid is refused by arithmetic alone
    with pytest.raises(ValidationError, match=r"^x\.count: 1000000000 eval"):
        resolve_grid({"start": 0.0, "stop": 1.0, "count": 10**9}, "x")
    with pytest.raises(ValidationError, match=r"\(2000 points x 512 time steps\)"):
        resolve_grid({"start": 0.0, "stop": 1.0, "count": 2000}, "x", 512)


def test_overrides_leave_the_scenario_as_loaded(tmp_path):
    def strip(cfg):
        del cfg["policy"], cfg["output"]

    scenario = load_scenario(_variant(tmp_path, "type_b_radar", strip))
    before = copy.deepcopy(scenario.raw)
    payload = run_command(
        scenario, "validate-mc", tmp_path / "o",
        fmt="json", seed=7, samples=200, policy="radar-blind",
    )
    assert scenario.raw == before
    echo = payload["config"]
    assert echo["mc"] == {**before["mc"], "seed": 7, "samples": 200}
    assert echo["policy"] == {"type": "radar-blind"}
    assert echo["output"] == {"format": "json"}
    assert {k: v for k, v in echo.items() if k not in ("mc", "policy", "output")} == {
        k: v for k, v in before.items() if k != "mc"
    }
    assert _summary(tmp_path / "o")["config"] == echo


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_every_zero_exit_runs_echo_replays_to_the_same_files(tmp_path):
    options = {"none": [], "seed": ["--seed", "7", "--samples", "300"], "json": ["--format", "json"]}
    replayed = 0
    for command in cli._COMMANDS:
        for base in ("type_b_radar", "wifi_sharing"):
            for name, extra in options.items():
                out = tmp_path / f"{command}-{base}-{name}"
                if main([command, "--config", base, "--out", str(out), *extra]) != 0:
                    assert not out.exists()
                    continue
                echo = tmp_path / f"{out.name}.json"
                echo.write_text(json.dumps(_summary(out)["config"]))
                again = tmp_path / f"{out.name}-again"
                assert main([command, "--config", str(echo), "--out", str(again)]) == 0
                assert _files(again) == _files(out), out.name
                replayed += 1
    assert replayed == 21


def test_a_command_reads_the_document_its_summary_echoes(tmp_path, monkeypatch):
    # each handler is handed the scenario whose raw document summary.json records
    captured = []

    def capturing(handler):
        def capture(scenario, *rest):
            captured.append(scenario)
            return handler(scenario, *rest)

        return capture

    for name, (handler, *rest) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (capturing(handler), *rest))
    options = [{}, {"seed": 7, "samples": 300}, {"fmt": "json"}]
    compared = 0
    for command, (_, _, takes_policy) in cli._COMMANDS.items():
        policies = [{"policy": p} for p in cli.POLICY_CHOICES] if takes_policy else []
        for base in ("type_b_radar", "wifi_sharing"):
            for i, option in enumerate(options + policies):
                captured.clear()
                out = tmp_path / f"{command}-{base}-{i}"
                try:
                    payload = run_command(load_scenario(base), command, out, **option)
                except ValueError:  # exits 3 or 4: nothing to compare
                    continue
                assert len(captured) == 1
                assert captured[0].raw == payload["config"], (command, base, option)
                compared += 1
    assert compared == 25


@pytest.mark.parametrize("command", ["imax", "protect-single", "throughput"])
def test_an_override_that_makes_a_section_partial_exits_3(tmp_path, capsys, command):
    # wifi_sharing has no mc section: its echo would hold mc: {seed, samples}, no scenario
    out = tmp_path / "o"
    argv = [command, "--config", "wifi_sharing", "--out", str(out)]
    assert main([*argv, "--seed", "7", "--samples", "300"]) == 3
    assert capsys.readouterr().err == "error: mc: 'outer_radius_m' is a required property\n"
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


def test_pd_drop_below_albersheims_domain_exits_3(tmp_path, capsys):
    # at pd 0.9 - 0.89 = 0.01 the Albersheim relation gives no positive SNR
    def set_sweep(cfg):
        cfg["sweeps"]["pd_drop"] = {"values": [0.1, 0.89]}

    config = _variant(tmp_path, "type_b_radar", set_sweep)
    rc = main(["imax", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "sweeps.pd_drop: Albersheim relation gives no positive SNR" in capsys.readouterr().err
    assert not (tmp_path / "o" / "imax_sweep.csv").exists()


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
    assert not out.exists()


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


@pytest.mark.parametrize("command, base", [("protect-multi", "type_b_radar"),
                                           ("throughput", "wifi_sharing")])
def test_main_side_lobe_on_a_constant_pattern_needs_a_lobe_width(tmp_path, capsys, command, base):
    # the default width is the pattern's main lobe; without a width this exited 5 unnamed
    for width, rc in (({}, 3), ({"lobe_width_deg": 10.0}, 0)):
        def constant(cfg):
            cfg["antenna_pattern"] = {"constant_gain_dbi": 0.0}
            cfg["field"] = {"density_per_m2": 1e-6, "activity_prob": 1.0, "outage_max": 0.1}
            cfg["policy"] = {"type": "main-side-lobe", **width}

        config = _variant(tmp_path, base, constant)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == rc
    assert capsys.readouterr().err == (
        "error: policy.lobe_width_deg: a constant pattern has no main lobe to default it to\n"
    )


def test_runs_read_the_roc_pair_the_load_built(tmp_path, monkeypatch):
    # load_scenario builds the detection pair once; detect, imax and imax's
    # pd_drop sweep read that pair rather than building their own
    built = []
    check = RocPoint.__post_init__

    def counted(point):
        built.append(point)
        check(point)

    monkeypatch.setattr(RocPoint, "__post_init__", counted)
    scenario = load_scenario("type_b_radar")
    assert "pd_drop" in scenario.raw["sweeps"]
    run_command(scenario, "detect", tmp_path / "detect")
    run_command(scenario, "imax", tmp_path / "imax")
    assert (tmp_path / "imax" / "imax_sweep.csv").exists()
    assert len(built) == 2


def _fail_optimize_beta_on_second_call(monkeypatch):
    """Make ``protection_multi.optimize_beta`` raise on its second call; returns its calls."""
    solve, calls = protection_multi.optimize_beta, []

    def fail_on_second_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("solver failed on its second call")
        return solve(*args, **kwargs)

    monkeypatch.setattr(protection_multi, "optimize_beta", fail_on_second_call)
    return calls


def test_failed_run_removes_partial_outputs(tmp_path, capsys, monkeypatch):
    # the contour table is formatted before the density sweep runs; a solver
    # that fails on the sweep's first point must fail the run, and neither the
    # table nor the directory for it may reach the disk
    calls = _fail_optimize_beta_on_second_call(monkeypatch)
    out = tmp_path / "out"
    rc = main(["protect-multi", "--config", "type_b_radar", "--out", str(out)])
    assert rc == 5
    assert len(calls) == 2
    assert "solver failed on its second call" in capsys.readouterr().err
    assert not out.exists()

    # failing the same way in an earlier run's directory leaves its files as they were
    assert main(["detect", "--config", "type_b_radar", "--out", str(out)]) == 0
    before = _files(out)
    calls.clear()
    assert main(["protect-multi", "--config", "type_b_radar", "--out", str(out)]) == 5
    assert _files(out) == before


def test_a_failed_rerun_leaves_the_earlier_run_as_it_was(tmp_path, capsys, monkeypatch):
    # the main-side-lobe solve succeeds and the density sweep's first point
    # fails, after the contour table is formatted: no earlier file may change
    out = tmp_path / "out"
    argv = ["protect-multi", "--config", "type_b_radar", "--out", str(out),
            "--policy", "main-side-lobe"]
    assert main(argv) == 0
    before = _files(out)
    assert sorted(before) == ["protect_multi_contour.csv", "protect_multi_sweep.csv",
                              "summary.json"]
    calls = _fail_optimize_beta_on_second_call(monkeypatch)
    assert main(argv) == 5
    assert len(calls) == 2
    assert capsys.readouterr().err == "error: solver failed on its second call\n"
    assert _files(out) == before


def test_failed_run_removes_the_directories_it_made(tmp_path, capsys):
    # validate-mc on a tabulated model fails inside the command, after --out is made
    def tabulate(cfg):
        cfg["pathloss"] = {"type": "tabulated", "samples": [[100.0, -40.0], [1000.0, -70.0]]}

    config = _variant(tmp_path, "type_b_radar", tabulate)
    out = tmp_path / "o2" / "deep"
    assert main(["validate-mc", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: pathloss.type: ")
    assert not (tmp_path / "o2").exists()

    (tmp_path / "o2").mkdir()
    assert main(["validate-mc", "--config", str(config), "--out", str(out)]) == 3
    assert list((tmp_path / "o2").iterdir()) == []


@pytest.mark.parametrize(
    "grid, field",
    [
        ({"values": [1e-6, 1e300]}, "sweeps.density_per_m2.values.1:"),
        ({"values": [1e-6, 1.5]}, "sweeps.density_per_m2.values.1:"),
        ({"start": 2.0, "stop": 3.0, "count": 2}, "sweeps.density_per_m2.start:"),
        ({"start": 1e-6, "stop": 1e300, "count": 2}, "sweeps.density_per_m2.stop:"),
    ],
)
def test_density_sweep_above_one_per_m2_exits_3(tmp_path, capsys, grid, field):
    # bounded like field.density_per_m2; 1e300 exited 5 on an unnamed overflow
    def set_sweep(cfg):
        cfg["sweeps"]["density_per_m2"] = grid

    config = _variant(tmp_path, "type_b_radar", set_sweep)
    out = tmp_path / "o"
    assert main(["protect-multi", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")
    assert "greater than the maximum of 1" in err
    assert not out.exists()


def test_density_sweep_overflow_names_the_sweep(tmp_path, capsys):
    # at alpha 2.1 the scenario's own density solves, but a swept one of
    # 1 per m2 takes the contour scale or its area past the float range
    def mutate(cfg):
        cfg["pathloss"]["alpha"] = 2.1
        cfg["sweeps"]["density_per_m2"] = {"values": [1e-6, 1.0]}

    config = _variant(tmp_path, "type_b_radar", mutate)
    out = tmp_path / "o"
    argv = ["protect-multi", "--config", str(config), "--out", str(out)]
    assert main([*argv, "--policy", "radar-blind"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sweeps.density_per_m2: ")
    assert "at a density of 1.0 per m2" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, base",
    [
        ("protect-single", "type_b_radar"),
        ("protect-multi", "type_b_radar"),
        ("throughput", "wifi_sharing"),
        ("validate-mc", "type_b_radar"),
    ],
)
def test_off_channel_interferer_exits_3(tmp_path, capsys, command, base):
    # the CLI rates only co-channel interferers (an offset one needs an FDR
    # computed from spectra, which only the library API takes), so no formula
    # reads a channel offset and the schema refuses the key on every command
    def offset(cfg):
        cfg["su"]["delta_f_hz"] = 3e7

    config = _variant(tmp_path, base, offset)
    out = tmp_path / "o"
    rc = main([command, "--config", str(config), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: su: Additional properties are not allowed ('delta_f_hz' was unexpected)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "samples, words",
    [
        # the inline forms of a CSV table's faults; each exited 3 naming the
        # whole pathloss object as "not valid under any of the given schemas"
        ([[100.0, math.nan], [1000.0, -70.0]], "pathloss.samples.0.1: nan is not of type 'number'"),
        ([[100.0, -40.0], [math.inf, -70.0]], "pathloss.samples.1.0: inf is not of type 'number'"),
        ([[100.0, -40.0, 1.0], [1000.0, -70.0]], "pathloss.samples.0: [100.0, -40.0, 1.0] is too long"),
        ([[100.0], [1000.0, -70.0]], "pathloss.samples.0: [100.0] is too short"),
        ([[100.0, -40.0]], "pathloss.samples: [[100.0, -40.0]] is too short"),
        ([[0.0, -40.0], [1000.0, -70.0]],
         "pathloss.samples.0.0: 0.0 is less than or equal to the minimum of 0"),
    ],
    ids=["nan-attenuation", "inf-distance", "three-cells", "one-cell", "one-row", "zero-distance"],
)
def test_bad_pathloss_samples_exit_3(tmp_path, capsys, samples, words):
    def tabulate(cfg):
        cfg["pathloss"] = {"type": "tabulated", "samples": samples}

    config = _variant(tmp_path, "type_b_radar", tabulate)
    out = tmp_path / "o"
    assert main(["fit-pathloss", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {words}\n"
    assert not out.exists()


def test_pathloss_csv_path_is_not_a_key(tmp_path, capsys):
    # a tabulated model is given inline; the scenario is the run's only file
    def tabulate(cfg):
        cfg["pathloss"] = {"type": "tabulated", "csv_path": "table.csv"}

    config = _variant(tmp_path, "type_b_radar", tabulate)
    assert main(["fit-pathloss", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "error: pathloss: Additional properties are not allowed ('csv_path' was unexpected)\n"
    )


@pytest.mark.parametrize(
    "command, policy",
    [
        # the first four exited 5 unnamed: "Campbell closed forms require a
        # PowerLawPathLoss (fit tabulated data first)"
        ("protect-multi", "optimal"),
        ("protect-multi", "radar-blind"),
        ("protect-multi", "main-side-lobe"),
        ("throughput", "optimal"),
        ("throughput", "single-user"),
        ("validate-mc", None),
    ],
)
def test_tabulated_pathloss_where_a_power_law_is_needed_exits_3(
    tmp_path, capsys, command, policy
):
    def tabulate(cfg):
        cfg["pathloss"] = {"type": "tabulated", "samples": [[100.0, -40.0], [1000.0, -70.0]]}
        cfg["wifi"] = json.loads(fixture_path("wifi_sharing").read_text())["wifi"]

    config = _variant(tmp_path, "type_b_radar", tabulate)
    out = tmp_path / "o"
    argv = [command, "--config", str(config), "--out", str(out)]
    assert main(argv + ["--policy", policy] * (policy is not None)) == 3
    assert capsys.readouterr().err.startswith("error: pathloss.type: ")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize(
    "path, value, words",
    [
        # each named the whole object as "not valid under any of the given schemas"
        (("mc", "profile"), {"type": "constant", "distance_m": 0.5},
         "mc.profile.distance_m: 0.5 is less than the minimum of 1"),
        (("mc", "profile"), {"type": "optimal", "gamma": 1e-300},
         "mc.profile.gamma: 1e-300 is less than the minimum of 1"),
        (("sweeps", "theta_deg"), {"values": []}, "sweeps.theta_deg.values: [] should be non-empty"),
        (("sweeps", "theta_deg"), {"start": -90.0, "stop": 90.0, "count": 1},
         "sweeps.theta_deg.count: 1 is less than the minimum of 2"),
        (("sweeps", "distance_m"), {"start": 100.0, "stop": 900.0, "count": 3, "spacing": "cubic"},
         "sweeps.distance_m.spacing: 'cubic' is not one of ['linear', 'log']"),
    ],
    ids=["profile-distance", "profile-gamma", "empty-values", "count-1", "cubic-spacing"],
)
def test_one_of_value_error_names_its_key(tmp_path, capsys, path, value, words):
    config = _variant(tmp_path, "type_b_radar", lambda cfg: _set(cfg, path, value))
    out = tmp_path / "o"
    assert main(["validate-mc", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {words}\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("radar", "antenna_efficiency", 0.63),
        ("radar", "antenna_height_m", 8.0),
        ("su", "antenna_height_m", 3.0),
        ("su", "noise_figure_db", 8.0),
        ("radar", "az_beamwidth_deg", 1.3),
    ],
)
def test_key_no_result_reads_exits_3(tmp_path, capsys, section, key, value):
    # the WiFi receiver's noise figure is wifi.rx_noise_figure_db, and no
    # formula reads the others (the azimuth beamwidth fed only a pulses-per-
    # scan count that no command reported), so the schema refuses them
    config = _variant(tmp_path, "type_b_radar", lambda cfg: _set(cfg, (section, key), value))
    rc = main(["detect", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == (
        f"error: {section}: Additional properties are not allowed "
        f"('{key}' was unexpected)\n"
    )


def test_elevation_beamwidth_of_a_full_turn_exits_3(tmp_path, capsys):
    config = _variant(
        tmp_path, "type_b_radar", lambda cfg: _set(cfg, ("radar", "el_beamwidth_deg"), 360.0)
    )
    rc = main(["detect", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: radar.el_beamwidth_deg: ")


@pytest.mark.parametrize(
    "keys, rc, max_range_m",
    [
        ({"el_beamwidth_deg": 4.8}, 0, 313559.518008709),
        ({"scan_solid_angle_sr": 0.5}, 0, 317615.8050422826),
        ({"el_beamwidth_deg": 4.8, "scan_solid_angle_sr": 0.5}, 3, None),
        ({}, 3, None),
    ],
)
def test_one_of_el_beamwidth_or_scan_solid_angle(tmp_path, capsys, keys, rc, max_range_m):
    def radar(cfg):
        del cfg["radar"]["el_beamwidth_deg"]
        cfg["radar"].update(keys)

    out = tmp_path / "o"
    config = _variant(tmp_path, "type_b_radar", radar)
    assert main(["detect", "--config", str(config), "--out", str(out)]) == rc
    if rc:
        assert capsys.readouterr().err == (
            "error: radar.scan_solid_angle_sr: exactly one of el_beamwidth_deg or "
            "scan_solid_angle_sr is required\n"
        )
    else:
        assert _summary(out)["results"]["max_range_baseline_m"] == max_range_m


def _zero_budget(cfg):
    # the degraded point needs more SNR than the baseline gives
    cfg["detection"].pop("baseline_snr_db", None)
    cfg["detection"]["degraded"]["pfa"] = 1e-12
    cfg["field"] = {"density_per_m2": 1e-6, "activity_prob": 1.0, "outage_max": 0.1}


@pytest.mark.parametrize(
    "command, base, policy",
    [
        ("protect-multi", "type_b_radar", "optimal"),
        ("protect-multi", "type_b_radar", "radar-blind"),
        ("protect-multi", "type_b_radar", "main-side-lobe"),
        ("throughput", "wifi_sharing", "optimal"),
    ],
)
def test_zero_interference_budget_exits_3_for_field_policies(
    tmp_path, capsys, command, base, policy
):
    config = _variant(tmp_path, base, _zero_budget)
    out = tmp_path / "o"
    rc = main([command, "--config", str(config), "--out", str(out), "--policy", policy])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: detection.degraded: ")
    assert not out.exists()


def test_zero_interference_budget_keeps_out_everywhere_for_one_user(tmp_path):
    config = _variant(tmp_path, "type_b_radar", _zero_budget)
    out = tmp_path / "o"
    assert main(["protect-single", "--config", str(config), "--out", str(out)]) == 0
    results = _summary(out)["results"]
    assert results["i_max_w"] == 0.0
    assert results["boresight_distance_m"] == "inf"
    _, rows = _csv_rows(out / "protect_single.csv")
    assert {row[2] for row in rows} == {"inf"}


def test_fit_pathloss_reports_a_fit_shallower_than_r2(tmp_path):
    # alpha <= 2 is no model the other commands accept, but it is the fit
    samples = [[d, 10.0 * np.log10(259.0 * d**-1.8)] for d in (100.0, 1000.0, 10000.0)]
    config = _variant(
        tmp_path,
        "type_b_radar",
        lambda cfg: _set(cfg, ("pathloss",), {"type": "tabulated", "samples": samples}),
    )
    out = tmp_path / "out"
    assert main(["fit-pathloss", "--config", str(config), "--out", str(out)]) == 0
    results = _summary(out)["results"]
    assert_allclose(results["alpha"], 1.8, rtol=1e-9)
    assert_allclose(results["k0"], 259.0, rtol=1e-9)


def _set(cfg, path, value):
    *parents, key = path
    for name in parents:
        cfg = cfg.setdefault(name, {})
    cfg[key] = value


@pytest.mark.parametrize(
    "command, base, path, value",
    [
        ("validate-mc", "type_b_radar", ("mc", "seed"), 1e6),
        ("validate-mc", "type_b_radar", ("mc", "samples"), 2e2),
        ("throughput", "wifi_sharing", ("wifi", "n_time_steps"), 1e2),
        ("throughput", "wifi_sharing", ("sweeps", "distance_m", "count"), 5.0),
        ("protect-multi", "type_b_radar", ("sweeps", "density_per_m2", "count"), 3.0),
        ("protect-multi", "type_b_radar", ("policy", "beta_grid"),
         {"start": 1.0, "stop": 16.0, "count": 31.0}),
        ("protect-single", "type_b_radar", ("sweeps", "theta_deg"),
         {"start": -180.0, "stop": 180.0, "count": 37.0}),
        ("imax", "type_b_radar", ("sweeps", "pd_drop"),
         {"start": 0.01, "stop": 0.2, "count": 4.0}),
    ],
)
def test_integral_float_in_integer_field_runs_as_the_int(tmp_path, command, base, path, value):
    # JSON Schema counts 1e6 as an integer; the run must equal the int's,
    # the config echo in summary.json included
    if isinstance(value, dict):
        as_int = dict(value, count=int(value["count"]))
    else:
        as_int = int(value)
    outs = []
    for tag, v in (("float", value), ("int", as_int)):
        config = _variant(tmp_path, base, lambda cfg: _set(cfg, path, v), name=f"{tag}.json")
        out = tmp_path / tag
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        outs.append(out)
    match, mismatch, errors = filecmp.cmpfiles(
        *outs, sorted(p.name for p in outs[1].iterdir()), shallow=False
    )
    assert (mismatch, errors) == ([], []) and len(match) >= 2


@pytest.mark.parametrize(
    "command, base, path, value, field, words",
    [
        ("detect", "type_b_radar", ("radar", "noise_figure_db"), 1e6,
         "radar.noise_figure_db", "is greater than the maximum of 100"),
        ("throughput", "wifi_sharing", ("wifi", "link_loss_db"), 1e300,
         "wifi.link_loss_db", "is greater than the maximum of 3000"),
        ("protect-single", "type_b_radar", ("pathloss",),
         {"type": "tabulated", "samples": [[100.0, -40.0], [1000.0, 4000.0]]},
         "pathloss.samples.1.1", "beyond the float range"),
    ],
)
def test_overflowing_db_field_exits_3(
    tmp_path, capsys, command, base, path, value, field, words
):
    config = _variant(tmp_path, base, lambda cfg: _set(cfg, path, value))
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert words in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, path, value, words",
    [
        # each exited 5 unnamed: a power overflowed ("Numerical result out of
        # range"), a moment underflowed to zero ("float division by zero") or
        # the contour scale left the float range (ScaleNotFinite)
        ("detect", ("target", "range_m"), 1e300, "greater than the maximum of 1000000000.0"),
        ("protect-multi", ("radar", "if_bandwidth_hz"), 1e-300, "less than the minimum of 1"),
        ("protect-multi", ("pathloss", "k0"), 1e300, "greater than the maximum of 1e+50"),
        ("validate-mc", ("pathloss", "k0"), 1e-300, "less than the minimum of 1e-30"),
        ("validate-mc", ("pathloss", "alpha"), 200, "greater than the maximum of 10"),
        ("validate-mc", ("su", "eirp_w"), 1e-300, "less than the minimum of 1e-15"),
        ("protect-multi", ("su", "eirp_w"), 1e-300, "less than the minimum of 1e-15"),
        ("protect-multi", ("su", "eirp_w"), 1e300, "greater than the maximum of 1000000000000.0"),
        ("protect-multi", ("su", "bandwidth_hz"), 1e300,
         "greater than the maximum of 3000000000000.0"),
        ("validate-mc", ("mc", "outer_radius_m"), 1e300, "greater than the maximum of 20000000.0"),
        ("protect-multi", ("field", "density_per_m2"), 1e300, "greater than the maximum of 1"),
        ("protect-multi", ("radar", "ambient_temp_k"), 1e-300, "less than the minimum of 1"),
        # each overflowed a power and exited 0 with "inf" results
        ("protect-multi", ("radar", "noise_figure_db"), 2999.9999999999995,
         "greater than the maximum of 100"),
        ("protect-multi", ("detection", "baseline_snr_db"), 3000, "greater than the maximum of 100"),
        # the 100 dB widths of the noise figures and of the baseline SNR's maximum
        ("detect", ("radar", "system_loss_db"), math.nextafter(100.0, math.inf),
         "100.00000000000001 is greater than the maximum of 100"),
        ("imax", ("detection", "baseline_snr_db"), math.nextafter(-100.0, -math.inf),
         "-100.00000000000001 is less than the minimum of -100"),
        ("validate-mc", ("mc", "profile", "distance_m"), 1e-300, "less than the minimum of 1"),
        # each exited 5 on an overflow, or on an unnamed "float division by zero"
        ("protect-single", ("antenna_pattern", "constant_gain_dbi"), 2999.9999,
         "greater than the maximum of 50"),
        ("validate-mc", ("antenna_pattern", "constant_gain_dbi"), 2999.9999,
         "greater than the maximum of 50"),
        ("protect-multi", ("antenna_pattern", "constant_gain_dbi"), -3000,
         "less than the minimum of -100"),
        ("protect-single", ("antenna_pattern", "constant_gain_dbi"), -1e300,
         "less than the minimum of -100"),
        ("validate-mc", ("antenna_pattern", "constant_gain_dbi"), -1e300,
         "less than the minimum of -100"),
    ],
)
def test_field_beyond_its_physical_range_exits_3(tmp_path, capsys, command, path, value, words):
    config = _variant(tmp_path, "type_b_radar", lambda cfg: _set(cfg, path, value))
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {'.'.join(path)}: ")
    assert words in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, edits",
    [
        ("detect", {("target", "range_m"): 1e9}),
        ("protect-multi", {("radar", "if_bandwidth_hz"): 1.0, ("su", "bandwidth_hz"): 3e12}),
        ("protect-multi", {("pathloss", "k0"): 1e50, ("su", "eirp_w"): 1e12}),
        ("protect-multi", {("pathloss", "k0"): 1e-30, ("su", "eirp_w"): 1e-15}),
        ("validate-mc", {("pathloss", "k0"): 1e-30, ("su", "eirp_w"): 1e-15}),
        ("validate-mc", {("pathloss", "alpha"): 10.0}),
        ("protect-multi", {("field", "density_per_m2"): 1.0, ("radar", "ambient_temp_k"): 1.0}),
        ("protect-multi", {("pathloss", "alpha"): 2.1}),
        ("protect-multi", {("radar", "noise_figure_db"): 100.0}),
        ("protect-multi", {("detection", "baseline_snr_db"): 100.0}),
        ("detect", {("radar", "system_loss_db"): 100.0}),
        ("protect-multi", {("radar", "system_loss_db"): 100.0}),
        ("imax", {("detection", "baseline_snr_db"): -100.0}),
        ("validate-mc", {("mc", "profile", "distance_m"): 1.0}),
        ("validate-mc", {("mc", "profile"): {"type": "optimal", "gamma": 1.0}}),
        ("protect-single", {("antenna_pattern", "constant_gain_dbi"): 50.0}),
        ("protect-single", {("antenna_pattern", "constant_gain_dbi"): -100.0}),
        ("protect-multi", {("antenna_pattern", "constant_gain_dbi"): 50.0,
                           ("policy", "lobe_width_deg"): 10.0}),
        ("protect-multi", {("antenna_pattern", "constant_gain_dbi"): -100.0,
                           ("policy", "lobe_width_deg"): 10.0}),
        ("validate-mc", {("antenna_pattern", "constant_gain_dbi"): 50.0}),
        ("validate-mc", {("antenna_pattern", "constant_gain_dbi"): -100.0}),
    ],
)
def test_fields_at_their_physical_bounds_run(tmp_path, command, edits):
    def mutate(cfg):
        cfg.pop("sweeps")
        for path, value in edits.items():
            _set(cfg, path, value)

    config = _variant(tmp_path, "type_b_radar", mutate)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    assert main([*argv, "--samples", "50"] if command == "validate-mc" else argv) == 0


def test_su_gain_bound_keeps_the_sinr_finite(tmp_path, capsys):
    # near the old 3000 dB maximum the radar's power at the SU overflowed and
    # throughput wrote -inf dB SINR
    def gain(value):
        return _variant(
            tmp_path, "wifi_sharing", lambda cfg: _set(cfg, ("su", "antenna_gain_dbi"), value)
        )

    out = tmp_path / "o"
    assert main(["throughput", "--config", str(gain(40.0)), "--out", str(out)]) == 0
    _, rows = _csv_rows(out / "throughput_trace.csv")
    assert all(math.isfinite(float(row[2])) for row in rows)
    above = gain(math.nextafter(40.0, math.inf))
    assert main(["throughput", "--config", str(above), "--out", str(tmp_path / "o2")]) == 3
    assert capsys.readouterr().err.startswith(
        "error: su.antenna_gain_dbi: 40.00000000000001 is greater than the maximum of 40"
    )


def test_wifi_noise_figure_is_bounded_as_the_radars_is(tmp_path, capsys):
    # a receiver's noise figure is a few dB; 100 dB, radar.noise_figure_db's
    # maximum, still computes with no RuntimeWarning (which fails the run)
    def figure(value):
        return _variant(
            tmp_path, "wifi_sharing",
            lambda cfg: _set(cfg, ("wifi", "rx_noise_figure_db"), value), name=f"{value}.json",
        )

    argv = ["throughput", "--out", str(tmp_path / "o"), "--config"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, str(figure(100))]) == 0
    out = tmp_path / "o2"
    assert main(["throughput", "--config", str(figure(100.5)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: wifi.rx_noise_figure_db: 100.5 is greater than the maximum of 100\n"
    )
    assert not out.exists()


# the fixture runs that exit 0, each reading the radar or the target
FINITE_RUNS = [
    ("detect", "type_b_radar"),
    ("imax", "type_b_radar"),
    ("protect-single", "type_b_radar"),
    ("protect-multi", "type_b_radar"),
    ("validate-mc", "type_b_radar"),
    ("imax", "wifi_sharing"),
    ("protect-single", "wifi_sharing"),
    ("throughput", "wifi_sharing"),
]
NON_FINITE = re.compile(r"(?<![\w.])-?(inf|nan)(?!\w)")


@pytest.mark.parametrize(
    "path, bound, beyond",
    [
        # each computed infinities with exit 0 at 1e+-300 before it had a bound
        (("radar", "tx_power_w"), 1e8, "greater than the maximum of 100000000.0"),
        (("radar", "frequency_hz"), 1e6, "less than the minimum of 1000000.0"),
        (("radar", "frequency_hz"), 3e12, "greater than the maximum of 3000000000000.0"),
        (("radar", "wavelength_m"), 299792458.0 / 3e12,
         "less than the minimum of 9.993081933333333e-05"),
        (("radar", "wavelength_m"), 300.0, "greater than the maximum of 300"),
        (("radar", "scan_time_s"), 3600.0, "greater than the maximum of 3600"),
        (("radar", "ambient_temp_k"), 1e4, "greater than the maximum of 10000.0"),
        (("target", "rcs_m2"), 1e6, "greater than the maximum of 1000000.0"),
    ],
)
def test_radar_fields_stay_finite_up_to_their_physical_bounds(
    tmp_path, capsys, path, bound, beyond
):
    def at(value):
        def mutate(cfg):
            if path[-1] == "wavelength_m":
                del cfg["radar"]["frequency_hz"]
            _set(cfg, path, value)

        return mutate

    for command, base in FINITE_RUNS:
        if path[0] not in json.loads(fixture_path(base).read_text()):
            continue
        config = _variant(tmp_path, base, at(bound))
        out = tmp_path / f"{command}-{base}"
        argv = [command, "--config", str(config), "--out", str(out)]
        assert main([*argv, "--samples", "50"] if command == "validate-mc" else argv) == 0
        for written in out.iterdir():
            assert not NON_FINITE.search(written.read_text()), (command, base, written.name)

    outside = math.nextafter(bound, math.inf if "greater" in beyond else -math.inf)
    config = _variant(tmp_path, "type_b_radar", at(outside))
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {'.'.join(path)}: {outside!r} is ")
    assert beyond in err


@pytest.mark.parametrize("alpha", [2.0001, 2.01, 2.02, 2.05])
@pytest.mark.parametrize(
    "command, base, policy",
    [
        ("protect-multi", "type_b_radar", "optimal"),
        ("protect-multi", "type_b_radar", "radar-blind"),
        ("protect-multi", "type_b_radar", "main-side-lobe"),
        ("throughput", "wifi_sharing", "optimal"),
    ],
)
def test_alpha_near_2_exits_3(tmp_path, capsys, command, base, policy, alpha):
    # the contour scale (a/I_max)^(1/(alpha-2)), or the area it bounds,
    # leaves the float range; these exited 5 unnamed
    def mutate(cfg):
        cfg.pop("sweeps", None)
        cfg["pathloss"]["alpha"] = alpha
        cfg["field"] = {"density_per_m2": 1e-6, "activity_prob": 1.0, "outage_max": 0.1}

    config = _variant(tmp_path, base, mutate)
    out = tmp_path / "o"
    rc = main([command, "--config", str(config), "--out", str(out), "--policy", policy])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: pathloss.alpha: ")
    assert not out.exists()


def test_wifi_section_without_su_distance_exits_3(tmp_path, capsys):
    config = _variant(tmp_path, "wifi_sharing", lambda cfg: cfg["wifi"].pop("su_distance_m"))
    out = tmp_path / "o"
    assert main(["throughput", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: wifi: 'su_distance_m' is a required property\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "radius, words",
    [(1500.0, "must exceed the profile everywhere"), (10000.0, "of the analytic mean")],
)
def test_outer_radius_too_small_exits_3(tmp_path, capsys, radius, words):
    # inside the 2 km contour, or outside it but dropping over 1% of the mean
    config = _variant(
        tmp_path, "type_b_radar", lambda cfg: _set(cfg, ("mc", "outer_radius_m"), radius)
    )
    out = tmp_path / "o"
    assert main(["validate-mc", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: mc.outer_radius_m: ")
    assert words in err
    assert not out.exists()
