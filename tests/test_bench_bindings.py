"""The library names the benchmark's tracer binds must keep existing.

``bench/tracing.py`` wraps library functions by name when a benchmark run
is traced (``bench/run.py --trace 1``), and ``bench/workload.py`` prints the
MC kernel's backend.  Deleting or renaming one of those names breaks only
traced runs, so this test reads the tracer's tables (the file is loaded,
never changed) and checks every binding against the package.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coexist
from coexist import _mc_kernels
from coexist.propagation import gain_linear_array

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()
BINDINGS = [
    (layer, name)
    for table in (TRACING.SPANNED, TRACING.COUNTED)
    for layer, names in table.items()
    for name in names
]


@pytest.mark.parametrize("layer, name", BINDINGS, ids=[f"{l}.{n}" for l, n in BINDINGS])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"coexist.{layer}")
    assert callable(getattr(module, name, None)), f"coexist.{layer}.{name} is gone"


def test_sample_sums_keeps_the_hooked_parameters():
    params = inspect.signature(_mc_kernels.sample_sums).parameters
    assert {"lam_disk", "n_samples", "dnorm2_tab"} <= set(params)


def test_gain_array_hook_finds_the_azimuths():
    # the tracer reads the azimuth array as the second argument or theta_rad=
    assert list(inspect.signature(gain_linear_array).parameters)[1] == "theta_rad"


def test_backend_echo_names_exist():
    assert _mc_kernels.resolve_backend() == "numpy"
    assert isinstance(_mc_kernels.HAS_NUMBA, bool)


# what bench/workload.py does before it installs the tracer on an MC workload
MC_WORKLOAD_START = """
import json, sys
import coexist, coexist.cli, coexist.config
from coexist import _mc_kernels
scenario = coexist.config.load_scenario("type_b_radar")
coexist.cli.run_command(scenario, "validate-mc", sys.argv[1], samples=200)
print(json.dumps(sorted(sys.modules)))
"""


def test_every_traced_layer_is_in_sys_modules_after_an_mc_run(tmp_path):
    # Tracer.install looks each layer up as sys.modules[f"coexist.{layer}"],
    # and the MC workloads never use wifi_link: a module that a handler
    # imported only when run would break --trace 1 on them
    src = str(Path(coexist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    stdout = subprocess.run(
        [sys.executable, "-c", MC_WORKLOAD_START, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout
    tables = (TRACING.SPANNED, TRACING.COUNTED)
    layers = {f"coexist.{layer}" for table in tables for layer in table}
    assert sorted(layers - set(json.loads(stdout))) == []
