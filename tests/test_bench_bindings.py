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
from pathlib import Path

import pytest

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
