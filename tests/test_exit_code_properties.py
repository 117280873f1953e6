"""Every schema-valid or boundary input exits with a documented code.

One or two numeric leaves of ``test_scenario_fields``'s merged scenarios
are set to extreme or boundary values: 1e+-300, subnormals, zero, each
schema bound and its neighbours one ulp either side, or any finite float.
Every subcommand then runs in process, with the Monte Carlo and analytic
work caps lowered so that no draw starts a long run.  The exit code must be
one the README documents (0, 2, 3, 4 or 5), and an exit 3 or 5 must name
the dotted field at fault, unless its message is on ``ALLOWED``.
"""

import contextlib
import io
import json
import math
import re
import shutil
from importlib import resources

from hypothesis import HealthCheck, given, settings, strategies as st

from coexist import _mc_kernels, cli, config
from test_scenario_fields import COMMANDS, _numeric_leaves, _scenarios

SCHEMA = json.loads(resources.files("coexist.schema").joinpath("scenario.json").read_text())
SCENARIOS = _scenarios()
DOCUMENTED = {0, 2, 3, 4, 5}
NAMED = re.compile(r"^error: ([a-z_]+)(\.[a-z_0-9]+)+: ")
ALLOWED = {
    "error: radar: duty cycle pulse_width_s * prf_hz must stay below 1": (
        "a bound on the product of two radar fields; the message names both keys"
    ),
}
EXTREMES = (1e300, -1e300, 1e-300, -1e-300, 5e-324, 1e-310, 0.0)
BOUND_KEYWORDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")


def _schema_nodes(node, path):
    """The schema entries a value at ``path`` below ``node`` is checked against."""
    if "$ref" in node:
        yield from _schema_nodes(SCHEMA["$defs"][node["$ref"].rsplit("/", 1)[-1]], path)
    for branch in node.get("oneOf", ()):
        yield from _schema_nodes(branch, path)
    if not path:
        yield node
    elif isinstance(path[0], int):
        if "items" in node:
            yield from _schema_nodes(node["items"], path[1:])
    elif path[0] in node.get("properties", {}):
        yield from _schema_nodes(node["properties"][path[0]], path[1:])


def _boundary_values(path):
    values = list(EXTREMES)
    for node in _schema_nodes(SCHEMA, path):
        for bound in (float(node[k]) for k in BOUND_KEYWORDS if k in node):
            values += [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
    return values


LEAVES = {name: list(_numeric_leaves(doc)) for name, doc in SCENARIOS.items()}
BOUNDARY = {path: _boundary_values(path) for leaves in LEAVES.values() for path in leaves}


@st.composite
def _mutated(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    doc = json.loads(json.dumps(SCENARIOS[name]))
    paths = draw(st.lists(st.sampled_from(LEAVES[name]), min_size=1, max_size=2, unique=True))
    for path in paths:
        value = draw(
            st.sampled_from(BOUNDARY[path])
            | st.floats(allow_nan=False, allow_infinity=False)
        )
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_mutated())
def test_every_exit_code_is_documented_and_named(doc, tmp_path, monkeypatch):
    monkeypatch.setattr(_mc_kernels, "MAX_DRAWN_POINTS", 200_000)
    monkeypatch.setattr(_mc_kernels, "MAX_SUMS_BYTES", 1 << 16)
    monkeypatch.setattr(config, "MAX_ANALYTIC_WORK", 4096)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for command in COMMANDS:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(scenario), "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)
        message = stderr.getvalue()
        assert code in DOCUMENTED, (command, code, message)
        if code in (3, 5):
            named = NAMED.match(message)
            assert (named and named.group(1) in SCHEMA["properties"]) or (
                message.strip() in ALLOWED
            ), (command, code, message)
