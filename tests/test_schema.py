"""The compiled scenario validator against jsonschema as the oracle.

``coexist._schema`` replaces jsonschema at run time.  Here jsonschema's
Draft 2020-12 validator, with the same finite-number rule, checks that the
compiled validator accepts and rejects the same documents and reports the
same errors, worded the same way, in the same order: on mutated scenarios,
on arbitrary JSON, on every scenario input the other test files use, and on
a small schema with the keyword forms the scenario schema leaves out.
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import coexist  # noqa: E402
from coexist import _schema, config  # noqa: E402
from coexist._schema import SchemaError, compile_schema, integer_paths  # noqa: E402
from coexist.config import ValidationError, check_field, fixture_path, load_scenario  # noqa: E402
from test_config import MINIMAL  # noqa: E402

SCHEMA = config._load_schema()
_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER


def _finite_number(checker, x):
    if not _TYPES.is_type(x, "number"):
        return False
    if isinstance(x, int):
        return abs(x) <= sys.float_info.max  # math.isfinite would overflow
    return math.isfinite(x)


Oracle = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_TYPES.redefine("number", _finite_number),
)
ORACLE = Oracle(SCHEMA)
COMPILED = config._validator()


def _oracle_errors(validator, instance):
    return [(tuple(e.absolute_path), e.message) for e in validator.iter_errors(instance)]


def _oracle_first(validator, instance):
    errors = sorted(_oracle_errors(validator, instance), key=lambda e: list(e[0]))
    return errors[0] if errors else None


def assert_agrees(doc, compiled=COMPILED, oracle=ORACLE):
    """Same errors in the same order, and the same first error by path."""
    expected = _oracle_errors(oracle, doc)
    assert list(compiled.iter_errors(doc)) == expected
    assert compiled.is_valid(doc) == (not expected)
    assert compiled.first_error(doc) == _oracle_first(oracle, doc)


def _fixture(name):
    return json.loads(fixture_path(name).read_text())


def _bases():
    """Valid documents that between them take every oneOf branch."""
    radar = _fixture("type_b_radar")
    tabulated = copy.deepcopy(radar)
    tabulated["pathloss"] = {
        "type": "tabulated",
        "samples": [[100.0, -40.0], [1000.0, -70.0], [10000.0, -100.0]],
    }
    tabulated["policy"] = {
        "type": "main-side-lobe",
        "beta": 2.0,
        "beta_grid": {"values": [1.0, 2.0, 4.0]},
        "lobe_width_deg": 10.0,
    }
    tabulated["sweeps"]["theta_deg"] = {"start": -180.0, "stop": 180.0, "count": 5}
    tabulated["mc"]["profile"] = {"type": "optimal", "gamma": 500.0}
    constant = copy.deepcopy(_fixture("wifi_sharing"))
    constant["pathloss"] = {"type": "tabulated", "samples": [[50.0, -30.0], [5000.0, -90.0]]}
    constant["antenna_pattern"] = {"constant_gain_dbi": 0.0}
    constant["policy"]["beta_grid"] = {"start": 1.0, "stop": 8.0, "count": 4, "spacing": "linear"}
    constant["sweeps"]["distance_m"] = {"values": [500.0, 1000.0]}
    return [radar, _fixture("wifi_sharing"), tabulated, constant, copy.deepcopy(MINIMAL)]


BASES = _bases()


def _schema_words(node, keys, strings):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "properties":
                keys.update(value)
            elif key == "enum":
                strings.update(value)
            elif key == "const":
                strings.add(value)
            _schema_words(value, keys, strings)
    elif isinstance(node, list):
        for value in node:
            _schema_words(value, keys, strings)


_KEYS, _STRINGS = set(), set()
_schema_words(SCHEMA, _KEYS, _STRINGS)

numbers = st.one_of(
    st.sampled_from(
        [0, -0.0, 1, -1, 0.5, 1.0, 2, 2.0, 3, 3.0, 8, 0.5 - 1e-12, 180, 180.5, -180,
         -200.0, 1e-6, -1e-6, 1e300, -1e300, 10**400, -(10**400)]
    ),
    st.integers(-20, 20),
    st.floats(allow_nan=True, allow_infinity=True),
)
scalars = st.one_of(
    st.none(), st.booleans(), numbers, st.text(max_size=3), st.sampled_from(sorted(_STRINGS))
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(sorted(_KEYS)) | st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=8,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = _at(doc, path)
        kind = draw(st.sampled_from(["number", "replace", "delete", "add"]))
        if kind == "number" and path:
            _at(doc, path[:-1])[path[-1]] = draw(numbers)
        elif kind == "replace" and path:
            _at(doc, path[:-1])[path[-1]] = draw(json_values)
        elif kind == "delete" and path:
            del _at(doc, path[:-1])[path[-1]]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(sorted(_KEYS)) | st.text(max_size=3))] = draw(json_values)
        elif isinstance(node, list):
            node.append(draw(json_values))
    return doc


def test_bases_are_valid():
    for doc in BASES:
        assert_agrees(doc)
        assert COMPILED.is_valid(doc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents())
def test_agrees_with_jsonschema_on_mutated_scenarios(doc):
    assert_agrees(doc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=json_values)
def test_agrees_with_jsonschema_on_arbitrary_json(doc):
    assert_agrees(doc)


# keyword forms the scenario schema does not exercise: overlapping oneOf
# branches, items after prefixItems, zero and non-unit length limits
SYNTHETIC = {
    "properties": {
        "a": {"oneOf": [{"type": "number"}, {"type": "integer"}, {"minimum": 0}]},
        "s": {"type": "string"},
        "e": {"maxItems": 0},
        "m": {"minItems": 2, "maxItems": 3},
        "n": {"minItems": 1},
    },
    "prefixItems": [{"const": "x"}, {"enum": ["y", "z"]}],
    "items": {"type": "number", "maximum": 5, "exclusiveMaximum": 3},
}


_synthetic_leaves = st.recursive(
    scalars | st.sampled_from(["x", "y", "ab"]),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)
synthetic_values = st.one_of(
    st.fixed_dictionaries({}, optional=dict.fromkeys("asemnb", _synthetic_leaves)),
    st.lists(_synthetic_leaves, max_size=5),
    scalars,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=synthetic_values)
@example(doc=["x", "y", 1, 2.5])  # valid: items start after prefixItems
@example(doc={"a": 3, "n": [], "e": [1], "s": "a"})  # three oneOf matches
@example(doc={"a": -1.5, "n": ""})
def test_agrees_with_jsonschema_on_other_keyword_forms(doc):
    assert_agrees(doc, compile_schema(SYNTHETIC), Oracle(SYNTHETIC))


def _set(doc, dotted, value):
    *head, last = dotted.split(".")
    node = doc
    for key in head:
        node = node.setdefault(key, {})
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value


_DELETE = object()
_GRIDS = [  # the grids of tests/test_cli.py
    {"values": [1.0, 3.0, 2.0]},
    {"start": 4.0, "stop": 2.0, "count": 5},
    {"values": [1.0, 2.0]},
    {"start": 1.0, "stop": 8.0, "count": 2},
    {"values": [0.5, 2.0, 3.0]},
    {"start": 0.5, "stop": 8.0, "count": 5},
]
# every scenario input the other test files hand the loader, as
# (base document, [(dotted path, value or _DELETE), ...])
TESTED_INPUTS = [
    (MINIMAL, [("radar.transmit_power_w", 1.0)]),
    (MINIMAL, [("turbo", True)]),
    (MINIMAL, [("radar.tx_power_w", -5.0)]),
    (MINIMAL, [("pathloss", _DELETE)]),
    (MINIMAL, [("radar.wavelength_m", 0.107)]),
    (MINIMAL, [("radar.frequency_hz", _DELETE)]),
    (MINIMAL, [("pathloss", {"type": "power_law", "k0": 259.0, "alpha": 2.0})]),
    ("type_b_radar", [("radar.tx_power_w", -5.0)]),
    ("type_b_radar", [("field.density_per_m2", math.inf)]),
    ("type_b_radar", [("field.density_per_m2", -math.inf)]),
    ("type_b_radar", [("field.density_per_m2", math.nan)]),
    *[("type_b_radar", [("policy", {"type": "main-side-lobe", "beta_grid": g})]) for g in _GRIDS],
    ("type_b_radar", [("sweeps.theta_deg", {"values": [0.0, 190.0]})]),
    ("type_b_radar", [("sweeps.theta_deg", {"start": -200.0, "stop": 0.0, "count": 5})]),
    ("type_b_radar", [("sweeps.theta_deg", {"start": 0.0, "stop": 180.5, "count": 5})]),
    ("type_b_radar", [("sweeps.pd_drop", {"values": [0.01, 0.95]})]),
    ("type_b_radar", [("sweeps.pd_drop", {"values": [-0.2, 0.1]})]),
    ("type_b_radar", [("mc.backend", "numpy")]),
    ("type_b_radar", [("radar.tx_powr_w", 1.0)]),
    ("type_b_radar", [("sweeps.density_per_m2", {"values": [1e-6, 1e300]})]),
    ("wifi_sharing", [("sweeps.distance_m", {"values": [-100.0, 5000.0]})]),
    ("type_b_radar", [("sweeps.distance_m", {"start": 0.0, "stop": 5000.0, "count": 3})]),
    ("type_b_radar", [("sweeps.density_per_m2", {"values": [-1e-6, 1e-6]})]),
    ("type_b_radar", [("sweeps.density_per_m2", {"start": -1e-6, "stop": 1e-6, "count": 3})]),
    ("type_b_radar", [("sweeps.beta", {"values": [1.0, 2.0, 4.0]})]),
    *[("type_b_radar", [("pathloss", {"type": "tabulated", "samples": rows})]) for rows in (
        [[100.0, math.nan], [1000.0, -70.0]],
        [[100.0, -40.0], [math.inf, -70.0]],
        [[100.0, -40.0, 1.0], [1000.0, -70.0]],
        [[100.0], [1000.0, -70.0]],
        [[100.0, -40.0]],
        [[0.0, -40.0], [1000.0, -70.0]],
    )],
    ("type_b_radar", [("pathloss", {"type": "tabulated", "csv_path": "table.csv"})]),
    ("type_b_radar", [("mc.profile", {"type": "constant", "distance_m": 0.5})]),
    ("type_b_radar", [("mc.profile", {"type": "optimal", "gamma": 1e-300})]),
    ("type_b_radar", [("sweeps.theta_deg", {"values": []})]),
    ("type_b_radar", [("sweeps.theta_deg", {"start": -90.0, "stop": 90.0, "count": 1})]),
    ("type_b_radar", [("sweeps.distance_m", {"start": 1.0, "stop": 9.0, "count": 3,
                                              "spacing": "cubic"})]),
    ("type_b_radar", [("antenna_pattern.constant_gain_dbi", 2999.9999)]),
    ("type_b_radar", [("antenna_pattern.constant_gain_dbi", -1e300)]),
]


@pytest.mark.parametrize("base, edits", TESTED_INPUTS)
def test_agrees_on_every_tested_input(base, edits):
    doc = copy.deepcopy(base) if isinstance(base, dict) else _fixture(base)
    for dotted, value in edits:
        _set(doc, dotted, value)
    assert_agrees(doc)


@pytest.mark.parametrize(
    "path, value", [("mc.samples", 0), ("mc.samples", -3), ("mc.seed", -1), ("mc.seed", 7),
                    ("mc.samples", 2.5), ("mc.seed", True), ("mc.samples", "9")],
)
def test_check_field_agrees(path, value):
    node = SCHEMA
    for key in path.split("."):
        node = node["properties"][key]
    first = next(iter(_oracle_errors(Oracle(node), value)), None)
    if first is None:
        check_field(path, value)
    else:
        with pytest.raises(ValidationError) as err:
            check_field(path, value)
        assert str(err.value) == f"{path}: {first[1]}"


def test_integer_beyond_float_range_is_not_a_number(tmp_path):
    # json.loads keeps a 400-digit literal as an int that no float holds
    doc = _fixture("type_b_radar")
    doc["radar"]["tx_power_w"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert str(err.value).startswith("radar.tx_power_w: 1000")
    assert str(err.value).endswith(" is not of type 'number'")


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"minLength": 1},
        {"anyOf": [{"type": "string"}]},
        {"properties": {"x": {"type": "number", "multipleOf": 2}}},
        {"additionalProperties": {"type": "number"}},
        {"items": False},
        {"$ref": "other.json#/x"},
        {"$ref": "#/$defs/missing"},
        {"enum": [1, 2]},
        {"type": "decimal"},
        {"type": ["string", "number"]},
        {"description": "annotations outside the schema's own are refused too"},
    ],
)
def test_unsupported_schema_raises_when_compiled(schema):
    with pytest.raises(SchemaError):
        compile_schema(schema)


def test_loading_never_imports_jsonschema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"radar": {"tx_power_w": -1.0}}))
    src = str(Path(coexist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, coexist.cli\n"
        "from coexist.config import ValidationError, load_scenario\n"
        "load_scenario('type_b_radar'); load_scenario('wifi_sharing')\n"
        "try:\n"
        f"    load_scenario({str(bad)!r})\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n"
        "print('jsonschema' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["<root>: 'su' is a required property", "False"]


def test_integer_paths_of_the_scenario_schema():
    # every field the loader turns from an integral float into an int
    assert sorted(integer_paths(SCHEMA), key=str) == sorted(
        [("mc", "samples"), ("mc", "seed"), ("wifi", "n_time_steps"),
         ("policy", "beta_grid", "count")]
        + [("sweeps", name, "count") for name in ("theta_deg", "distance_m", "density_per_m2", "pd_drop")],
        key=str,
    )
    # through a $ref and both oneOf branches, each path once
    schema = {
        "properties": {"a": {"$ref": "#/$defs/n"}},
        "$defs": {"n": {"oneOf": [{"properties": {"k": {"type": "integer"}}},
                                  {"properties": {"k": {"type": "integer"}}}]}},
    }
    assert integer_paths(schema) == [("a", "k")]


def _numeric_leaves(node, path=()):
    """(dotted path, node) of every schema node compiled to one fused predicate."""
    if isinstance(node, dict):
        if _schema._numeric_leaf(node) is not None:
            yield ".".join(map(str, path)) or "<root>", node
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_leaves(value, path + (index,))


# bound forms the scenario schema leaves out: both lower bounds at once,
# exclusive bounds on integers, non-integral bounds, a bound on an integer
# beyond 2**53 and bounds at the ends of the float range
SYNTHETIC_LEAVES = [
    {"type": "number", "minimum": 1, "exclusiveMinimum": 1},
    {"type": "number", "minimum": 2.5, "exclusiveMinimum": 1, "exclusiveMaximum": 3},
    {"type": "integer", "exclusiveMinimum": 2.5, "maximum": 7.5},
    {"type": "integer", "minimum": -3, "exclusiveMaximum": 2**60},
    {"type": "number", "exclusiveMinimum": 1e16},
    {"exclusiveMinimum": -1.7976931348623157e308, "maximum": 1.7976931348623157e308},
    {"minimum": 0.0, "exclusiveMaximum": 5e-324},
]
LEAVES = list(_numeric_leaves(SCHEMA)) + [(f"synthetic{i}", n) for i, n in enumerate(SYNTHETIC_LEAVES)]


def _edge_values(node):
    """Each bound and its neighbours (1 ulp, and 1 for integral bounds) and the specials."""
    values = [0, 0.0, -0.0, math.nan, math.inf, -math.inf, True, False, 2**1024, -(2**1024),
              None, "1", 1.5, 3]
    for keyword in _schema._BOUNDS:
        if keyword in node:
            bound = float(node[keyword])
            values += [bound, math.nextafter(bound, math.inf), math.nextafter(bound, -math.inf)]
            if bound.is_integer():
                values += [int(bound) + step for step in (-1, 0, 1)]
                values += [float(int(bound) + step) for step in (-1, 1)]
    return values


def test_numeric_leaves_are_fused():
    # every numeric field of the scenario with a bound, and the synthetic forms
    assert len(LEAVES) >= 40
    for _, node in LEAVES:
        assert _schema._numeric_leaf(node) is not None


@pytest.mark.parametrize("node", [n for _, n in LEAVES], ids=[p for p, _ in LEAVES])
def test_fused_leaf_agrees_with_jsonschema_at_its_edges(node):
    compiled, oracle = compile_schema(node), Oracle(node)
    for value in _edge_values(node):
        assert_agrees(value, compiled, oracle)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    leaf=st.sampled_from([n for _, n in LEAVES]),
    value=st.one_of(
        st.floats(), st.integers(), st.integers(-(2**1100), 2**1100), st.booleans(),
        st.floats().filter(math.isfinite).map(lambda x: float(round(x))),
    ),
)
def test_fused_leaf_agrees_with_jsonschema(leaf, value):
    assert_agrees(value, compile_schema(leaf), Oracle(leaf))

