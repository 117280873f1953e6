"""Property tests: the CLI's writers write what the first, per-value writers did.

The references below are those writers.  A CSV table was formatted one cell
at a time: numpy scalars as their Python values, booleans as
``true``/``false``, floats by ``repr`` and everything else by ``str``.  A
JSON file (``summary.json`` and every JSON table) was ``sanitize`` then
``json.dumps(indent=2, sort_keys=True)``.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coexist import cli  # noqa: E402
from coexist.cli import _OutputTracker  # noqa: E402
from coexist.config import load_scenario  # noqa: E402


def sanitize(obj):
    """Make a payload strictly JSON-safe: no NaN/Inf literals, no numpy types."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return obj


def reference_json(obj):
    return json.dumps(sanitize(obj), indent=2, sort_keys=True) + "\n"


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# values around repr's switch to exponent notation (1e16 and 1e-4), the
# smallest subnormal, signed zero and the non-finite floats
EDGE_FLOATS = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16,
    9999999999999998.0, 1e-5, 1e-4, 0.0001234, -1e16, 1.7976931348623157e308,
]


def _reference_cell(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _written(directory, fmt, columns, data):
    """The text of table ``t`` as ``_OutputTracker`` keeps and then writes it."""
    tracker = _OutputTracker(directory, fmt)
    path = tracker.table("t", columns, data)
    tracker.write()
    return path.read_text()


def _reference(fmt, columns, data):
    rows = list(zip(*data))
    if fmt == "json":
        return reference_json({"columns": list(columns), "rows": rows})
    lines = [",".join(columns)] + [",".join(_reference_cell(v) for v in r) for r in rows]
    return "\n".join(lines) + "\n"


floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
floats32 = st.one_of(st.floats(width=32), st.sampled_from(EDGE_FLOATS[:5] + [1e16, 1e-5]))
scalars = st.one_of(
    floats,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    floats.map(np.float64),
    floats32.map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8),
)
# numpy arrays go through .tolist(); lists and tuples keep their elements
ARRAY_DTYPES = {
    "float64": (floats, np.float64),
    "float32": (floats32, np.float32),
    "int64": (st.integers(min_value=-(2**63), max_value=2**63 - 1), np.int64),
    "bool": (st.booleans(), np.bool_),
}


@st.composite
def column(draw, n_rows):
    kind = draw(st.sampled_from(["floats", "mixed", "array", "tuple"]))
    if kind == "array":
        values, dtype = ARRAY_DTYPES[draw(st.sampled_from(sorted(ARRAY_DTYPES)))]
        return np.array(draw(st.lists(values, min_size=n_rows, max_size=n_rows)), dtype=dtype)
    values = floats if kind == "floats" else scalars
    cells = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
    return tuple(cells) if kind == "tuple" else cells


@st.composite
def tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=12))
    n_cols = draw(st.integers(min_value=1, max_value=5))
    columns = [f"c{j}" for j in range(n_cols)]
    return columns, [draw(column(n_rows)) for _ in range(n_cols)]


@PROPERTY
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_writer_matches_the_per_cell_reference(table, fmt):
    columns, data = table
    with tempfile.TemporaryDirectory() as tmp:
        assert _written(Path(tmp), fmt, columns, data) == _reference(fmt, columns, data)


# strings the encoder escapes: quotes, backslashes, control characters and
# non-ASCII text, a line separator and a character beyond the BMP among them
ESCAPED = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "a"]
)
strings = st.one_of(st.text(max_size=8), st.text(ESCAPED, max_size=8))
leaves = st.one_of(
    floats,
    floats.map(np.float64),
    floats32.map(np.float32),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    strings,
    strings.map(np.str_),
)


def nested(depth):
    """A leaf, or a str-keyed dict, list or tuple of ``nested(depth - 1)``."""
    if depth == 0:
        return leaves
    inner = nested(depth - 1)
    return st.one_of(
        leaves,
        st.dictionaries(strings, inner, max_size=4),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
    )


@PROPERTY
@given(payload=st.dictionaries(strings, nested(3), max_size=4))
def test_summary_matches_the_reference(payload):
    with tempfile.TemporaryDirectory() as tmp:
        tracker = _OutputTracker(Path(tmp), "json")
        path = tracker.summary(payload)
        tracker.write()
        assert path.read_text() == reference_json(payload)


@pytest.mark.parametrize(
    "payload",
    [{"a": object()}, {"a": [np.zeros(2)]}, {"a": {1: 2.0}}],
    ids=["object", "array", "int-key"],
)
def test_summary_refuses_what_it_cannot_write(tmp_path, payload):
    tracker = _OutputTracker(tmp_path, "json")
    with pytest.raises(TypeError):
        tracker.summary(payload)
    assert tracker.files == {}
    assert list(tmp_path.iterdir()) == []


def _bits(value):
    return int(np.array(value, dtype=np.float64).view(np.int64))


# a small pool, so values repeat within a column, as they do in the contour
# tables: signed zeros, NaNs with the sign bit set and with payloads (quiet
# and signalling), infinities and the smallest subnormal, as int64 bit patterns
POOL_BITS = [_bits(v) for v in (0.0, -0.0, 1.5, -1.5, 0.1, 5e-324, np.inf, -np.inf)]
POOL_BITS += [
    _bits(np.nan),
    np.array(0xFFF8000000000000, dtype=np.uint64).view(np.int64).item(),
    0x7FF8000000000123,
    0x7FF0000000000001,
]


def _floats_from_bits(bits):
    return np.array(bits, dtype=np.int64).view(np.float64)


@st.composite
def pooled_tables(draw):
    """Float64 array columns with repeated values, strided (not contiguous) or not."""
    n_rows = draw(st.integers(min_value=0, max_value=12))
    data = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        step = draw(st.sampled_from([1, 2, 3]))
        bits = draw(st.lists(st.sampled_from(POOL_BITS), min_size=n_rows * step,
                             max_size=n_rows * step))
        data.append(_floats_from_bits(bits)[::step])
    return [f"c{j}" for j in range(len(data))], data


@PROPERTY
@given(table=pooled_tables(), fmt=st.sampled_from(["csv", "json"]))
def test_repeated_floats_match_the_per_cell_reference(table, fmt):
    columns, data = table
    with tempfile.TemporaryDirectory() as tmp:
        assert _written(Path(tmp), fmt, columns, data) == _reference(fmt, columns, data)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "column",
    [
        np.array([], dtype=np.float64),
        np.array([-0.0]),
        _floats_from_bits(POOL_BITS[-3:-2]),
        np.array([0.0, -0.0, 0.0, -0.0])[::2],
        np.array([0.0, -0.0, 0.0, -0.0])[1::2],
        np.array([[0.0, -0.0], [-0.0, 0.0]])[:, 1],
    ],
    ids=["zero-rows", "one-row", "one-nan", "strided", "strided-odd", "2d-column"],
)
def test_short_and_strided_float_columns(tmp_path, fmt, column):
    assert _written(tmp_path, fmt, ("a",), (column,)) == _reference(fmt, ("a",), (column,))


def test_signed_zeros_stay_apart(tmp_path):
    column = np.array([0.0, -0.0, 0.0, -0.0])
    assert _written(tmp_path, "csv", ("a",), (column,)) == "a\n0.0\n-0.0\n0.0\n-0.0\n"


def test_writer_refuses_ragged_tables(tmp_path):
    tracker = _OutputTracker(tmp_path, "csv")
    with pytest.raises(ValueError, match="2 columns, 1 given"):
        tracker.table("t", ("a", "b"), ([1.0],))
    with pytest.raises(ValueError, match="differ in length"):
        tracker.table("t", ("a", "b"), ([1.0], [1.0, 2.0]))
    assert tracker.files == {}


def _float_table(path):
    """Header and float columns of a CSV table whose cells are all floats."""
    header, *lines = path.read_text().splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    return header.split(","), [list(column) for column in zip(*rows)]


@pytest.mark.parametrize(
    "command, policy, table",
    [
        ("protect-single", None, "protect_single"),
        ("protect-multi", "optimal", "protect_multi_contour"),
        ("protect-multi", "radar-blind", "protect_multi_contour"),
        ("protect-multi", "main-side-lobe", "protect_multi_contour"),
    ],
)
def test_azimuth_grid_text_is_built_once_and_read_back(tmp_path, command, policy, table):
    scenario = load_scenario("type_b_radar")
    cli._azimuth_grid_text.cache_clear()
    texts = []
    for run in ("first", "second"):
        cli.run_command(scenario, command, tmp_path / run, policy=policy)
        texts.append((tmp_path / run / f"{table}.csv").read_text())
    info = cli._azimuth_grid_text.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert texts[0] == texts[1]
    columns, data = _float_table(tmp_path / "first" / f"{table}.csv")
    assert data[0] == cli.azimuth_grid_deg().tolist()
    assert texts[0] == _reference("csv", columns, data)

    cli.run_command(scenario, command, tmp_path / "json", fmt="json", policy=policy)
    payload = json.loads((tmp_path / "json" / f"{table}.json").read_text())
    assert [row[0] for row in payload["rows"]] == cli.azimuth_grid_deg().tolist()
    assert [row[1:] for row in payload["rows"]] == [list(row[1:]) for row in zip(*data)]


def test_azimuth_grid_is_read_only():
    grid = cli.azimuth_grid_deg()
    assert cli.azimuth_grid_deg() is grid
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.0
    assert grid[0] == -180.0


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


# every subcommand that runs on a bundled fixture (the others exit 4 before
# writing), with its tables in both formats
WRITING_RUNS = [
    (command, fixture, fmt)
    for command, fixture in [
        ("detect", "type_b_radar"), ("imax", "type_b_radar"),
        ("protect-single", "type_b_radar"), ("protect-single", "wifi_sharing"),
        ("protect-multi", "type_b_radar"), ("throughput", "wifi_sharing"),
        ("validate-mc", "type_b_radar"),
    ]
    for fmt in ("csv", "json")
]


@pytest.mark.parametrize("command, fixture, fmt", WRITING_RUNS)
def test_short_writes_still_write_every_byte(tmp_path, monkeypatch, command, fixture, fmt):
    # os.write may write fewer bytes than it was given; the writer must go on
    scenario = load_scenario(fixture)
    samples = 50 if command == "validate-mc" else None
    cli.run_command(scenario, command, tmp_path / "whole", fmt=fmt, samples=samples)
    real_write, calls = cli.os.write, []

    def one_byte(fd, data):
        calls.append(fd)
        return real_write(fd, bytes(data[:1]))

    monkeypatch.setattr(cli.os, "write", one_byte)
    cli.run_command(scenario, command, tmp_path / "short", fmt=fmt, samples=samples)
    monkeypatch.undo()
    expected = _files(tmp_path / "whole")
    assert _files(tmp_path / "short") == expected
    assert len(calls) == sum(map(len, expected.values()))


def test_a_handler_failing_after_its_table_leaves_no_file(tmp_path, monkeypatch):
    # nor the --out directory: nothing is written before the handler returns
    handler, *rest = cli._COMMANDS["protect-single"]

    def fails_after_its_table(scenario, tracker):
        handler(scenario, tracker)
        assert [path.name for path in tracker.files] == ["protect_single.csv"]
        raise RuntimeError("failed after the table was formatted")

    monkeypatch.setitem(cli._COMMANDS, "protect-single", (fails_after_its_table, *rest))
    with pytest.raises(RuntimeError, match="after the table"):
        cli.run_command(load_scenario("type_b_radar"), "protect-single", tmp_path / "o")
    assert list(tmp_path.iterdir()) == []


def test_a_write_failing_part_way_leaves_no_file(tmp_path, monkeypatch):
    # the file a failed write cut short is removed with the rest
    real_write, calls = cli.os.write, []

    def fails_on_second_call(fd, data):
        calls.append(fd)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return real_write(fd, bytes(data[:100]))

    monkeypatch.setattr(cli.os, "write", fails_on_second_call)
    with pytest.raises(OSError, match="No space left"):
        cli.run_command(load_scenario("type_b_radar"), "protect-single", tmp_path)
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []
