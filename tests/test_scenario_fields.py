"""Every number a scenario holds must change some output of some subcommand.

A key that no result reads still has to be written, validated and echoed,
and a reader of the scenario takes it for an input.  Each numeric leaf of
two scenarios merged from the bundled fixtures is moved a little (x1.01, +1
for an int, 1.0 for a zero), and all seven subcommands run in process on the
moved scenario.  On at least one of the two scenarios that holds the key,
some subcommand must then report other results or tables, another exit code
or other error text.
"""

import contextlib
import copy
import io
import json
import shutil

from coexist import cli
from coexist.config import fixture_path

COMMANDS = (
    "detect",
    "imax",
    "protect-single",
    "protect-multi",
    "throughput",
    "validate-mc",
    "fit-pathloss",
)


def _fixture(name):
    return json.loads(fixture_path(name).read_text())


def _scenarios():
    radar, wifi = _fixture("type_b_radar"), _fixture("wifi_sharing")
    small_mc = dict(radar["mc"], samples=50)
    with_wifi = dict(radar, wifi=wifi["wifi"], mc=small_mc)
    with_field = dict(wifi, target=radar["target"], field=radar["field"], mc=small_mc)
    scenarios = {"type_b_radar+wifi": with_wifi, "wifi_sharing+field": with_field}
    for doc in scenarios.values():
        doc.pop("sweeps", None)
    return scenarios


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if type(node) in (int, float):
            yield path
        return
    for key, child in items:
        yield from _numeric_leaves(child, path + (key,))


def _moved(doc, path):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    if type(value) is int:
        node[path[-1]] = value + 1
    else:
        node[path[-1]] = value * 1.01 if value != 0.0 else 1.0
    return doc


def _outputs(doc, tmp_path):
    """(exit code, stderr, results, tables) of every subcommand on ``doc``."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    seen = []
    for command in COMMANDS:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(config), "--out", str(out)])
        results, tables = None, {}
        if code == 0:
            summary = json.loads((out / "summary.json").read_text())
            results = summary["results"]
            tables = {
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.json"
            }
        shutil.rmtree(out, ignore_errors=True)
        seen.append((code, stderr.getvalue(), results, tables))
    return seen


def test_every_numeric_key_changes_an_output(tmp_path):
    present, read = set(), set()
    for doc in _scenarios().values():
        reference = _outputs(doc, tmp_path)
        assert any(code == 0 for code, *_ in reference), reference
        for path in _numeric_leaves(doc):
            key = ".".join(str(part) for part in path)
            present.add(key)
            if key not in read and _outputs(_moved(doc, path), tmp_path) != reference:
                read.add(key)
    unread = sorted(present - read)
    assert not unread, (
        f"moving {unread} changes no output of any subcommand on either "
        "scenario; drop them from the schema, the fixtures and the records"
    )
