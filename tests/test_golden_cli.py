"""The CLI writes the bytes ``tests/golden_cli.json`` recorded for its whole matrix.

``scripts/golden_cli.py`` made the manifest and runs the matrix here: per
argv the exit code, the ``error:`` line and the sha256 of each written file
must be those recorded.  A regeneration is a change to test data.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_cli", ROOT / "scripts" / "golden_cli.py")
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)


def test_the_matrix_is_the_manifests():
    recorded = json.loads(golden_cli.MANIFEST.read_text())["runs"]
    assert list(recorded) == [" ".join(argv) for argv in golden_cli.matrix()]
    assert len(recorded) == 120


def test_every_run_writes_its_recorded_bytes():
    manifest = json.loads(golden_cli.MANIFEST.read_text())
    made_with = {key: manifest[key] for key in ("python", "numpy")}
    running = golden_cli.versions()
    changed = [
        f"{argv}: {entry} != {manifest['runs'][argv]}"
        for argv, entry in golden_cli.digests(golden_cli.matrix()).items()
        if entry != manifest["runs"][argv]
    ]
    note = "" if made_with == running else f" (made with {made_with}, running {running})"
    assert not changed, f"{len(changed)} runs differ{note}:\n" + "\n".join(changed)
