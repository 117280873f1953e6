#!/usr/bin/env python3
"""Regenerate ``tests/golden_cli.json``, the digests of the CLI's written bytes.

For each argv of the matrix (every subcommand x both bundled fixtures x
csv/json x {no option, ``--seed 7 --samples 300``} x no ``--policy`` or,
where the subcommand takes one, each accepted ``--policy``) the manifest
holds the exit code of ``coexist.cli.main`` run in process, its ``error:``
line (null on success) and the sha256 of each file it wrote.  It also
records the Python and numpy versions it was made with, since a float's
last digit may move with either.  ``tests/test_golden_cli.py`` runs the same
matrix and compares.  Run from the repository root:

    PYTHONPATH=src python scripts/golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[1] / "tests" / "golden_cli.json"
FIXTURES = ("type_b_radar", "wifi_sharing")
OPTIONS = ((), ("--seed", "7", "--samples", "300"))


def matrix():
    """Every argv of the matrix, less ``--out``."""
    from coexist import cli

    runs = []
    for command, (_, _, takes_policy) in cli._COMMANDS.items():
        policies = [()] + ([("--policy", p) for p in cli.POLICY_CHOICES] if takes_policy else [])
        for fixture in FIXTURES:
            for fmt in ("csv", "json"):
                for options in OPTIONS:
                    for policy in policies:
                        runs.append(
                            [command, "--config", fixture, "--format", fmt, *options, *policy]
                        )
    return runs


def versions():
    from coexist.numerics import np

    return {"python": platform.python_version(), "numpy": np.__version__}


def digests(argvs):
    """Per argv (joined by spaces): exit code, ``error:`` line and sha256 per written file."""
    from coexist import cli

    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(argvs):
            out = Path(tmp) / str(i)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, "--out", str(out)])
            error = stderr.getvalue()
            if error and not (error.startswith("error: ") and error.count("\n") == 1):
                raise RuntimeError(f"{' '.join(argv)}: stderr is not one error line: {error!r}")
            files = sorted(out.iterdir()) if out.is_dir() else []
            entries[" ".join(argv)] = {
                "exit": code,
                "error": error.rstrip("\n") or None,
                "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
            }
    return entries


def main():
    runs = digests(matrix())
    # one run to a line, so a regeneration's diff names the runs it changed
    lines = [
        f"  {json.dumps(argv)}: {json.dumps(entry, sort_keys=True)}" for argv, entry in runs.items()
    ]
    head = json.dumps(versions(), sort_keys=True)[:-1]
    MANIFEST.write_text(head + ', "runs": {\n' + ",\n".join(lines) + "\n}}\n")
    n_files = sum(len(entry["files"]) for entry in runs.values())
    print(f"wrote {MANIFEST.name}: {len(runs)} runs, {n_files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
