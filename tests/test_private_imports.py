"""No ``src/coexist`` module reaches into another module's private names.

An AST check with two rules:

* no module imports an underscore name from a sibling module;
* each private module is imported only by its owner, the one module whose
  implementation it is (``OWNERS``).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coexist"
FILES = sorted(PACKAGE.glob("*.py"))
OWNERS = {"_schema": "config", "_mc_kernels": "protection_multi"}


def _imports(tree: ast.AST):
    """(package module, imported name or None) for every import from the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "coexist" and len(parts) > 1:
                    yield parts[1], None
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                path = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "coexist":
                path = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if path is None:  # from . import x: x is a module or a package name
                    yield alias.name, None
                else:
                    yield path.split(".")[0], alias.name


def violations(source: str, importer: str) -> list[str]:
    found = []
    for module, name in _imports(ast.parse(source)):
        if name is not None and name.startswith("_"):
            found.append(f"{importer} imports private {name} from {module}")
        if module in OWNERS and OWNERS[module] != importer:
            found.append(f"{importer} imports {module}, which only {OWNERS[module]} may")
    return found


def test_the_check_sees_both_rules():
    assert violations("from .protection_multi import _prefactors\n", "cli") == [
        "cli imports private _prefactors from protection_multi"
    ]
    assert violations("from . import _mc_kernels\n", "cli") == [
        "cli imports _mc_kernels, which only protection_multi may"
    ]
    assert violations("from coexist._schema import Validator\n", "cli") == [
        "cli imports _schema, which only config may"
    ]
    assert violations("from . import _mc_kernels\n", "protection_multi") == []
    assert violations("from .numerics import q_inverse\nimport math\n", "cli") == []


def test_every_private_module_has_an_owner():
    private = {p.stem for p in FILES if p.stem.startswith("_") and p.stem != "__init__"}
    assert private == set(OWNERS)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert violations(path.read_text(), path.stem) == []
