"""Every top-level function and class of ``src/coexist`` is reached from a root.

The library is what a command or an acceptance criterion reaches.  An AST
walk, by name (a loaded name or ``module.name`` that resolves to a
definition through the module's own scope or its package imports), starts
from these roots:

* ``cli.main``, ``cli.run_command`` and ``config.load_scenario``;
* every package name ``tests/test_acceptance.py`` imports;
* every name the benchmark binds: ``test_bench_bindings.BINDINGS`` (the
  tracer's ``SPANNED`` and ``COUNTED``) and the MC backend echo
  ``bench/workload.py`` reads;
* every module-level statement other than a definition.

A reached function or class reaches every name its body, decorators and
annotations load.  ``__init__.py`` is not walked.  What is left
is either deleted or listed in ``ALLOWED`` with its reason.
"""

import ast
from pathlib import Path

from test_bench_bindings import BINDINGS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coexist"
MODULES = {
    p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"
}
ACCEPTANCE = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())

ENTRY_POINTS = [("cli", "main"), ("cli", "run_command"), ("config", "load_scenario")]
BENCH_ECHO = [("_mc_kernels", "resolve_backend"), ("_mc_kernels", "HAS_NUMBA")]
ALLOWED = {
    ("propagation", "gain_linear_rad"): (
        "the scalar reference that test_propagation.py and test_gain_properties.py "
        "check gain_linear_array's wrap against"
    ),
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _package_imports(tree: ast.Module, modules) -> tuple[dict, dict]:
    """Names bound to package definitions, and names bound to package modules."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            path = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "coexist":
            path = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if path is None and alias.name in modules:
                aliases[bound] = alias.name
            elif path is not None:
                names[bound] = (path, alias.name)
    return names, aliases


def unreached(modules: dict, roots) -> list[tuple[str, str]]:
    """The top-level definitions of ``modules`` that no root reaches, sorted."""
    defs = {
        (mod, node.name): node
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, DEFINITION)
    }
    scopes = {mod: _package_imports(tree, modules) for mod, tree in modules.items()}

    def resolve(key):
        seen = set()
        while key not in defs and key not in seen:
            seen.add(key)
            mod, name = key
            if mod not in scopes or name not in scopes[mod][0]:
                return None
            key = scopes[mod][0][name]
        return key if key in defs else None

    def references(mod, node):
        aliases = scopes[mod][1]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve((mod, sub.id))
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in aliases
            ):
                yield resolve((aliases[sub.value.id], sub.attr))

    todo = [resolve(key) for key in roots]
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, DEFINITION):
                todo.extend(references(mod, node))
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        todo.extend(references(key[0], defs[key]))
    return sorted(set(defs) - reached)


def roots() -> list[tuple[str, str]]:
    acceptance, _ = _package_imports(ACCEPTANCE, MODULES)
    return [*ENTRY_POINTS, *acceptance.values(), *BINDINGS, *BENCH_ECHO]


def test_the_walk_follows_names_imports_and_module_statements():
    modules = {
        "a": ast.parse(
            "from .b import g as h\nfrom . import b\n"
            "def root():\n    return h() + b.k()\n"
            "def dead():\n    return b.m()\n"
            "TABLE = {'x': n}\n"
            "def n():\n    pass\n"
        ),
        "b": ast.parse(
            "def g():\n    pass\ndef k():\n    pass\ndef m():\n    pass\n"
            "class Unused:\n    def g(self):\n        return k()\n"
        ),
    }
    assert unreached(modules, [("a", "root")]) == [("a", "dead"), ("b", "Unused"), ("b", "m")]
    assert unreached(modules, [("a", "root"), ("a", "dead")]) == [("b", "Unused")]


def test_every_definition_is_reached_or_allowed():
    flagged = [
        f"{mod}.{name}" for mod, name in unreached(MODULES, roots()) if (mod, name) not in ALLOWED
    ]
    assert not flagged, (
        "reached by no command, acceptance criterion or benchmark: " + ", ".join(flagged)
    )


def test_every_allowed_definition_exists_and_is_unreached():
    assert set(ALLOWED) <= set(unreached(MODULES, roots()))
