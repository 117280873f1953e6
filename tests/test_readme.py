"""The README's library quick start runs against the package as installed."""

import ast
import re
from pathlib import Path

import coexist

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_imports_resolve_from_coexist(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "expected one python block in the README"
    names = [
        alias.name
        for node in ast.walk(ast.parse(blocks[0]))
        if isinstance(node, ast.ImportFrom) and node.module == "coexist"
        for alias in node.names
    ]
    assert names
    assert set(names) <= set(coexist.__all__)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
