"""The README's library quick start runs against the package as installed."""

import ast
import re
from pathlib import Path

import coexist

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {p.stem for p in Path(coexist.__file__).parent.glob("*.py")} - {"__init__"}


def test_quick_start_imports_each_name_from_its_module(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "expected one python block in the README"
    imported = [
        node.module
        for node in ast.walk(ast.parse(blocks[0]))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "coexist"
    ]
    assert imported
    # ``from coexist import ...`` names no module: the package re-exports nothing
    assert [module for module in imported if module.partition(".")[2] not in MODULES] == []
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
