"""Source hygiene: every name a deligne module imports is used there.

``__init__.py`` is exempt because its imports are the package's exports.
The scan is syntactic (``ast``): a name counts as used when it appears as
an identifier anywhere in the module, annotations included.
"""

import ast
from pathlib import Path

import pytest

import deligne

MODULES = sorted(
    p for p in Path(deligne.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Dict, List\n"
        "def f(x: List[int]) -> None:\n"
        "    return j.dumps(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Dict")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
