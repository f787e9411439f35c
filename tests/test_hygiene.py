"""Source hygiene: no unused imports and no dead definitions in deligne.

Every name a module imports is used there; ``__init__.py`` is exempt
because its imports are the package's exports.  Every module-level
function, class or name assignment (constants and type aliases; dunder
names aside) is either exported through ``deligne.__all__`` or named by
some other statement in the package.  Both scans are syntactic
(``ast``): a name counts as used when it appears as an identifier or an
attribute anywhere, annotations included.
"""

import ast
from pathlib import Path

import pytest

import deligne

SOURCES = sorted(Path(deligne.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def dead_definitions(sources, exported):
    """(module, name) of each module-level def, class or non-dunder name
    assignment in ``sources`` (module name to source text) that
    ``exported`` does not list and that no statement other than its own
    definition names."""
    mentions = {}
    definitions = []
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            where = (module, i)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    mentions.setdefault(node.id, set()).add(where)
                elif isinstance(node, ast.Attribute):
                    mentions.setdefault(node.attr, set()).add(where)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, stmt.name, where))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                definitions.extend(
                    (module, node.id, where)
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name) and not node.id.startswith("__")
                )
    return sorted(
        (module, name)
        for module, name, own in definitions
        if name not in exported and not mentions.get(name, set()) - {own}
    )


def test_dead_scan_sees_unreferenced_definitions():
    sources = {
        "a.py": (
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Hint: pass\n"
            "def _helper(): pass\n"
            "def _dead(): pass\n"
            "class _Dead: pass\n"
            "TABLE = {'h': _helper}\n"
        ),
        "b.py": "from .a import used\nimport a\ndef caller(x: a.Hint): return used()\n",
    }
    assert dead_definitions(sources, {"caller"}) == [
        ("a.py", "TABLE"), ("a.py", "_Dead"), ("a.py", "_dead"), ("a.py", "recursive")
    ]


def test_dead_scan_sees_unreferenced_assignments():
    sources = {
        "a.py": (
            "from typing import Tuple\n"
            "__all__ = ['f']\n"
            "Row = Tuple[int, ...]\n"
            "Vertex = int\n"
            "_LIMIT: int = 4\n"
            "_UNUSED: int = 5\n"
            "LO, HI = 0, 1\n"
            "_CACHE = {}\n"
            "def f(r: Row) -> int: return _LIMIT + HI + len(_CACHE)\n"
        ),
    }
    assert dead_definitions(sources, {"f"}) == [
        ("a.py", "LO"), ("a.py", "Vertex"), ("a.py", "_UNUSED")
    ]


def test_package_has_no_dead_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert dead_definitions(sources, set(deligne.__all__)) == []
