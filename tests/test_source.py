"""Static checks on the package source, stdlib `ast` only."""

import ast
from pathlib import Path

import jamgame

SOURCES = sorted(Path(jamgame.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_module_level_import_is_read():
    assert SOURCES
    assert {path.name: unused_imports(path.read_text()) for path in SOURCES} == {path.name: [] for path in SOURCES}


def test_a_stray_import_is_reported():
    source = "from __future__ import annotations\nimport math\nfrom .network import Edge, apply_actions\nx: Edge = 1\n"
    assert unused_imports(source) == ["math", "apply_actions"]
