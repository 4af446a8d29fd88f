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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s other than dunders, as "module:_name", that no source reads by name or attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{name}" for module, name in defined if name not in read]


def csv_writer_calls(source: str) -> list[str]:
    """Calls of `csv.writer` or `csv.DictWriter`, by attribute or by a name imported from csv, as "line:name"."""
    tree = ast.parse(source)
    names = {"writer", "DictWriter"}
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "csv"
        for alias in node.names
        if alias.name in names
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in names and isinstance(f.value, ast.Name) and f.value.id == "csv":
            found.append((node.lineno, f"csv.{f.attr}"))
        elif isinstance(f, ast.Name) and f.id in imported:
            found.append((node.lineno, f.id))
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_every_module_level_import_is_read():
    assert SOURCES
    assert {path.name: unused_imports(path.read_text()) for path in SOURCES} == {path.name: [] for path in SOURCES}


def test_a_stray_import_is_reported():
    source = "from __future__ import annotations\nimport math\nfrom .network import Edge, apply_actions\nx: Edge = 1\n"
    assert unused_imports(source) == ["math", "apply_actions"]


def test_every_private_module_level_name_is_read_in_the_package():
    # a helper that only tests call has no place in the package
    assert unread_private_names({path.name: path.read_text() for path in SOURCES}) == []


def test_a_stray_private_definition_is_reported():
    sources = {
        "a.py": "_LIMIT = 3\n_a, (_b, c) = 1, (2, 3)\n__all__ = []\ndef _helper():\n    return _LIMIT\nclass _Kept:\n    pass\n",
        "b.py": "from . import a\nx = a._Kept()\n",
    }
    assert unread_private_names(sources) == ["a.py:_a", "a.py:_b", "a.py:_helper"]


def test_no_module_writes_csv_through_the_csv_module():
    # cli._csv_record is the one rule for a CSV record; csv stays for reading
    assert {path.name: csv_writer_calls(path.read_text()) for path in SOURCES} == {path.name: [] for path in SOURCES}


def test_a_stray_csv_writer_is_reported():
    source = (
        "import csv\nfrom csv import DictWriter as W, reader\n"
        "def f(fh):\n    csv.writer(fh).writerow([1, 2])\n    W(fh, ['a']).writeheader()\n"
        "    csv.DictReader(fh)\n    reader(fh)\n"
    )
    assert csv_writer_calls(source) == ["4:csv.writer", "5:W"]
