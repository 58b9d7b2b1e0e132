"""No module of the package or of the tests imports a name it never uses.

A name counts as used when it is read anywhere in the module, or when it is
listed in the module's ``__all__`` (a re-export).  ``from __future__``
imports are compiler directives and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "gravshift").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    assert SOURCES
    assert [hit for path in SOURCES for hit in _unused_imports(path)] == []
