"""No module of the package or of the tests imports a name it never uses, and
the package defines no module-level name that it never reads.

A name counts as used when it is read anywhere in the module, or when it is
listed in the module's ``__all__`` (a re-export).  ``from __future__``
imports are compiler directives and are skipped.

A module-level function, class or constant of the package counts as read when
some module of the package reads it, by name or as an attribute; a listing in
``__all__`` or an import does not count.  Dunder names are skipped, and so are
the paper claims of ``test_public_surface``, which no code path reaches yet.
"""

import ast
from pathlib import Path

from test_public_surface import PAPER_CLAIMS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gravshift").rglob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(path):
    tree = _parse(path)
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


def _definitions(tree):
    """(line, name) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_unused_imports():
    assert SOURCES
    assert [hit for path in SOURCES for hit in _unused_imports(path)] == []


def test_every_package_definition_is_read_in_the_package():
    trees = {path: _parse(path) for path in PACKAGE}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in trees.items() for line, name in _definitions(tree)
              if name not in read and name not in PAPER_CLAIMS and not name.startswith("__")]
    assert unread == []
