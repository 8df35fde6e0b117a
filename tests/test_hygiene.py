"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import mesogas

SRC = Path(mesogas.__file__).parent


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_used():
    """Each name a module imports is read somewhere in that module.

    ``__init__.py`` is skipped: its imports are the package's re-exports.
    A name used only inside a quoted annotation counts as unused; with
    ``from __future__ import annotations`` no annotation needs quotes.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)
