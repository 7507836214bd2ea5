"""Static checks on the package source, read with the standard ``ast`` module."""
from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "simtutor"


def unused_imports(source):
    """(line, name) of every name ``source`` imports and never uses.  A name
    listed in the module's ``__all__`` counts as used; ``__future__`` imports
    bind no name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\n" \
             "from dataclasses import dataclass, field\nfrom .x import y as z\n" \
             "__all__ = ['z']\n@dataclass\nclass A:\n    pass\nsys.exit()\n"
    assert unused_imports(source) == [(2, "os"), (3, "field")]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
              if (found := unused_imports(path.read_text()))}
    assert unused == {}
