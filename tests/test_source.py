"""Checks on the package source.  Read with the standard ``ast`` module: no
unused import, no private name that nothing reads, and no private name
imported from another module.  On the imported package: every name in
``__all__`` is bound, and listed once."""
from __future__ import annotations

import ast
import pathlib

import simtutor

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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dead_private_names(sources):
    """(module, line, name) of every non-dunder ``_name`` that a module of
    ``sources`` (module -> source) defines as a function, method or class, or
    assigns at module or class level, and that no module reads: a read is a
    loaded ``Name`` or an attribute of that name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)]
                else:
                    continue
                defined += [(module, node.lineno, n) for n in names if _is_private(n)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def private_imports(source):
    """(line, name) of every non-dunder ``_name`` that ``source`` imports from
    another module: a name another module reads is that module's public name."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if _is_private(alias.name))


def test_dead_private_names_are_found():
    source = ("_USED, _DEAD = 1, 2\n__version__ = '1'\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    pass\n"
              "class _Box:\n    _slot: int = 0\n    _kept = 1\n"
              "    def _method(self):\n        return self._kept\n"
              "    def __repr__(self):\n        return ''\n"
              "def main():\n    return _helper(), _Box\n")
    other = "from . import a\na._orphan()\ndef _local():\n    _unused = 3\n"
    assert dead_private_names({"a": source, "b": other}) == [
        ("a", 1, "_DEAD"), ("a", 8, "_slot"), ("a", 10, "_method"), ("b", 3, "_local")]


def test_no_private_name_is_defined_and_never_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\n" \
             "from dataclasses import dataclass, field\nfrom .x import y as z\n" \
             "__all__ = ['z']\n@dataclass\nclass A:\n    pass\nsys.exit()\n"
    assert unused_imports(source) == [(2, "os"), (3, "field")]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
              if (found := unused_imports(path.read_text()))}
    assert unused == {}


def test_private_imports_are_found():
    source = ("from __future__ import annotations\nfrom . import __version__, _hidden\n"
              "from .tutors import (\n    BOX_OPS,\n    _SLOTS as SLOTS,\n)\n"
              "import os.path\nfrom ._impl import run\n")
    assert private_imports(source) == [(2, "_hidden"), (3, "_SLOTS")]


def test_no_module_imports_a_private_name():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := private_imports(path.read_text()))}
    assert found == {}


def test_every_exported_name_is_bound_and_listed_once():
    # The unused-import check counts an ``__all__`` name as used, so a name
    # dropped from the import but left in ``__all__`` is caught only here.
    assert [name for name in simtutor.__all__ if not hasattr(simtutor, name)] == []
    assert len(simtutor.__all__) == len(set(simtutor.__all__))
