"""No dead names in `src/regmod`, checked on the syntax tree alone.

Every name a module imports is used in that module (`__init__.py`, which
imports to re-export, is exempt), and every module-level private name
(`_x`) is used somewhere in the package.  A fold that leaves a helper or an
import behind fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import regmod

MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(regmod.__file__).parent.glob("*.py"))}


def _used_names(tree: ast.Module) -> set[str]:
    """Names read in the tree, attribute names included, and names in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


def _bound_by_import(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds (`import a.b` binds `a`)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.partition(".")[0] for alias in node.names]


def _module_level_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += _bound_by_import(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)]
    return names


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(name):
    tree = MODULES[name]
    imported = [bound for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for bound in _bound_by_import(node)]
    assert sorted(set(imported) - _used_names(tree)) == [], name


def test_every_private_module_level_name_is_used():
    used = set().union(*map(_used_names, MODULES.values()))
    private = {(module, name) for module, tree in MODULES.items()
               for name in _module_level_names(tree)
               if name.startswith("_") and not name.startswith("__")}
    assert sorted((module, name) for module, name in private if name not in used) == []
