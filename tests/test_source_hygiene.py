"""Source hygiene: what a deletion leaves behind in ``src/layerpot``.

Both checks read the source with ``ast`` and import nothing from it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "layerpot"
TREES = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}


def _exported(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _loads(node):
    """How often each name is read under ``node``: as a name, an attribute
    or a name imported from another module."""
    loads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            loads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            loads[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and sub.module != "__future__":
            loads.update(alias.name for alias in sub.names)
    return loads


EXPORTED = set().union(*map(_exported, TREES.values()))
LOADS = sum(map(_loads, TREES.values()), Counter())


def _definitions(tree):
    """Each module-level function, class and assigned name but the dunders,
    with the statement that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used_or_exported(module):
    tree = TREES[module]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used | _exported(tree))
    assert not unused, f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_module_level_name_is_read_somewhere(module):
    unread = sorted(
        f"{name} (line {node.lineno})"
        for name, node in _definitions(TREES[module])
        if name not in EXPORTED and LOADS[name] - _loads(node)[name] <= 0
    )
    assert not unread, f"{module} defines names nothing in src/layerpot reads: {unread}"
