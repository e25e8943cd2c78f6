"""Source hygiene: what a deletion leaves behind in ``src/layerpot`` and
in the README.

The checks read the source with ``ast`` and import nothing from it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "layerpot"
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


def _module_names(path):
    """The names a README may give the module at ``path``: its dotted path
    with and without ``layerpot.``, and its last part."""
    parts = ["layerpot", *path.removesuffix(".py").split("/")]
    if parts[-1] == "__init__":
        parts.pop()
    dotted = ".".join(parts)
    return {dotted, dotted.removeprefix("layerpot."), parts[-1]}


def _bound(tree):
    """Every name ``tree`` binds anywhere: functions, classes, methods,
    assigned names and attributes, imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_readme_names_only_what_src_defines():
    # ROADMAP.md and CHANGES.md are history and may name what is gone
    modules = {name: _bound(tree) for path, tree in TREES.items() for name in _module_names(path)}
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    checked, stale = [], []
    for ref in sorted({m for span in spans for m in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)}):
        module, _, name = ref.rpartition(".")
        if ref in modules or module not in modules or name == "py":
            continue
        checked.append(ref)
        if name not in modules[module]:
            stale.append(ref)
    defined = set().union(*modules.values())
    for name in sorted({m for span in spans for m in re.findall(r"(?<![\w.])_[A-Za-z]\w*", span)}):
        checked.append(name)
        if name not in defined:
            stale.append(name)
    assert checked, "the README names no layerpot module member or private name"
    assert not stale, f"README.md names what src/layerpot does not define: {stale}"


def _pool_constructions(tree):
    """Lines that call ``ThreadPoolExecutor``, by its name, an alias an
    import gave it, or as an attribute (``futures.ThreadPoolExecutor``)."""
    names = {"ThreadPoolExecutor"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "ThreadPoolExecutor" and alias.asname
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id in names)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "ThreadPoolExecutor")
        )
    ]


def test_only_the_runner_builds_a_thread_pool():
    # one place decides how many threads run: ``runner._run_tasks``
    built = {path: lines for path, tree in TREES.items() if (lines := _pool_constructions(tree))}
    assert set(built) == {"harness/runner.py"}, f"ThreadPoolExecutor is built outside harness/runner.py: {built}"
