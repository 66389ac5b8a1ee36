"""Source hygiene of the package, read with the standard library's `ast`:
no module imports a name it does not use, no module-level private name
goes unused in the package, no function assigns a local it never reads,
and no module imports or reads another module's private name."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "k2forge"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set:
    """Names a module reads: loaded names, attribute names and the names in
    quoted annotations such as "FnElt"."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _imported(tree: ast.Module):
    """(bound name, source line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_imported_name_is_used(module):
    tree = MODULES[module]
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{module}.py imports names it does not use: {', '.join(unused)}"


def _module_private_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_module_level_private_name_is_referenced():
    used = set()
    for tree in MODULES.values():
        used |= _used_names(tree)
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    unreferenced = [f"{module}.{name}" for module, tree in MODULES.items()
                    for name in _module_private_names(tree) if name not in used]
    assert not unreferenced, f"private names nothing in src/ references: {unreferenced}"


def _unread_locals(fn: ast.FunctionDef):
    """Names `fn` binds by a plain `name = ...` that nothing in its body,
    nested functions included, reads; global and nonlocal names are left
    to the scope that owns them."""
    shared = {name for node in ast.walk(fn) if isinstance(node, (ast.Global, ast.Nonlocal))
              for name in node.names}
    stored = {}
    for node in ast.walk(fn):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) and node.value
                   else [])
        for t in targets:
            if isinstance(t, ast.Name) and t.id not in shared:
                stored.setdefault(t.id, t.lineno)
    read = {node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [(name, line) for name, line in stored.items() if name not in read]


def test_no_function_assigns_a_local_it_never_reads():
    unread = [f"{module}.{fn.name}: {name} (line {line})"
              for module, tree in MODULES.items() for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for name, line in _unread_locals(fn)]
    assert not unread, f"locals assigned and never read: {unread}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads_across_modules(tree: ast.Module):
    """(name, line) of each private name of another package module that the
    module imports (`from .records import _x`) or reads as an attribute of a
    name it imports from the package (`records._x`, `FnElt._x`)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("k2forge")):
            for alias in node.names:
                if _is_private(alias.name):
                    yield alias.name, node.lineno
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported and _is_private(node.attr)):
            yield f"{node.value.id}.{node.attr}", node.lineno


@pytest.mark.parametrize("module", list(MODULES))
def test_no_module_reads_another_modules_private_name(module):
    found = [f"{name} (line {line})"
             for name, line in _private_reads_across_modules(MODULES[module])]
    assert not found, f"{module}.py reads private names of other modules: {', '.join(found)}"
