"""Static checks on the package sources, read with ast and symtable (no
linter needed): every imported name is used, every global name a module
refers to exists, the package imports only the standard library and
itself, and only rootsystem, which builds its scaled integer matrices
through exact rationals, imports fractions.  The module doctests run here
too."""
from __future__ import annotations

import ast
import builtins
import doctest
import importlib
import os
import symtable
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "demkit")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def tree(module: str) -> ast.Module:
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module)


def exportedNames(mod: ast.Module) -> set[str]:
    """Strings listed in a module-level __all__: re-exports count as uses."""
    for node in mod.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    mod = tree(module)
    bound = {}
    for node in ast.walk(mod):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(mod) if isinstance(n, ast.Name)}
    used |= exportedNames(mod)
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    assert unused == [], f"{module}: unused imports (line, name) {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_top_level_imports_are_stdlib_or_demkit(module):
    foreign = []
    for node in tree(module).body:
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [n for n in names
                    if n.split(".")[0] not in sys.stdlib_module_names | {"demkit"}]
    assert foreign == [], f"{module}: non-stdlib imports {foreign}"


@pytest.mark.parametrize("module", MODULES)
def test_only_rootsystem_imports_fractions(module):
    found = []
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(node.module)
    assert module == "rootsystem.py" or found == [], f"{module}: imports {found}"


def importModule(module: str):
    return importlib.import_module(
        "demkit" if module == "__init__.py" else "demkit." + module[:-3])


@pytest.mark.parametrize("module", MODULES)
def test_doctests(module):
    failed, _ = doctest.testmod(importModule(module))
    assert failed == 0, f"{module}: {failed} doctest examples failed"


@pytest.mark.parametrize("module", MODULES)
def test_every_global_name_resolves(module):
    """A global name read anywhere in the module, at any nesting depth, is an
    attribute of the imported module or a builtin; a name dropped from an
    import list would otherwise surface as NameError only on the path that
    reads it."""
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        table = symtable.symtable(fh.read(), module, "exec")
    mod = importModule(module)
    missing = set()
    stack = [table]
    while stack:
        t = stack.pop()
        stack.extend(t.get_children())
        for sym in t.get_symbols():
            name = sym.get_name()
            if (sym.is_referenced() and sym.is_global()
                    and not hasattr(mod, name) and not hasattr(builtins, name)):
                missing.add(name)
    assert not missing, f"{module}: unresolved global names {sorted(missing)}"
