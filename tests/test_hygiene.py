"""Static checks on the package sources, read with ast and symtable (no
linter needed): every imported name is used, every global name a module
refers to exists, every private function or class is referred to, the
package imports only the standard library and itself, only rootsystem,
which builds its scaled integer matrices through exact rationals, imports
fractions, no module has an assert statement (python -O strips them), every
text-mode open names its encoding, and no module decodes JSON.  The module
doctests run here too, and every function the benchmark's tracer
(bench/tracer.py) wraps must still resolve."""
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


TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def tracerTargets() -> tuple:
    """bench/tracer.py's TARGETS, read as a literal from its source."""
    with open(TRACER, encoding="utf-8") as fh:
        body = ast.parse(fh.read(), filename=TRACER).body
    for node in body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_private_definition_is_referenced():
    """A function or class whose name starts with one underscore is read
    somewhere in the package, as a name, an attribute or an imported name;
    otherwise it is a dead helper."""
    defined, read = [], set()
    for module in MODULES:
        for node in ast.walk(tree(module)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    assert defined
    dead = [d for d in defined if d[2] not in read]
    assert dead == [], f"private definitions never referred to (module, line, name): {dead}"


def test_no_assert_statements():
    """Invariants must hold under python -O, which strips assert statements,
    so the package raises its errors explicitly and has none."""
    found = [(module, node.lineno) for module in MODULES
             for node in ast.walk(tree(module)) if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements (module, line): {found}"


def isOpenCall(node: ast.Call) -> bool:
    """Whether node calls the builtin open or os.fdopen."""
    f = node.func
    return ((isinstance(f, ast.Name) and f.id == "open")
            or (isinstance(f, ast.Attribute) and f.attr == "fdopen"
                and isinstance(f.value, ast.Name) and f.value.id == "os"))


def test_text_mode_opens_name_an_encoding():
    """Every open(...) and os.fdopen(...) whose mode is not a literal with a
    "b" in it passes encoding=, so the bytes of a file do not depend on the
    locale.  A mode that is not a literal counts as text."""
    found = []
    for module in MODULES:
        for node in ast.walk(tree(module)):
            if not (isinstance(node, ast.Call) and isOpenCall(node)):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            binary = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                      and "b" in mode.value)
            if not binary and "encoding" not in keywords and len(node.args) < 4:
                found.append((module, node.lineno))
    assert found == [], f"text-mode opens without encoding= (module, line): {found}"


def test_no_json_decoding():
    """No module calls json.load or json.loads, nor imports either name: the
    package writes JSON and never reads it back, since a cache hit prints the
    stored text as it is."""
    found = []
    for module in MODULES:
        for node in ast.walk(tree(module)):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append((module, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [(module, node.lineno) for a in node.names
                          if a.name in ("load", "loads")]
    assert found == [], f"json decoding (module, line): {found}"


def test_traced_names_resolve():
    """Every (module, owner, attribute) the benchmark's tracer wraps is still
    a callable of the package, so a cleanup cannot delete a name that the
    traced benchmark and its self-check need."""
    targets = tracerTargets()
    assert targets
    missing = []
    for module, owner, attr, _ in targets:
        obj = importlib.import_module(module)
        if owner is not None:
            obj = getattr(obj, owner, None)
        if not callable(getattr(obj, attr, None)):
            missing.append((module, owner, attr))
    assert missing == [], f"traced names that no longer resolve: {missing}"
