"""No dead code in the package, checked with `ast` alone: every module-level
private name is referenced somewhere outside its own definition, and every
imported name is used by the module that imports it. The package's
`__init__.py` imports only to re-export, so its imports are not checked."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import gpattack

PACKAGE = Path(gpattack.__file__).parent
SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def defined_names(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
    return []


def references(tree):
    """How often each name is read in `tree`: as a bare name, an attribute or
    an imported name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


PACKAGE_REFERENCES = sum((references(tree) for tree in SOURCES.values()), Counter())


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_private_name_is_referenced(module):
    unused = [
        name
        for node in SOURCES[module].body
        for name in defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        # a recursive helper reads its own name, which does not keep it alive
        and PACKAGE_REFERENCES[name] == references(node)[name]
    ]
    assert not unused, f"{module}.py defines private names nothing else uses: {unused}"


@pytest.mark.parametrize("module", sorted(set(SOURCES) - {"__init__"}))
def test_every_import_is_used(module):
    tree = SOURCES[module]
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported if name not in used]
    assert not unused, f"{module}.py imports names it never uses: {unused}"
