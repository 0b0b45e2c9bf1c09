"""The package's public surface: ``nld.__all__`` names each export once,
and every public function or class in ``src/nld`` is used by the package."""

import ast
from pathlib import Path

import nld

PACKAGE = Path(nld.__file__).resolve().parent


def test_all_names_resolve_once():
    assert len(nld.__all__) == len(set(nld.__all__))
    assert [name for name in nld.__all__ if not hasattr(nld, name)] == []
    namespace = {}
    exec("from nld import *", namespace)
    assert set(nld.__all__) <= namespace.keys()


def test_every_public_function_has_a_caller_in_the_package():
    # A name counts as used where code reads it (``f`` or ``module.f``);
    # imports and ``__init__``'s re-exports do not count, nor do the
    # definition's own lines, so a recursive function needs an outside caller.
    definitions, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((node.name, path.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path.name, node.lineno))
    unused = [
        f"{module}:{name}"
        for name, module, first, last in definitions
        if not any(
            used == name and not (where == module and first <= line <= last)
            for used, where, line in uses
        )
    ]
    assert unused == []
